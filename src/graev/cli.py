"""Command-line surface: exact norms and distances, match enumeration,
truncation, separating levels, and the verification suites.

Exit codes: 0 success (and all verification cases passed), 1 at least one
verification case failed, 2 usage or parse errors, 3 resource-limit errors,
4 an internal invariant violation (a bug, never a property of the input).
All numeric output is exact "p/q".
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .errors import ResourceLimitError, text_lines
from .freegroup import (
    Letter,
    Point,
    Rat,
    ReducedWord,
    Word,
    WordSyntaxError,
    format_rat,
    format_word,
    invert,
    multiply,
    parse_word,
    reduce_word,
)
from .graevmetric import graev_norm_bruteforce, graev_norm_dp
from .matching import check_enumeration_cap, count_matches, enumerate_matches
from .sampling import exhaustive_reduced_words, sample_corpus, sample_distinct_pairs
from .scales import (
    Scale,
    TRIVIAL_SCALE,
    check_scale_axioms,
    load_scale_file,
    norm_bounds,
    norm_theta_min,
    weighted_scale,
)
from .tower import (
    check_bound_digits,
    check_discreteness,
    check_extension_conditions,
    check_level,
    check_lipschitz,
    project_word,
    separating_level,
)


def parse_corpus(path: str, max_depth: int | None = None) -> list[ReducedWord]:
    """The words of the file at path, one per line of errors.text_lines'
    format, each parsed and reduced; an empty file is a valid empty corpus.
    Errors start "<path>:<line>:", and a reduced word deeper than max_depth
    is one."""
    words: list[ReducedWord] = []
    for where, content in text_lines(path):  # content keeps its leading blanks, for columns
        try:
            w = reduce_word(parse_word(content))
        except WordSyntaxError as exc:
            raise ValueError(f"{where}: {exc}") from None
        except ResourceLimitError as exc:
            raise ResourceLimitError(f"{where}: {exc}") from None
        if max_depth is not None and w.max_depth > max_depth:
            raise ValueError(
                f"{where}: corpus word {format_word(w)} has depth {w.max_depth} > "
                f"level {max_depth}"
            )
        words.append(w)
    return words


def _resolve_scale(name: str) -> Scale:
    if name == "trivial":
        return TRIVIAL_SCALE
    if name == "weighted":
        return weighted_scale()
    if name.startswith("file:"):
        return load_scale_file(name[len("file:") :])
    raise ValueError(f"unknown scale {name!r}; use trivial, weighted, or file:<path>")


def _default_points(level: int) -> list[Point]:
    if level == 0:
        return [Point(())]
    return [Point(()), Point((1,)), Point((0,) * (level - 1) + (2,))]


def _probe_letters() -> list[Letter]:
    return [Letter(s, Point(c)) for c in ((), (1,), (1, 2), (0, 0, 3)) for s in (1, -1)]


_DEFAULT_R_GRID = (Rat(0), Rat(1, 4), Rat(1, 2), Rat(1), Rat(2))
_DEFAULT_EPS_TAIL = (Rat(1, 64), Rat(1, 256))


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _cmd_norm(args: argparse.Namespace) -> int:
    if args.budget is not None and args.scale is None:
        raise ValueError("--budget needs --scale")
    w = parse_word(args.word)
    rw = reduce_word(w)
    if args.scale is None:
        if args.bruteforce:
            result = graev_norm_bruteforce(rw)
        else:
            result = norm_theta_min(rw, TRIVIAL_SCALE)
        value, witness = result.value, result.witness
        if args.json:
            print(
                json.dumps(
                    {
                        "value": format_rat(value),
                        "witness": witness.serialize(),
                        "reduced_input": format_word(rw),
                    },
                    sort_keys=True,
                )
            )
        else:
            print(format_rat(value))
            if args.witness:
                print(f"witness {witness.serialize()}")
        return 0
    scale = _resolve_scale(args.scale)
    bounds = norm_bounds(rw, scale, args.budget or 0)
    if args.json:
        print(
            json.dumps(
                {
                    "lower": format_rat(bounds.lower),
                    "upper": format_rat(bounds.upper),
                    "witness_word": format_word(bounds.witness_word),
                    "witness_match": bounds.witness_match.serialize(),
                    "reduced_input": format_word(rw),
                },
                sort_keys=True,
            )
        )
    else:
        print(f"lower {format_rat(bounds.lower)} upper {format_rat(bounds.upper)}")
        if args.witness:
            print(f"witness-word {format_word(bounds.witness_word)}")
            print(f"witness-match {bounds.witness_match.serialize()}")
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    u = reduce_word(parse_word(args.left))
    v = reduce_word(parse_word(args.right))
    products = multiply(invert(u), v), multiply(u, invert(v))
    if args.json:
        delta, delta_inverse = (norm_theta_min(p, TRIVIAL_SCALE) for p in products)
        print(
            json.dumps(
                {
                    "value": format_rat(delta.value + delta_inverse.value),
                    "witness": {
                        "delta": delta.witness.serialize(),
                        "delta_inverse": delta_inverse.witness.serialize(),
                    },
                    "reduced_input": [format_word(u), format_word(v)],
                },
                sort_keys=True,
            )
        )
    else:
        # d(u, v) = N(u^-1 v) + N(u v^-1), two equal norms: the trivial-scale metric is
        # two-sided invariant (see graevmetric.bidistances), so one value-only DP suffices
        print(format_rat(2 * graev_norm_dp(min(products, key=len))))
    return 0


def _cmd_matches(args: argparse.Namespace) -> int:
    if args.length < 1:
        raise ValueError("--len must be >= 1")
    if args.count_only:
        print(count_matches(args.length))
        return 0
    check_enumeration_cap(args.length, "listing matches", ", or use --count-only")
    for m in enumerate_matches(args.length):
        print(m.serialize())
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    print(format_word(project_word(w, args.level)))
    return 0


def _cmd_seplevel(args: argparse.Namespace) -> int:
    u = reduce_word(parse_word(args.left))
    v = reduce_word(parse_word(args.right))
    level = separating_level(u, v)
    print("equal" if level is None else level)
    return 0


def _load_or_default_corpus(
    args: argparse.Namespace, level: int, max_depth: int | None = None
) -> list[Word]:
    if args.corpus is not None:
        return parse_corpus(args.corpus, max_depth)
    points = _default_points(level)
    if args.cases:
        rng = random.Random(args.seed)
        return sample_corpus(rng, points, args.cases, args.max_len)
    return exhaustive_reduced_words(points, 2)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.cases < 0:
        raise ValueError(f"--cases must be >= 0, got {args.cases}")
    if args.suite in ("discreteness", "lipschitz"):
        if args.scale is not None:
            raise ValueError(f"--suite {args.suite} takes no --scale")
        if args.cases and args.corpus is not None:
            raise ValueError("--cases cannot be given with --corpus")
        check_level(args.level)  # before any corpus line is read or word drawn
        if args.cases and args.max_len < 1:
            raise ValueError(f"--max-len must be >= 1, got {args.max_len}")
    elif args.corpus is not None or args.cases:
        flag = "--corpus" if args.corpus is not None else "--cases"
        raise ValueError(f"--suite {args.suite} takes no {flag}")
    if args.suite == "discreteness":
        if args.corpus is None:  # the default points are level deep
            check_bound_digits(args.level)
        corpus = _load_or_default_corpus(args, args.level, max_depth=args.level)
        report = check_discreteness(args.level, corpus)
        report.parameters["source"] = args.corpus or ("random" if args.cases else "exhaustive")
    elif args.suite == "lipschitz":
        if args.corpus is None:  # the default points are level + 1 deep
            check_bound_digits(args.level)
        if args.cases:  # never with --corpus
            rng = random.Random(args.seed)
            points = _default_points(args.level + 1)
            pairs = sample_distinct_pairs(rng, points, args.cases, args.max_len)
        else:
            corpus = _load_or_default_corpus(args, args.level + 1)
            pairs = [(u, v) for i, u in enumerate(corpus) for v in corpus[i + 1 :]]
        report = check_lipschitz(args.level, pairs)
    elif args.suite == "extension":
        scale = _resolve_scale(args.scale or "weighted")
        report = check_extension_conditions(
            args.level, scale, _probe_letters(), _DEFAULT_R_GRID
        )
    else:  # scale-axioms, the last choice argparse allows
        scale = _resolve_scale(args.scale or "weighted")
        report = check_scale_axioms(
            scale, _probe_letters(), _DEFAULT_R_GRID, _DEFAULT_EPS_TAIL
        )
    report.seed = args.seed
    if args.json:
        print(report.render_json())
    else:
        print(report.render_text())
    return 0 if report.all_passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process-wide parser, built on first use.  It keeps no per-call
    state: each parse makes fresh namespaces, and help and usage text are
    formatted against the streams and terminal width of the moment."""
    parser = argparse.ArgumentParser(
        prog="graev",
        description="Exact Graev norms and metrics on free-group words, "
        "scale-norm bounds, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="norm of a word (exact, or bounded under a scale)")
    p_norm.add_argument("word")
    method = p_norm.add_mutually_exclusive_group()
    method.add_argument("--scale", help="trivial | weighted | file:<path>")
    method.add_argument("--bruteforce", action="store_true", help="use match enumeration (capped)")
    p_norm.add_argument("--budget", type=int, help="insertion budget for bounds (needs --scale)")
    p_norm.add_argument("--witness", action="store_true", help="also print the witness")
    p_norm.add_argument("--json", action="store_true")
    p_norm.set_defaults(func=_cmd_norm)

    p_dist = sub.add_parser("dist", help="exact two-sided distance between two words")
    p_dist.add_argument("left")
    p_dist.add_argument("right")
    p_dist.add_argument("--json", action="store_true")
    p_dist.set_defaults(func=_cmd_dist)

    p_matches = sub.add_parser("matches", help="enumerate matches of a given length")
    p_matches.add_argument("--len", dest="length", type=int, required=True)
    p_matches.add_argument("--count-only", action="store_true")
    p_matches.set_defaults(func=_cmd_matches)

    p_project = sub.add_parser("project", help="truncate a word at a level")
    p_project.add_argument("-n", "--level", type=int, required=True)
    p_project.add_argument("word")
    p_project.set_defaults(func=_cmd_project)

    p_sep = sub.add_parser("seplevel", help="least level separating two words")
    p_sep.add_argument("left")
    p_sep.add_argument("right")
    p_sep.set_defaults(func=_cmd_seplevel)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=["discreteness", "lipschitz", "extension", "scale-axioms"],
    )
    p_verify.add_argument("--level", type=int, default=1)
    p_verify.add_argument("--corpus", help="text file, one word per line")
    p_verify.add_argument("--cases", type=int, default=0, help="random case count")
    p_verify.add_argument("--max-len", type=int, default=4, help="random word length cap")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--scale", help="trivial | weighted | file:<path>")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # WordSyntaxError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, RuntimeError) as exc:  # ResourceLimitError is caught above
        message = str(exc).removeprefix("internal invariant violation: ") or type(exc).__name__
        print(f"error: internal invariant violation: {message}", file=sys.stderr)
        return 4
    except MemoryError:
        pass  # reported below, once the traceback no longer holds the failed call's tables
    print("error: out of memory", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
