"""Seeded inputs and untimed output checks for the four benchmark workloads.

Inputs are built here from the benchmark's own word model: a letter is
``(sign, coords)`` with canonical coordinates (no trailing zeros) and a
word is a tuple of letters.  The program only ever sees the word text.

Each workload is an endless stream of *groups*.  A group is a few CLI calls
whose outputs can be checked against each other and against independent
certificates (a witness match re-costed here, the brute-force oracle, the
Motzkin count).  Groups come in fixed *rounds*: the sizes in a round are
the same for every seed, as are the flags; only the letters and the
sampler seeds vary, so the work per round is nearly constant and runs at
different seeds measure the same thing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator

Letter = tuple  # (sign, coords)

CORPUS_PATH = "graevbench/out/corpus.txt"


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, and files the call reads (path, text)."""

    argv: tuple
    files: tuple = ()


def cmd(*parts: str, files: tuple = ()) -> Op:
    """Op from argv parts; empty parts (an unset flag) are dropped."""
    return Op(tuple(p for p in parts if p), files)


@dataclass
class Group:
    """CLI calls checked together; check(group, outcomes, lib) returns one
    error message (or None) per call."""

    ops: list
    check: Callable
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    rc: object
    out: str
    err: str
    latency_s: float
    gauge: object = None  # index of the reference sample taken before the call


# ---------------------------------------------------------------------------
# Word model.


def letter_text(x: Letter) -> str:
    sign, coords = x
    text = "[%s]" % ",".join(map(str, coords)) if coords else "[0]"
    return text if sign > 0 else text + "^-1"


def word_text(w: tuple) -> str:
    return " ".join(letter_text(x) for x in w) if w else "e"


def inverse(x: Letter) -> Letter:
    return (-x[0], x[1])


def reduce(w: tuple) -> tuple:
    stack: list = []
    for x in w:
        if stack and stack[-1] == inverse(x):
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def invert(w: tuple) -> tuple:
    return tuple(inverse(x) for x in reversed(w))


def parse_word_text(text: str) -> tuple:
    """Inverse of word_text; the identity word "e" parses to ()."""
    out = []
    for term in text.split():
        if term == "e":
            continue
        sign = -1 if term.endswith("^-1") else 1
        body = term[: -3] if sign < 0 else term
        coords = tuple(int(c) for c in body[1:-1].split(","))
        while coords and coords[-1] == 0:
            coords = coords[:-1]
        out.append((sign, coords))
    return tuple(out)


def random_point(rng: random.Random, max_depth: int = 6) -> tuple:
    depth = rng.randint(0, max_depth)
    if depth == 0:
        return ()
    return tuple(rng.randint(0, 3) for _ in range(depth - 1)) + (rng.randint(1, 3),)


def random_word(rng: random.Random, length: int, draw: Callable[[], tuple]) -> tuple:
    """Reduced word of exactly ``length`` letters over points from ``draw``."""
    out: list = []
    while len(out) < length:
        x = (rng.choice((1, -1)), draw())
        if not out or out[-1] != inverse(x):
            out.append(x)
    return tuple(out)


def letter_distance(a, b) -> Fraction:
    """Base metric on letters; None is the identity letter."""
    if a == b:
        return Fraction(0)
    if a is None or b is None or a[0] != b[0]:
        return Fraction(1)
    p, q = a[1], b[1]
    for k in range(max(len(p), len(q))):
        if (p[k] if k < len(p) else 0) != (q[k] if k < len(q) else 0):
            return Fraction(1, 2**k)
    raise AssertionError("distinct canonical points differ somewhere")


def is_match(m: tuple) -> bool:
    """Non-crossing involution on range(len(m)), checked with a stack."""
    n = len(m)
    open_arcs: list = []
    for i, t in enumerate(m):
        if not 0 <= t < n or m[t] != i:
            return False
        if t > i:
            open_arcs.append(i)
        elif t < i:
            if not open_arcs or open_arcs.pop() != t:
                return False
    return not open_arcs


def trivial_cost(w: tuple, m: tuple) -> Fraction:
    """Rewrite cost of w under match m for the trivial scale."""
    total = Fraction(0)
    for i, t in enumerate(m):
        if t == i:
            total += letter_distance(None, w[i])
        elif t > i:
            total += letter_distance(w[t], inverse(w[i]))
    return total


def brute_force_norm(w: tuple) -> tuple:
    """Trivial-scale norm of w by trying every match: a depth-first walk over
    non-crossing involutions (each position is fixed, opens an arc or closes
    the innermost open one).  Returns (norm, number of matches tried).  Holds
    no more than one path in memory, so the checks leave the program's match
    caches and the run's peak memory alone."""
    n = len(w)
    table = [[letter_distance(w[t], inverse(w[i])) for t in range(n)] for i in range(n)]
    alone = [letter_distance(None, x) for x in w]
    # every distance is 0, 1 or 1/2^k: add them as integers over one denominator
    den = max((d.denominator for row in table + [alone] for d in row), default=1)
    arc = [[int(d * den) for d in row] for row in table]
    fixed = [int(d * den) for d in alone]
    best, tried, stack = [None], [0], []

    def walk(i: int, cost: int) -> None:
        if len(stack) > n - i:
            return
        if i == n:
            tried[0] += 1
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        walk(i + 1, cost + fixed[i])
        stack.append(i)
        walk(i + 1, cost)
        stack.pop()
        if stack:
            t = stack.pop()
            walk(i + 1, cost + arc[t][i])
            stack.append(t)

    walk(0, 0)
    return Fraction(best[0], den), tried[0]


def reference_dp(w: tuple) -> Fraction:
    """Trivial-scale norm of w by the interval DP, written here.  The
    benchmark times it to gauge the machine's speed during a run; it is
    never compared with the program."""
    n = len(w)
    best = {(i, i): Fraction(0) for i in range(n + 1)}
    for length in range(1, n + 1):
        for i in range(n - length + 1):
            j = i + length
            b = best[i + 1, j] + letter_distance(None, w[i])
            for k in range(i + 1, j):
                c = letter_distance(w[k], inverse(w[i])) + best[i + 1, k] + best[k + 1, j]
                if c < b:
                    b = c
            best[i, j] = b
    return best[0, n]


REFERENCE_WORD = (lambda rng: random_word(rng, 12, lambda: random_point(rng)))(
    random.Random("graevbench:reference")
)


def motzkin(n: int) -> int:
    m = [1, 1]
    while len(m) <= n:
        k = len(m) - 1
        m.append(m[k] + sum(m[j] * m[k - 1 - j] for j in range(k)))
    return m[n]


def parse_match(text: str) -> tuple:
    return tuple(int(v) for v in text.split())


def parse_rat(text: str) -> Fraction:
    p, q = text.split("/")
    return Fraction(int(p), int(q))


class CheckError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# exact-norm: norm / norm --witness / norm --json / dist on words of length
# 8-56 over points of depth <= 6.  Nearly all time is the cubic DPs.  Every
# round has the same lengths, so runs that complete different numbers of
# rounds still have the same mix; the lengths step by 4 and each group's
# three calls cost about 2 DPs of length L, L + 2 and L + 4, so latencies
# form a fine ladder instead of a few clusters.

EXACT_LENGTHS = tuple(range(8, 53, 4))


def exact_norm_round(rng: random.Random, r: int) -> list:
    groups = []
    draw = lambda: random_point(rng)  # noqa: E731
    for i, length in enumerate(EXACT_LENGTHS):
        w = random_word(rng, length, draw)
        while True:
            u = random_word(rng, 2, draw)
            v = reduce(u + w)
            q = reduce(u + invert(w) + invert(u))
            if len(v) == length + 2 and len(q) == length + 4:
                break
        f_w = ("--witness", "--json")[i % 2]
        f_q = ("", "--witness", "--json")[i % 3]
        f_d = ("", "--json")[i // 2 % 2]
        ops = [
            cmd("norm", word_text(w), f_w),
            cmd("norm", word_text(q), f_q),
            cmd("dist", word_text(u), word_text(v), f_d),
        ]
        groups.append(Group(ops, check_exact_norm, {"w": w, "q": q, "u": u, "v": v}))
    return groups


def read_norm(word: tuple, argv: tuple, out: str) -> Fraction:
    """Value printed by an exact `norm` call; a printed witness is re-costed
    here and must attain the value."""
    lines = out.splitlines()
    if "--json" in argv:
        payload = json.loads(out)
        require(payload["reduced_input"] == word_text(word), "reduced_input differs")
        value, witness = parse_rat(payload["value"]), payload["witness"]
    elif "--witness" in argv:
        require(len(lines) == 2 and lines[1].startswith("witness "), "bad witness line")
        value, witness = parse_rat(lines[0]), lines[1][len("witness ") :]
    else:
        require(len(lines) == 1, "unexpected extra output")
        value, witness = parse_rat(lines[0]), None
    if witness is not None:
        m = parse_match(witness)
        require(len(m) == len(word) and is_match(m), "witness is not a match")
        require(trivial_cost(word, m) == value, "witness cost differs from value")
    return value


CHECK_ERRORS = (CheckError, ValueError, KeyError, IndexError, TypeError)


def check_exact_norm(group: Group, outcomes: list, lib) -> list:
    d = group.data
    errors: list = [None, None, None]
    values = []
    for i, word in enumerate((d["w"], d["q"])):
        try:
            value = read_norm(word, group.ops[i].argv, outcomes[i].out)
            if len(word) <= 12:
                oracle, tried = brute_force_norm(word)
                require(tried == motzkin(len(word)), "brute force missed matches")
                require(oracle == value, "value differs from the brute-force oracle")
            values.append(value)
        except CHECK_ERRORS as exc:
            errors[i] = f"norm: {exc}"
            values.append(None)
    try:
        argv, out = group.ops[2].argv, outcomes[2].out
        if "--json" in argv:
            payload = json.loads(out)
            require(
                payload["reduced_input"] == [word_text(d["u"]), word_text(d["v"])],
                "reduced_input differs",
            )
            value = parse_rat(payload["value"])
            for key, word, one_sided in (
                ("delta", d["w"], values[0]),
                ("delta_inverse", d["q"], values[1]),
            ):
                m = parse_match(payload["witness"][key])
                require(len(m) == len(word) and is_match(m), f"{key} is not a match")
                require(trivial_cost(word, m) == one_sided, f"{key} cost differs")
        else:
            require(len(out.splitlines()) == 1, "unexpected extra output")
            value = parse_rat(out.strip())
        require(None not in values, "a one-sided norm is unavailable")
        require(value == values[0] + values[1], "dist is not the sum of the one-sided norms")
    except CHECK_ERRORS as exc:
        errors[2] = f"dist: {exc}"
    return errors


# ---------------------------------------------------------------------------
# match-oracle: `norm --bruteforce` and `norm` (plain, --witness and --json)
# on words of length 9-12, which must agree, plus one `matches --len 8..10`
# listing per round.  The only workload that enumerates matches.  Lengths
# run longest first so that the first group (the warm-up) fills the
# program's cached match lists.  Eight of the eleven words have length 12,
# so the slowest class of calls (18%) holds the 90th percentile and the DP
# calls (73%) hold the median, instead of either falling between classes.

ORACLE_LENGTHS = (12,) * 8 + (11, 10, 9)
LISTING_LENGTHS = (8, 9, 10)


def match_oracle_round(rng: random.Random, r: int) -> list:
    groups = []
    for i, length in enumerate(ORACLE_LENGTHS):
        w = random_word(rng, length, lambda: random_point(rng))
        text = word_text(w)
        ops = [cmd("norm", "--bruteforce", text, ("", "--witness", "--json")[i % 3])]
        ops += [cmd("norm", text, flag) for flag in ("", "--witness", "--json")]
        groups.append(Group(ops, check_match_oracle, {"w": w}))
    length = LISTING_LENGTHS[r % len(LISTING_LENGTHS)]
    listing = [cmd("matches", "--len", str(length))]
    groups.append(Group(listing, check_match_oracle, {"listing": length}))
    return groups


def check_match_oracle(group: Group, outcomes: list, lib) -> list:
    d = group.data
    if "listing" in d:
        n = d["listing"]
        try:
            lines = outcomes[0].out.splitlines()
            require(len(lines) == motzkin(n), "listing count is not the Motzkin number")
            maps = {parse_match(line) for line in lines}
            require(len(maps) == len(lines), "listing repeats a match")
            require(all(len(m) == n and is_match(m) for m in maps), "listing holds a non-match")
        except CHECK_ERRORS as exc:
            return [f"matches: {exc}"]
        return [None]
    errors: list = [None] * len(outcomes)
    values = []
    for i, (op, outcome) in enumerate(zip(group.ops, outcomes)):
        try:
            values.append(read_norm(d["w"], op.argv, outcome.out))
        except CHECK_ERRORS as exc:
            errors[i] = f"norm: {exc}"
            values.append(None)
    for i in range(1, len(values)):
        if None not in (values[0], values[i]) and values[i] != values[0]:
            errors[i] = "norm: DP value differs from brute force"
    return errors


# ---------------------------------------------------------------------------
# scale-bounds: `norm --scale weighted --budget b` for b = 0, 1, 2 on words
# of length 1-3 over the criterion-7 points.  Nearly all time is weighted
# norm_theta_min over the spellings the insertion search generates.  Each
# round holds, for every length, one word whose deepest point is each of the
# three points, because the insertion alphabet (and so the work) grows with
# the deepest point; four more words of length 3 over all three points make
# the slowest class (budget 2 on those, 13% of calls) hold the 90th
# percentile.

SCALE_POINTS = ((), (1,), (1, 2))


def scale_bounds_round(rng: random.Random, r: int) -> list:
    groups = []
    shapes = [(n, top) for n in (1, 2, 3) for top in (1, 2, 3)] + [(3, 3)] * 4
    for length, top in shapes:
        while True:
            w = random_word(rng, length, lambda: rng.choice(SCALE_POINTS[:top]))
            if any(x[1] == SCALE_POINTS[top - 1] for x in w):
                break
        ops = []
        for budget in (0, 1, 2):
            # a printed witness certifies the upper bound
            flag = ("--witness", "--json")[(top + budget) % 2]
            ops.append(cmd("norm", word_text(w), "--scale", "weighted", "--budget", str(budget), flag))
        groups.append(Group(ops, check_scale_bounds, {"w": w}))
    return groups


def check_scale_bounds(group: Group, outcomes: list, lib) -> list:
    w = group.data["w"]
    errors: list = [None, None, None]
    uppers: list = [None, None, None]
    exact = lib.graev_norm_dp(lib.parse_word(word_text(w)))
    scale = lib.weighted_scale()
    for i, (op, outcome) in enumerate(zip(group.ops, outcomes)):
        try:
            lines = outcome.out.splitlines()
            if "--json" in op.argv:
                payload = json.loads(outcome.out)
                require(payload["reduced_input"] == word_text(w), "reduced_input differs")
                lower, upper = parse_rat(payload["lower"]), parse_rat(payload["upper"])
                witness = (payload["witness_word"], payload["witness_match"])
            else:
                head = lines[0].split()
                require(len(lines) == 3, "expected bounds, witness-word, witness-match")
                require(head[0] == "lower" and head[2] == "upper", "bad bounds line")
                require(lines[1].startswith("witness-word "), "bad witness-word line")
                require(lines[2].startswith("witness-match "), "bad witness-match line")
                lower, upper = parse_rat(head[1]), parse_rat(head[3])
                witness = (lines[1][len("witness-word ") :], lines[2][len("witness-match ") :])
            require(lower == exact, "lower differs from graev_norm_dp")
            require(lower <= upper, "lower exceeds upper")
            spelling, m = parse_word_text(witness[0]), parse_match(witness[1])
            require(reduce(spelling) == w, "witness word does not reduce to the input")
            require(len(m) == len(spelling) and is_match(m), "witness match is not a match")
            cost = lib.norm_theta(lib.parse_word(witness[0]), lib.Match(m), scale)
            require(cost == upper, "witness cost differs from upper")
            uppers[i] = upper
        except CHECK_ERRORS as exc:
            errors[i] = f"bounds: {exc}"
    for i in (1, 2):
        if None not in (uppers[i - 1], uppers[i]) and uppers[i] > uppers[i - 1]:
            errors[i] = "bounds: upper bound rose with the budget"
    return errors


# ---------------------------------------------------------------------------
# tower-verify: every `verify` suite at levels 0-3, on the default corpus, a
# sampled one (--cases/--seed) and a corpus file, with and without --json.
# The DP runs thousands of times on words of length <= 8, so per-call
# overhead dominates instead of cubic work.  Sampled and file corpus sizes
# grow with the level, the same in every round, so call latencies spread
# smoothly between the tiny suites and the default corpora.


def _corpus(rng: random.Random, count: int, max_depth: int) -> list:
    """Distinct words of lengths 1, 2, 3, 4, 1, ... (fixed lengths keep the
    work of a corpus call nearly the same for every seed)."""
    seen: set = set()
    out = []
    while len(out) < count:
        w = random_word(rng, 1 + len(out) % 4, lambda: random_point(rng, max_depth))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def tower_verify_round(rng: random.Random, r: int) -> list:
    groups = []

    def add(argv: tuple, expected_total=None, files=()) -> None:
        if len(groups) % 2:
            argv += ("--json",)
        groups.append(Group([Op(argv, files)], check_tower_verify, {"total": expected_total}))

    for level in range(4):
        lv = ("--level", str(level))
        for suite in ("discreteness", "lipschitz"):
            base = ("verify", "--suite", suite) + lv
            add(base)
            if suite == "discreteness":
                # level 0 has one point, so only 8 reduced words of length <= 4
                cases = (6, 20, 30, 40)[level]
                pairs = cases * (cases - 1) // 2
                size = (6, 10, 15, 20)[level]
                depth = level
            else:
                cases = pairs = (10, 25, 40, 60)[level]
                size = (8, 10, 13, 16)[level]
                depth = level + 2
            add(base + ("--cases", str(cases), "--seed", str(rng.randrange(2**31))), pairs)
            text = "".join(word_text(w) + "\n" for w in _corpus(rng, size, depth))
            add(base + ("--corpus", CORPUS_PATH), size * (size - 1) // 2, ((CORPUS_PATH, text),))
        for suite in ("extension", "scale-axioms"):
            scale = rng.choice(((), ("--scale", "trivial")))
            add(("verify", "--suite", suite) + lv + scale)
    return groups


def check_tower_verify(group: Group, outcomes: list, lib) -> list:
    argv, out = group.ops[0].argv, outcomes[0].out
    try:
        if "--json" in argv:
            payload = json.loads(out)
            summary = payload["summary"]
            require(summary["total"] == len(payload["cases"]), "case count differs from total")
            require(all(c["pass"] for c in payload["cases"]), "a case failed")
            total, failed = summary["total"], summary["failed"]
        else:
            line = next(x for x in out.splitlines() if x.startswith("total: "))
            fields = line.split()
            total, failed = int(fields[1]), int(fields[5])
        require(failed == 0, f"{failed} cases failed")
        require(total > 0, "no cases checked")
        expected = group.data["total"]
        require(expected is None or total == expected, f"total {total}, expected {expected}")
    except CHECK_ERRORS + (StopIteration,) as exc:
        return [f"verify: {exc}"]
    return [None]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable[[random.Random, int], list]
    trace_rounds: int  # rounds in one traced window (a few seconds of work)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-norm", exact_norm_round, 1),
        Workload("match-oracle", match_oracle_round, 4),
        Workload("scale-bounds", scale_bounds_round, 2),
        Workload("tower-verify", tower_verify_round, 1),
    )
}


def rounds(workload: Workload, seed: int) -> Iterator[list]:
    """Endless seeded stream of rounds, each a list of groups."""
    rng = random.Random(f"graevbench:{workload.name}:{seed}")
    r = 0
    while True:
        yield workload.round(rng, r)
        r += 1


def first_rounds(workload: Workload, seed: int, count: int) -> list:
    return list(islice(rounds(workload, seed), count))
