"""Scales and the scale-weighted norm on words.

A scale inflates an inner norm value according to the conjugating letter:
it fixes the identity letter, dominates its argument, vanishes only at
zero, and is monotone.  The weighted family shipped here multiplies by
1 + sum_k x(k) * c_k with nonnegative rational coefficients, which keeps
every axiom a finite rational comparison and is regular (coordinate
truncation only drops nonnegative summands).

For a general scale the exact norm is an infimum over infinitely many
pre-reduced spellings of a word; this module reports intervals instead: the
upper bound comes from a bounded search over spellings with cancelling pairs
inserted, the lower bound is the trivial-scale Graev norm, certified only for
scales declared dominating.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ResourceLimitError, digit_limit, digit_limit_error, text_lines
from .freegroup import (
    IDENTITY,
    Letter,
    Point,
    Rat,
    ReducedWord,
    Word,
    ZERO,
    format_letter,
    format_rat,
    format_word,
    invert,
    letter_distance,
    multiply,
    reduce_word,
)
from .graevmetric import NormResult, cheapest_spelling, graev_norm_dp, trivial_norm_dp
from .matching import Match, is_match
from .reports import CheckCase, VerificationReport


@dataclass(frozen=True)
class Scale:
    """Inflation function (letter, value) -> value with the scale axioms."""

    name: str
    evaluate: Callable[[Letter, Rat], Rat]
    declared_regular: bool = False
    declared_dominating: bool = False  # scale(x, r) >= r for every r >= 0
    factor: Callable[[Point], Rat] | None = None  # scale(x, r) == r * factor(x.point), x != e

    def __call__(self, x: Letter, r: Rat) -> Rat:
        return self.evaluate(x, r)


TRIVIAL_SCALE = Scale(
    "trivial", lambda x, r: r, declared_regular=True, declared_dominating=True
)


def weighted_scale(coefficients: Mapping[int, Rat] | None = None, name: str = "weighted") -> Scale:
    """Scale multiplying by 1 + sum_k x(k)*c_k; inverse-symmetric, regular
    and dominating for nonnegative coefficients (coordinates are naturals,
    so the factor is then at least 1).  Coefficients are a sparse map
    k -> c_k (unlisted k get 0).  Default coefficients are 4^{-(k+1)}."""
    if coefficients is None:
        coefficient = lambda k: Rat(1, 4 ** (k + 1))
        dominating = True
    else:
        coeffs = {k: Rat(c) for k, c in coefficients.items()}
        coefficient = lambda k: coeffs.get(k, ZERO)
        dominating = all(c >= 0 for c in coeffs.values())
    weights: dict[Point, Rat] = {}

    def weight(p: Point) -> Rat:
        w = weights.get(p)
        if w is None:
            w = weights[p] = Rat(1) + sum(c * coefficient(k) for k, c in enumerate(p.coords) if c)
        return w

    def evaluate(x: Letter, r: Rat) -> Rat:
        if x.point is None:
            return r
        return r * weight(x.point)

    return Scale(
        name, evaluate, declared_regular=True, declared_dominating=dominating, factor=weight
    )


def load_scale_file(path: str) -> Scale:
    """Read weighted-family coefficients from a key-value text file.

    Lines are "<coordinate index> = <rational>" in errors.text_lines'
    format, and errors start "<path>:<line>:".  Unlisted coordinates get
    coefficient 0; the coefficients are kept sparse, so the cost follows the
    number of lines, not the largest index.
    The file is not vetted here; run the axiom checker to certify it.
    """
    entries: dict[int, Rat] = {}
    for where, content in text_lines(path):
        if "=" not in content:
            raise ValueError(f"{where}: expected '<index> = <rational>'")
        left, right = content.split("=", 1)
        index = _file_number(int, left.strip(), where, "coordinate index")
        value = _file_number(Rat, right.strip(), where, "coefficient")
        if index < 0:
            raise ValueError(f"{where}: coordinate index must be >= 0")
        if index in entries:
            raise ValueError(f"{where}: duplicate coordinate {index}")
        entries[index] = value
    return weighted_scale(entries, name=f"file:{path}")


_EXPONENT = re.compile(r"[-+]?(?=\.?\d)[\d_]*\.?[\d_]*[eE][-+]?(\d[\d_]*)")


def _file_number(
    convert: Callable[[str], int | Rat], text: str, where: str, what: str
) -> int | Rat:
    limit = digit_limit()
    exponent = convert is Rat and _EXPONENT.fullmatch(text)
    if limit and exponent:  # Fraction builds 10**exponent: 13 s at 10**7
        digits = exponent[1].replace("_", "")  # longer ones fail to convert, below
        if len(digits) <= limit and int(digits) > limit:
            raise digit_limit_error(f"{where}: the {what}'s power of ten")
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        # a run of more decimal digits than the limit never converts
        if limit and any(len(run) > limit for run in re.findall(r"\d+", text.replace("_", ""))):
            raise digit_limit_error(f"{where}: the {what}") from None
        raise ValueError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# Scale-weighted norm of a word under a fixed match.


def norm_theta(w: Word, theta: Match, scale: Scale) -> Rat:
    """Cost of w under match theta, defined recursively.

    Single letters cost d(e, x).  If 0 is matched inside a proper prefix,
    the word splits there and the costs add.  If 0 is matched to the last
    index, the ends pay d(x, y) plus the scale applied to the inner value,
    where x is the inverse of the first letter and y the last letter; an
    empty inner word has value 0.
    """
    if len(w) != len(theta):
        raise ValueError(
            f"word length {len(w)} does not equal match domain size {len(theta)}"
        )
    if not is_match(theta.map):
        raise ValueError(f"not a match: {theta.map}")
    # One right-to-left pass instead of the recursion: after[p] is the cost
    # of the blocks from p to the end of the enclosing pair (or word), each
    # a fixed point or a pair (p, q) opening at p, so after[p] adds after[q
    # + 1].  A closing index, and n, end a run at cost 0, so after[p + 1]
    # is the inner value of the pair (p, q).
    letters, tmap, n = w.letters, theta.map, len(w)
    after = [ZERO] * (n + 1)
    for p in range(n - 1, -1, -1):
        q = tmap[p]
        if q == p:
            after[p] = letter_distance(IDENTITY, letters[p]) + after[p + 1]
        elif q > p:
            x, y, inner = letters[p].inverse(), letters[q], after[p + 1]
            block = letter_distance(x, y) + max(scale(x, inner), scale(y, inner))
            after[p] = block + after[q + 1]
    return after[0]


def norm_theta_min(w: Word, scale: Scale) -> NormResult:
    """Minimum of norm_theta over every match, by interval DP, and the match
    that matching.match_from_values reads back from its value matrix.

    The pair-ends branch may take the minimal inner value because scales
    are monotone in their second argument.  The input word is used as
    given (it is not reduced).  The trivial scale runs graevmetric.cost_dp;
    every other scale is graevmetric.cheapest_spelling's one-spelling search,
    w's letters their own alphabet.
    """
    if scale is TRIVIAL_SCALE:
        return trivial_norm_dp(w)
    value, witness, _ = cheapest_spelling(w.letters, range(len(w)), tuple, scale)
    return NormResult(value, witness)


# ---------------------------------------------------------------------------
# Certified bounds for the scale norm.


@dataclass(frozen=True)
class BoundedNorm:
    """Interval for a scale norm: upper is the cost of a spelling, lower is
    certified only for scales declared dominating.

    The upper witness is a pre-reduced spelling plus a match attaining the
    upper value; it is None for composite (summed) intervals.
    """

    lower: Rat
    upper: Rat
    witness_word: Word | None = None
    witness_match: Match | None = None


SEARCH_CAP = 20000


def insertion_alphabet(w: Word) -> tuple[Letter, ...]:
    """Letters available for inserted cancelling pairs: the word's letters,
    their inverses, the identity, and coordinate truncations of all of
    those (truncated letters are the natural cheap witnesses under a
    regular scale).  A truncation's truncations are the letter's own, so only
    the word's letters truncate: at 0, after each nonzero coordinate but the last."""
    signed = dict.fromkeys(y for x in w.letters if not x.is_identity for y in (x, x.inverse()))
    out = {**signed, IDENTITY: None}
    for m in range(w.max_depth):
        for x in signed:
            if m < x.point.depth and (m == 0 or x.point.coords[m - 1]):
                out[Letter(x.sign, x.point.truncate(m))] = None
    return tuple(out)


def _spelling_total(n: int, size: int, budget: int, cap: int) -> int:
    """The number of spellings within budget insertion levels of a reduced spelling of
    n letters, level 0 included, or a partial sum past cap once it passes cap.  From
    budget 1 on, the alphabet of size letters is e and inverse pairs: the Cayley graph of
    their free product (a Z per pair, a Z/2 for e) is the size-regular tree, and the
    spellings of level b are the words of n + 2b letters that cancel to the reduced
    one, the walks of n + 2b steps from a vertex at distance n to the root.  A walk of t
    steps, u of them away from the root, stands at distance n - t + 2u; it steps back
    one way, and away size ways from the root, size - 1 elsewhere.  Level b + 1 holds at
    least size times level b (each of size pairs appended), so from size 2 on the
    levels past cap.bit_length() need no counting; e alone spells level b one way."""
    if not budget or size < 2:
        return 1 + budget
    budget = min(budget, cap.bit_length())
    walks, total = [1] + [0] * budget, 1
    for t in range(1, n + 2 * budget + 1):
        d = n - t  # the distance after t steps with none away
        walks = [walks[0] if d >= 0 else 0] + [
            (walks[u] if d + 2 * u >= 0 else 0)
            + walks[u - 1] * (size if d + 2 * u == 1 else size - 1)
            for u in range(1, budget + 1)
        ]
        if d < 0 and not d % 2:  # back at the root after t = n + 2b steps: level b
            total += walks[-d // 2]
            if total > cap:
                break
    return total


def norm_bounds(w: ReducedWord, scale: Scale, insertion_budget: int) -> BoundedNorm:
    """Interval for the scale norm of w.

    lower: the trivial-scale Graev norm (a certified lower bound only for a
    scale declared dominating, whose values dominate their argument, and
    exact for the trivial scale; for other scales it can exceed upper).
    upper: the cheapest norm_theta_min over spellings reached
    from the reduced w by inserting up to insertion_budget adjacent
    cancelling pairs from insertion_alphabet(w); each extra budget level
    only grows the candidate set, so the upper bound never increases.
    Ties keep the first spelling in search order, the reduced w first.

    The cap: _spelling_total counts the spellings of the budget exactly, from the
    alphabet's Cayley tree, and more than SEARCH_CAP of them are refused before any is
    built, whatever the scale; each level adds at least one spelling, so a budget of
    SEARCH_CAP or more is always refused.  Within the cap the reduced w is evaluated
    first, and the others are generated, level by level, only if it leaves the search
    open, so the trivial scale, and a dominating one whose reduced w costs lower, build
    no other spelling.  For a scale declared dominating, no spelling costs less than
    lower, so the evaluation stops once the upper bound reaches lower; the result is the
    same as that of the full search.  The trivial scale's norm is exact, so the reduced
    w ends its search.

    A dominating scale with a factor (at least 1, so monotone) never needs a spelling S
    that holds e.  Deleting every e gives a spelling S' of the same reduced word; S
    holds an even number of e's, so S' sits at an earlier level, and S' costs no more:
    map each match on S to one on S' that drops the e's and leaves their partners alone.
      - An e alone costs 0.
      - An (e, e) pair around inner value r costs r; splicing its inner blocks into
        the parent costs r.
      - An (e, y) pair costs 1 + max(r, f_y * r) >= 1 + r; y alone plus the spliced
        inner blocks costs 1 + r.
      - Any other pair costs d + max(f_x * r, f_y * r), monotone in its inner r.
    So no spelling that holds e is the first cheapest or the first to reach lower, and
    generation leaves out the (e, e) pair: a spelling without e grows only from one
    without e, so the rest keep their order and the bounds, witness and ties are the
    full search's.  (w = e, whose reduced spelling is e itself, costs lower = 0 at
    once.)  A callable-only or non-dominating scale generates every spelling.

    graevmetric.cheapest_spelling runs the search, with lower as its floor
    for a scale declared dominating only; the spelling's Word is built for
    the winner only.
    """
    if insertion_budget < 0:
        raise ValueError("insertion budget must be >= 0")
    rw = reduce_word(w)
    # spellings are tuples of indices into the alphabet, which holds every
    # letter of rw and, from budget 1 on, is closed under inversion
    alphabet = insertion_alphabet(rw) if insertion_budget else rw.letters
    cap = SEARCH_CAP
    if _spelling_total(len(rw), len(alphabet), insertion_budget, cap) > cap:
        raise ResourceLimitError(
            f"insertion search exceeded the candidate cap {cap}; lower the budget"
        )
    index = {a: i for i, a in enumerate(alphabet)}
    start = tuple(index[x] for x in rw.letters)
    skip_e = scale.declared_dominating and scale.factor is not None

    def rest() -> list[tuple[int, ...]]:
        # the spellings after start in search order, breadth-first, none holding e
        # when skip_e; at budget 0 the alphabet, rw's letters, need not hold their
        # inverses, and no pair is inserted.  Level b's spellings are n + 2b letters
        # long, so only repeats within a level are dropped
        pairs = [
            (i, index[a.inverse()])
            for i, a in enumerate(alphabet)
            if insertion_budget and not (skip_e and a.is_identity)
        ]
        frontier, out = [start], []
        for _ in range(insertion_budget):
            grown: dict[tuple[int, ...], None] = {}  # insertion-ordered
            for base in frontier:
                for p in range(len(base) + 1):
                    head, tail = base[:p], base[p:]
                    for pair in pairs:
                        grown[head + pair + tail] = None
            frontier = list(grown)
            out += frontier
        return out

    if scale is TRIVIAL_SCALE:
        exact = trivial_norm_dp(rw)
        return BoundedNorm(exact.value, exact.value, rw, exact.witness)
    lower = graev_norm_dp(rw)
    floor = lower if scale.declared_dominating else None
    upper, witness, spelling = cheapest_spelling(alphabet, start, rest, scale, floor)
    return BoundedNorm(lower, upper, Word(tuple([alphabet[i] for i in spelling])), witness)


def scale_distance_bounds(
    u: ReducedWord, v: ReducedWord, scale: Scale, budget: int
) -> tuple[BoundedNorm, BoundedNorm]:
    """Bounds for the one-sided distance (norm of u^{-1}v) and for the
    two-sided distance (interval sum with the inverted pair)."""
    left = norm_bounds(multiply(invert(u), v), scale, budget)
    right = norm_bounds(multiply(u, invert(v)), scale, budget)
    two_sided = BoundedNorm(left.lower + right.lower, left.upper + right.upper)
    return left, two_sided


def conjugation_witness(v: Word, theta: Match, w: Letter, scale: Scale) -> Rat:
    """Evaluate the conjugated word under the lifted match.

    Builds w^{-1} v w and the match pairing the new ends around theta
    shifted by one, then checks the exact identity: the lifted cost equals
    the scale applied to the original cost.  Both sides are computed
    independently; a mismatch is an internal invariant violation.
    """
    expected = scale(w, norm_theta(v, theta, scale))  # raises ValueError for a bad theta
    conj = Word((w.inverse(),) + v.letters + (w,))
    eta_map = (len(v) + 1,) + tuple(t + 1 for t in theta.map) + (0,)
    if not is_match(eta_map):
        raise RuntimeError(
            f"internal invariant violation: lifted map {eta_map} is not a match"
        )
    eta = Match(eta_map)
    lifted = norm_theta(conj, eta, scale)
    if lifted != expected:
        raise RuntimeError(
            "internal invariant violation: lifted cost "
            f"{format_rat(lifted)} != scaled inner cost {format_rat(expected)} "
            f"for v={format_word(v)}, w={format_letter(w)}"
        )
    return lifted


# ---------------------------------------------------------------------------
# Axiom checker.

_LIMIT_THRESHOLD = Rat(1, 4)


def check_scale_axioms(
    scale: Scale,
    letters: Iterable[Letter],
    r_grid: Sequence[Rat],
    eps_tail: Sequence[Rat],
) -> VerificationReport:
    """Sample the scale axioms on finite grids.

    Checks: the identity letter is fixed; values dominate the argument;
    zero exactly at zero; monotonicity along the grid; small arguments stay
    below the threshold 1/4 (consistency with a vanishing limit, not a proof);
    inverse symmetry (a convention this package requires of scales); and,
    for scales declared regular, domination of every coordinate truncation.
    Violations become failing report cases, never exceptions.
    """
    letters = tuple(letters)
    if not letters or not r_grid or not eps_tail:
        raise ValueError("letter and grid samples must be nonempty")
    grid = sorted(Rat(r) for r in r_grid)
    tail = sorted(Rat(r) for r in eps_tail)
    report = VerificationReport(
        suite="scale-axioms",
        parameters={
            "scale": scale.name,
            "letters": str(len(letters)),
            "r-grid": " ".join(format_rat(r) for r in grid),
            "eps-tail": " ".join(format_rat(r) for r in tail),
            "limit-threshold": format_rat(_LIMIT_THRESHOLD),
            "declared-regular": str(scale.declared_regular).lower(),
        },
    )
    for r in grid:
        report.add(
            CheckCase.compare(
                {"axiom": "identity-letter-neutral", "r": format_rat(r)},
                "==",
                scale(IDENTITY, r),
                r,
            )
        )
    for x in letters:
        fx = format_letter(x)
        for r in grid:
            report.add(
                CheckCase.compare(
                    {"axiom": "dominates-argument", "x": fx, "r": format_rat(r)},
                    ">=",
                    scale(x, r),
                    r,
                )
            )
        report.add(
            CheckCase.compare(
                {"axiom": "zero-only-at-zero", "x": fx, "r": "0/1"},
                "==",
                scale(x, ZERO),
                ZERO,
            )
        )
        for r in grid:
            if r > 0:
                report.add(
                    CheckCase.compare(
                        {"axiom": "positive-away-from-zero", "x": fx, "r": format_rat(r)},
                        ">",
                        scale(x, r),
                        ZERO,
                    )
                )
        for r1, r2 in zip(grid, grid[1:]):
            report.add(
                CheckCase.compare(
                    {
                        "axiom": "monotone-in-r",
                        "x": fx,
                        "r1": format_rat(r1),
                        "r2": format_rat(r2),
                    },
                    "<=",
                    scale(x, r1),
                    scale(x, r2),
                )
            )
        for eps in tail:
            report.add(
                CheckCase.compare(
                    {"axiom": "vanishes-near-zero (consistency)", "x": fx, "r": format_rat(eps)},
                    "<=",
                    scale(x, eps),
                    _LIMIT_THRESHOLD,
                )
            )
        for r in grid:
            report.add(
                CheckCase.compare(
                    {"axiom": "inverse-symmetric", "x": fx, "r": format_rat(r)},
                    "==",
                    scale(x.inverse(), r),
                    scale(x, r),
                )
            )
        if scale.declared_regular and x.point is not None:
            for level in range(x.point.depth + 1):
                truncated = Letter(x.sign, x.point.truncate(level))
                for r in grid:
                    report.add(
                        CheckCase.compare(
                            {
                                "axiom": "regular-under-truncation",
                                "x": fx,
                                "level": str(level),
                                "r": format_rat(r),
                            },
                            ">=",
                            scale(x, r),
                            scale(truncated, r),
                        )
                    )
    return report
