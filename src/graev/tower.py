"""Coordinate truncation and the induced word homomorphisms.

Truncating every point at depth n induces a group homomorphism on words.
The checks here are the finite-stage facts that make the truncation tower
useful: distances never grow under projection, distinct words over
depth-limited points stay uniformly separated, and any two distinct words
are told apart by some finite truncation level.  The distance suites
prepare each word once and take every distance of the call from one
graevmetric.bidistances call, which norms one product u^{-1}v per pair and
each distinct cost table once.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .errors import digit_limit, digit_limit_error
from .freegroup import (
    Letter,
    Point,
    Rat,
    ReducedWord,
    Word,
    format_letter,
    format_rat,
    format_word,
    letter_distance,
    reduce_word,
)
from .graevmetric import bidistances
from .matching import Match
from .reports import CheckCase, VerificationReport
from .scales import Scale, norm_theta

Level = int


def check_level(n: Level) -> None:
    """Refuse a negative truncation level."""
    if n < 0:
        raise ValueError(f"truncation level must be >= 0, got {n}")


def project_point(p: Point, n: Level) -> Point:
    """Zero all coordinates at index >= n; idempotent."""
    check_level(n)
    return p.truncate(n)


def project_letter(x: Letter, n: Level) -> Letter:
    check_level(n)
    if x.point is None:
        return x
    return Letter(x.sign, x.point.truncate(n))


def project_word(w: Word, n: Level) -> ReducedWord:
    """Truncate letterwise, then reduce.  A group homomorphism that fixes
    every word whose points already have depth <= n."""
    check_level(n)
    return reduce_word(Word(tuple(project_letter(x, n) for x in w.letters)))


def check_lipschitz_witness(w_star: Word, theta: Match, scale: Scale, n: Level) -> CheckCase:
    """Projected spelling never costs more than the original under the same
    match (valid for regular scales: projection shrinks both letter
    distances and scale values)."""
    check_level(n)
    if not scale.declared_regular:
        raise ValueError(f"scale {scale.name!r} is not declared regular")
    projected = Word(tuple(project_letter(x, n) for x in w_star.letters))
    lhs = norm_theta(projected, theta, scale)
    rhs = norm_theta(w_star, theta, scale)
    return CheckCase.compare(
        {
            "word": format_word(w_star),
            "match": theta.serialize(),
            "level": str(n),
            "scale": scale.name,
        },
        "<=",
        lhs,
        rhs,
    )


def check_lipschitz_distance(u: ReducedWord, v: ReducedWord, n: Level) -> CheckCase:
    """Projection is nonexpansive for the exact two-sided metric."""
    return check_lipschitz(n, [(u, v)]).cases[0]


def check_lipschitz(n: Level, pairs: Iterable[tuple[Word, Word]]) -> VerificationReport:
    """check_lipschitz_distance for every pair, in order, as one report.
    Each word is prepared once and each distinct cost table's norm is
    computed once per call."""
    check_level(n)
    pairs = list(pairs)
    report = VerificationReport(
        suite="lipschitz", parameters={"level": str(n), "pairs": str(len(pairs))}
    )
    prepared: dict[int, tuple] = {}  # keyed by id(): pairs keeps every word alive
    for u, v in pairs:
        for w in (u, v):
            if id(w) not in prepared:  # its text, its reduced form, its projection
                prepared[id(w)] = format_word(w), reduce_word(w), project_word(w, n)
    rows = [(prepared[id(u)], prepared[id(v)]) for u, v in pairs]
    distances = bidistances([(u[2], v[2]) for u, v in rows] + [(u[1], v[1]) for u, v in rows])
    for (u, v), lhs, rhs in zip(rows, distances, distances[len(rows) :]):
        report.add(CheckCase.compare({"u": u[0], "v": v[0], "level": str(n)}, "<=", lhs, rhs))
    return report


def check_extension_conditions(
    n: Level,
    scale: Scale,
    letters: Iterable[Letter],
    r_grid: Sequence[Rat],
) -> VerificationReport:
    """Truncation at level n satisfies the homomorphism-extension conditions:
    it commutes with inversion and fixes the identity, it is nonexpansive on
    letters, and it never increases the scale."""
    check_level(n)
    letters = tuple(letters)
    if not letters or not r_grid:
        raise ValueError("letter and grid samples must be nonempty")
    grid = sorted(Rat(r) for r in r_grid)
    report = VerificationReport(
        suite="extension",
        parameters={
            "level": str(n),
            "scale": scale.name,
            "letters": str(len(letters)),
            "r-grid": " ".join(format_rat(r) for r in grid),
        },
    )
    for x in letters:
        fx = format_letter(x)
        proj_of_inverse = project_letter(x.inverse(), n)
        inverse_of_proj = project_letter(x, n).inverse()
        report.add(
            CheckCase.compare(
                {"condition": "commutes-with-inversion", "x": fx, "level": str(n)},
                "==",
                letter_distance(proj_of_inverse, inverse_of_proj),
                Rat(0),
            )
        )
    for i, x in enumerate(letters):
        for y in letters[i + 1 :]:
            report.add(
                CheckCase.compare(
                    {
                        "condition": "nonexpansive-on-letters",
                        "x": format_letter(x),
                        "y": format_letter(y),
                        "level": str(n),
                    },
                    "<=",
                    letter_distance(project_letter(x, n), project_letter(y, n)),
                    letter_distance(x, y),
                )
            )
    for x in letters:
        for r in grid:
            report.add(
                CheckCase.compare(
                    {
                        "condition": "scale-dominates-projection",
                        "x": format_letter(x),
                        "r": format_rat(r),
                        "level": str(n),
                    },
                    "<=",
                    scale(project_letter(x, n), r),
                    scale(x, r),
                )
            )
    return report


def separating_level(u: ReducedWord, v: ReducedWord) -> int | None:
    """Least truncation level at which the two words project to different
    group elements, or None when they are equal.  For distinct words the
    level exists and is at most the maximum point depth (projection at that
    depth fixes both words).  Words apart at level n stay apart at n + 1,
    since project_n = project_n o project_{n+1} and both are homomorphisms,
    so the separating levels run from the least one up and bisection finds it."""
    ru, rv = reduce_word(u), reduce_word(v)
    if ru == rv:
        return None
    lo, hi = 0, max(ru.max_depth, rv.max_depth)
    while lo < hi:
        mid = (lo + hi) // 2
        if project_word(ru, mid) != project_word(rv, mid):
            hi = mid
        else:
            lo = mid + 1
    if project_word(ru, lo) == project_word(rv, lo):
        raise AssertionError("distinct reduced words must separate by their max depth")
    return lo


def check_bound_digits(n: Level) -> None:
    """Raise errors.digit_limit_error when 2^n, the denominator of the bound
    that check_discreteness prints, has more digits than the interpreter
    converts, without building 2^n from level 4 * digit_limit() on."""
    limit = digit_limit()  # 2^n >= 10^limit: never for n <= 3 * limit, always from 4 * limit
    if limit and n > 3 * limit and (n >= 4 * limit or 1 << n >= 10**limit):
        raise digit_limit_error("a rational")


def check_discreteness(n: Level, corpus: Iterable[ReducedWord]) -> VerificationReport:
    """Every distinct pair of depth-<= n words is at two-sided distance at
    least 2^{-n}; the minimum observed distance and an attaining pair are
    recorded in the report parameters."""
    check_level(n)
    distinct: dict[tuple[Letter, ...], tuple] = {}  # keyed by the reduced letters
    for w in corpus:
        rw = reduce_word(w)
        if rw.max_depth > n:
            raise ValueError(
                f"corpus word {format_word(rw)} has depth {rw.max_depth} > level {n}"
            )
        if rw.letters not in distinct:
            distinct[rw.letters] = len(rw), format_word(rw), rw
    rows = sorted(distinct.values())  # by length, then text: texts are unique
    check_bound_digits(n)
    bound = Rat(1, 2**n)
    report = VerificationReport(
        suite="discreteness",
        parameters={"level": str(n), "bound": format_rat(bound), "words": str(len(rows))},
    )
    min_seen: Rat | None = None
    min_pair = ("", "")
    distances = bidistances([(u[2], v[2]) for u, v in combinations(rows, 2)])
    for (u, v), d in zip(combinations(rows, 2), distances):
        u_text, v_text = u[1], v[1]
        report.add(CheckCase.compare({"u": u_text, "v": v_text}, ">=", d, bound))
        if min_seen is None or d < min_seen:
            min_seen = d
            min_pair = (u_text, v_text)
    if min_seen is not None:
        report.parameters["min-observed"] = format_rat(min_seen)
        report.parameters["attaining-pair"] = f"{min_pair[0]} | {min_pair[1]}"
    return report
