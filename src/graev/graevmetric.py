"""The exact Graev norm and metric on free-group words.

Two independent routes compute the same minimum-cost rewriting over
non-crossing matchings: explicit enumeration (the permanent oracle, under
matching.check_enumeration_cap because match counts grow like Motzkin
numbers) and an interval dynamic program (the uncapped scalable path, still
cubic in the worst case though it splits only after closed blocks, with one
loop per kind of pair term: cost_dp for the trivial scale, factor_dp's
inline integer term for a scale with a per-letter factor, and ends_dp with
the caller's Fraction pair term for a callable-only scale) whose one value
matrix, with no column copy, also yields a minimizing match, read back by
matching.match_from_values.  The enumeration takes the cost of every match
from matching.match_costs, not the matches, and unranks only the witness.
Both run on exact integers in units of 2^-max_depth, since every letter
distance is a multiple of it, from one lower-triangular table per word:
costs[j][i] = d(x_i^{-1}, x_j) pairs i < j, costs[j][j] = d(e, x_j) leaves j
alone.  _unit_costs fills a word's table from coordinate-0 buckets: a pair
costs the whole unit unless its signs are opposite and its points agree at
coordinate 0, so only those pairs call first_difference.  bidistances, the
verify suites' route, builds that table for the DP's loop, cost_dp, from one
letter-pair memo per call, and norms one product per pair, since the
trivial-scale metric is two-sided invariant; each distinct cost table of the
call is normed once.  Every other scale's norm is a search over spellings,
index tuples into one alphabet, and cheapest_spelling runs every one from
the alphabet, the first spelling, a callable for the rest and the scale
alone, asking for the rest only if the first leaves the search open: a
Spellings holds what the search shares (a letter-pair memo, the factors, and
one unit, from the alphabet's deepest letter, the used factors and the
longest spelling), spelling_values gives one spelling's value matrix, and a
single word is the one-spelling search.  _memo_costs fills an integer cost
table from a letter-pair memo, by _pair_cost at the caller's unit, for
bidistances and spelling_values alike; a search without a factor keeps its
memo at 2^depth and reads each table as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Collection, Iterable, Sequence

from .freegroup import (
    Letter,
    Rat,
    ReducedWord,
    Word,
    first_difference,
    invert,
    multiply,
    reduce_word,
)
from .matching import Match, check_enumeration_cap, match_costs, match_from_values, unrank_match


@dataclass(frozen=True)
class NormResult:
    value: Rat
    witness: Match


def _unit_costs(w: Word) -> tuple[int, list[list[int]]]:
    # Letter distances in units of 2^-max_depth: costs[j][i] = d(x_i^{-1}, x_j) (i < j)
    # and costs[j][j] = d(e, x_j); 1 across signs (the identity included), 0 between
    # identities, else 2^-k at the first coordinate k where points differ.  A first
    # difference at 0 costs the whole unit, as a sign mismatch does, so column j starts
    # as top and patches only the earlier letters of x_j^{-1}'s bucket: same sign as
    # x_j^{-1} and same coordinate 0, () read as 0, or the identities' bucket (0, None).
    top = 1 << w.max_depth
    costs, buckets = [], {}  # (sign, coordinate 0) -> [(index, point)]
    for j, y in enumerate(w.letters):
        column, p = [top] * j, y.point
        head = None if p is None else (p.coords or (0,))[0]
        for i, q in buckets.get((-y.sign, head), ()):
            k = None if p is None else first_difference(q, p)
            column[i] = 0 if k is None else top >> k
        buckets.setdefault((y.sign, head), []).append((j, p))
        column.append(top if y.sign else 0)
        costs.append(column)
    return top, costs


def _pair_cost(x: Letter, y: Letter, top: int) -> int:
    # _unit_costs' rule for one pair, for the per-call memos: d(x^{-1}, y), the cost of
    # pairing x with a later y, in units of 1 / top, top a multiple of 2^max_depth
    if x.sign != -y.sign:
        return top
    k = first_difference(x.point, y.point) if x.sign else None
    return 0 if k is None else top >> k


def graev_norm_bruteforce(w: Word) -> NormResult:
    """Minimize the rewrite cost over every match, by enumeration.

    The input is reduced first and costs come from the same integer table
    as the DP.  matching.match_costs lists the cost of every match in
    match_maps order; ties go to the first minimizer, whose index
    matching.unrank_match turns into the witness.  No match is built but
    the witness.
    """
    rw = reduce_word(w)
    n = len(rw)
    check_enumeration_cap(n, "brute-forcing a reduced word", ", or use the dynamic program")
    unit, costs = _unit_costs(rw)
    listed = match_costs(costs)
    best = min(listed)
    return NormResult(Rat(best, unit), unrank_match(n, listed.index(best)))


def trivial_norm_dp(w: Word) -> NormResult:
    """Minimum rewrite cost of w as spelled (not reduced), by cost_dp on the
    integer letter distances, and the match that matching.match_from_values
    reads back from its value matrix."""
    unit, costs = _unit_costs(w)
    row = cost_dp(costs)
    witness = match_from_values(row, len(costs), lambda i, j, inner: costs[j][i] + inner)
    return NormResult(Rat(row[0][-1], unit), witness)


def cost_dp(costs: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer interval DP under trivial_norm_dp and bidistances, on one lower-
    triangular letter-cost table: costs[j][j] costs letter j alone, costs[j][i] (i < j)
    pairing i with j.  C[i][j] is the least of the pair term costs[j][i] + C[i+1][j-1] and
    the splits C[i][k] + C[k+1][j] at k = i and after each closed [i, k], one whose pair
    term is strictly below all its splits.  Exact: if an open [i, k] splits best at k',
    C[i][k] + C[k+1][j] >= C[i][k'] + C[k'+1][j] as C[k'+1][j] <= C[k'+1][k] + C[k+1][j].  Row i
    starts as the splits at i and each closed [i, j] pushes its own along it; still cubic
    in the worst case.  Returns row, row[i][j] = C[i][j] for i <= j, row[0][-1] the value;
    the lower triangle and row n stay 0: the empty interval, and C[i][j] + 0 in a push at j."""
    n = len(costs)
    row = [[0] * n for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        here, inner, alone = row[i], row[i + 1], costs[i][i]
        here[i:] = [alone + c for c in inner[i:]]
        for j in range(i + 1, n - 1):
            v = costs[j][i] + inner[j - 1]  # the pair term
            if v < here[j]:  # [i, j] is closed
                here[j:] = [a if a < v + b else v + b for a, b in zip(here[j:], row[j + 1][j:])]
        v = costs[-1][i] + inner[n - 2]  # the last column has nothing left to push into
        if v < here[-1]:
            here[-1] = v
    return row


def ends_dp(alone: list, ends: Callable) -> list[list]:
    """cost_dp's closed-block loop, exact for any values, with C[i][i] = alone[i] and the
    caller's pair term ends(i, j, C[i+1][j-1]), one call per cell i < j: the Fraction pair
    term of a callable-only scale, and the test oracle for factor_dp.  The empty interval
    (lower triangle, row n) is alone[0] * 0, in the caller's number type.  Returns row as
    cost_dp does, row[0][-1] the value; matching.match_from_values reads the witness back
    from it with the same ends."""
    n = len(alone)
    row = [[alone[0] * 0] * n for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        here, inner, a = row[i], row[i + 1], alone[i]
        here[i:] = [a + c for c in inner[i:]]
        for j in range(i + 1, n):
            v = ends(i, j, inner[j - 1])
            if v < here[j]:  # [i, j] is closed
                here[j:] = [b if b < v + c else v + c for b, c in zip(here[j:], row[j + 1][j:])]
    return row


def factor_dp(costs: Sequence[Sequence[int]], f: Sequence[int], den: int) -> list[list[int]]:
    """cost_dp's closed-block loop on one lower-triangular integer table, with the factor
    pair term inline: costs[j][i] + max(r * f[i], r * f[j]) // den, r = C[i+1][j-1], f the
    integer factors and den as in Spellings, which makes every division exact.  Values
    and factors may be negative: the closed-block rule uses only the min.  Returns row as
    cost_dp does, row[0][-1] the value; ends_dp with the same pair term is its oracle."""
    n = len(costs)
    row = [[0] * n for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        here, inner, alone, fi = row[i], row[i + 1], costs[i][i], f[i]
        here[i:] = [alone + c for c in inner[i:]]
        for j in range(i + 1, n - 1):
            r = inner[j - 1]
            a, b = r * fi, r * f[j]
            v = costs[j][i] + (a if a > b else b) // den  # the pair term
            if v < here[j]:  # [i, j] is closed
                here[j:] = [x if x < v + y else v + y for x, y in zip(here[j:], row[j + 1][j:])]
        r = inner[n - 2]  # the last column has nothing left to push into
        a, b = r * fi, r * f[-1]
        v = costs[-1][i] + (a if a > b else b) // den
        if v < here[-1]:
            here[-1] = v
    return row


def _memo_costs(
    spelling: Sequence[int], letters: Sequence[Letter], pairs: dict, unit: int
) -> tuple[tuple[int, ...], ...]:
    """_unit_costs' table, as a tuple of tuples, in units of 1 / unit, unit a multiple of
    2^depth, for the letters of spelling, indices into letters: costs[j][i] (i < j) is
    _pair_cost(letters[a], letters[b], unit) for the spelling's a and b, computed into
    the memo pairs on first use, and costs[j][j] is unit, or 0 for the identity."""
    costs = []
    for j, b in enumerate(spelling):
        column = []
        for a in spelling[:j]:
            c = pairs.get((a, b))
            if c is None:
                c = pairs[a, b] = _pair_cost(letters[a], letters[b], unit)
            column.append(c)
        column.append(unit if letters[b].sign else 0)
        costs.append(tuple(column))
    return tuple(costs)


class Spellings:
    """What every spelling of one non-trivial scale norm search shares.

    A spelling is a sequence of indices into letters; first is the spelling whose
    letters and length set the first unit, and scale is scale(x, r), with its factor or
    None.  top = 2^depth, depth the deepest of letters, as in bidistances.  Each letter
    pair's cost, d(letters[a]^{-1}, letters[b]), is computed once per search, on first
    use, into the memo pairs, an integer.  With a factor, scale(x, r) = r *
    factor(x.point) off the identity, values are integers in one unit, 1 / unit with
    unit = top * den^floor(length/2), den the lcm of the used letters' factor
    denominators and length the longest spelling: an interval of m letters nests at
    most floor(m/2) factors, so every division by den is exact, and one unit for every
    spelling keeps every comparison and tie.  Factors and values may be negative.
    widen(used, length) moves to more letters or longer spellings: the new unit is a
    multiple of the old, so the memo is rescaled, not recomputed, and a value times the
    ratio it returns is the same value in the new unit.  Without a factor, unit is 1,
    the memo stays in units of 1 / top, spelling_values reads its entries as Fractions,
    values are Fractions, the pair term calls scale(x, r) itself and widen returns 1.
    The memo holds only the pairs some spelling meets, the factors only used letters'."""

    def __init__(self, letters: Sequence[Letter], first: Sequence[int], scale: Callable):
        self.letters, self.scale, self.pairs, self.unit = letters, scale, {}, 1
        self.top = 1 << max((x.point.depth for x in letters if x.point is not None), default=0)
        self.raw = {}  # the used letters' factors
        self.widen(first, len(first))

    def widen(self, used: Iterable[int], length: int) -> int:
        factor, letters, raw = self.scale.factor, self.letters, self.raw
        if factor is None:
            return 1
        for a in used:
            if a not in raw:
                raw[a] = 1 if letters[a].point is None else factor(letters[a].point)
        den = self.den = lcm(*(f.denominator for f in raw.values()))
        unit = self.top * den ** (length // 2)
        ratio, self.unit = unit // self.unit, unit
        self.pairs = {key: cost * ratio for key, cost in self.pairs.items()}
        # F_a = factor_a * den, an integer
        self.factors = {a: f.numerator * (den // f.denominator) for a, f in raw.items()}
        return ratio


def spelling_values(search: Spellings, spelling: Sequence[int]) -> tuple[list[list], Callable]:
    """The value matrix of one spelling (row[0][-1] its norm in search's unit) and its pair
    term, for matching.match_from_values.  The ends of a pair pay d(x_i^{-1}, x_j) +
    max(scale(x_i^{-1}, r), scale(x_j, r)), r the inner value: with a factor, r * F_i and
    r * F_j over den, which factor_dp computes inline; without one, ends_dp calls the
    Fraction pair term."""
    scale = search.scale
    if scale.factor is None:
        costs = _memo_costs(spelling, search.letters, search.pairs, search.top)
        costs = [[Rat(c, search.top) for c in column] for column in costs]
        ys = [search.letters[b] for b in spelling]
        xs = [y.inverse() for y in ys]

        def ends(i: int, j: int, inner: Rat) -> Rat:
            return costs[j][i] + max(scale(xs[i], inner), scale(ys[j], inner))

        return ends_dp([column[-1] for column in costs], ends), ends
    costs = _memo_costs(spelling, search.letters, search.pairs, search.unit)
    den, f = search.den, [search.factors[a] for a in spelling]

    def ends(i: int, j: int, r: int) -> int:
        return costs[j][i] + max(r * f[i], r * f[j]) // den

    return factor_dp(costs, f, den), ends


def cheapest_spelling(
    letters: Sequence[Letter],
    first: Sequence[int],
    rest: Callable[[], Collection[Sequence[int]]],
    scale: Callable[[Letter, Rat], Rat],
    floor: Rat | None = None,
) -> tuple[Rat, Match, Sequence[int]]:
    """The first cheapest of first and the spellings rest() returns, index sequences into
    letters, under a non-trivial scale, scale(x, r) with its factor or None: its norm, the
    match read back from its value matrix, and the spelling.  One Spellings serves the
    search.  floor is a value no spelling goes below.  first runs in its own letters'
    unit, and rest is called once, only if first's value misses floor: a search that
    ends on first builds no other spelling and computes no other factor.  Before the
    others the unit widens once, to every letter and to the longest spelling.  Each
    spelling is evaluated once, value-only, by spelling_values and compared as an integer
    (a Fraction without a factor), the search ends once the cheapest reaches floor, and
    the witness is read back for the winner only."""
    search = Spellings(letters, first, scale)
    values, ends = spelling_values(search, first)
    best = values[0][-1], values, ends, first  # value in search's unit, matrix, term, spelling

    def reached(value: int | Rat) -> bool:
        return floor is not None and value * floor.denominator == floor.numerator * search.unit

    others = () if reached(best[0]) else rest()
    if others:
        ratio = search.widen(range(len(letters)), max(len(first), *map(len, others)))
        best = best[0] * ratio, *best[1:]
        for spelling in others:
            values, ends = spelling_values(search, spelling)
            if values[0][-1] < best[0]:
                best = values[0][-1], values, ends, spelling
                if reached(best[0]):
                    break
    value, values, ends, spelling = best
    return Rat(value, search.unit), match_from_values(values, len(spelling), ends), spelling


def graev_norm_dp(w: Word) -> Rat:
    """Same minimum as the brute force, by the interval DP on the reduced
    word.  Uncapped; cubic in the reduced length."""
    unit, costs = _unit_costs(reduce_word(w))
    return Rat(cost_dp(costs)[0][-1], unit)


def graev_distance(u: ReducedWord, v: ReducedWord) -> Rat:
    """Left-invariant metric extending the letter distance: norm of u^{-1}v."""
    return graev_norm_dp(multiply(invert(u), v))


def graev_bidistance(u: ReducedWord, v: ReducedWord) -> Rat:
    """Two-sided metric d(u, v) + d(u^{-1}, v^{-1}), by definition: the tests'
    route for bidistances."""
    return graev_distance(u, v) + graev_distance(invert(u), invert(v))


def bidistances(pairs: list[tuple[ReducedWord, ReducedWord]]) -> list[Rat]:
    """graev_bidistance of each pair of reduced words, in order: twice the norm
    N(u^{-1}v), each distinct cost table normed once by cost_dp.  N is conjugation-
    and inversion-invariant, so N(uv^{-1}) = N(u^{-1} uv^{-1} u) = N(v^{-1}u) =
    N(u^{-1}v): the metric is two-sided invariant, d(u^{-1}, v^{-1}) = d(u, v).
    Words are numbered first, once per object (keyed by id(): pairs keeps them
    alive), a letter 2k and its inverse 2k + 1, so inverting one flips the low
    bit.  The deepest letter fixes the unit 2^-depth; each letter pair's cost is
    computed once per call.  The norm depends only on the table, and every table
    of the call is in the one unit, so one memo keyed by the table holds each
    distance."""
    ids: dict[Letter, int] = {}
    letters: list[Letter] = []
    sides: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}  # word, inverse
    for key, w in {id(w): w for uv in pairs for w in uv}.items():
        numbers = []
        for x in w.letters:
            if x.is_identity:
                continue
            i = ids.get(x)
            if i is None:
                y = x.inverse()
                i = ids[x] = len(letters)
                ids[y] = i + 1
                letters += (x, y)
            numbers.append(i)
        sides[key] = tuple(numbers), tuple(i ^ 1 for i in reversed(numbers))
    top = 1 << max((x.point.depth for x in letters), default=0)
    pair_costs: dict[tuple[int, int], int] = {}  # (x_i, x_j) -> d(x_i^-1, x_j)
    distances: dict[tuple[tuple[int, ...], ...], Rat] = {(): Rat(0)}  # keyed by cost table

    def distance(a: tuple[int, ...], b: tuple[int, ...]) -> Rat:
        # both are reduced, so only letters meeting at the seam cancel
        k, m = 0, min(len(a), len(b))
        while k < m and a[-1 - k] ^ 1 == b[k]:
            k += 1
        key = a[: len(a) - k] + b[k:]
        # no identity letters, so every letter alone costs the whole unit
        table = _memo_costs(key, letters, pair_costs, top)
        value = distances.get(table)
        if value is None:
            value = distances[table] = Rat(2 * cost_dp(table)[0][-1], top)
        return value

    return [distance(sides[id(u)][1], sides[id(v)][0]) for u, v in pairs]
