"""Non-crossing involutions on index intervals.

A match pairs some positions of {0,...,l} so that no two arcs cross
(there are no i < j < theta(i) < theta(j)); fixed points are allowed,
which is why the counts are Motzkin numbers rather than Catalan numbers.
Matches over a sub-interval are always re-indexed to start at 0.

This module owns the match order, the Motzkin counts and the enumeration
cap: check_enumeration_cap is the one test of it, for the brute-force norm,
the CLI listing and the match sampler alike, and match_costs lists every
match's cost in that order for the brute force.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ResourceLimitError, digit_limit, digit_limit_error
from .freegroup import IDENTITY, Rat, Word, ZERO, letter_distance

DEFAULT_MATCH_CAP = 14
MATCH_CAP_ENV = "GRAEV_MATCH_CAP"


def enumeration_cap() -> int:
    """Active cap on match enumeration (env override allowed)."""
    raw = os.environ.get(MATCH_CAP_ENV)
    if raw is None:
        return DEFAULT_MATCH_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MATCH_CAP_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{MATCH_CAP_ENV} must be >= 1, got {value}")
    return value


def check_enumeration_cap(length: int, what: str, remedy: str = "") -> None:
    """Raise ResourceLimitError when length is above enumeration_cap(); what
    names the refused job and remedy, if any, is appended to the message."""
    cap = enumeration_cap()
    if length > cap:
        raise ResourceLimitError(
            f"{what} of length {length} is above the match enumeration cap {cap}; "
            f"set {MATCH_CAP_ENV} to raise it{remedy}"
        )


@dataclass(frozen=True)
class Match:
    """An index map over {0,...,l}; map[i] holds the partner of i."""

    map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "map", tuple(self.map))

    def __len__(self) -> int:
        return len(self.map)

    @staticmethod
    def identity(length: int) -> "Match":
        return Match(tuple(range(length)))

    def serialize(self) -> str:
        return " ".join(str(v) for v in self.map)


def match_from_values(row, n: int, ends) -> Match:
    """Read back the match an interval DP chose on {0,...,n-1}, iteratively.

    row[i][j] (i <= j) holds C[i][j], the least of the pair term ends(i, j, inner),
    inner = C[i+1][j-1] (ZERO if empty), and the splits C[i][k] + C[k+1][j], i <= k < j.
    The ends pair unless a split is strictly cheaper, and then the first cheapest k
    splits; so ends runs only where a split reaches C[i][j].  Single positions stay fixed.
    """
    mp = list(range(n))
    pending = [(0, n - 1)]
    while pending:
        i, j = pending.pop()
        while i < j:
            here, best = row[i], row[i][j]
            k = next((k for k in range(i, j) if here[k] + row[k + 1][j] == best), None)
            if k is None or ends(i, j, row[i + 1][j - 1] if i + 1 < j else ZERO) == best:
                mp[i], mp[j] = j, i
                i, j = i + 1, j - 1
            else:
                pending.append((k + 1, j))
                j = k
    return Match(tuple(mp))


def is_match(candidate: Sequence[int]) -> bool:
    """True iff candidate is an involution with no crossing arcs.

    One left-to-right scan: each closer must be the partner on top of the
    stack of open arcs, or a later arc crosses it.  Out-of-range images make
    the candidate invalid rather than an error.
    """
    seq = tuple(candidate)
    n = len(seq)
    closers: list[int] = []
    for i, t in enumerate(seq):
        if not 0 <= t < n or seq[t] != i:
            return False
        if t > i:
            closers.append(t)
        elif t < i and closers.pop() != i:
            return False
    return True


def _generate(n: int, lists: list[tuple[tuple[int, ...], ...]]) -> Iterator[tuple[int, ...]]:
    # Canonical order by the fate of index 0: fixed first, then paired with each
    # j = 1..n-1, recursing on the inside and outside segments (lists[m], m < n).
    for rest in lists[n - 1]:
        yield (0,) + tuple(v + 1 for v in rest)
    for j in range(1, n):
        outside_list = [tuple(v + j + 1 for v in outside) for outside in lists[n - 1 - j]]
        for inside in lists[j - 1]:
            head = (j,) + tuple(v + 1 for v in inside) + (0,)
            for outside in outside_list:
                yield head + outside


def match_maps(length: int) -> Iterator[tuple[int, ...]]:
    """Stream every match on {0,...,length-1} as a raw index tuple.  The shorter
    lengths' lists are built on the first next() and die with the generator."""
    if length < 1:
        raise ValueError("match enumeration needs interval length >= 1")
    lists = [((),)]
    for m in range(1, length):
        lists.append(tuple(_generate(m, lists)))
    yield from _generate(length, lists)


def enumerate_matches(length: int) -> Iterator[Match]:
    """Yield every match on {0,...,length-1} exactly once, in a fixed order."""
    for m in match_maps(length):
        yield Match(m)


def _motzkin(length: int) -> Iterator[int]:
    prev, cur = 0, 1  # M_{-1}, whose coefficient in count_matches' recurrence is 0, and M_0
    yield cur
    for n in range(1, length + 1):
        prev, cur = cur, ((2 * n + 1) * cur + 3 * (n - 1) * prev) // (n + 2)
        yield cur


def count_matches(length: int) -> int:
    """Motzkin number M_length by the exact three-term recurrence
    (n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2}, from M_0 = M_1 = 1.

    Raises errors.digit_limit_error once a term has more decimal digits than
    the interpreter converts (digit_limit(), 0 for no limit): the sequence
    never decreases, so M_length could not be printed either.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    digits, too_long = digit_limit(), 0
    for cur in _motzkin(length):
        # 10**digits has over 3.32 * digits bits: built once, when a term needs it
        if digits and cur.bit_length() > 3 * digits:
            too_long = too_long or 10**digits
            if cur >= too_long:
                raise digit_limit_error(f"the number of matches of length {length}")
    return cur


def unrank_match(length: int, index: int) -> Match:
    """The index-th match on {0,...,length-1} in match_maps order, listing none: [a, b)
    has M_{b-a-1} with a fixed, then per partner j M_{j-a-1} inside x M_{b-j-1} outside."""
    sizes = list(_motzkin(length))  # sizes[m] = M_m, the matches of a length-m interval
    if not 0 <= index < sizes[length]:
        raise ValueError(f"match index {index} is not in [0, M_{length}) = [0, {sizes[length]})")
    mp = list(range(length))
    pending = [(0, length, index)]  # (a, b, k): the k-th match of [a, b)
    while pending:
        a, b, k = pending.pop()
        while a < b:
            for j in range(a, b):  # j = a: a is fixed, with an empty inside
                outside = sizes[b - j - 1]
                size = (sizes[j - a - 1] if j > a else 1) * outside
                if k < size:
                    break
                k -= size
            k_inside, k = divmod(k, outside)
            mp[a], mp[j] = j, a
            pending.append((a + 1, j, k_inside))
            a = j + 1
    return Match(tuple(mp))


def match_costs(costs: Sequence[Sequence[int]]) -> list[int]:
    """Every match's cost on {0,...,n-1}, n = len(costs), in match_maps order, from a
    lower-triangular table: index k costs unrank_match(n, k), costs[i][i] per fixed i
    plus costs[j][i] per arc i < j.  lists[a][b] holds [a, b)'s: a fixed, then a paired
    with each j = a+1..b-1, inside matches outer, outside matches inner."""
    n = len(costs)
    lists = [[[0]] * (n + 1) for _ in range(n + 1)]  # lists[a][a] = [0], the empty match
    for a in range(n - 1, -1, -1):
        here, inner, fix_a = lists[a], lists[a + 1], costs[a][a]
        for b in range(a + 1, n + 1):
            block = [fix_a + c for c in inner[b]]
            for j in range(a + 1, b):
                outside, pair_aj = lists[j + 1][b], costs[j][a]
                block += [pair_aj + ci + co for ci in inner[j] for co in outside]
            here[b] = block
    return lists[0][n]


def apply_match(w: Word, theta: Match) -> Word:
    """Rewrite w under theta: keep openers, blank fixed points to the
    identity, and close each arc with the inverse of its opener."""
    if len(w) != len(theta):
        raise ValueError(
            f"word length {len(w)} does not equal match domain size {len(theta)}"
        )
    out = []
    for i, t in enumerate(theta.map):
        if t > i:
            out.append(w.letters[i])
        elif t == i:
            out.append(IDENTITY)
        else:
            out.append(w.letters[t].inverse())
    return Word(tuple(out))


def rho(u: Word, v: Word) -> Rat:
    """Sum of letterwise distances between equal-length words."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    total = ZERO
    for a, b in zip(u.letters, v.letters):
        total += letter_distance(a, b)
    return total
