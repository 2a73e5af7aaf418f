"""Non-crossing involutions on index intervals.

A match pairs some positions of {0,...,l} so that no two arcs cross
(there are no i < j < theta(i) < theta(j)); fixed points are allowed,
which is why the counts are Motzkin numbers rather than Catalan numbers.
Matches over a sub-interval are always re-indexed to start at 0.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ResourceLimitError
from .freegroup import IDENTITY, Rat, Word, ZERO, letter_distance


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


def match_from_choices(choice, n: int) -> Match:
    """Rebuild the match an interval DP chose on {0,...,n-1}, iteratively.

    choice[i][j] (i < j) is None when the DP paired the ends i and j
    around the inner interval, or the k (i <= k < j) where it split the
    interval into [i, k] and [k+1, j].  Single positions are fixed points.
    """
    mp = list(range(n))
    pending = [(0, n - 1)]
    while pending:
        i, j = pending.pop()
        while i < j:
            k = choice[i][j]
            if k is None:
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


# Materialized match lists, keyed by interval length.  Only lengths strictly
# below the one being streamed are cached, so memory stays one Motzkin number
# behind the requested size.  Concurrent re-population is harmless.
_MATCH_LISTS: dict[int, tuple[tuple[int, ...], ...]] = {0: ((),)}


def _match_list(n: int) -> tuple[tuple[int, ...], ...]:
    cached = _MATCH_LISTS.get(n)
    if cached is None:
        cached = tuple(_generate(n))
        _MATCH_LISTS[n] = cached
    return cached


def _generate(n: int) -> Iterator[tuple[int, ...]]:
    # Canonical order by the fate of index 0: fixed first, then paired with
    # each j = 1..n-1, recursing on the inside and outside segments.
    if n == 0:
        yield ()
        return
    for rest in _match_list(n - 1):
        yield (0,) + tuple(v + 1 for v in rest)
    for j in range(1, n):
        outside_list = _match_list(n - 1 - j)
        for inside in _match_list(j - 1):
            head = (j,) + tuple(v + 1 for v in inside) + (0,)
            for outside in outside_list:
                yield head + tuple(v + j + 1 for v in outside)


def match_maps(length: int) -> Iterator[tuple[int, ...]]:
    """Stream every match on {0,...,length-1} as a raw index tuple."""
    if length < 1:
        raise ValueError("match enumeration needs interval length >= 1")
    return _generate(length)


def enumerate_matches(length: int) -> Iterator[Match]:
    """Yield every match on {0,...,length-1} exactly once, in a fixed order."""
    for m in match_maps(length):
        yield Match(m)


def count_matches(length: int) -> int:
    """Motzkin number M_length by the exact three-term recurrence
    (n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2}, from M_0 = M_1 = 1.

    Raises ResourceLimitError once a term has more decimal digits than the
    interpreter converts (sys.get_int_max_str_digits(), 0 for no limit):
    the sequence never decreases, so M_length could not be printed either.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    digits = sys.get_int_max_str_digits()
    too_long = 10**digits if digits else 0
    prev, cur = 1, 1
    for n in range(2, length + 1):
        prev, cur = cur, ((2 * n + 1) * cur + 3 * (n - 1) * prev) // (n + 2)
        if too_long and cur >= too_long:
            raise ResourceLimitError(
                f"the number of matches of length {length} has more than {digits} "
                "digits, the interpreter's int-to-str limit; raise PYTHONINTMAXSTRDIGITS"
            )
    return cur


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
