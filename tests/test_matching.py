import itertools
import random
import sys
from fractions import Fraction as F

import pytest

from graev.errors import ResourceLimitError
from graev.freegroup import IDENTITY, letter_distance, neg, pos, word
from graev.matching import (
    Match,
    apply_match,
    count_matches,
    enumerate_matches,
    is_match,
    match_costs,
    match_from_values,
    match_maps,
    rho,
    unrank_match,
)

from conftest import involutions, one_table

# Motzkin numbers M_0..M_11, cross-checked below against the involution
# oracle for the sizes where that is feasible.
MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798]


def literal_is_match(candidate):
    """The definition read literally: an in-range involution with no
    i < j < theta(i) < theta(j).  Quadratic; the reference for is_match."""
    seq = tuple(candidate)
    n = len(seq)
    if any(not 0 <= v < n for v in seq):
        return False
    if any(seq[seq[i]] != i for i in range(n)):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if j < seq[i] < seq[j]:
                return False
    return True


def oracle_matches(n):
    return [m for m in involutions(n) if literal_is_match(m)]


# --- is_match ---------------------------------------------------------------


def test_is_match_examples():
    assert is_match((0, 1, 2))  # all fixed points
    assert is_match((3, 2, 1, 0))  # nested arcs
    assert not is_match((2, 3, 0, 1))  # the forbidden crossing
    assert not is_match((1, 2, 0))  # not an involution
    assert not is_match((5, 1, 2))  # out-of-range image rejected, not an error
    assert is_match((0,))


def test_is_match_equals_literal_quantifier_exhaustive():
    # every map {0..n-1} -> {0..n}: out-of-range images, non-involutions,
    # crossings and the empty map
    for n in range(7):
        for cand in itertools.product(range(n + 1), repeat=n):
            assert is_match(cand) == literal_is_match(cand), cand


def test_is_match_equals_literal_quantifier_random():
    rng = random.Random(20)
    verdicts = set()
    for _ in range(20000):
        n = rng.randint(0, 12)
        if rng.random() < 0.5:
            cand = [rng.randint(0, n) for _ in range(n)]
        else:  # a random involution, crossing or not, sometimes with one image moved
            cand = list(range(n))
            free = rng.sample(range(n), n)
            for a, b in zip(free[::2], free[1 :: 2]):
                if rng.random() < 0.7:
                    cand[a], cand[b] = b, a
            if n and rng.random() < 0.2:
                cand[rng.randrange(n)] = rng.randint(0, n)
        verdict = is_match(cand)
        assert verdict == literal_is_match(cand), cand
        verdicts.add((n > 8, verdict))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def test_is_match_requires_involution_everywhere():
    for n in range(1, 6):
        for cand in oracle_matches(n):
            assert tuple(cand[cand[i]] for i in range(n)) == tuple(range(n))


# --- enumeration and counting -------------------------------------------------


def test_counts_match_involution_oracle():
    for n in range(1, 9):
        assert len(oracle_matches(n)) == MOTZKIN[n]


def convolution_motzkin(length):
    """M_0..M_length by M_{n+1} = M_n + sum_{k<n} M_k M_{n-1-k}.  Quadratic;
    the reference for the three-term recurrence in count_matches."""
    m = [1, 1]
    while len(m) <= length:
        n = len(m) - 1
        m.append(m[n] + sum(m[k] * m[n - 1 - k] for k in range(n)))
    return m[: length + 1]


def test_count_matches_examples():
    assert count_matches(2) == 2
    assert count_matches(5) == 21
    assert count_matches(10) == 2188
    with pytest.raises(ValueError, match="length must be >= 0"):
        count_matches(-1)


def test_count_matches_equals_convolution():
    reference = convolution_motzkin(1000)
    assert reference[: len(MOTZKIN)] == MOTZKIN
    assert [count_matches(n) for n in range(1001)] == reference


def test_count_matches_stops_at_the_int_to_str_limit(default_digit_limit):
    limit = sys.get_int_max_str_digits()
    assert limit > 0
    try:  # the last printable length, found with the limit lifted
        sys.set_int_max_str_digits(0)
        low, high = 1, 4 * limit
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if len(str(count_matches(mid))) <= limit else (low, mid)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(str(count_matches(low))) == limit
    with pytest.raises(ResourceLimitError, match=f"more than {limit} digits"):
        count_matches(high)
    with pytest.raises(ResourceLimitError, match=f"more than {limit} digits"):
        count_matches(10**9)


def test_enumeration_agrees_with_recurrence_and_oracle():
    for n in range(1, 11):
        enumerated = list(enumerate_matches(n))
        assert len(enumerated) == count_matches(n) == MOTZKIN[n]
        assert all(is_match(m.map) for m in enumerated)
        assert len(set(m.map for m in enumerated)) == len(enumerated)
        if n <= 8:
            assert sorted(m.map for m in enumerated) == sorted(oracle_matches(n))


def test_enumeration_order_is_deterministic():
    first = [m.map for m in enumerate_matches(5)]
    second = [m.map for m in enumerate_matches(5)]
    assert first == second
    assert [m.map for m in enumerate_matches(3)] == [
        (0, 1, 2),
        (0, 2, 1),
        (1, 0, 2),
        (2, 1, 0),
    ]


def test_enumerate_rejects_empty_interval():
    with pytest.raises(ValueError):
        list(enumerate_matches(0))


def test_single_position_has_one_match():
    assert [m.map for m in enumerate_matches(1)] == [(0,)]


def test_unrank_match_follows_enumeration_order():
    assert unrank_match(0, 0) == Match(())
    for n in range(1, 12):
        listed = list(match_maps(n))
        assert [unrank_match(n, k).map for k in range(len(listed))] == listed, n
    for index in (-1, MOTZKIN[5]):
        with pytest.raises(ValueError, match="not in"):
            unrank_match(5, index)


def test_match_costs_follow_enumeration_order():
    # every match's cost, index by index, on int tables with many ties
    rng = random.Random(47)
    assert match_costs([]) == [0]
    for n in range(1, 10):
        for _ in range(3):
            fix = [rng.randint(0, 2) for _ in range(n)]
            pair = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
            listed = [
                sum(fix[i] if t == i else pair[i][t] for i, t in enumerate(mp) if t >= i)
                for mp in match_maps(n)
            ]
            assert match_costs(one_table(fix, pair)) == listed, n


# --- apply_match and rho -------------------------------------------------------


def test_apply_match_examples():
    w = word(pos(1), pos(2))
    assert apply_match(w, Match((1, 0))) == word(pos(1), neg(1))
    assert apply_match(w, Match.identity(2)) == word(IDENTITY, IDENTITY)
    w3 = word(neg(1), pos(3), pos(1))
    assert apply_match(w3, Match((2, 1, 0))) == word(neg(1), IDENTITY, pos(1))


def test_apply_match_identity_blanks_everything():
    w = word(pos(1), neg(2), pos(1, 2))
    blank = apply_match(w, Match.identity(3))
    assert all(x.is_identity for x in blank.letters)
    assert rho(w, blank) == sum(
        (letter_distance(x, IDENTITY) for x in w.letters), F(0)
    )


def test_apply_match_length_mismatch():
    with pytest.raises(ValueError):
        apply_match(word(pos(1)), Match((0, 1)))


def test_rho_examples():
    w = word(pos(1), neg(2))
    assert rho(w, w) == 0
    assert rho(word(pos(1)), word(IDENTITY)) == 1
    assert rho(word(pos(1, 2), pos(4)), word(pos(1, 3), pos(4))) == F(1, 2)
    assert rho(word(pos(1)), word(pos(2))) == rho(word(pos(2)), word(pos(1)))


def test_rho_length_mismatch():
    with pytest.raises(ValueError):
        rho(word(pos(1)), word(pos(1), pos(2)))


def test_match_serialization():
    assert Match((3, 2, 1, 0)).serialize() == "3 2 1 0"


# --- witness read-back from DP values ----------------------------------------


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


class SparseRow(dict):
    """A value row whose missing entries read 0."""

    def __missing__(self, key):
        return 0


def test_match_from_values_small():
    # fixed points cost 1, the arcs (0, 1) and (2, 3) cost 0 and every other
    # arc 5: [0, 3] splits at 1, since its pair term 5 + C[1][2] = 7 is dearer,
    # and [0, 1] and [2, 3] pair their ends, since no split reaches 0
    row = [[1, 0, 1, 0], [0, 1, 2, 1], [1, 2, 1, 0], [0, 1, 0, 1]]
    arcs = {(0, 1): 0, (2, 3): 0}
    ends = lambda i, j, inner: arcs.get((i, j), 5) + inner
    assert match_from_values(row, 4, ends).map == (1, 0, 3, 2)
    assert match_from_values([[1]], 1, ends).map == (0,)


def test_match_from_values_deep_nesting_is_iterative():
    # 3,000 nested pairs around a fixed point, then 3,000 chained splits into
    # fixed points: every split ties at 0, so ends decides each interval, and
    # a recursive walk would need a frame per level
    depth = 3000
    n = 2 * depth + 1
    row = [SparseRow() for _ in range(n)]
    assert match_from_values(row, n, lambda i, j, inner: 0).map == tuple(reversed(range(n)))
    assert match_from_values(row, n, lambda i, j, inner: 1).map == tuple(range(n))
