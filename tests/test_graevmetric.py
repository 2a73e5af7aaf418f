import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from math import lcm
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graev.errors import ResourceLimitError
from graev.freegroup import (
    IDENTITY,
    IDENTITY_WORD,
    Letter,
    Point,
    Word,
    first_difference,
    invert,
    letter_distance,
    multiply,
    neg,
    pos,
    reduce_word,
    word,
)
from graev.graevmetric import (
    NormResult,
    _memo_costs,
    _unit_costs,
    bidistances,
    cost_dp,
    graev_bidistance,
    graev_distance,
    graev_norm_bruteforce,
    graev_norm_dp,
    trivial_norm_dp,
)
from graev.matching import Match, apply_match, is_match, match_from_values, match_maps, rho
from graev.sampling import exhaustive_reduced_words, sample_match, sample_reduced_word
from graev.scales import TRIVIAL_SCALE, norm_theta_min

from conftest import (
    ALPHA3,
    DEEP_POINTS,
    factor_scales,
    long_word_families,
    one_table,
    random_raw_word,
)
from test_matching import match_from_choices


def test_norm_examples():
    assert graev_norm_dp(IDENTITY_WORD) == 0
    assert graev_norm_bruteforce(IDENTITY_WORD).value == 0
    assert graev_norm_dp(word(neg(1, 2), pos(1, 3))) == F(1, 2)
    assert graev_norm_bruteforce(word(neg(1, 2), pos(1, 3))).value == F(1, 2)
    # identity match costs 2; pairing costs d(Pos[2], Neg[1]) = 1
    assert graev_norm_dp(word(pos(1), pos(2))) == 1


def test_norm_reduces_input_first():
    w = Word((pos(1), neg(1), pos(2)))
    assert graev_norm_dp(w) == graev_norm_dp(word(pos(2))) == 1


def test_bruteforce_witness_attains_value():
    for letters in [
        (neg(1, 2), pos(1, 3)),
        (pos(1), pos(2), neg(1)),
        (pos(1), pos(1), pos(2), neg(1)),
    ]:
        w = reduce_word(Word(letters))
        res = graev_norm_bruteforce(w)
        assert rho(w, apply_match(w, res.witness)) == res.value


def test_dp_equals_bruteforce_exhaustive_small():
    for w in exhaustive_reduced_words(list(ALPHA3), 4):
        assert graev_norm_dp(w) == graev_norm_bruteforce(w).value


@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
@settings(max_examples=150, deadline=None)
def test_dp_equals_bruteforce_random(seed, max_len):
    rng = random.Random(seed)
    w = sample_reduced_word(rng, DEEP_POINTS, max_len, uniform_length=True)
    assert graev_norm_dp(w) == graev_norm_bruteforce(w).value


def test_enumeration_cap_error_names_cap(monkeypatch):
    long_word = Word(tuple(pos(k + 1) for k in range(15)))
    with pytest.raises(ResourceLimitError, match="cap 14"):
        graev_norm_bruteforce(long_word)
    monkeypatch.setenv("GRAEV_MATCH_CAP", "4")
    with pytest.raises(ResourceLimitError, match="cap 4"):
        graev_norm_bruteforce(word(pos(1), pos(2), pos(3), pos(4), pos(5)))
    # DP path is uncapped; seven unit-cost arcs plus one fixed point
    assert graev_norm_dp(long_word) == 8


def test_sample_match_refuses_lengths_above_cap(monkeypatch):
    rng = random.Random(0)
    monkeypatch.setenv("GRAEV_MATCH_CAP", "6")
    with pytest.raises(ResourceLimitError) as refused:
        sample_match(rng, 7)
    assert str(refused.value) == (
        "sampling a match of length 7 is above the match enumeration cap 6; "
        "set GRAEV_MATCH_CAP to raise it"
    )
    assert is_match(sample_match(rng, 6).map)
    with pytest.raises(ValueError, match="interval length >= 1"):
        sample_match(rng, 0)


def test_sample_match_equals_listed_draw():
    # The reference is the draw read literally, rng.choice over every listed
    # match.  Same matches and same generator state, so every seeded stream
    # built on sample_match (tower, scales, acceptance) stays as it was.
    listed = {n: tuple(match_maps(n)) for n in range(1, 13)}
    for seed in range(200):
        ours, reference = random.Random(seed), random.Random(seed)
        for i in range(30):
            n = 1 + (seed + i) % 12
            assert sample_match(ours, n).map == reference.choice(listed[n])
        assert ours.getstate() == reference.getstate(), seed


def test_distance_examples():
    u = word(pos(1, 2))
    assert graev_distance(u, u) == 0
    assert graev_distance(word(pos(1, 2)), word(pos(1, 3))) == F(1, 2)
    assert graev_bidistance(word(pos(1, 2)), word(pos(1, 3))) == 1
    assert graev_bidistance(u, u) == 0


def test_metric_axioms_small():
    words = exhaustive_reduced_words(list(ALPHA3), 2)
    dist = {}
    for u, v in itertools.product(words, repeat=2):
        dist[u, v] = graev_distance(u, v)
    for u, v in itertools.product(words, repeat=2):
        assert (dist[u, v] == 0) == (u == v)
        assert dist[u, v] == dist[v, u]
    sample = words[::4]
    for u, v, w_ in itertools.product(sample, repeat=3):
        assert dist[u, w_] <= dist[u, v] + dist[v, w_]


def test_extension_on_single_letters():
    letters = [Letter(s, p) for p in DEEP_POINTS for s in (1, -1)]
    letters.append(Letter(0, None))
    for a, b in itertools.combinations(letters, 2):
        assert graev_distance(word(a), word(b)) == letter_distance(a, b)


def test_left_invariance_small():
    words = exhaustive_reduced_words(list(ALPHA3), 2)
    gs = [word(Letter(s, p)) for p in ALPHA3 for s in (1, -1)] + [IDENTITY_WORD]
    for g in gs:
        for u, v in itertools.product(words[::3], repeat=2):
            assert graev_distance(multiply(g, u), multiply(g, v)) == graev_distance(u, v)


def test_conjugation_invariance_trivial_scale():
    words = exhaustive_reduced_words(list(ALPHA3), 3)
    gs = [word(Letter(s, p)) for p in ALPHA3 for s in (1, -1)]
    for g in gs:
        for u in words[::5]:
            conj = multiply(multiply(invert(g), u), g)
            assert graev_norm_dp(conj) == graev_norm_dp(u)


def test_norm_symmetric_under_inversion():
    for w in exhaustive_reduced_words(list(ALPHA3), 3)[::3]:
        assert graev_norm_dp(w) == graev_norm_dp(invert(w))


def _seam_pairs(rng, count):
    """count pairs g·a, g·b that share only a prefix and as many a·g, b·g that
    share only a suffix: one of u^{-1}v and uv^{-1} cancels at the seam, the
    other does not.  Then pairs whose u^{-1}v cancels a whole word, u or v."""
    prefix, suffix = [], []
    while len(prefix) < count or len(suffix) < count:
        g, a, b = (sample_reduced_word(rng, DEEP_POINTS, 4) for _ in range(3))
        for kind, u, v in (
            (prefix, multiply(g, a), multiply(g, b)),
            (suffix, multiply(a, g), multiply(b, g)),
        ):
            whole = len(u) + len(v)
            cut = len(multiply(invert(u), v)) < whole, len(multiply(u, invert(v))) < whole
            if cut[0] != cut[1] and len(kind) < count:
                kind.append((u, v))
    g, b = word(pos(1), neg(1, 2)), word(pos(0, 0, 1))
    return prefix + suffix + [(g, multiply(g, b)), (multiply(g, b), g)]


def test_distance_two_sided_invariant():
    # d(u^{-1}, v^{-1}) = d(u, v), the identity that lets bidistances norm one
    # product per pair; short products check it on the brute force as well
    rng = random.Random(59)
    words = [sample_reduced_word(rng, DEEP_POINTS, 5) for _ in range(24)]
    words += [IDENTITY_WORD, Word((IDENTITY,))]
    pairs = list(itertools.product(words, words[::2])) + _seam_pairs(rng, 40)
    for u, v in pairs:
        assert graev_distance(u, v) == graev_distance(invert(u), invert(v)), (u, v)
        left, right = multiply(invert(u), v), multiply(u, invert(v))
        if max(len(left), len(right)) <= 10:
            assert graev_norm_bruteforce(left).value == graev_norm_bruteforce(right).value


def test_discreteness_depth_two():
    pts = [Point(()), Point((1,)), Point((1, 2)), Point((0, 2))]
    rng = random.Random(7)
    for _ in range(100):
        u = sample_reduced_word(rng, pts, 3)
        v = sample_reduced_word(rng, pts, 3)
        if u != v:
            assert graev_bidistance(u, v) >= F(1, 4)


def test_bidistances_equal_graev_bidistance():
    # identity words, equal words held as distinct objects, repeated objects,
    # and the deepest letters only in the last pair, which fix the call's unit
    rng = random.Random(53)
    words = [sample_reduced_word(rng, DEEP_POINTS, 4) for _ in range(12)]
    words += [IDENTITY_WORD, Word((IDENTITY,))]
    pairs = [(u, v) for u in words for v in words[::3]]
    pairs += [(u, Word(u.letters)) for u in words]
    pairs += _seam_pairs(rng, 12)  # one seam cancels, the other does not
    pairs.append((word(pos(*[0] * 20, 2), neg(1)), word(pos(*[0] * 20, 1), neg(1))))
    assert bidistances(pairs) == [graev_bidistance(u, v) for u, v in pairs]
    assert bidistances([]) == []


def square_unit_costs(w):
    """The square tables of the two-table references, read off letter_distance:
    fix[i] = d(e, x_i) and pair[i][j] = d(x_i^{-1}, x_j), in units of 1/top."""
    top = 1 << w.max_depth

    def units(a, b):
        d = letter_distance(a, b) * top
        assert d.denominator == 1, (a, b)
        return d.numerator

    fix = [units(IDENTITY, x) for x in w.letters]
    pair = [[units(x.inverse(), y) for y in w.letters] for x in w.letters]
    return top, fix, pair


def test_unit_costs_equal_letter_distance():
    # column j holds letters 0..j, entry by entry the letter distance in units of
    # 1/top, on raw words with identity letters, repeats and points up to depth 6;
    # the memo-table builder of bidistances and the spelling search, with a fresh
    # memo for every word, returns the same table column for column at top, and m
    # times it at a widened unit top * m, as the factor search passes after widen
    rng = random.Random(83)
    points = [Point(tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 6)))) for _ in range(4)]
    points += [Point((1, 0, 2, 0, 0, 1)), Point((1, 0, 2, 0, 0, 2))]  # first differ at 5
    letters = [Letter(s, p) for p in points for s in (1, -1)] + [IDENTITY]
    for _ in range(300):
        w = Word(tuple(rng.choice(letters) for _ in range(rng.randint(1, 12))))
        top, costs = _unit_costs(w)
        assert top == 1 << w.max_depth
        spelling = [letters.index(x) for x in w.letters]
        assert list(map(list, _memo_costs(spelling, letters, {}, top))) == costs, w
        m = 3 * 5**2
        widened = [[c * m for c in column] for column in costs]
        assert list(map(list, _memo_costs(spelling, letters, {}, top * m))) == widened, w
        assert [len(column) for column in costs] == list(range(1, len(w) + 1)), w
        for j, y in enumerate(w.letters):
            assert costs[j][j] == letter_distance(IDENTITY, y) * top, w
            for i, x in enumerate(w.letters[:j]):
                assert costs[j][i] == letter_distance(x.inverse(), y) * top, (w, i, j)


def shared_head_words(rng):
    """Seeded words of 20-60 letters whose points all share coordinate 0, () among
    them: every opposite-sign pair lands in one coordinate-0 bucket."""
    tails = [rng.choices(range(3), k=rng.randint(1, 5)) for _ in range(7)]
    points = [Point(())] + [Point((0, *tail)) for tail in tails]
    for n in (20, 33, 47, 60):
        yield Word(tuple(Letter(rng.choice((1, -1)), rng.choice(points)) for _ in range(n)))


def test_unit_costs_equal_square_unit_costs():
    # the bucketed table is the two-table references' letter_distance table, entry by
    # entry: on the long-word families, on words whose points all share coordinate 0
    # (the buckets' worst case) and on raw words with identity letters and repeats
    rng = random.Random(101)
    words = [w for _, w in long_word_families(random.Random(103))]
    words += shared_head_words(rng)
    words += [random_raw_word(rng, rng.randint(1, 30)) for _ in range(200)]
    words += [word(IDENTITY, pos(), IDENTITY, neg(0, 1), IDENTITY, pos(), neg(), IDENTITY)]
    for w in words:
        top, fix, pair = square_unit_costs(w)
        assert _unit_costs(w) == (top, one_table(fix, pair)), w


def test_unit_costs_call_first_difference_only_inside_buckets(monkeypatch):
    # one first_difference call per pair i < j of opposite nonzero signs and equal
    # coordinate 0 (() read as 0), none for any other pair: on [1] [2] ... [n], the
    # out-of-memory test's shape, none at all
    calls = []
    counted = lambda p, q: calls.append((p, q)) or first_difference(p, q)
    monkeypatch.setattr("graev.graevmetric.first_difference", counted)
    rng = random.Random(107)
    words = [Word(tuple(pos(k) for k in range(1, n + 1))) for n in (1, 2, 10, 50)]
    words += [w for _, w in long_word_families(random.Random(109))]
    words += shared_head_words(rng)
    words += [random_raw_word(rng, rng.randint(1, 30)) for _ in range(200)]
    head = lambda x: (x.point.coords or (0,))[0]
    for w in words:
        calls.clear()
        _unit_costs(w)
        bucket = [
            (x.point, y.point)
            for j, y in enumerate(w.letters)
            for x in w.letters[:j]
            if x.sign == -y.sign != 0 and head(x) == head(y)
        ]
        assert Counter(calls) == Counter(bucket), w


def two_table_cost_dp(fix, pair):
    """The trivial interval DP with a separate column table, col[j][i] =
    C[i][j]: the reference for cost_dp's one-matrix layout, value and
    every choice."""
    n = len(fix)
    row = [[0] * n for _ in range(n + 1)]  # row[i][j] = C[i][j], 0 for j < i and i = n
    col = [[0] * n for _ in range(n)]  # col[j][i] = C[i][j]
    choice = [[None] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        here, inner, pair_i, choice_i = row[i], row[i + 1], pair[i], choice[i]
        here[i] = col[i][i] = fix[i]
        for j in range(i + 1, n):
            there = col[j]
            best = pair_i[j] + inner[j - 1]
            splits = list(map(add, here[i:j], there[i + 1 : j + 1]))
            cheapest = min(splits)
            if cheapest < best:
                best = cheapest
                choice_i[j] = i + splits.index(cheapest)
            here[j] = there[i] = best
    return row[0][n - 1], choice


def two_table_scaled_norm_dp(w, factor):
    """The factor-scale interval DP with a separate column table: the
    reference for norm_theta_min's one-matrix layout, value and every
    choice."""
    n = len(w)
    unit, fix, pair = square_unit_costs(w)
    factors = [1 if x.point is None else factor(x.point) for x in w.letters]
    den = lcm(*(f.denominator for f in factors))
    grow = den ** (n // 2)
    scaled = [f.numerator * (den // f.denominator) for f in factors]  # F_i = factor_i * den
    row = [[0] * n for _ in range(n + 1)]
    col = [[0] * n for _ in range(n)]
    choice = [[None] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        here, inner, pair_i, choice_i, f_i = row[i], row[i + 1], pair[i], choice[i], scaled[i]
        here[i] = col[i][i] = fix[i] * grow
        for j in range(i + 1, n):
            there, r = col[j], inner[j - 1]
            best = pair_i[j] * grow + max(r * f_i, r * scaled[j]) // den
            splits = list(map(add, here[i:j], there[i + 1 : j + 1]))
            cheapest = min(splits)
            if cheapest < best:
                best = cheapest
                choice_i[j] = i + splits.index(cheapest)
            here[j] = there[i] = best
    return F(row[0][n - 1], unit * grow), choice


def counted_ends(costs, calls):
    """cost_dp's pair term, for match_from_values, appending to calls once per call."""
    return lambda i, j, inner: calls.append((i, j)) or costs[j][i] + inner


def test_cost_dp_equals_two_table_loop():
    # entries 0-2 tie often, which tests the pair-first, first-cheapest-split
    # rule: the witness read back from the values is the one the loop's
    # choices rebuild, with the pair term costed at most n - 1 times; the
    # caller's tables are inputs and stay as they were
    rng = random.Random(61)
    for n in range(1, 13):
        for _ in range(150):
            fix = [rng.randint(0, 2) for _ in range(n)]
            pair = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
            costs = one_table(fix, pair)
            before = [fix[:], [r[:] for r in pair], [c[:] for c in costs]]
            value, choice = two_table_cost_dp(fix, pair)
            row, calls = cost_dp(costs), []
            witness = match_from_values(row, n, counted_ends(costs, calls))
            assert (row[0][-1], witness) == (value, match_from_choices(choice, n)), (fix, pair)
            assert len(calls) <= n - 1
            assert [fix, pair, costs] == before


def test_witness_read_back_costs_pair_terms_only_at_ties():
    # a pair term is costed only where a split reaches the interval's value:
    # never on a word whose optimum only nests pairs with no split at its value
    # on the way, and at most once per interval the walk visits, n - 1 in all
    _, costs = _unit_costs(word(pos(1), pos(2), neg(2), neg(1)))
    calls = []
    assert match_from_values(cost_dp(costs), 4, counted_ends(costs, calls)).map == (3, 2, 1, 0)
    assert calls == []
    rng = random.Random(73)
    for _ in range(2000):
        w = random_raw_word(rng, rng.randint(1, 14))
        _, costs = _unit_costs(w)
        calls = []
        witness = match_from_values(cost_dp(costs), len(w), counted_ends(costs, calls))
        assert witness == trivial_norm_dp(w).witness, w
        assert len(calls) <= len(w) - 1, w


def test_cost_dp_equals_two_table_loop_on_long_words():
    # the closed-block splits reach the full split search's values and witness
    # on the letter-cost tables words produce, far past the lengths above
    rng = random.Random(89)
    for _ in range(5):
        for family, w in long_word_families(rng):
            _, costs = _unit_costs(w)
            _, fix, pair = square_unit_costs(w)
            n = len(costs)
            value, choice = two_table_cost_dp(fix, pair)
            row, calls = cost_dp(costs), []
            witness = match_from_values(row, n, counted_ends(costs, calls))
            assert (row[0][-1], witness) == (value, match_from_choices(choice, n)), (family, w)
            assert len(calls) <= n - 1


def test_witness_read_back_never_reads_the_lower_triangle():
    # match_from_values reads row[i][j] for i <= j < n only: with every other
    # slot of cost_dp's matrix None, it returns the same witness with the same
    # pair-term calls
    rng = random.Random(97)
    for _ in range(300):
        w = random_raw_word(rng, rng.randint(1, 24))
        _, costs = _unit_costs(w)
        n = len(costs)
        row, calls = cost_dp(costs), []
        witness = match_from_values(row, n, counted_ends(costs, calls))
        for j, values in enumerate(row):
            values[: min(j, n)] = [None] * min(j, n)
        blanked_calls = []
        assert match_from_values(row, n, counted_ends(costs, blanked_calls)) == witness, w
        assert blanked_calls == calls, w


def test_trivial_witness_dp_memory_pin():
    # over [0], [0]^-1 and e every cost and value is a cached small int, so
    # the peak counts list slots: the value matrix and one triangular cost
    # table, 1.5 * 8n^2 bytes, and no square cost table or third n x n table
    rng = random.Random(79)
    n = 200
    w = Word(tuple(rng.choice((pos(0), neg(0), IDENTITY)) for _ in range(n)))
    tracemalloc.start()
    try:
        norm_theta_min(w, TRIVIAL_SCALE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9 * 8 * n * n, peak / (8 * n * n)


def test_scaled_norm_theta_min_equals_two_table_loop(tmp_path):
    # up to 12 letters the closed-block rule rarely skips a split, so words of
    # 20-60 letters from every letter-cost family run under every scale too
    rng = random.Random(67)
    long_words = [w for _, w in long_word_families(random.Random(83))]
    for scale in factor_scales(tmp_path):
        short_words = [random_raw_word(rng, rng.randint(1, 12)) for _ in range(150)]
        for w in short_words + long_words:
            value, choice = two_table_scaled_norm_dp(w, scale.factor)
            expected = NormResult(value, match_from_choices(choice, len(w)))
            assert norm_theta_min(w, scale) == expected, w


def literal_bruteforce(w):
    """The definition read literally: cost every match of the reduced word
    by rho(w, theta(w)) and keep the first strict minimum.  The reference
    for graev_norm_bruteforce, value and witness."""
    rw = reduce_word(w)
    best = best_map = None
    for mp in match_maps(len(rw)):
        cost = rho(rw, apply_match(rw, Match(mp)))
        if best is None or cost < best:
            best, best_map = cost, mp
    return best, best_map


def test_bruteforce_equals_literal_exhaustive():
    for w in exhaustive_reduced_words(list(ALPHA3), 5):
        res = graev_norm_bruteforce(w)
        assert (res.value, res.witness.map) == literal_bruteforce(w), w


def test_bruteforce_equals_literal_random():
    # seeded words up to length 11 over both alphabets, unreduced words with
    # identity letters, then words up to length 12 until three have length 12
    rng = random.Random(41)
    words = [
        sample_reduced_word(rng, points, 11, uniform_length=True)
        for points in (ALPHA3, DEEP_POINTS)
        for _ in range(20)
    ]
    words += [random_raw_word(rng, 12) for _ in range(10)]
    while sum(len(reduce_word(w)) == 12 for w in words) < 3:
        words.append(sample_reduced_word(rng, ALPHA3, 12, uniform_length=True))
    for w in words:
        res = graev_norm_bruteforce(w)
        assert (res.value, res.witness.map) == literal_bruteforce(w), w


def test_bruteforce_value_schedule_independent():
    # the minimum value must not depend on enumeration chunking: compare
    # against a reversed-order scan of the same match stream
    w = reduce_word(word(pos(1), pos(2), neg(1, 2), pos(1)))
    res = graev_norm_bruteforce(w)
    best = min(
        rho(w, apply_match(w, Match(t))) for t in reversed(list(match_maps(len(w))))
    )
    assert best == res.value
