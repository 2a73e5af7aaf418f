import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

import graev.scales
from graev import cli
from graev.errors import ResourceLimitError
from graev.freegroup import (
    IDENTITY,
    IDENTITY_WORD,
    Letter,
    Point,
    Word,
    ZERO,
    invert,
    letter_distance,
    multiply,
    neg,
    parse_word,
    pos,
    reduce_word,
    word,
)
from graev.graevmetric import cheapest_spelling, graev_norm_dp
from graev.matching import Match, enumerate_matches, is_match, match_from_values
from graev.sampling import sample_match, sample_reduced_word
from graev.scales import (
    BoundedNorm,
    Scale,
    TRIVIAL_SCALE,
    check_scale_axioms,
    conjugation_witness,
    insertion_alphabet,
    load_scale_file,
    norm_bounds,
    norm_theta,
    norm_theta_min,
    scale_distance_bounds,
    weighted_scale,
)

from conftest import (
    ALPHA3,
    DEEP_POINTS,
    RAW_LETTERS,
    factor_scales,
    long_word_families,
    random_raw_word,
)
from test_matching import match_from_choices

WEIGHTED = weighted_scale()

PROBE_LETTERS = [Letter(s, p) for p in DEEP_POINTS for s in (1, -1)]
R_GRID = [F(0), F(1, 8), F(1, 2), F(1), F(2)]
EPS_TAIL = [F(1, 64), F(1, 256)]
# every one-letter word random_raw_word can draw: the n = 1 case of the integer kernels
ONE_LETTER_WORDS = [Word((x,)) for x in RAW_LETTERS]
# factors of four denominators and both signs, so the search unit takes every one
ODD_SCALE_TEXT = "0 = -3/7\n1 = 5/11\n2 = -2/3\n3 = 1/5\n"


def broken_scale():
    return Scale("broken", lambda x, r: r if x.is_identity else r + 1)


# --- shipped scales and the axiom checker -------------------------------------


def test_weighted_scale_values():
    # weight of [1,2] is 1 + 1/4 + 2/16 = 11/8
    assert WEIGHTED(pos(1, 2), F(1)) == F(11, 8)
    assert WEIGHTED(neg(1, 2), F(1)) == F(11, 8)
    assert WEIGHTED(IDENTITY, F(3, 7)) == F(3, 7)
    assert WEIGHTED(pos(1), F(0)) == 0


def test_axiom_checker_passes_shipped_scales():
    for scale in (TRIVIAL_SCALE, WEIGHTED):
        report = check_scale_axioms(scale, PROBE_LETTERS, R_GRID, EPS_TAIL)
        assert report.all_passed
        axioms = {c.inputs["axiom"] for c in report.cases}
        assert "regular-under-truncation" in axioms
        assert "inverse-symmetric" in axioms


def test_axiom_checker_flags_broken_scale_at_zero():
    report = check_scale_axioms(broken_scale(), [pos(1)], R_GRID, EPS_TAIL)
    assert not report.all_passed
    failed_axioms = {c.inputs["axiom"] for c in report.failures()}
    assert "zero-only-at-zero" in failed_axioms
    zero_case = next(
        c for c in report.failures() if c.inputs["axiom"] == "zero-only-at-zero"
    )
    assert zero_case.inputs["r"] == "0/1"


def test_axiom_checker_rejects_empty_grids():
    with pytest.raises(ValueError):
        check_scale_axioms(WEIGHTED, [], R_GRID, EPS_TAIL)
    with pytest.raises(ValueError):
        check_scale_axioms(WEIGHTED, [pos(1)], [], EPS_TAIL)


# --- norm_theta ----------------------------------------------------------------


def test_norm_theta_base_case():
    assert norm_theta(word(pos(1)), Match((0,)), TRIVIAL_SCALE) == 1
    assert norm_theta(word(IDENTITY), Match((0,)), WEIGHTED) == 0


def test_norm_theta_pair_ends_empty_inner():
    assert norm_theta(word(neg(1, 2), pos(1, 3)), Match((1, 0)), TRIVIAL_SCALE) == F(1, 2)
    # the inner value is 0, so any scale gives the same answer
    assert norm_theta(word(neg(1, 2), pos(1, 3)), Match((1, 0)), WEIGHTED) == F(1, 2)


def test_norm_theta_pair_ends_nonempty_inner():
    w = word(neg(1), pos(2), pos(3))
    theta = Match((2, 1, 0))
    assert norm_theta(w, theta, TRIVIAL_SCALE) == 2
    # weighted: d([1],[3]) + max{G([1],1), G([3],1)} = 1 + 7/4
    assert norm_theta(w, theta, WEIGHTED) == 1 + F(7, 4)


def test_norm_theta_split_case():
    w = word(pos(1), neg(1), pos(2), neg(2))
    theta = Match((1, 0, 3, 2))
    assert norm_theta(w, theta, WEIGHTED) == 0


def test_norm_theta_validates_inputs():
    with pytest.raises(ValueError):
        norm_theta(word(pos(1)), Match((0, 1)), TRIVIAL_SCALE)
    with pytest.raises(ValueError):
        norm_theta(word(pos(1), pos(2)), Match((1, 1)), TRIVIAL_SCALE)


def test_norm_theta_monotone_in_scale():
    # trivial <= weighted pointwise, so costs are ordered the same way
    rng = random.Random(11)
    for _ in range(100):
        w = random_raw_word(rng, rng.randint(1, 7))
        theta = sample_match(rng, len(w))
        assert norm_theta(w, theta, TRIVIAL_SCALE) <= norm_theta(w, theta, WEIGHTED)


# --- norm_theta_min --------------------------------------------------------------


def test_norm_theta_deep_nesting_is_iterative():
    # 3,000 nested pairs: x_0 ... x_{m-1} y_{m-1} ... y_0 with x_i paired to
    # y_i, folded from the innermost pair outwards
    m = 3000
    xs = [pos(1, i % 5) for i in range(m)]
    ys = [neg(1, (i + 1) % 5) for i in range(m)]
    w = Word(tuple(xs + ys[::-1]))
    theta = Match(tuple(2 * m - 1 - i for i in range(2 * m)))
    assert norm_theta(w, theta, TRIVIAL_SCALE) == F(m, 2)
    expected = F(0)
    for x, y in zip(reversed(xs), reversed(ys)):
        x = x.inverse()
        expected = F(1, 2) + max(WEIGHTED(x, expected), WEIGHTED(y, expected))
    assert norm_theta(w, theta, WEIGHTED) == expected


def test_norm_theta_min_matches_enumeration():
    rng = random.Random(23)
    for scale in (TRIVIAL_SCALE, WEIGHTED):
        for _ in range(60):
            w = random_raw_word(rng, rng.randint(1, 8))
            res = norm_theta_min(w, scale)
            explicit = min(
                norm_theta(w, theta, scale) for theta in enumerate_matches(len(w))
            )
            assert res.value == explicit
            assert is_match(res.witness.map)
            assert norm_theta(w, res.witness, scale) == res.value


def test_norm_theta_min_trivial_kernel_equals_generic_dp():
    # the trivial scale runs the integer kernel; an equal scale that is a
    # different object runs the generic rational DP, which must agree on
    # the value and pick the same witness
    trivial_copy = Scale("trivial-copy", lambda x, r: r)
    rng = random.Random(29)
    random_words = [random_raw_word(rng, rng.randint(1, 14)) for _ in range(300)]
    for w in ONE_LETTER_WORDS + random_words:
        kernel = norm_theta_min(w, TRIVIAL_SCALE)
        generic = norm_theta_min(w, trivial_copy)
        assert kernel.value == generic.value
        assert kernel.witness.map == generic.witness.map


def test_norm_theta_min_factor_kernel_equals_rational_dp(tmp_path):
    # a scale with a factor runs the integer kernel; its callable-only copy
    # runs the rational DP, which must agree on the value and the witness
    rng = random.Random(59)
    for scale in factor_scales(tmp_path):
        callable_only = Scale(scale.name, scale.evaluate)
        random_words = [random_raw_word(rng, rng.randint(1, 12)) for _ in range(200)]
        for w in ONE_LETTER_WORDS + random_words:
            kernel = norm_theta_min(w, scale)
            rational = norm_theta_min(w, callable_only)
            assert kernel.value == rational.value
            assert kernel.witness.map == rational.witness.map


def choice_table_rational_dp(w, scale):
    """The rational interval DP by span, with a choice table: the ends pair
    unless a split is strictly cheaper, then the first cheapest k splits.
    The reference for norm_theta_min's value-only Fraction loop, value and
    witness."""
    ls = w.letters
    n = len(ls)
    val = [[ZERO] * n for _ in range(n)]
    choice = [[None] * n for _ in range(n)]
    for i in range(n):
        val[i][i] = letter_distance(IDENTITY, ls[i])
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span - 1
            x = ls[i].inverse()
            y = ls[j]
            inner = val[i + 1][j - 1] if span > 2 else ZERO
            best = letter_distance(x, y) + max(scale(x, inner), scale(y, inner))
            for k in range(i, j):
                cand = val[i][k] + val[k + 1][j]
                if cand < best:
                    best, choice[i][j] = cand, k
            val[i][j] = best
    return val[0][n - 1], match_from_choices(choice, n)


def test_norm_theta_min_rational_loop_equals_choice_table_loop(tmp_path):
    # callable-only scales run the Fraction loop, whose witness is read back
    # from its values; the choice-table loop must agree on both
    scales = [
        Scale("plus-one", lambda x, r: r + 1),
        Scale("square-plus", lambda x, r: r * r + r),
        Scale("identity", lambda x, r: r),
    ]
    scales += [Scale(s.name, s.evaluate) for s in factor_scales(tmp_path)]
    rng = random.Random(71)
    for _ in range(300):
        w = random_raw_word(rng, rng.randint(1, 12))
        for scale in scales:
            res = norm_theta_min(w, scale)
            assert (res.value, res.witness) == choice_table_rational_dp(w, scale), (w, scale.name)
    # past 12 letters the closed-block rule skips most splits
    long_words = [w for _, w in long_word_families(random.Random(89)) if len(w) <= 33]
    for w in long_words:
        for scale in scales[:2]:
            res = norm_theta_min(w, scale)
            assert (res.value, res.witness) == choice_table_rational_dp(w, scale), (w, scale.name)


def test_callable_scale_sees_only_fractions():
    # the empty inner value reaches a callable-only scale as the Fraction 0, not
    # the int 0, in the fill and in the witness read-back, and the norm is a
    # Fraction too
    seen = set()

    def evaluate(x, r):
        seen.add(type(r))
        return r + r

    scale = Scale("recording", evaluate)
    rng = random.Random(101)
    for _ in range(100):
        w = random_raw_word(rng, rng.randint(2, 10))
        assert type(norm_theta_min(w, scale).value) is F, w
    assert seen == {F}


def test_scale_factor_contract(tmp_path):
    # scale(x, r) == r * factor(x.point) on every signed letter, r of any sign
    grid = R_GRID + [F(-1), F(-3, 7)]
    for scale in factor_scales(tmp_path):
        for r in grid:
            assert scale(IDENTITY, r) == r
            for x in PROBE_LETTERS:
                assert scale(x, r) == r * scale.factor(x.point)
    assert Scale("bare", lambda x, r: r).factor is None


def test_norm_theta_min_examples():
    assert norm_theta_min(word(neg(1, 2), pos(1, 3)), WEIGHTED).value == F(1, 2)
    assert norm_theta_min(word(pos(1)), WEIGHTED).value == 1


# --- bounds ----------------------------------------------------------------------


def test_norm_bounds_trivial_is_a_point():
    rng = random.Random(31)
    for _ in range(40):
        w = sample_reduced_word(rng, DEEP_POINTS, 5)
        b = norm_bounds(w, TRIVIAL_SCALE, 0)
        assert b.lower == b.upper == graev_norm_dp(w)


def test_norm_bounds_weighted_example_pinches():
    b = norm_bounds(word(neg(1, 2), pos(1, 3)), WEIGHTED, 0)
    assert b.lower == b.upper == F(1, 2)


def test_norm_bounds_sandwich_and_budget_monotone():
    rng = random.Random(37)
    pts = [Point(()), Point((1,)), Point((1, 2))]
    for _ in range(25):
        w = sample_reduced_word(rng, pts, 2)
        uppers = []
        for budget in (0, 1, 2):
            b = norm_bounds(w, WEIGHTED, budget)
            assert b.lower <= b.upper
            assert reduce_word(b.witness_word) == reduce_word(w)
            assert norm_theta(b.witness_word, b.witness_match, WEIGHTED) == b.upper
            uppers.append(b.upper)
        assert uppers[0] >= uppers[1] >= uppers[2]


def test_norm_bounds_search_cap(monkeypatch):
    monkeypatch.setattr(graev.scales, "SEARCH_CAP", 50)
    w = word(pos(1), pos(2), pos(1, 2))
    with pytest.raises(ResourceLimitError, match="candidate cap 50; lower the budget$"):
        norm_bounds(w, WEIGHTED, 3)
    with pytest.raises(ValueError):
        norm_bounds(w, WEIGHTED, -1)


def exhaustive_bounds(w, scale, budget, cap):
    """The insertion search with no early exit: Letter-tuple spellings in
    breadth-first order, each evaluated by the rational DP of a
    callable-only copy of the scale, the first strict minimum kept."""
    rw = reduce_word(w)
    oracle = Scale(scale.name, scale.evaluate)
    alphabet = insertion_alphabet(rw)
    seen = {rw.letters}
    order = [rw.letters]
    frontier = [rw.letters]
    for _ in range(budget):
        grown = []
        for base in frontier:
            for p in range(len(base) + 1):
                for a in alphabet:
                    cand = base[:p] + (a, a.inverse()) + base[p:]
                    if cand not in seen:
                        if len(seen) >= cap:
                            raise ResourceLimitError(
                                f"insertion search exceeded the candidate cap {cap}; "
                                "lower the budget"
                            )
                        seen.add(cand)
                        grown.append(cand)
                        order.append(cand)
        frontier = grown
    best, best_word = None, None
    for letters in order:
        res = norm_theta_min(Word(letters), oracle)
        if best is None or res.value < best.value:
            best, best_word = res, Word(letters)
    return BoundedNorm(graev_norm_dp(rw), best.value, best_word, best.witness)


def bounds_or_cap_error(search, *args):
    try:
        return search(*args)
    except ResourceLimitError as exc:
        return str(exc)


def test_norm_bounds_equals_exhaustive_search(tmp_path, monkeypatch):
    nonneg = tmp_path / "nonneg.scale"
    nonneg.write_text("0 = 1/4\n2 = 3/8\n")
    negative = tmp_path / "negative.scale"
    negative.write_text("0 = -1/2\n1 = 1/3\n2 = -1/4\n")
    scales = [
        TRIVIAL_SCALE,
        WEIGHTED,
        load_scale_file(str(nonneg)),
        load_scale_file(str(negative)),
        broken_scale(),
    ]
    pts = [Point(()), Point((1,)), Point((1, 2)), Point((2,)), Point((0, 0, 3))]
    rng = random.Random(53)
    words = [word(Letter(s, p)) for p in pts for s in (1, -1)]
    words += [sample_reduced_word(rng, pts, 2) for _ in range(6)]
    words += [IDENTITY_WORD, parse_word("[1] [1]^-1")]  # both search from e
    # one-letter words of depth <= 1 have 10 spellings at budget 1, so caps 9
    # and 10 sit on either side of the cap error; from budget = cap on,
    # norm_bounds refuses before it builds a spelling
    caps = ((0, 400), (1, 9), (1, 10), (1, 400), (2, 400), (2, 40), (1, 1), (2, 2), (3, 2))
    for budget, cap in caps:
        monkeypatch.setattr(graev.scales, "SEARCH_CAP", cap)
        for w in words:
            for scale in scales:
                oracle = bounds_or_cap_error(exhaustive_bounds, w, scale, budget, cap)
                assert bounds_or_cap_error(norm_bounds, w, scale, budget) == oracle
    # at budget 3 one search mixes spellings of n..n+6 letters in one unit, over
    # factors of different denominators: [3] and [0] are 7/4 and 1 under WEIGHTED,
    # -1/2 and 1 under the negative file
    monkeypatch.setattr(graev.scales, "SEARCH_CAP", 2000)
    for w in (word(pos(3)), word(neg(0))):
        for scale in (WEIGHTED, scales[3]):
            assert norm_bounds(w, scale, 3) == exhaustive_bounds(w, scale, 3, 2000)


def test_spelling_count_bound_never_undercounts(monkeypatch):
    # norm_bounds defers generation only where _spellings_fit proves it fits the
    # cap: there its eager generation, which refuses at the cap, builds every
    # spelling.  The words are test_norm_bounds_equals_exhaustive_search's
    pts = [Point(()), Point((1,)), Point((1, 2)), Point((2,)), Point((0, 0, 3))]
    rng = random.Random(53)
    words = [word(Letter(s, p)) for p in pts for s in (1, -1)]
    words += [sample_reduced_word(rng, pts, 2) for _ in range(6)]
    words += [IDENTITY_WORD, parse_word("[1] [1]^-1")]
    fit = graev.scales._spellings_fit
    monkeypatch.setattr(graev.scales, "_spellings_fit", lambda *args: False)  # generate first
    fits = 0
    for w in words:
        rw = reduce_word(w)
        for budget in range(4):
            size = len(insertion_alphabet(rw) if budget else rw.letters)
            for cap in (1, 2, 9, 10, 50, 400, 20000):
                if fit(len(rw), size, budget, cap):
                    fits += 1
                    monkeypatch.setattr(graev.scales, "SEARCH_CAP", cap)
                    norm_bounds(rw, TRIVIAL_SCALE, budget)  # the cap error would fail here
    assert fits > 100


def test_identity_word_ends_on_its_reduced_spelling(monkeypatch):
    # e costs the lower bound 0 at once, and its spellings provably fit the cap up
    # to budget 19,999, so no other spelling is generated (building them took
    # time cubic in the budget: 1.5 s at 400)
    evaluate, evaluated = graev.graevmetric.spelling_values, []
    monkeypatch.setattr(
        graev.graevmetric,
        "spelling_values",
        lambda search, s: evaluated.append(s) or evaluate(search, s),
    )
    for budget in (400, 19999):
        evaluated.clear()
        start = time.perf_counter()
        b = norm_bounds(IDENTITY_WORD, weighted_scale(), budget)
        assert time.perf_counter() - start < 0.5  # under 1 ms here
        assert b == BoundedNorm(ZERO, ZERO, IDENTITY_WORD, Match((0,)))
        assert len(evaluated) == 1


def test_factor_loop_equals_ends_dp_on_the_same_pair_term(tmp_path):
    # factor_dp writes the integer pair term inline; ends_dp, called with the same
    # term, is its oracle: whole value matrices and read-back witnesses agree, on
    # negative values (the file scale) and on fractional factors (the weighted one)
    path = tmp_path / "negative.scale"
    path.write_text("0 = -1/2\n1 = 1/3\n2 = -1/4\n")
    points = [(), (1,), (3,), (0, 1), (1, 2), (4, 1), (2, 1, 1), (0, 0, 3), (1, 0, 5)]
    letters = [x for p in points for x in (pos(*p), neg(*p))] + [IDENTITY]
    scales = [load_scale_file(str(path)), weighted_scale({0: F(3, 7), 1: F(5, 11), 2: F(2, 3)})]
    rng = random.Random(131)
    spellings = [
        tuple(rng.randrange(len(letters)) for _ in range(n)) for n in range(1, 13) for _ in range(15)
    ]
    for scale in scales:
        search = graev.graevmetric.Spellings(letters, range(len(letters)), scale)
        search.widen(range(len(letters)), 12)
        negative = False
        for spelling in spellings:
            costs = graev.graevmetric._memo_costs(spelling, letters, search.pairs, search.unit)
            den, f = search.den, [search.factors[a] for a in spelling]

            def term(i, j, r):
                return costs[j][i] + max(r * f[i], r * f[j]) // den

            values = graev.graevmetric.factor_dp(costs, f, den)
            oracle = graev.graevmetric.ends_dp([column[-1] for column in costs], term)
            assert values == oracle, (scale.name, spelling)
            n = len(spelling)
            assert match_from_values(values, n, term) == match_from_values(oracle, n, term)
            assert graev.graevmetric.spelling_values(search, spelling)[0] == values
            negative |= any(v < 0 for row in values for v in row)
        assert negative == (scale is scales[0])


def test_spellings_are_evaluated_value_only_through_module_spelling_values(monkeypatch, capsys):
    # a benchmark span can wrap the per-spelling function by this module-level
    # name: each evaluated spelling runs it once, value-only, the witness is read
    # back once per search, and no letter pair's distance is computed twice, in
    # the factor search and in the Fraction search of a callable-only copy alike
    evaluate = graev.graevmetric.spelling_values
    read_back = graev.graevmetric.match_from_values
    pair_cost = graev.graevmetric._pair_cost
    spellings, read_backs, pairs, units, oracle_spellings = [], [], [], [], []

    def counted_read_back(*args):
        read_backs.append(args)
        return read_back(*args)

    monkeypatch.setattr(
        graev.graevmetric,
        "spelling_values",
        lambda search, s: spellings.append(s) or evaluate(search, s),
    )
    monkeypatch.setattr(graev.graevmetric, "match_from_values", counted_read_back)
    monkeypatch.setattr(
        graev.graevmetric,
        "_pair_cost",
        lambda x, y, top: pairs.append((x, y)) or units.append(top) or pair_cost(x, y, top),
    )
    w = reduce_word(parse_word("[1,2]^-1 [0]^-1 [1]"))
    b = norm_bounds(w, WEIGHTED, 2)
    assert (b.lower, b.upper) == (F(3, 2), F(7, 4))  # never closes: every spelling runs
    assert len(read_backs) == 1
    assert len(pairs) == len(set(pairs)) > 0
    # the oracle's norm_theta_min runs spelling_values too: count the search's first
    evaluated, distinct = len(spellings), len(set(spellings))
    oracle = graev.scales.norm_theta_min
    monkeypatch.setitem(
        globals(), "norm_theta_min", lambda w, s: oracle_spellings.append(w) or oracle(w, s)
    )
    assert b == exhaustive_bounds(w, WEIGHTED, 2, graev.scales.SEARCH_CAP)
    assert evaluated == distinct == len(oracle_spellings) > 1
    for seen in (spellings, read_backs, pairs):
        seen.clear()
    assert cli.main(["norm", "--scale", "weighted", "--budget", "1", "[1]"]) == 0
    assert capsys.readouterr().out == "lower 1/1 upper 1/1\n"
    assert len(spellings) == len(read_backs) == 1  # closes on the reduced spelling
    assert len(pairs) == len(set(pairs))
    # without a factor the memo holds integers at 2^depth, read back as Fractions
    for seen in (spellings, read_backs, pairs, units):
        seen.clear()
    b = norm_bounds(w, Scale("bare", WEIGHTED.evaluate, True, True), 2)
    assert (b.lower, b.upper) == (F(3, 2), F(7, 4))  # as under WEIGHTED
    assert len(read_backs) == 1
    assert len(pairs) == len(set(pairs)) == 49
    assert set(units) == {4}  # 2^depth, the alphabet's deepest letter [1,2] at depth 2


def test_search_computes_factors_lazily():
    # the reduced spelling runs in its own letters' unit: a search that closes
    # there calls the factor once, for its one letter, however deep the alphabet;
    # one that does not close calls it once per signed alphabet letter
    base = weighted_scale()
    calls = []
    counted = Scale(
        "counted",
        base.evaluate,
        declared_regular=True,
        declared_dominating=True,
        factor=lambda p: calls.append(p) or base.factor(p),
    )
    b = norm_bounds(word(pos(*[1] * 50)), counted, 1)
    assert (b.lower, b.upper, len(calls)) == (1, 1, 1)
    calls.clear()
    w = reduce_word(parse_word("[1,2]^-1 [0]^-1 [1]"))
    b = norm_bounds(w, counted, 2)
    assert (b.lower, b.upper) == (F(3, 2), F(7, 4))
    assert len(calls) == sum(1 for x in insertion_alphabet(w) if x.sign) == 6


def test_every_evaluated_spelling_is_exact_in_the_search_unit(tmp_path, monkeypatch):
    # not only the winner: each spelling's value in the one search unit is its
    # own one-spelling search's, so the unit covers the longest spelling
    path = tmp_path / "odd.scale"
    path.write_text(ODD_SCALE_TEXT)
    evaluate, seen = graev.graevmetric.spelling_values, []

    def recorded(search, spelling):
        values, ends = evaluate(search, spelling)
        seen.append((search.letters, spelling, F(values[0][-1], search.unit)))
        return values, ends

    monkeypatch.setattr(graev.graevmetric, "spelling_values", recorded)
    words = ["[1,2,3]", "[0,0,0,1] [0,0,0,2]^-1", "[1,2,4]^-1 [1,2,3]"]
    bases = [load_scale_file(str(path)), weighted_scale({0: F(3, 7), 1: F(5, 11), 2: F(2, 3)})]
    for scale in [replace(s, declared_dominating=False) for s in bases]:  # no floor
        for w in words:
            seen.clear()
            norm_bounds(parse_word(w), scale, 2)
            evaluated = list(seen)
            assert len({spelling for _, spelling, _ in evaluated}) == len(evaluated) > 1
            for letters, spelling, value in evaluated:
                one = Word(tuple(letters[i] for i in spelling))
                assert norm_theta_min(one, scale).value == value, (w, spelling)


def test_search_unit_covers_letters_the_first_spelling_lacks(tmp_path):
    # the first spelling holds only the shallow [1]: the unit still comes from
    # the alphabet's deepest letter, with or without a factor
    path = tmp_path / "odd.scale"
    path.write_text(ODD_SCALE_TEXT)
    points = [(1,), (1, 2, 3), (1, 2, 4), (1, 2, 3, 5)]
    letters = [x for p in points for x in (pos(*p), neg(*p))] + [IDENTITY]
    rng = random.Random(113)
    spelling = lambda: tuple(rng.randrange(len(letters)) for _ in range(rng.randint(2, 8)))
    rounds = [[(0,)] + [spelling() for _ in range(4)] for _ in range(40)]
    scales = [load_scale_file(str(path)), weighted_scale()]
    for scale in scales + [Scale(s.name, s.evaluate) for s in scales]:
        for spellings in rounds:
            norms = [norm_theta_min(Word(tuple(letters[i] for i in s)), scale) for s in spellings]
            k = min(range(len(spellings)), key=lambda k: norms[k].value)  # the first minimum
            expected = norms[k].value, norms[k].witness, spellings[k]
            got = cheapest_spelling(letters, spellings[0], lambda: spellings[1:], scale)
            assert got == expected, (scale.name, spellings)


def test_declared_dominating(tmp_path):
    nonneg = tmp_path / "nonneg.scale"
    nonneg.write_text("0 = 1/4\n1 = 0\n")
    negative = tmp_path / "negative.scale"
    negative.write_text("0 = 1/4\n1 = -1/8\n")
    assert TRIVIAL_SCALE.declared_dominating
    assert WEIGHTED.declared_dominating
    assert load_scale_file(str(nonneg)).declared_dominating
    assert not load_scale_file(str(negative)).declared_dominating
    assert not Scale("bare", lambda x, r: r).declared_dominating


def test_norm_bounds_searches_on_for_negative_coefficients(tmp_path):
    # the reduced [1] costs 1 = lower, but [1]^-1 [1] [1] with its ends
    # paired costs d([1], [1]) + (1/2) * 1: a search stopped at lower misses it
    path = tmp_path / "negative.scale"
    path.write_text("0 = -1/2\n")
    scale = load_scale_file(str(path))
    b = norm_bounds(word(pos(1)), scale, 1)
    assert (b.lower, b.upper) == (1, F(1, 2))
    assert b == exhaustive_bounds(word(pos(1)), scale, 1, 400)


def test_insertion_alphabet_contents():
    w = word(pos(1, 2), neg(3))
    alphabet = insertion_alphabet(w)
    assert pos(1, 2) in alphabet
    assert neg(1, 2) in alphabet
    assert pos(3) in alphabet
    assert IDENTITY in alphabet
    # truncations of [1,2] at levels 0 and 1
    assert Letter(1, Point(())) in alphabet
    assert pos(1) in alphabet
    assert len(alphabet) == len(set(alphabet))


def literal_insertion_alphabet(w):
    """The alphabet built literally: every letter so far truncated at every
    level below the word's depth, truncations included.  The reference for
    insertion_alphabet, order included."""
    out = dict.fromkeys(y for x in w.letters if not x.is_identity for y in (x, x.inverse()))
    out[IDENTITY] = None
    for m in range(w.max_depth):
        for x in list(out):
            if x.point is not None:
                out[Letter(x.sign, x.point.truncate(m))] = None
    return tuple(out)


def test_insertion_alphabet_equals_literal_truncations():
    # identity letters, repeated letters and interior zeros
    rng = random.Random(59)
    points = [
        Point(tuple(rng.choice((0, 0, 1, 2)) for _ in range(rng.randint(0, 7))))
        for _ in range(12)
    ]
    letters = [Letter(s, p) for p in points for s in (1, -1)] + [IDENTITY]
    for _ in range(300):
        w = Word(tuple(rng.choice(letters) for _ in range(rng.randint(1, 6))))
        assert insertion_alphabet(w) == literal_insertion_alphabet(w), w


def test_conjugated_upper_bound_uses_lifted_witness():
    # when conjugation does not cancel at the junctions, the insertion
    # search sees the lifted spelling, so the certified upper bound is at
    # most the scale applied to the inner certificate
    rng = random.Random(41)
    checked = 0
    while checked < 30:
        u = sample_reduced_word(rng, list(ALPHA3), 3)
        g = Letter(rng.choice((1, -1)), rng.choice(DEEP_POINTS))
        conj = multiply(multiply(invert(word(g)), u), word(g))
        if len(conj) != len(u) + 2:
            continue
        for budget in (0, 1):
            inner = norm_bounds(u, WEIGHTED, budget)
            outer = norm_bounds(conj, WEIGHTED, budget)
            assert outer.upper <= WEIGHTED(g, inner.upper)
        checked += 1


def test_scale_distance_bounds():
    u = word(pos(1, 2))
    v = word(pos(1, 3))
    delta, two_sided = scale_distance_bounds(u, v, TRIVIAL_SCALE, 0)
    assert (delta.lower, delta.upper) == (F(1, 2), F(1, 2))
    assert (two_sided.lower, two_sided.upper) == (F(1), F(1))
    delta_uu, two_uu = scale_distance_bounds(u, u, WEIGHTED, 0)
    assert (delta_uu.lower, delta_uu.upper) == (0, 0)
    assert (two_uu.lower, two_uu.upper) == (0, 0)


def test_scale_distance_bounds_depth_bound():
    rng = random.Random(43)
    pts = [Point(()), Point((1,)), Point((0, 2))]
    for _ in range(25):
        u = sample_reduced_word(rng, pts, 2)
        v = sample_reduced_word(rng, pts, 2)
        if u == v:
            continue
        _, two_sided = scale_distance_bounds(u, v, WEIGHTED, 0)
        assert two_sided.lower >= F(1, 4)


# --- conjugation witness -----------------------------------------------------------


def test_conjugation_witness_examples():
    assert conjugation_witness(word(pos(1)), Match((0,)), pos(2), TRIVIAL_SCALE) == 1
    # identity conjugator: value is the inner cost
    inner = norm_theta(word(pos(1), pos(2)), Match((1, 0)), WEIGHTED)
    assert (
        conjugation_witness(word(pos(1), pos(2)), Match((1, 0)), IDENTITY, WEIGHTED)
        == inner
    )


def test_conjugation_witness_random_triples():
    rng = random.Random(47)
    for scale in (TRIVIAL_SCALE, WEIGHTED):
        for _ in range(100):
            v = random_raw_word(rng, rng.randint(1, 6))
            theta = sample_match(rng, len(v))
            g = rng.choice(PROBE_LETTERS + [IDENTITY])
            got = conjugation_witness(v, theta, g, scale)
            assert got == scale(g, norm_theta(v, theta, scale))


def test_conjugation_witness_validates_length():
    with pytest.raises(ValueError):
        conjugation_witness(word(pos(1), pos(2)), Match((0,)), pos(1), TRIVIAL_SCALE)


def test_conjugation_witness_rejects_a_non_match_as_input():
    # (0, 0) is not a match: the caller's input is at fault, not an invariant
    with pytest.raises(ValueError, match="not a match"):
        conjugation_witness(word(pos(1), pos(2)), Match((0, 0)), pos(1), TRIVIAL_SCALE)


# --- scale files -----------------------------------------------------------------


def test_load_scale_file(tmp_path):
    path = tmp_path / "quarter.scale"
    path.write_text("# coordinate coefficients\n0 = 1/4\n2 = 3/8\n\n")
    scale = load_scale_file(str(path))
    assert scale(pos(1), F(1)) == F(5, 4)
    assert scale(pos(0, 0, 2), F(1)) == 1 + 2 * F(3, 8)
    assert scale(pos(0, 1), F(1)) == 1  # unlisted coordinate gets 0
    report = check_scale_axioms(scale, PROBE_LETTERS, R_GRID, EPS_TAIL)
    assert report.all_passed


def test_load_scale_file_is_sparse(tmp_path):
    # the coefficients are kept by index, so a huge index costs one entry
    base = "0 = 1/4\n2 = 3/8\n"
    path, far = tmp_path / "near.scale", tmp_path / "far.scale"
    path.write_text(base)
    far.write_text(base + f"{10**12} = 5/2\n")
    started = time.perf_counter()
    sparse = load_scale_file(str(far))
    assert time.perf_counter() - started < 1.0
    dense = load_scale_file(str(path))
    assert sparse.declared_dominating
    letters = [Letter(s, p) for p in DEEP_POINTS for s in (1, -1)] + [IDENTITY, pos(3, 0, 7)]
    for x in letters:
        for r in R_GRID:
            assert sparse(x, r) == dense(x, r)


def test_load_scale_file_errors(tmp_path):
    bad = tmp_path / "bad.scale"
    bad.write_text("0 : 1/4\n")
    with pytest.raises(ValueError, match="line 1|bad.scale:1"):
        load_scale_file(str(bad))
    bad.write_text("-1 = 1/4\n")
    with pytest.raises(ValueError, match=">= 0"):
        load_scale_file(str(bad))
    bad.write_text("0 = 1/4\n0 = 1/2\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_scale_file(str(bad))


def test_negative_coefficient_scale_fails_axioms(tmp_path):
    path = tmp_path / "neg.scale"
    path.write_text("0 = -1\n")
    scale = load_scale_file(str(path))
    report = check_scale_axioms(scale, PROBE_LETTERS, R_GRID, EPS_TAIL)
    assert not report.all_passed
    failed = {c.inputs["axiom"] for c in report.failures()}
    assert "dominates-argument" in failed
