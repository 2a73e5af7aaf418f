import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graev import graevmetric
from graev.freegroup import (
    IDENTITY,
    IDENTITY_WORD,
    Letter,
    Point,
    Word,
    format_rat,
    format_word,
    invert,
    letter_distance,
    multiply,
    neg,
    pos,
    reduce_word,
    word,
)
from graev.graevmetric import graev_bidistance
from graev.reports import CheckCase, VerificationReport
from graev.sampling import exhaustive_reduced_words, sample_match, sample_reduced_word
from graev.scales import TRIVIAL_SCALE, check_scale_axioms, weighted_scale
from graev.tower import (
    check_discreteness,
    check_extension_conditions,
    check_lipschitz,
    check_lipschitz_distance,
    check_lipschitz_witness,
    project_letter,
    project_point,
    project_word,
    separating_level,
)

from conftest import ALPHA3, DEEP_POINTS, random_raw_word

WEIGHTED = weighted_scale()
TOWER_POINTS = [Point(()), Point((1,)), Point((1, 2))]


# --- projections ---------------------------------------------------------------


def test_project_point_examples():
    assert project_point(Point((1, 2, 3)), 2) == Point((1, 2))
    assert project_point(Point((1, 2)), 5) == Point((1, 2))
    assert project_point(Point((7, 0, 9)), 0) == Point(())


def test_project_point_idempotent():
    for p in DEEP_POINTS:
        for n in range(4):
            q = project_point(p, n)
            assert q.depth <= n
            assert project_point(q, n) == q
    with pytest.raises(ValueError):
        project_point(Point((1,)), -1)


def test_project_word_examples():
    assert project_word(word(pos(1, 2, 3)), 2) == word(pos(1, 2))
    assert project_word(word(pos(1, 7), neg(1, 9)), 1) == IDENTITY_WORD
    deep = word(pos(1, 2), neg(2), pos(0, 0, 3))
    assert project_word(deep, 3) == deep


def test_project_word_is_homomorphism():
    words = exhaustive_reduced_words(TOWER_POINTS, 2)
    for n in (0, 1, 2):
        for u, v in itertools.product(words[::3], repeat=2):
            assert project_word(multiply(u, v), n) == multiply(
                project_word(u, n), project_word(v, n)
            )


def test_tower_coherence():
    rng = random.Random(3)
    for _ in range(60):
        w = sample_reduced_word(rng, DEEP_POINTS, 4)
        for m in range(4):
            for n in range(4):
                assert project_word(project_word(w, n), m) == project_word(
                    w, min(m, n)
                )


# --- Lipschitz checks -------------------------------------------------------------


def test_lipschitz_witness_random_triples():
    rng = random.Random(13)
    for scale in (TRIVIAL_SCALE, WEIGHTED):
        for _ in range(100):
            w = random_raw_word(rng, rng.randint(1, 7))
            theta = sample_match(rng, len(w))
            n = rng.randint(0, 3)
            case = check_lipschitz_witness(w, theta, scale, n)
            assert case.passed, case


def test_lipschitz_witness_identity_at_full_depth():
    rng = random.Random(17)
    for _ in range(30):
        w = random_raw_word(rng, rng.randint(1, 6))
        theta = sample_match(rng, len(w))
        case = check_lipschitz_witness(w, theta, WEIGHTED, w.max_depth)
        assert case.passed and case.lhs == case.rhs


def test_lipschitz_witness_requires_regular_scale():
    from graev.scales import Scale

    irregular = Scale("irregular", lambda x, r: r)
    with pytest.raises(ValueError):
        check_lipschitz_witness(word(pos(1)), None, irregular, 1)


def test_lipschitz_distance_example():
    case = check_lipschitz_distance(word(pos(1, 2)), word(pos(1, 3)), 1)
    assert case.passed
    assert case.lhs == 0 and case.rhs == 1


def test_lipschitz_distance_small_exhaustive():
    words = exhaustive_reduced_words(TOWER_POINTS, 2)
    for n in (0, 1, 2):
        for u, v in itertools.combinations(words[::4], 2):
            assert check_lipschitz_distance(u, v, n).passed


# --- extension conditions ----------------------------------------------------------


def test_extension_conditions_pass():
    letters = [Letter(s, p) for p in DEEP_POINTS for s in (1, -1)]
    for n in (0, 1, 2, 3):
        report = check_extension_conditions(n, WEIGHTED, letters, [F(0), F(1, 2), F(1)])
        assert report.all_passed
        conditions = {c.inputs["condition"] for c in report.cases}
        assert conditions == {
            "commutes-with-inversion",
            "nonexpansive-on-letters",
            "scale-dominates-projection",
        }
    with pytest.raises(ValueError, match="letter and grid samples must be nonempty"):
        check_extension_conditions(1, WEIGHTED, [], [F(0)])


def test_extension_distance_drop_example():
    # x = [1,2], y = [1,3] collapse at level 1
    from graev.freegroup import letter_distance

    assert letter_distance(pos(1, 2), pos(1, 3)) == F(1, 2)
    assert letter_distance(project_letter(pos(1, 2), 1), project_letter(pos(1, 3), 1)) == 0


# --- separating level ---------------------------------------------------------------


def test_separating_level_examples():
    assert separating_level(word(pos(1)), word(pos(1))) is None
    assert separating_level(word(pos(1, 2, 3)), word(pos(1, 2, 4))) == 3
    # both words already differ as projected sequences at level 0: the zero
    # point is a real letter, not the identity
    assert separating_level(word(pos(1)), Word((pos(1), pos(0, 5)))) == 0


def test_separating_level_bound_and_agreement():
    rng = random.Random(19)
    for _ in range(120):
        u = sample_reduced_word(rng, DEEP_POINTS, 4)
        v = sample_reduced_word(rng, DEEP_POINTS, 4)
        if u == v:
            assert separating_level(u, v) is None
            continue
        level = separating_level(u, v)
        assert level is not None
        assert level <= 1 + max(u.max_depth, v.max_depth)
        for m in range(level):
            assert project_word(u, m) == project_word(v, m)
        assert project_word(u, level) != project_word(v, level)


# --- discreteness --------------------------------------------------------------------


def test_discreteness_level1_exhaustive():
    corpus = exhaustive_reduced_words(list(ALPHA3), 2)
    report = check_discreteness(1, corpus)
    assert report.all_passed
    assert report.parameters["bound"] == "1/2"
    assert "attaining-pair" in report.parameters
    assert F(report.parameters["min-observed"]) >= F(1, 2)


def _discreteness_by_pairs(n, corpus):
    # the suite as a plain loop over the public graev_bidistance
    words = []
    for w in corpus:
        rw = reduce_word(w)
        if rw not in words:
            words.append(rw)
    words.sort(key=lambda w: (len(w), format_word(w)))
    bound = F(1, 2**n)
    report = VerificationReport(
        suite="discreteness",
        parameters={"level": str(n), "bound": format_rat(bound), "words": str(len(words))},
    )
    distances = []
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            d, fu, fv = graev_bidistance(u, v), format_word(u), format_word(v)
            report.add(CheckCase.compare({"u": fu, "v": fv}, ">=", d, bound))
            distances.append((d, fu, fv))
    if distances:
        d, fu, fv = min(distances, key=lambda t: t[0])  # the first minimum
        report.parameters["min-observed"] = format_rat(d)
        report.parameters["attaining-pair"] = f"{fu} | {fv}"
    return report


def _lipschitz_by_pairs(n, pairs):
    report = VerificationReport(
        suite="lipschitz", parameters={"level": str(n), "pairs": str(len(pairs))}
    )
    for u, v in pairs:
        lhs = graev_bidistance(project_word(u, n), project_word(v, n))
        rhs = graev_bidistance(u, v)
        inputs = {"u": format_word(u), "v": format_word(v), "level": str(n)}
        report.add(CheckCase.compare(inputs, "<=", lhs, rhs))
    return report


def test_memoised_suites_equal_pair_by_pair_reports():
    rng = random.Random(41)
    for n in range(4):
        points = [Point(()), Point((1,)), Point((0,) * max(n - 1, 0) + (2,))][: 1 + min(n, 2)]
        corpus = exhaustive_reduced_words(points, 2)
        # unreduced spellings and repeats of words already in the corpus
        corpus += [random_raw_word(rng, rng.randint(1, 4)) for _ in range(12)]
        corpus = [w for w in corpus if reduce_word(w).max_depth <= n]
        assert (
            check_discreteness(n, corpus).to_json()
            == _discreteness_by_pairs(n, corpus).to_json()
        )
        words = exhaustive_reduced_words(TOWER_POINTS, 2)[:20]
        words += [random_raw_word(rng, rng.randint(1, 5)) for _ in range(10)]
        pairs = [(u, v) for i, u in enumerate(words) for v in words[i + 1 :]]
        pairs += [(u, Word(u.letters)) for u in words[:5]]  # equal words, distinct objects
        rng.shuffle(pairs)
        assert check_lipschitz(n, pairs).to_json() == _lipschitz_by_pairs(n, pairs).to_json()
        for u, v in pairs[:40]:
            assert check_lipschitz_distance(u, v, n) == _lipschitz_by_pairs(n, [(u, v)]).cases[0]


def test_suites_at_mixed_depths_equal_pair_by_pair_reports():
    # points of depths 1, 12 and 31 in one call, so the call's unit 2^-31 is
    # not most products' own unit; the deepest letters come last
    shallow = [Point((1,)), Point((0,) * 11 + (1,)), Point((0,) * 11 + (2,)), Point((1,) * 12)]
    deep = [Point((0,) * 30 + (1,)), Point((0,) * 30 + (2,)), Point((1,) * 31)]
    rng = random.Random(43)
    words = [sample_reduced_word(rng, shallow, 3, uniform_length=True) for _ in range(14)]
    words += [Word((IDENTITY,) + w.letters) for w in words[:3]]  # repeats, spelled apart
    words += [sample_reduced_word(rng, shallow + deep, 3, uniform_length=True) for _ in range(6)]
    words.append(word(pos(*[0] * 30, 1), neg(*[0] * 30, 2)))
    assert (
        check_discreteness(31, words).to_json() == _discreteness_by_pairs(31, words).to_json()
    )
    pairs = [(u, v) for i, u in enumerate(words) for v in words[i + 1 : i + 4]]
    pairs += [(u, Word(u.letters)) for u in words[::5]]  # equal words, distinct objects
    for n in (0, 1, 12, 30, 31):
        by_pairs = _lipschitz_by_pairs(n, pairs).to_json()
        assert check_lipschitz(n, (pair for pair in pairs)).to_json() == by_pairs


def test_suites_norm_each_distinct_cost_table_once(monkeypatch):
    # work pin: one cost_dp call per distinct letter-cost table of the non-empty
    # products u^{-1}v of the pairs a suite hands to bidistances, and none for
    # uv^{-1}; there are at most as many tables as distinct products
    calls = []
    kernel = graevmetric.cost_dp

    def counted(costs):
        # the one lower-triangular table: column j holds letters 0..j
        assert [len(column) for column in costs] == list(range(1, len(costs) + 1))
        calls.append(1)
        return kernel(costs)

    monkeypatch.setattr(graevmetric, "cost_dp", counted)

    def products(pairs):
        return {multiply(invert(u), v) for u, v in pairs} - {IDENTITY_WORD}

    def tables(words):
        # each product's square table of exact letter distances, which needs no unit
        return {
            tuple(tuple(letter_distance(x.inverse(), y) for y in w.letters) for x in w.letters)
            for w in words
        }

    words = exhaustive_reduced_words(list(ALPHA3), 2)
    check_discreteness(1, words)
    rows = sorted(words, key=lambda w: (len(w), format_word(w)))  # the suite's order
    distinct = products(itertools.combinations(rows, 2))
    assert 0 < len(calls) == len(tables(distinct)) < len(distinct)
    calls.clear()
    words = exhaustive_reduced_words(TOWER_POINTS, 2)[:16]
    words += [word(pos(1, 2), IDENTITY, neg(1)), word(neg(1), neg(1, 2))]
    pairs = list(itertools.combinations(words, 2))
    check_lipschitz(1, pairs)
    projected = [(project_word(u, 1), project_word(v, 1)) for u, v in pairs]
    reduced = [(reduce_word(u), reduce_word(v)) for u, v in pairs]
    distinct = products(projected + reduced)
    assert 0 < len(calls) == len(tables(distinct)) <= len(distinct)


def test_value_only_routes_read_no_witness_back(monkeypatch):
    # graev_norm_dp, bidistances and the suites read cost_dp's value alone:
    # with the witness read-back refused, they return the same values and reports
    words = exhaustive_reduced_words(TOWER_POINTS, 2)[:16]
    pairs = list(itertools.combinations(words, 2))

    def run():
        return (
            [graevmetric.graev_norm_dp(multiply(invert(u), v)) for u, v in pairs],
            graevmetric.bidistances(pairs),
            check_discreteness(2, words).to_json(),
            check_lipschitz(1, pairs).to_json(),
        )

    expected = run()

    def refuse(*args):
        raise AssertionError("a witness was read back")

    monkeypatch.setattr(graevmetric, "match_from_values", refuse)
    with pytest.raises(AssertionError, match="read back"):
        graevmetric.trivial_norm_dp(words[1])
    assert run() == expected


def test_discreteness_rejects_deep_corpus():
    with pytest.raises(ValueError, match="depth"):
        check_discreteness(1, [word(pos(1, 2))])


def test_discreteness_singleton_vacuous():
    report = check_discreteness(2, [word(pos(1))])
    assert report.all_passed
    assert report.summary["total"] == 0


def test_discreteness_random_level2():
    rng = random.Random(23)
    pts = [Point(()), Point((1,)), Point((0, 2))]
    seen = 0
    while seen < 50:
        u = sample_reduced_word(rng, pts, 3)
        v = sample_reduced_word(rng, pts, 3)
        if u == v:
            continue
        assert graev_bidistance(u, v) >= F(1, 4)
        seen += 1


# --- JSON rendering ---------------------------------------------------------------------


def _dumped(report):
    # the reference rendering that VerificationReport.render_json writes directly
    return json.dumps(report.to_json(), sort_keys=True, indent=2)


def test_render_json_equals_json_dumps():
    corpus = exhaustive_reduced_words([Point(()), Point((1,)), Point((0, 2))], 2)
    letters = [Letter(s, p) for p in DEEP_POINTS for s in (1, -1)]
    grid, tail = [F(0), F(1, 2), F(1)], [F(1, 64)]
    # file paths reach the parameters through a scale's name
    odd = 'dir "quoted"\\back\tslash\n\x00\x1f/\u00e9\u2603\U0001f600.scale'
    failing = check_scale_axioms(weighted_scale({0: F(-2)}, name=odd), letters, grid, tail)
    assert not failing.all_passed
    case = CheckCase.compare({odd: odd, "": "", "b": "\u00e9"}, "<=", F(-7, 3), F(0))
    reports = [
        check_discreteness(2, corpus),
        check_lipschitz(1, itertools.combinations(corpus, 2)),
        check_extension_conditions(2, WEIGHTED, letters, grid),
        check_scale_axioms(WEIGHTED, letters, grid, tail),
        failing,
        VerificationReport("empty"),
        VerificationReport("no parameters", cases=[case, CheckCase({}, ">", F(1), F(2), False)]),
        VerificationReport(odd, parameters={"source": odd, odd: "x"}, seed=-12),
    ]
    for report in reports:
        assert report.render_json() == _dumped(report)


_texts = st.text(max_size=6)
_rats = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**20)
_cases = st.builds(
    CheckCase.compare,
    st.dictionaries(_texts, _texts, max_size=4),
    st.sampled_from(["==", "<=", ">=", ">"]),
    _rats,
    _rats,
)


@settings(max_examples=100, deadline=None)
@given(
    st.builds(
        VerificationReport,
        _texts,
        st.dictionaries(_texts, _texts, max_size=5),
        st.lists(_cases, max_size=5),
        st.integers(),
    )
)
def test_render_json_equals_json_dumps_on_random_reports(report):
    assert report.render_json() == _dumped(report)
