"""Acceptance suite: every criterion at its stated tolerance (exact,
zero-tolerance rational arithmetic throughout), one pass/fail line each.

Run as `pytest tests/test_acceptance.py -v`; the per-criterion lines are
written to the real stdout so they appear even under capture.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from graev.cli import main
from graev.freegroup import (
    IDENTITY,
    IDENTITY_WORD,
    Letter,
    Point,
    invert,
    letter_distance,
    multiply,
    word,
)
from graev.graevmetric import (
    graev_bidistance,
    graev_norm_bruteforce,
    graev_norm_dp,
)
from graev.matching import count_matches, enumerate_matches, is_match
from graev.sampling import (
    exhaustive_reduced_words,
    sample_match,
    sample_reduced_word,
)
from graev.scales import (
    Scale,
    TRIVIAL_SCALE,
    check_scale_axioms,
    conjugation_witness,
    norm_bounds,
    norm_theta,
    norm_theta_min,
    weighted_scale,
)
from graev.tower import (
    check_discreteness,
    check_extension_conditions,
    check_lipschitz,
    check_lipschitz_witness,
    project_word,
    separating_level,
)

from conftest import ALPHA3, DEEP_POINTS, involutions, random_raw_word

WEIGHTED = weighted_scale()
MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798]


@pytest.fixture
def criterion(capsys):
    """Context manager printing the per-criterion pass/fail line outside
    of pytest's capture, so it is always visible."""

    def announce(num: int, name: str, status: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {num:2d} {name}: {status}", flush=True)

    @contextmanager
    def _criterion(num: int, name: str):
        try:
            yield
        except BaseException:
            announce(num, name, "FAIL")
            raise
        announce(num, name, "PASS")

    return _criterion


def test_criterion_01_match_counts(criterion):
    with criterion(1, "match counts"):
        start = time.monotonic()
        for n in range(1, 12):
            enumerated = [m.map for m in enumerate_matches(n)]
            assert len(enumerated) == MOTZKIN[n]
            assert count_matches(n) == MOTZKIN[n]
            assert len(set(enumerated)) == len(enumerated)
            if n <= 8:
                filtered = [m for m in involutions(n) if is_match(m)]
                assert len(filtered) == MOTZKIN[n]
                assert sorted(filtered) == sorted(enumerated)
        assert time.monotonic() - start < 10.0


def test_criterion_02_oracle_equivalence(criterion):
    with criterion(2, "oracle equivalence"):
        start = time.monotonic()
        for w in exhaustive_reduced_words(list(ALPHA3), 6):
            assert graev_norm_dp(w) == graev_norm_bruteforce(w).value
        rng = random.Random(20240206)
        for _ in range(500):
            w = sample_reduced_word(rng, DEEP_POINTS, 12, uniform_length=True)
            assert graev_norm_dp(w) == graev_norm_bruteforce(w).value
        assert time.monotonic() - start < 60.0


def test_criterion_03_metric_axioms_and_extension(criterion):
    with criterion(3, "metric axioms and extension"):
        words = exhaustive_reduced_words(list(ALPHA3), 3)
        n = len(words)
        dist = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                from graev.graevmetric import graev_distance

                dist[i][j] = graev_distance(words[i], words[j])
        for i in range(n):
            for j in range(n):
                assert (dist[i][j] == 0) == (i == j)
                assert dist[i][j] == dist[j][i]
        # the alphabet has depth <= 1, so every distance is an integer;
        # check the triangle inequality on exact ints
        d_int = [[int(v) for v in row] for row in dist]
        assert all(v.denominator == 1 for row in dist for v in row)
        for i in range(n):
            di = d_int[i]
            for j in range(n):
                dj = d_int[j]
                dij = di[j]
                for k in range(n):
                    assert di[k] <= dij + dj[k]
        # extension: on single letters the group distance is the base metric
        from graev.graevmetric import graev_distance

        letters = [Letter(s, p) for p in DEEP_POINTS for s in (1, -1)] + [IDENTITY]
        for a, b in itertools.product(letters, repeat=2):
            assert graev_distance(word(a), word(b)) == letter_distance(a, b)


def test_criterion_04_invariances(criterion):
    with criterion(4, "left and conjugation invariance"):
        from graev.graevmetric import graev_distance

        small = exhaustive_reduced_words(list(ALPHA3), 2)
        gs = [word(Letter(s, p)) for p in ALPHA3 for s in (1, -1)] + [IDENTITY_WORD]
        base = {}
        for u, v in itertools.product(small, repeat=2):
            base[u, v] = graev_distance(u, v)
        for g in gs:
            for u, v in itertools.product(small, repeat=2):
                assert graev_distance(multiply(g, u), multiply(g, v)) == base[u, v]
        for g in gs:
            for u in exhaustive_reduced_words(list(ALPHA3), 3):
                conj = multiply(multiply(invert(g), u), g)
                assert graev_norm_dp(conj) == graev_norm_dp(u)


def test_criterion_05_discreteness(criterion):
    with criterion(5, "discreteness"):
        report = check_discreteness(1, exhaustive_reduced_words(list(ALPHA3), 2))
        assert report.all_passed
        assert report.parameters["bound"] == "1/2"
        assert "attaining-pair" in report.parameters
        assert F(report.parameters["min-observed"]) >= F(1, 2)
        for level in (2, 3):
            pts = [Point(()), Point((1,)), Point((0,) * (level - 1) + (2,))]
            rng = random.Random(1000 + level)
            pairs = 0
            while pairs < 200:
                u = sample_reduced_word(rng, pts, 3)
                v = sample_reduced_word(rng, pts, 3)
                if u == v:
                    continue
                assert graev_bidistance(u, v) >= F(1, 2**level)
                pairs += 1


def test_criterion_06_scale_norm_coherence(criterion):
    with criterion(6, "scale-norm coherence"):
        for w in exhaustive_reduced_words(list(ALPHA3), 4):
            assert norm_theta_min(w, TRIVIAL_SCALE).value == graev_norm_dp(w)
        rng = random.Random(606)
        for _ in range(100):
            w = random_raw_word(rng, rng.randint(1, 10))
            assert norm_theta_min(w, TRIVIAL_SCALE).value == graev_norm_dp(w)
        for _ in range(120):
            w = random_raw_word(rng, rng.randint(1, 8))
            for scale in (TRIVIAL_SCALE, WEIGHTED):
                res = norm_theta_min(w, scale)
                explicit = min(
                    norm_theta(w, theta, scale) for theta in enumerate_matches(len(w))
                )
                assert res.value == explicit
                assert norm_theta(w, res.witness, scale) == res.value


def test_criterion_07_bound_sandwich(criterion):
    with criterion(7, "bound sandwich"):
        rng = random.Random(707)
        pts = [Point(()), Point((1,)), Point((1, 2))]
        for _ in range(1000):
            w = sample_reduced_word(rng, pts, 2)
            uppers = []
            for budget in (0, 1, 2):
                b = norm_bounds(w, WEIGHTED, budget)
                assert b.lower <= b.upper
                uppers.append(b.upper)
            assert uppers[0] >= uppers[1] >= uppers[2]
            point = norm_bounds(w, TRIVIAL_SCALE, 0)
            assert point.lower == point.upper


def test_criterion_08_conjugation_witness(criterion):
    with criterion(8, "conjugation witness identity"):
        rng = random.Random(808)
        pool = [Letter(s, p) for p in DEEP_POINTS for s in (1, -1)] + [IDENTITY]
        for _ in range(1000):
            v = random_raw_word(rng, rng.randint(1, 6))
            theta = sample_match(rng, len(v))
            g = rng.choice(pool)
            eta = (len(v) + 1,) + tuple(t + 1 for t in theta.map) + (0,)
            assert is_match(eta)
            for scale in (TRIVIAL_SCALE, WEIGHTED):
                got = conjugation_witness(v, theta, g, scale)
                assert got == scale(g, norm_theta(v, theta, scale))


def test_criterion_09_lipschitz(criterion):
    with criterion(9, "Lipschitz projections"):
        pts = [Point(()), Point((1,)), Point((1, 2))]
        words = exhaustive_reduced_words(pts, 3)
        for level in (0, 1, 2):
            report = check_lipschitz(level, list(itertools.combinations(words, 2)))
            assert report.all_passed and report.summary["total"] == 17391
        rng = random.Random(909)
        for _ in range(1000):
            w = random_raw_word(rng, rng.randint(1, 8))
            theta = sample_match(rng, len(w))
            level = rng.randint(0, 3)
            assert check_lipschitz_witness(w, theta, WEIGHTED, level).passed
        letters = [Letter(s, p) for p in DEEP_POINTS for s in (1, -1)]
        grid = [F(0), F(1, 4), F(1, 2), F(1), F(2)]
        for level in (0, 1, 2, 3):
            assert check_extension_conditions(level, WEIGHTED, letters, grid).all_passed


def test_criterion_10_injectivity_stages(criterion):
    with criterion(10, "injectivity stages"):
        rng = random.Random(1010)
        pairs = 0
        while pairs < 500:
            u = sample_reduced_word(rng, DEEP_POINTS, 4)
            v = sample_reduced_word(rng, DEEP_POINTS, 4)
            if u == v:
                continue
            level = separating_level(u, v)
            assert level is not None
            assert level <= 1 + max(u.max_depth, v.max_depth)
            for m in range(level):
                assert project_word(u, m) == project_word(v, m)
            assert project_word(u, level) != project_word(v, level)
            pairs += 1


def test_criterion_11_scale_axiom_checker(criterion):
    with criterion(11, "scale axiom checker"):
        probe = [Letter(s, p) for p in DEEP_POINTS for s in (1, -1)]
        grid = [F(0), F(1, 8), F(1, 2), F(1), F(2)]
        tail = [F(1, 64), F(1, 256)]
        for scale in (TRIVIAL_SCALE, WEIGHTED):
            report = check_scale_axioms(scale, probe, grid, tail)
            assert report.all_passed
            assert any(
                c.inputs["axiom"] == "regular-under-truncation" for c in report.cases
            )
        broken = Scale("broken", lambda x, r: r if x.is_identity else r + 1)
        report = check_scale_axioms(broken, probe, grid, tail)
        assert not report.all_passed
        zero_failures = [
            c for c in report.failures() if c.inputs["axiom"] == "zero-only-at-zero"
        ]
        assert zero_failures and all(c.inputs["r"] == "0/1" for c in zero_failures)


def test_criterion_12_cli_contract(criterion, capsys, monkeypatch, tmp_path):
    with criterion(12, "CLI contract"):
        def run(*argv):
            code = main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        # exact outputs, exit 0
        assert run("dist", "[1,2]", "[1,3]") [:2] == (0, "1/1\n")
        assert run("norm", "[1] [2]")[:2] == (0, "1/1\n")
        assert run("norm", "--scale", "weighted", "--budget", "0", "[1,2]^-1 [1,3]")[
            :2
        ] == (0, "lower 1/2 upper 1/2\n")
        assert run("matches", "--len", "4", "--count-only")[:2] == (0, "9\n")
        assert run("matches", "--len", "3")[:2] == (0, "0 1 2\n0 2 1\n1 0 2\n2 1 0\n")
        assert run("project", "-n", "2", "[1,2,3]")[:2] == (0, "[1,2]\n")
        assert run("seplevel", "[1,2,3]", "[1,2,4]")[:2] == (0, "3\n")
        assert run("seplevel", "e", "e")[:2] == (0, "equal\n")

        # verification suites with the documented bound in the report
        code, out, _ = run("verify", "--suite", "discreteness", "--level", "1")
        assert code == 0 and "bound: 1/2" in out and "failed: 0" in out

        # exit 2: malformed word names the token and its position
        code, _, err = run("dist", "bogus", "[1]")
        assert code == 2 and "'b'" in err and "column 1" in err

        # exit 3: resource limits, naming the active cap
        monkeypatch.setenv("GRAEV_MATCH_CAP", "6")
        code, _, err = run("matches", "--len", "7")
        assert code == 3 and "cap 6" in err
        monkeypatch.delenv("GRAEV_MATCH_CAP")

        # exit 1: a planted invalid scale file fails the axiom suite
        bad = tmp_path / "bad.scale"
        bad.write_text("0 = -2\n")
        code, out, _ = run("verify", "--suite", "scale-axioms", "--scale", f"file:{bad}")
        assert code == 1 and "FAIL" in out

        # fixed-seed reruns are byte-identical
        args = (
            "verify", "--suite", "discreteness", "--level", "2",
            "--cases", "40", "--seed", "7", "--json",
        )
        first = run(*args)
        second = run(*args)
        assert first == second and first[0] == 0
        payload = json.loads(first[1])
        assert set(payload) == {"suite", "parameters", "cases", "summary", "seed"}
        assert payload["summary"]["failed"] == 0
