"""Tests of the benchmark itself: run with ``python3 -m pytest graevbench``."""

import json
import random

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _argvs(rounds):
    return [(op.argv, op.files) for groups in rounds for g in groups for op in g.ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fixed_seed_reproduces_inputs(name):
    wl = workloads.WORKLOADS[name]
    first = _argvs(workloads.first_rounds(wl, 7, 2))
    assert first == _argvs(workloads.first_rounds(wl, 7, 2))
    assert first != _argvs(workloads.first_rounds(wl, 8, 2))


def test_brute_force_oracle_tries_every_match_and_agrees_with_the_dp():
    rng = random.Random(0)
    for n in range(10):
        w = workloads.random_word(rng, n, lambda: workloads.random_point(rng))
        value, tried = workloads.brute_force_norm(w)
        assert tried == workloads.motzkin(n)
        assert value == workloads.reference_dp(w)


def _plant_once(target, corrupt):
    """Caller wrapper that corrupts the output of the first call whose argv
    satisfies target, and leaves every other call alone."""

    def wrapper(call):
        planted = []

        def wrapped(argv):
            outcome = call(argv)
            if not planted and target(argv):
                planted.append(argv)
                outcome.out = corrupt(outcome.out)
            return outcome

        return wrapped

    return wrapper


def _wrong_value(out: str) -> str:
    lines = out.splitlines()
    if out.startswith("{"):
        payload = json.loads(out)
        payload["value"] = "12345/1"
        return json.dumps(payload) + "\n"
    return "\n".join(["12345/1"] + lines[1:]) + "\n"


def _replace(*pairs):
    def corrupt(out: str) -> str:
        for old, new in pairs:
            out = out.replace(old, new)
        return out

    return corrupt


@pytest.mark.parametrize(
    "name, target, corrupt",
    [
        ("exact-norm", lambda argv: argv[0] == "dist", _wrong_value),
        ("match-oracle", lambda argv: "--bruteforce" not in argv, _wrong_value),
        ("scale-bounds", lambda argv: True, _replace(("upper ", "upper 9"), ('"upper": "', '"upper": "9'))),
        ("tower-verify", lambda argv: True, _replace(("failed: 0", "failed: 1"), ('"failed": 0', '"failed": 1'))),
    ],
)
def test_planted_wrong_output_counts_in_failed_ratio(name, target, corrupt):
    out = run.run(name, seed=3, seconds=0.0, trace=0, call_wrapper=_plant_once(target, corrupt))
    result, prov = out["result"], out["provenance"]
    assert result["correct"] is False
    assert result["failed"] == 1
    assert prov["failed_ratio"] == 1 / result["attempted"]


def test_untraced_result_line_has_every_end_to_end_metric():
    result = run.run("match-oracle", seed=4, seconds=0.0, trace=0)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly_at_a_fixed_seed():
    first = run.run("match-oracle", seed=5, seconds=0.0, trace=1)["result"]
    second = run.run("match-oracle", seed=5, seconds=0.0, trace=1)["result"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {
        k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"
    }
    assert first["attempted"] == second["attempted"]
    assert counts["graevmetric.graev_norm_bruteforce.matches"] > 0
