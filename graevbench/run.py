#!/usr/bin/env python3
"""Closed-loop benchmark of the graev CLI, called in-process.

One client in one thread calls ``graev.cli.main(argv)`` with stdout
captured; each call starts when the previous one has returned and its
output has been checked (the check is not timed).  Inputs come from the
workload's seeded generator in ``workloads.py``.

    python3 graevbench/run.py --workload exact-norm --seed 3 --seconds 25 --trace 0
    python3 graevbench/run.py --workload all          # table of every metric

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions (see ``spans.py``) and reports per-layer metrics.
End-to-end times are scaled by the machine's speed during the run, gauged
by timing the benchmark's own reference DP between calls (see
``speed_factors``); the unscaled figures are in the provenance line.
The last stdout line is one JSON object: correct, attempted, failed, metrics;
the line before it holds provenance, and graevbench/out/ keeps both plus the
spans.  Why each workload and metric exists, and the baseline, are in
``meta.json``.  The benchmark's own tests: ``python3 -m pytest graevbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from itertools import chain, islice
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
META = HERE / "meta.json"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPS = 7
REFERENCE_S = 0.0026  # reference_dp time on the machine of meta.json's baseline
GAUGE_WINDOW_S = 1.0
MIN_OPS = 100  # leaves ten latency samples beyond p90
MAX_MEASURE_S = 120.0
MAX_TRACED_PAIRS = 4
LAYERS = ("cli", "freegroup", "matching", "graevmetric", "scales", "tower", "sampling", "reports")


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# Program loading and calls.


def load_program() -> dict:
    """Import graev afresh from this checkout's src/ and return its modules."""
    for name in [n for n in sys.modules if n == "graev" or n.startswith("graev.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    try:
        importlib.import_module("graev.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import graev from {SRC}: {exc}") from None
    origin = Path(sys.modules["graev"].__file__).resolve()
    if SRC not in origin.parents:
        raise SetupError(f"graev was imported from {origin}, not from {SRC}")
    return {name: sys.modules["graev." + name] for name in LAYERS}


def oracle_lib() -> SimpleNamespace:
    """Library functions the output checks use, from an import of their own,
    so that checks never touch the measured program's state."""
    m = load_program()
    return SimpleNamespace(
        graev_norm_dp=m["graevmetric"].graev_norm_dp,
        parse_word=m["freegroup"].parse_word,
        norm_theta=m["scales"].norm_theta,
        weighted_scale=m["scales"].weighted_scale,
        Match=m["matching"].Match,
    )


def cli_caller(cli):
    """Call cli.main in-process; the attribute is looked up per call so a
    traced wrapper installed later is used."""

    def call(argv: tuple) -> workloads.Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.main(list(argv))
            except Exception as exc:  # an escaped exception is a failed call
                rc = f"raised {type(exc).__name__}: {exc}"
            t1 = perf_counter()
        return workloads.Outcome(rc, out.getvalue(), err.getvalue(), t1 - t0)

    return call


def execute(group: workloads.Group, call, tracer=None, op_base: int = 0, samples=None) -> list:
    """Run a group's calls; with ``samples``, time the reference DP before
    each call and note the sample in the call's outcome."""
    outcomes = []
    for i, op in enumerate(group.ops):
        for path, text in op.files:
            Path(path).write_text(text, encoding="utf-8")
        if tracer is not None:
            tracer.op = op_base + i
        gauge = reference_sample(samples) if samples is not None else None
        outcomes.append(call(op.argv))
        outcomes[-1].gauge = gauge
    return outcomes


def check(group, outcomes, lib) -> list:
    """Per-op error messages (None when the op passed)."""
    try:
        errors = group.check(group, outcomes, lib)
    except Exception as exc:  # a checker crash fails the whole group
        errors = [f"checker raised {type(exc).__name__}: {exc}"] * len(outcomes)
    return [
        f"exit code {o.rc!r}: {o.err.strip()[:200]}" if o.rc != 0 else e
        for o, e in zip(outcomes, errors)
    ]


def digest(groups: list, outcomes: list) -> str:
    h = hashlib.sha256()
    for group, outs in zip(groups, outcomes):
        for op, o in zip(group.ops, outs):
            h.update(("\x1f".join(op.argv) + f"\n{o.rc}\n{o.out}\x1e").encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Phases.


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: list = []
        self.gauges: list = []  # per call, the reference sample taken just before it
        self.errors: list = []

    def add(self, group, outcomes, errors) -> None:
        self.attempted += len(outcomes)
        self.latencies.extend(o.latency_s for o in outcomes)
        self.gauges.extend(o.gauge for o in outcomes)
        for op, e in zip(group.ops, errors):
            if e is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{' '.join(op.argv)[:160]}: {e}")


def reference_sample(samples: list) -> int:
    """Time one run of the benchmark's own reference DP, with the collector
    off so that the program's heap does not slow it; appends (start, time)
    and returns the sample's index."""
    gc.disable()
    try:
        t0 = perf_counter()
        workloads.reference_dp(workloads.REFERENCE_WORD)
        samples.append((t0, perf_counter() - t0))
    finally:
        gc.enable()
    return len(samples) - 1


def speed_factors(samples: list) -> list:
    """Per sample, how much faster the machine ran around it than the
    baseline machine: REFERENCE_S over the median reference time within
    GAUGE_WINDOW_S of it.  A time measured next to a sample is multiplied
    by its factor, which cancels the drift of a shared machine's speed; the
    reference code is the benchmark's, so a change to the program does not
    move the factors."""
    out, lo, hi = [], 0, 0
    for t, _ in samples:
        while samples[lo][0] < t - GAUGE_WINDOW_S:
            lo += 1
        while hi < len(samples) and samples[hi][0] <= t + GAUGE_WINDOW_S:
            hi += 1
        out.append(REFERENCE_S / statistics.median(d for _, d in samples[lo:hi]))
    return out


def setup_once(workload, seed: int):
    """Import the program, generate the input pool and warm up."""
    modules = load_program()
    pool = workloads.first_rounds(workload, seed, 4 * workload.trace_rounds)
    call = cli_caller(modules["cli"])
    return modules, pool, call, execute(pool[0][0], call)


def setup(workload, seed: int, reps: int, samples: list):
    """setup_once ``reps`` times; returns the times (setup_s is their
    median), the reference sample taken before each, and the last
    repetition's state."""
    times, gauges, state = [], [], None
    for _ in range(reps):
        state = None
        gc.collect()  # the previous repetition's import is gone before the next is timed
        for _ in range(3):
            gauge = reference_sample(samples)
        t0 = perf_counter()
        state = setup_once(workload, seed)
        times.append(perf_counter() - t0)
        gauges.append(gauge)
    return times, gauges, state


def run_golden(workload, call, lib, tally: Tally) -> tuple:
    groups = workloads.first_rounds(workload, DEFAULT_SEED, 1)[0]
    outcomes = [execute(g, call) for g in groups]
    golden = Tally()
    for g, outs in zip(groups, outcomes):
        golden.add(g, outs, check(g, outs, lib))
    tally.errors.extend(f"golden: {e}" for e in golden.errors)
    return digest(groups, outcomes), golden.failed == 0


def measure(rounds, call, lib, seconds: float, tally: Tally, samples: list) -> float:
    """Closed loop over whole rounds, until ``seconds`` have passed and
    MIN_OPS calls were made.  Stopping only between rounds keeps the mix of
    input sizes the same in every run."""
    start = perf_counter()
    for groups in rounds:
        for group in groups:
            outcomes = execute(group, call, samples=samples)
            tally.add(group, outcomes, check(group, outcomes, lib))
        elapsed = perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and tally.attempted >= MIN_OPS):
            return elapsed


UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def end_to_end(setup_times: list, latencies: list, tally: Tally) -> dict:
    """The timed end-to-end metrics from set-up times and call latencies."""
    lat = sorted(latencies)
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": (tally.attempted - tally.failed) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
    }


def traced_pairs(window, modules, call, lib, seconds: float, tally: Tally):
    """Alternate untraced and traced passes over one fixed window of groups.

    Returns per-pass layer metrics, per-pass spans, and busy times of the
    untraced and traced passes."""
    plain_busy, traced_busy, per_pass, all_spans = [], [], [], []
    start = perf_counter()
    while len(traced_busy) < MAX_TRACED_PAIRS and (
        not traced_busy or perf_counter() - start < seconds
    ):
        for traced in (False, True):
            tracer = spans.Tracer(modules) if traced else None
            if tracer:
                tracer.install()
            try:
                results, base = [], 0
                for g in window:
                    results.append(execute(g, call, tracer, base))
                    base += len(g.ops)
            finally:
                if tracer:
                    tracer.uninstall()
            for g, outs in zip(window, results):
                tally.add(g, outs, check(g, outs, lib))
            busy = sum(o.latency_s for outs in results for o in outs)
            if traced:
                traced_busy.append(busy)
                per_pass.append(spans.layer_metrics(tracer.spans, tracer.counts))
                all_spans.append(tracer.spans)
            else:
                plain_busy.append(busy)
    return per_pass, all_spans, plain_busy, traced_busy


# ---------------------------------------------------------------------------
# Reporting.


def provenance(workload: str, seed: int, trace: int) -> dict:
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "loop": "closed, 1 process, 1 thread, 1 client, in-process cli.main",
    }


def load_meta() -> dict:
    return json.loads(META.read_text(encoding="utf-8"))


def run(workload_name: str, seed: int, seconds: float, trace: int, call_wrapper=None) -> dict:
    """One benchmark run; returns the result line plus provenance.

    ``call_wrapper`` (tests only) wraps the in-process caller, for example
    to plant a wrong output."""
    workload = workloads.WORKLOADS[workload_name]
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    lib = oracle_lib()
    samples: list = []
    setup_times, setup_gauges, (modules, pool, call, warm_outcomes) = setup(
        workload, seed, SETUP_REPS if trace == 0 else 1, samples
    )
    warm_errors = check(pool[0][0], warm_outcomes, lib)
    if call_wrapper is not None:
        call = call_wrapper(call)
    tally = Tally()
    tally.errors.extend(f"warm-up: {e}" for e in warm_errors if e)
    prov = provenance(workload_name, seed, trace)
    prov["setup_reps_s"] = setup_times
    if trace == 0:
        rounds = chain(pool, islice(workloads.rounds(workload, seed), len(pool), None))
        measured_s = measure(rounds, call, lib, seconds, tally, samples)
        factors = speed_factors(samples)
        prov["unscaled"] = end_to_end(setup_times, tally.latencies, tally)
        metrics = end_to_end(
            [t * factors[j] for t, j in zip(setup_times, setup_gauges)],
            [t * factors[j] for t, j in zip(tally.latencies, tally.gauges)],
            tally,
        )
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
        prov.update(
            median_speed_factor=statistics.median(factors),
            reference_samples=len(samples),
            ops=tally.attempted,
            latency_samples=len(tally.latencies),
            busy_s=sum(tally.latencies),
            measured_s=measured_s,
        )
    else:
        window = [g for r in pool[: workload.trace_rounds] for g in r]
        per_pass, all_spans, plain_busy, traced_busy = traced_pairs(
            window, modules, call, lib, seconds, tally
        )
        first_counts = {k: v for k, v in per_pass[0].items() if not k.endswith("_s")}
        for i, p in enumerate(per_pass[1:], start=2):
            if {k: v for k, v in p.items() if not k.endswith("_s")} != first_counts:
                tally.failed += 1
                tally.errors.append(f"traced pass {i} counted different work than pass 1")
        metrics = {
            k: (statistics.median(p[k] for p in per_pass), "s")
            if k.endswith("_s")
            else (v, "count")
            for k, v in per_pass[0].items()
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(plain_busy) / statistics.median(traced_busy),
            "ratio",
        )
        span_file = OUT / f"spans-{workload_name}-seed{seed}.jsonl"
        with span_file.open("w", encoding="utf-8") as fh:
            for k, pass_spans in enumerate(all_spans):
                for s in pass_spans:
                    fh.write(json.dumps([k] + s) + "\n")
        prov.update(
            ops_per_pass=sum(len(g.ops) for g in window),
            traced_passes=len(traced_busy),
            span_file=str(span_file.relative_to(ROOT)),
            span_fields=("pass",) + spans.FIELDS,
            computed_counts=spans.COMPUTED_COUNTS,
        )
    golden_digest, golden_ok = run_golden(workload, call, lib, tally)
    expected = load_meta().get("expected_digest", {}).get(workload_name)
    if not golden_ok or golden_digest != expected:
        tally.errors.append(
            f"default-seed digest {golden_digest} != recorded {expected}"
            if golden_ok
            else "default-seed outputs failed their checks"
        )
        tally.failed = tally.attempted
    prov.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failed_ratio=tally.failed / tally.attempted,
        golden_digest=golden_digest,
        errors=tally.errors,
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "provenance": prov}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process (peak RSS is per process); prints
    every metric by name and unit, and the failed ratio."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}  attempted {result['attempted']}  failed {result['failed']}  "
              f"failed_ratio {result['failed'] / result['attempted']:.4f}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:44s} {m['value']:>16.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    try:
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        out = run(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, OSError, json.JSONDecodeError) as exc:
        print(f"graevbench: {exc}", file=sys.stderr)
        return 2
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"provenance": out["provenance"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
