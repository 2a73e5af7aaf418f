"""Traced run: wrap each layer's public functions from outside the package.

Every ``graev.*`` module namespace (and class) that binds a traced function
gets a wrapper, so calls between modules and within a module both go
through it; nothing under ``src/`` changes.  Spans are kept in memory as
lists ``[name, start, end, busy, outer, parent, op, work]``:

- ``busy`` is the time inside the traced function.  For a generator it is
  the sum over its ``next()`` calls, since its frames interleave with the
  caller's.
- ``outer`` adds the wrapper's own bookkeeping; a parent's self time is its
  ``busy`` minus its children's ``outer``, so tracing cost lands in no
  layer's self time (it shows in ``trace.overhead_ratio`` instead).
- ``work`` is a count derived from the input size, not measured: DP cells
  n(n^2-1)/6, or M_n matches.

Hot leaf functions are only counted, without spans.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, BUSY, OUTER, PARENT, OP, WORK = range(8)
FIELDS = ("name", "start", "end", "busy", "outer", "parent", "op", "work")

# Per-layer counts derived from input sizes rather than counted by a wrapper.
COMPUTED_COUNTS = (
    "graevmetric.graev_norm_dp.cells",
    "scales.norm_theta_min.cells",
    "graevmetric.graev_norm_bruteforce.matches",
    "matching.match_maps.matches",
)


def dp_cells(n: int) -> int:
    return n * (n * n - 1) // 6


class Tracer:
    def __init__(self, modules: dict) -> None:
        self.m = modules  # name -> imported graev module, unpatched
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _open(self, name: str, work: int) -> list:
        parent = self.stack[-1] if self.stack else -1
        rec = [name, 0.0, 0.0, 0.0, 0.0, parent, self.op, work]
        self.spans.append(rec)
        return rec

    def span(self, name: str, fn, work=None):
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            o0 = perf_counter()
            rec = self._open(name, work(*args, **kwargs) if work else 0)
            stack.append(len(spans) - 1)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[START], rec[END], rec[BUSY] = t0, t1, t1 - t0
                rec[OUTER] = perf_counter() - o0

        return wrapped

    def generator(self, name: str, fn, work):
        stack = self.stack

        def wrapped(*args, **kwargs):
            rec = self._open(name, work(*args, **kwargs))
            idx = len(self.spans) - 1
            inner = fn(*args, **kwargs)
            rec[START] = rec[END] = perf_counter()

            def run():
                while True:
                    o0 = perf_counter()
                    stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        rec[END] = t1
                        rec[BUSY] += t1 - t0
                        rec[OUTER] += perf_counter() - o0
                    yield item

            return run()

        return wrapped

    def counter(self, name: str, fn, amount=None):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += amount(*args) if amount else 1
            return fn(*args, **kwargs)

        return wrapped

    # -- installation -----------------------------------------------------

    def _bind_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "graev" or mod_name.startswith("graev.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        m = self.m
        orig_reduce = m["freegroup"].reduce_word
        count_matches = m["matching"].count_matches

        def reduced_len(w):
            return len(orig_reduce(w))

        counted = {
            ("freegroup", "letter_distance"): None,
            ("freegroup", "reduce_word"): None,
            ("freegroup", "multiply"): None,
        }
        generators = {
            ("matching", "match_maps"): count_matches,
            ("matching", "enumerate_matches"): count_matches,
        }
        timed = {
            ("cli", "main"): None,
            ("freegroup", "parse_word"): None,
            ("graevmetric", "graev_norm_dp"): lambda w: dp_cells(reduced_len(w)),
            ("graevmetric", "graev_norm_bruteforce"): lambda w, *a, **k: count_matches(
                reduced_len(w)
            ),
            ("graevmetric", "graev_bidistance"): None,
            ("scales", "norm_theta_min"): lambda w, scale: dp_cells(len(w)),
            ("scales", "norm_bounds"): None,
            ("scales", "check_scale_axioms"): None,
            ("tower", "check_discreteness"): None,
            ("tower", "check_lipschitz_distance"): None,
            ("tower", "check_extension_conditions"): None,
        }
        for fn_name in (
            "exhaustive_reduced_words",
            "sample_reduced_word",
            "sample_corpus",
            "sample_distinct_pairs",
            "sample_match",
        ):
            timed[("sampling", fn_name)] = None
        for kind, table in ((self.counter, counted), (self.generator, generators), (self.span, timed)):
            for (mod, attr), work in table.items():
                original = getattr(m[mod], attr)
                self._bind_everywhere(original, kind(f"{mod}.{attr}", original, work))
        report_cls = m["reports"].VerificationReport
        for attr in ("render_text", "to_json"):
            original = getattr(report_cls, attr)
            with_cases = self.counter("reports.cases", original, lambda report: len(report.cases))
            setattr(report_cls, attr, self.span("reports.render", with_cases))
            self._undo.append((report_cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def layer_metrics(spans: list, counts: Counter) -> dict:
    """Per-layer numbers of one traced pass, as {metric: value}."""
    child_outer = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_outer[s[PARENT]] += s[OUTER]
    agg: dict = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0})
    candidates = 0
    sampling_total = 0.0
    for i, s in enumerate(spans):
        a = agg[s[NAME]]
        a["calls"] += 1
        a["busy"] += s[BUSY]
        a["self"] += s[BUSY] - child_outer[i]
        a["work"] += s[WORK]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        if s[NAME] == "scales.norm_theta_min" and parent == "scales.norm_bounds":
            candidates += 1
        if s[NAME].startswith("sampling.") and not parent.startswith("sampling."):
            sampling_total += s[BUSY]
    dp = agg["graevmetric.graev_norm_dp"]
    ntm = agg["scales.norm_theta_min"]
    nb = agg["scales.norm_bounds"]
    bf = agg["graevmetric.graev_norm_bruteforce"]
    lip = agg["tower.check_lipschitz_distance"]
    return {
        "graevmetric.graev_norm_dp.calls": dp["calls"],
        "graevmetric.graev_norm_dp.self_s": dp["self"],
        "graevmetric.graev_norm_dp.cells": dp["work"],
        "scales.norm_theta_min.calls": ntm["calls"],
        "scales.norm_theta_min.self_s": ntm["self"],
        "scales.norm_theta_min.cells": ntm["work"],
        "scales.norm_bounds.calls": nb["calls"],
        "scales.norm_bounds.self_s": nb["self"],
        "scales.norm_bounds.candidates": candidates,
        "graevmetric.graev_norm_bruteforce.calls": bf["calls"],
        "graevmetric.graev_norm_bruteforce.self_s": bf["self"],
        "graevmetric.graev_norm_bruteforce.matches": bf["work"],
        "matching.match_maps.matches": agg["matching.match_maps"]["work"],
        "matching.match_maps.total_s": agg["matching.match_maps"]["busy"],
        "matching.enumerate_matches.total_s": agg["matching.enumerate_matches"]["busy"],
        "freegroup.letter_distance.calls": counts["freegroup.letter_distance"],
        "freegroup.reduce_word.calls": counts["freegroup.reduce_word"],
        "freegroup.multiply.calls": counts["freegroup.multiply"],
        "freegroup.parse_word.total_s": agg["freegroup.parse_word"]["busy"],
        "graevmetric.graev_bidistance.calls": agg["graevmetric.graev_bidistance"]["calls"],
        "tower.check_discreteness.self_s": agg["tower.check_discreteness"]["self"],
        "tower.check_lipschitz_distance.calls": lip["calls"],
        "tower.check_lipschitz_distance.self_s": lip["self"],
        "tower.check_extension_conditions.total_s": agg["tower.check_extension_conditions"][
            "busy"
        ],
        "scales.check_scale_axioms.total_s": agg["scales.check_scale_axioms"]["busy"],
        "sampling.total_s": sampling_total,
        "reports.render.total_s": agg["reports.render"]["busy"],
        "reports.cases": counts["reports.cases"],
        "cli.main.self_s": agg["cli.main"]["self"],
    }
