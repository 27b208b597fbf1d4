"""Traced runs: spans around railsim's public entry points, installed from
the benchmark's side so that nothing inside ``railsim`` changes.

A span is opened on entry to a wrapped function and closed on exit.  The
tracer keeps everything in memory and aggregates as spans close, because
a traced sim-hold run closes millions of ``DedupState.observe`` spans:
per span name it keeps the calls, the inclusive time and the self time
(duration minus the time its direct child spans cover), and per layer
the time under the layer's outermost spans.  ``profile()`` returns that
aggregate for writing out at the end of the run.

The wrapper's own cost falls outside the child span and inside its
parent, so a parent's self time includes the tracing cost of its
children; ``trace.overhead_frac`` reports the total.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SUITE_FAMILIES = ("loss_sweep", "burst_grid", "cdf_dominance_runs",
                  "ordering_runs", "jitter_sweep", "padding_check",
                  "mos_dominance_runs")


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [layer, child_ns]
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.layer_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(counts, args, kwargs,
        result)`` updates counters after a call that returned."""
        layer = name.split(".", 1)[0]
        stats = self.spans.setdefault(name, [0, 0, 0])
        stack, layer_ns, counts = self._stack, self.layer_ns, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    if parent[0] != layer:
                        layer_ns[layer] += dur
                else:
                    layer_ns[layer] += dur
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0, 0])[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[2] / 1e9

    def profile(self) -> dict:
        return {
            "spans": {name: {"calls": calls, "total_s": total / 1e9, "self_s": own / 1e9}
                      for name, (calls, total, own) in sorted(self.spans.items())},
            "layers_s": {k: v / 1e9 for k, v in sorted(self.layer_ns.items())},
            "counts": dict(sorted(self.counts.items())),
            "missing_entry_points": list(self.missing),
        }


def _count_take(counts, args, kwargs, result):
    counts["pathsim.take_packets"] += int(kwargs["n"] if "n" in kwargs else args[1])


def _count_scan(key):
    def count(counts, args, kwargs, result):
        counts[key] += len(args[0])
    return count


def _count_hold(counts, args, kwargs, result):
    counts["railedge.hold_events"] += len(result)


def _count_simulate(counts, args, kwargs, result):
    counts["engine.packets"] += int(result.scenario.traffic.count)
    counts["railedge.window_miss_dups"] += int(result.counters.window_miss_duplicates)


def _count_curve(counts, args, kwargs, result):
    counts["quality.curve_points"] += len(result)


def _count_write(counts, args, kwargs, result):
    counts["report.bytes"] += sum(p.stat().st_size for p in result)


def _replace_function(tracer: Tracer, name: str, module, attr: str, count=None):
    """Wrap ``module.attr`` and every other binding of the same function in
    a railsim module (``from x import f`` copies the reference)."""
    original = getattr(module, attr, None)
    if original is None:
        tracer.missing.append(f"{module.__name__}.{attr}")
        return
    traced = tracer.wrap(name, original, count)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "railsim" or mod_name.startswith("railsim.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)


def _replace_method(tracer: Tracer, name: str, cls, attr: str, count=None):
    original = cls.__dict__.get(attr) if cls is not None else None
    if original is None:
        tracer.missing.append(f"{getattr(cls, '__name__', cls)}.{attr}")
        return
    setattr(cls, attr, tracer.wrap(name, original, count))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each railsim module (see spec.json)."""
    from railsim import cli, engine, metrics, pathsim, quality, railedge, report, suite

    _replace_method(tracer, "pathsim.take", getattr(pathsim, "PathStream", None),
                    "take", _count_take)
    _replace_method(tracer, "pathsim.take", getattr(pathsim, "LossStream", None),
                    "take", _count_take)
    _replace_function(tracer, "pathsim.sticky_scan", pathsim, "sticky_scan",
                      _count_scan("pathsim.sticky_scan_elems"))
    _replace_function(tracer, "pathsim.ar1_scan", pathsim, "ar1_scan",
                      _count_scan("pathsim.ar1_scan_elems"))

    _replace_function(tracer, "railedge.reorder_hold_schedule", railedge,
                      "reorder_hold_schedule", _count_hold)
    _replace_method(tracer, "railedge.observe", getattr(railedge, "DedupState", None),
                    "observe")

    _replace_function(tracer, "engine.simulate", engine, "simulate", _count_simulate)

    for fn in ("burst_stats", "reorder_stats", "empirical_cdf"):
        _replace_function(tracer, f"metrics.{fn}", metrics, fn)
    cdf = getattr(metrics, "DelayCdf", None)
    for attr in ("__init__", "__call__", "quantile"):
        _replace_method(tracer, f"metrics.DelayCdf.{attr}", cdf, attr)

    _replace_function(tracer, "quality.mos_curve", quality, "mos_curve", _count_curve)
    for fn in ("rail_mos_curve", "path_mos_curve"):
        _replace_function(tracer, f"quality.{fn}", quality, fn)

    _replace_method(tracer, "report.write", getattr(report, "ReportBundle", None),
                    "write", _count_write)

    _replace_function(tracer, "cli.main", cli, "main")
    _replace_function(tracer, "cli.simulation_bundle", cli, "simulation_bundle")

    _replace_function(tracer, "suite.run_paper_suite", suite, "run_paper_suite")
    for fn in SUITE_FAMILIES:
        _replace_function(tracer, f"suite.{fn}", suite, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, except trace.overhead_frac."""
    counts = tracer.counts
    sticky = counts.get("pathsim.sticky_scan_elems", 0)
    out = {
        "pathsim.take_s": tracer.total_s("pathsim.take"),
        "pathsim.scan_s": tracer.total_s("pathsim.sticky_scan") + tracer.total_s("pathsim.ar1_scan"),
        "pathsim.scan_elems": sticky + counts.get("pathsim.ar1_scan_elems", 0),
        "pathsim.draw_use_ratio": (counts.get("pathsim.take_packets", 0) / sticky
                                   if sticky else 0.0),
        "railedge.hold_s": tracer.total_s("railedge.reorder_hold_schedule"),
        "railedge.hold_events": counts.get("railedge.hold_events", 0),
        "railedge.dedup_s": tracer.total_s("railedge.observe"),
        "railedge.dedup_observe_calls": tracer.calls("railedge.observe"),
        "railedge.window_miss_dups": counts.get("railedge.window_miss_dups", 0),
        "engine.simulate_s": tracer.total_s("engine.simulate"),
        "engine.simulate_calls": tracer.calls("engine.simulate"),
        "engine.self_s": tracer.self_s("engine.simulate"),
        "metrics.s": tracer.layer_ns.get("metrics", 0) / 1e9,
        "metrics.cdf_evals": tracer.calls("metrics.DelayCdf.__call__"),
        "quality.curve_s": tracer.layer_ns.get("quality", 0) / 1e9,
        "quality.curve_points": counts.get("quality.curve_points", 0),
        "cli.bundle_s": tracer.total_s("cli.simulation_bundle"),
        "cli.self_s": tracer.self_s("cli.main"),
        "report.write_s": tracer.total_s("report.write"),
        "report.bytes": counts.get("report.bytes", 0),
    }
    for fn in SUITE_FAMILIES:
        out[f"suite.{fn}_s"] = tracer.total_s(f"suite.{fn}")
    return out
