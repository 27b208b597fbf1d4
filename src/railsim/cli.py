"""Command-line front end.

Verbs: simulate, sweep, mos, mos-curve, tcp-model, trace-analyze,
paper-suite.  Exit codes: 0 success, 1 usage/configuration error,
2 paper-suite property failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, engine, metrics, quality, suite
from .engine import load_scenario, run_sweep, simulate
from .errors import RailSimError
from .pathsim import load_trace
from .report import IntColumn, MsColumn, ReportBundle, fmt_ms, fmt_num

ENV_OUT_DIR = "RAILSIM_OUT"
MAX_RANGE_POINTS = 1_000_000  # points an 'a:b:step' range may expand to


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(RailSimError):
    pass


def _float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"{what}: not a number: {text.strip()!r}") from None


def _parse_range(spec: str) -> list[float]:
    """'a:b:step' (inclusive) or a comma-separated list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise _UsageError(f"expected 'start:stop:step', got {spec!r}")
        a, b, step = (_float(x, "range") for x in parts)
        if not all(map(math.isfinite, (a, b, step))):
            raise _UsageError(f"range bounds and step must be finite, got {spec!r}")
        if step <= 0:
            raise _UsageError("step must be > 0")
        if a > b:
            raise _UsageError(f"range start exceeds stop in {spec!r}")
        count = (b - a) / step + 1e-9
        if not count < MAX_RANGE_POINTS:  # int(count) + 1 points; also inf
            raise _UsageError(f"range {spec!r} has more than "
                              f"{MAX_RANGE_POINTS} points")
        n = int(count) + 1
        return [a + k * step for k in range(max(n, 0))]
    return [_float(x, "value list") for x in spec.split(",") if x.strip()]


def _out_dir(args) -> Path | None:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get(ENV_OUT_DIR)
    return Path(env) if env else None


def _write(bundle: ReportBundle, out_dir: Path, fmt: str) -> list[Path]:
    try:
        return bundle.write(out_dir, fmt=fmt)
    except OSError as e:
        raise _UsageError(f"cannot write {e.filename or out_dir}: "
                          f"{e.strerror or e}") from None


def _emit(bundle: ReportBundle, out_dir: Path | None, fmt: str) -> None:
    if out_dir is None:
        print(json.dumps(bundle.summaries, sort_keys=True, indent=2))
        return
    for path in _write(bundle, out_dir, fmt):
        print(f"wrote {path}")


def _load(args) -> engine.Scenario:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    return scenario


# ---------------------------------------------------------------------------
# report builders


def _records_table(sim: engine.SimResult) -> tuple[list[str], list]:
    """The per-packet ledger, one column per header name."""
    path_ids = [p.id for p in sim.scenario.paths]
    header = (["seq", "send_ms"]
              + [f"arrival_{pid}_ms" for pid in path_ids]
              + ["rail_delay_ms", "forward_ms", "padding_ms"])
    columns = (
        [IntColumn(np.arange(len(sim.send_ns))),
         MsColumn(sim.send_ns, int_division=False)]
        + [MsColumn(row, row == engine.LOST_NS, "LOST") for row in sim.arrival_ns]
        + [MsColumn(sim.rail_delay_ns, sim.rail_delay_ns < 0, "LOST"),
           MsColumn(sim.forward_ns, sim.forward_ns < 0, "NEVER"),
           MsColumn(sim.padding_ns, int_division=False)]
    )
    return header, columns


def _burst_summary(lost_mask) -> dict:
    b = metrics.burst_stats(lost_mask)
    return {"lost_in_burst": b.lost_in_burst, "num_bursts": b.num_bursts,
            "avg_burst": b.avg_burst, "max_burst": b.max_burst}


def _stream_summary(n_sent: int, lost_mask, delays) -> dict:
    delays = np.asarray(delays, dtype=float)
    return {
        "loss": float(np.count_nonzero(lost_mask)) / n_sent,
        "delivered": int(n_sent - np.count_nonzero(lost_mask)),
        "mean_delay_ms": float(np.mean(delays)) if delays.size else None,
        "std_delay_ms": float(np.std(delays)) if delays.size else None,
        "burst": _burst_summary(lost_mask),
    }


def simulation_bundle(sim: engine.SimResult) -> ReportBundle:
    n = sim.scenario.traffic.count
    reorder = metrics.reorder_stats(sim.forwarded_order)
    summary = {
        "label": sim.scenario.label,
        "seed": sim.scenario.seed,
        "count": n,
        "rail": _stream_summary(n, sim.rail_lost_mask(), sim.forwarded_delays_ms()),
        "per_path": {
            spec.id: _stream_summary(n, sim.path_lost(i), sim.path_delays_ms(i))
            for i, spec in enumerate(sim.scenario.paths)
        },
        "reorder": {"out_of_order": reorder.out_of_order_count,
                    "gaps": {str(k): v for k, v in sorted(reorder.gaps.items())}},
        "counters": {
            "forwarded": sim.counters.forwarded,
            "suppressed": sim.counters.suppressed,
            "lost_copies": sim.counters.lost_copies,
            "window_miss_duplicates": sim.counters.window_miss_duplicates,
        },
        "warnings": sim.warnings,
    }
    bundle = ReportBundle(manifest={
        "tool": "railsim",
        "version": __version__,
        "seed": sim.scenario.seed,
        "label": sim.scenario.label,
        "scenario_sha256": engine.scenario_sha256(sim.scenario),
    })
    bundle.add_columns("records", *_records_table(sim))
    bundle.summaries = summary
    return bundle


# ---------------------------------------------------------------------------
# verbs


def cmd_simulate(args) -> int:
    sim = simulate(_load(args))
    bundle = simulation_bundle(sim)
    rail = bundle.summaries["rail"]
    print(f"{sim.scenario.label or 'scenario'}: loss={rail['loss']:.6g} "
          f"mean_delay={fmt_ms(rail['mean_delay_ms'])}ms "
          f"reorders={bundle.summaries['reorder']['out_of_order']}")
    _emit(bundle, _out_dir(args), args.format)
    return 0


def cmd_sweep(args) -> int:
    base = _load(args)
    values = _parse_range(args.values)
    results = run_sweep(base, args.parameter, values)
    rows = []
    for value, sim in results:
        n = sim.scenario.traffic.count
        rail_loss = float(np.count_nonzero(sim.rail_lost_mask())) / n
        fwd = sim.forwarded_delays_ms()
        rows.append([fmt_num(value), fmt_num(rail_loss),
                     fmt_num(1.0 - rail_loss),
                     fmt_ms(float(np.mean(fwd))) if fwd.size else "",
                     fmt_ms(float(np.std(fwd))) if fwd.size else "",
                     metrics.reorder_stats(sim.forwarded_order).out_of_order_count])
    bundle = ReportBundle(manifest={
        "tool": "railsim", "version": __version__,
        "seed": base.seed, "parameter": args.parameter,
        # sweep point i runs with seed + i, so points are independent draws
        "seed_policy": "base seed + value index",
        "scenario_sha256": engine.scenario_sha256(base),
    })
    bundle.add_table("sweep", [args.parameter, "rail_loss", "delivered_fraction",
                               "mean_delay_ms", "std_delay_ms", "out_of_order"], rows)
    bundle.summaries = {"parameter": args.parameter,
                        "values": [v for v, _ in results]}
    _emit(bundle, _out_dir(args), args.format)
    return 0


def cmd_mos(args) -> int:
    if args.grid:
        losses = _parse_range(args.losses)
        delays = _parse_range(args.delays)
        rows = []
        for loss in losses:
            for delay in delays:
                score = quality.mos(loss, delay)
                rows.append([fmt_num(loss), fmt_num(delay),
                             fmt_num(score.r_factor), fmt_num(score.mos)])
        bundle = ReportBundle(manifest={"tool": "railsim", "version": __version__})
        bundle.add_table("mos_grid", ["loss", "delay_ms", "r_factor", "mos"], rows)
        bundle.summaries = {"points": len(rows)}
        _emit(bundle, _out_dir(args), args.format)
        return 0
    score = quality.mos(args.loss, args.delay)
    print(json.dumps({"loss": args.loss, "delay_ms": args.delay,
                      "r_factor": score.r_factor, "mos": score.mos},
                     sort_keys=True, indent=2))
    return 0


def cmd_mos_curve(args) -> int:
    sim = simulate(_load(args))
    deadlines = _parse_range(args.deadlines)
    rail = quality.rail_mos_curve(sim, deadlines, args.end_system_delay)
    paths = [quality.path_mos_curve(sim, i, deadlines, args.end_system_delay)
             for i in range(len(sim.scenario.paths))]
    rows = []
    for i, point in enumerate(rail):
        rows.append([fmt_num(point.deadline), fmt_num(point.one_way),
                     fmt_num(point.effective_loss), fmt_num(point.score.mos)]
                    + [fmt_num(c[i].score.mos) for c in paths])
    bundle = ReportBundle(manifest={
        "tool": "railsim", "version": __version__, "seed": sim.scenario.seed,
        "scenario_sha256": engine.scenario_sha256(sim.scenario),
        "end_system_delay_ms": args.end_system_delay,
    })
    bundle.add_table(
        "mos_curve",
        ["deadline_ms", "one_way_ms", "effective_loss", "mos_rail"]
        + [f"mos_{p.id}" for p in sim.scenario.paths],
        rows,
    )
    bundle.summaries = {
        "optimal_deadline_ms": quality.optimal_playout(rail),
        "best_mos": max(p.score.mos for p in rail),
    }
    _emit(bundle, _out_dir(args), args.format)
    return 0


def cmd_tcp_model(args) -> int:
    pairs = []
    for chunk in args.paths.split(";"):
        if not chunk.strip():
            continue
        fields = chunk.split(",")
        if len(fields) != 2:
            raise _UsageError(f"--paths: expected 'loss,rtt', got {chunk.strip()!r}")
        pairs.append(tuple(_float(x, "--paths") for x in fields))
    pathset = quality.TcpPathSet.of(pairs)
    pred = quality.tcp_throughput_rail(pathset)
    singles = [quality.tcp_throughput_single(p.loss_rate, p.rtt)
               for p in pathset.paths]
    out = {
        "paths": [{"loss": p.loss_rate, "rtt_ms": p.rtt} for p in pathset.paths],
        "single_throughput_pps": singles,
        "virtual_path": {"expected_rtt_ms": pred.expected_rtt,
                         "throughput_pps": pred.throughput},
        "better_than_every_path": all(pred.throughput > t for t in singles),
    }
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def cmd_trace_analyze(args) -> int:
    path = Path(args.trace)
    if not path.exists():
        raise _UsageError(f"trace not found: {path}")
    trace = load_trace(engine.read_text(path, "trace"))
    lost = np.isnan(trace.delay_ms)
    delivered = trace.delay_ms[~lost]
    summary = {
        "entries": len(trace),
        "loss": float(np.count_nonzero(lost)) / len(trace),
        "mean_delay_ms": float(np.mean(delivered)) if delivered.size else None,
        "std_delay_ms": float(np.std(delivered)) if delivered.size else None,
        "burst": _burst_summary(lost),
    }
    if delivered.size:
        cdf = metrics.empirical_cdf(delivered)
        summary["delay_percentiles_ms"] = {
            str(q): cdf.quantile(q / 100.0) for q in (50, 90, 95, 99)
        }
    bundle = ReportBundle(manifest={"tool": "railsim", "version": __version__,
                                    "trace": path.name})
    bundle.add_columns("trace_entries", ["seq", "delay_ms", "lost"], [
        trace.seq.tolist(),
        [fmt_ms(None if math.isnan(d) else d) for d in trace.delay_ms.tolist()],
        [fmt_num(gone) for gone in lost.tolist()]])
    bundle.summaries = summary
    _emit(bundle, _out_dir(args), args.format)
    return 0


def cmd_paper_suite(args) -> int:
    bundle, gates = suite.run_paper_suite()
    out = _out_dir(args)
    if out is not None:
        _write(bundle, out, args.format)
    for gate in gates:
        status = "PASS" if gate.passed else "FAIL"
        print(f"[{status}] {gate.name}: {gate.detail}")
    failing = [g.name for g in gates if not g.passed]
    if failing:
        print(f"{len(failing)} properties failed: {', '.join(failing)}",
              file=sys.stderr)
        return 2
    print(f"all {len(gates)} properties passed")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="railsim", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario file")
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${ENV_OUT_DIR} or stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="table file format")

    p = sub.add_parser("simulate", help="run one scenario, write per-packet records")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="re-run a scenario across parameter values")
    common(p)
    p.add_argument("--parameter", required=True,
                   help="dotted field path, e.g. paths.0.loss.rate")
    p.add_argument("--values", required=True, help="'a:b:step' or comma list")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mos", help="voice quality for a loss/delay point or grid")
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--delay", type=float, default=0.0, help="one-way delay (ms)")
    p.add_argument("--grid", action="store_true", help="emit a loss x delay table")
    p.add_argument("--losses", default="0:0.05:0.005", help="grid rows (with --grid)")
    p.add_argument("--delays", default="0:400:25", help="grid columns (with --grid)")
    common(p, scenario=False)
    p.set_defaults(func=cmd_mos)

    p = sub.add_parser("mos-curve", help="MOS vs playout deadline for a scenario")
    common(p)
    p.add_argument("--deadlines", default="50:400:10", help="'a:b:step' in ms")
    p.add_argument("--end-system-delay", type=float, required=True,
                   dest="end_system_delay",
                   help="delay budget consumed outside the network (ms)")
    p.set_defaults(func=cmd_mos_curve)

    p = sub.add_parser("tcp-model", help="TCP throughput over a replicated path set")
    p.add_argument("--paths", required=True, help="'p1,rtt1;p2,rtt2;...' (rtt in ms)")
    p.set_defaults(func=cmd_tcp_model)

    p = sub.add_parser("trace-analyze", help="loss/delay statistics of a trace file")
    p.add_argument("--trace", required=True)
    common(p, scenario=False)
    p.set_defaults(func=cmd_trace_analyze)

    p = sub.add_parser("paper-suite", help="run the canned experiment suite")
    common(p, scenario=False)
    p.set_defaults(func=cmd_paper_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except RailSimError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
