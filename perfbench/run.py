#!/usr/bin/env python3
"""The railsim benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload sim-hold --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each run is one fresh process driving railsim in a closed loop with one
caller: an operation starts when the previous one has finished.  A pass
runs each of the workload's operations once; after the first, another
pass starts only if one as long as the last would still end within
``--seconds``.  Every operation's output is checked.  With ``--trace 0``
the run prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs one untraced pass, then traces railsim's public
entry points and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Every end-to-end time is in reference-speed seconds (see
``hostspeed.py``): CPU seconds of this process scaled by the host speed
sampled during the operation, because the speed of a shared virtual
machine's CPUs drifts by a quarter over minutes.  The raw CPU and
wall-clock figures are printed on the human-readable lines.

``--smoke`` runs every workload at tiny sizes in both modes, checks
that every metric of BENCHMARK.json is emitted and that a deliberately
altered output counts as a failed operation.

railsim is imported from ``src/`` of the checkout holding this file;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checks
import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"


class Runner:
    """Runs operations through ``cli.main`` and keeps the failure tally."""

    def __init__(self, work_dir: Path, sampler: hostspeed.Sampler | None):
        self.work_dir = work_dir
        self.sampler = sampler
        self.cli = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._timing = False
        # raw seconds of the timed calls, for the notes
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def timed(self, fn):
        """(fn(), its seconds): reference-speed seconds with a sampler, CPU
        seconds without.  A call nested in a timed one is not timed again."""
        if self._timing:
            return fn(), 0.0
        self._timing = True
        w0, t0 = time.perf_counter(), hostspeed.CLOCK()
        try:
            if self.sampler is None:
                result = fn()
                cpu = seconds = hostspeed.CLOCK() - t0
            else:
                result, cpu, seconds = self.sampler.time(fn)
        finally:
            self._timing = False
        self.wall_s += time.perf_counter() - w0
        self.cpu_s += cpu
        return result, seconds

    def _call(self, argv: list[str]) -> str | None:
        """Run ``railsim argv`` in-process; an error message, or None."""
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = self.cli.main(argv)
            except (Exception, SystemExit) as e:  # a raising operation is a failure
                return f"raised {type(e).__name__}: {e}"
        return None if rc == 0 else f"exit code {rc}"

    def run_op(self, op: workloads.Operation, mutate=None) -> float:
        """Seconds of one operation (see ``timed``); its output is checked
        afterwards."""
        out = self.work_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        self.attempted += 1
        error, seconds = self.timed(lambda: self._call(op.argv + ["--out", str(out)]))
        if error is None:
            if mutate is not None:
                mutate(out)
            error = self._check(op, out)
        if error is not None:
            self.failed += 1
            self.failures.append(f"{op.label}: {error}")
        return seconds

    @staticmethod
    def _check(op: workloads.Operation, out: Path) -> str | None:
        try:
            digest = checks.bundle_digest(out)
            if op.seen_digest is None:
                op.check(out)
                op.seen_digest = digest
            elif digest != op.seen_digest:
                return "output differs from the first run of this operation"
        except checks.CheckFailed as e:
            return f"check failed: {e}"
        except (OSError, ValueError, KeyError) as e:
            return f"unreadable output: {type(e).__name__}: {e}"
        return None

    def run_passes(self, ops, seconds: float):
        """Whole passes over ``ops``: the first, then another only while one
        as long as the last still ends within ``seconds`` of wall-clock
        time.  Returns (pass seconds, operation seconds, packets)."""
        passes, times, packets = [], [], 0
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            times_before = len(times)
            for op in ops:
                times.append(self.run_op(op))
                packets += op.packets
            passes.append(sum(times[times_before:]))
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                return passes, times, packets


def import_railsim():
    """(Re-)import railsim from the checkout; returns ``railsim.cli``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "railsim" or m.startswith("railsim.")]:
        del sys.modules[name]
    cli = importlib.import_module("railsim.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"railsim was imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(runner: Runner, args, rounds: int) -> tuple[list[float], list]:
    """Set-up rounds: import railsim, write the workload inputs, run one
    warm-up operation.  Returns (round seconds, the operations)."""
    def one_round():
        runner.cli = import_railsim()
        ops = workloads.operations(args.workload, args.seed, runner.work_dir, args.smoke)
        runner.run_op(workloads.warmup_operation(runner.work_dir))
        return ops

    times = []
    for _ in range(rounds):
        gc.collect()
        ops, seconds = runner.timed(one_round)
        times.append(seconds)
    if args.smoke:
        workloads.shrink_suite(sys.modules["railsim.suite"])
    return times, ops


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    operations beyond it; the maximum when there are fewer than eleven."""
    ranked = sorted(times)
    if len(ranked) < 11:
        return ranked[-1], 100.0
    return ranked[-11], 100.0 * (len(ranked) - 10) / len(ranked)


def measure(args, runner: Runner) -> tuple[dict, list[str]]:
    """Metric values and the human-readable lines describing them."""
    setup_times, ops = set_up(runner, args, 1 if args.smoke else workloads.SPEC["setup_rounds"])
    if args.trace:
        ref_passes, _, _ = runner.run_passes(ops, 0)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        passes, times, packets = runner.run_passes(ops, args.seconds)
        values = tracing.layer_metrics(tracer)
        values["trace.overhead_frac"] = statistics.median(passes) / ref_passes[0] - 1.0
        traced_packets = tracer.counts.get("engine.packets", 0)
        OUT.mkdir(exist_ok=True)
        profile = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        profile.write_text(json.dumps(tracer.profile(), indent=1) + "\n")
        notes = [f"{len(times)} traced operations in {len(passes)} passes after one "
                 f"untraced pass; span profile in {profile.relative_to(ROOT)}",
                 f"simulate saw {traced_packets} packets; the operations declare {packets}"]
        if tracer.missing:
            notes.append(f"entry points not found (their metrics read 0): "
                         f"{', '.join(tracer.missing)}")
        return values, notes

    cpu_before, wall_before = runner.cpu_s, runner.wall_s
    passes, times, packets = runner.run_passes(ops, args.seconds)
    cpu, wall = runner.cpu_s - cpu_before, runner.wall_s - wall_before
    tail_value, tail_pct = tail(times)
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(passes),
        "pkts_per_s": packets / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"{len(times)} operations in {len(passes)} passes: {sum(times):.4f} reference-speed s, "
        f"{cpu:.4f} CPU s, {wall:.4f} wall-clock s; mean host speed "
        f"{statistics.fmean(runner.sampler.speeds):.4f} of the reference",
        f"setup_s is the median of {len(setup_times)} rounds "
        f"(min {min(setup_times):.4f} s, max {max(setup_times):.4f} s)",
        f"op_s_tail is p{tail_pct:.1f} of {len(times)} operations",
        f"fail_frac {runner.failed / runner.attempted:.6g} ratio "
        f"({runner.failed} of {runner.attempted} operations, set-up warm-ups included)",
    ]
    return values, notes


def run(args) -> dict:
    """One benchmark run; returns the result object."""
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(work_dir, None if args.trace else hostspeed.Sampler())
        values, notes = measure(args, runner)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    spec = json.loads(BENCHMARK.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    for line in runner.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def mutate_output(out: Path) -> None:
    """Alter a bundle the way a wrong program would: shift one rail delay
    in records.csv by a nanosecond, or add a byte to a suite summary."""
    records = out / "records.csv"
    if not records.exists():
        with open(out / "summary.json", "a") as f:
            f.write("\n")
        return
    header, *rows = records.read_text().splitlines()
    col = header.split(",").index("rail_delay_ms")
    for i, row in enumerate(rows):
        cells = row.split(",")
        if cells[col] != "LOST":
            cells[col] = f"{float(cells[col]) + 1e-6:.6f}"
            rows[i] = ",".join(cells)
            break
    records.write_text("\n".join([header] + rows) + "\n")


def smoke() -> int:
    """Every workload at tiny sizes, both modes, plus one altered output."""
    spec = json.loads(BENCHMARK.read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=workloads.SPEC["default_seed"],
                                      seconds=0.0, trace=trace, smoke=True)
            result = run(args)
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if set(result["metrics"]) != want:
                problems.append(f"{workload} trace {trace}: metrics "
                                f"{sorted(set(result['metrics']) ^ want)} missing or extra")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} "
                                f"operations failed")
        OUT.mkdir(exist_ok=True)
        work_dir = Path(tempfile.mkdtemp(prefix="mutation-", dir=OUT))
        try:
            runner = Runner(work_dir, None)
            runner.cli = import_railsim()
            op = workloads.operations(workload, 2, work_dir, smoke=True)[0]
            if workload == "paper-suite":
                workloads.shrink_suite(sys.modules["railsim.suite"])
            runner.run_op(op, mutate=mutate_output)
            if runner.failed != 1:
                problems.append(f"{workload}: an altered output was not detected")
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    for p in problems:
        print(f"SMOKE FAILED {p}", file=sys.stderr)
    print("smoke passed" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, both modes; no result line")
    args = parser.parse_args(argv)
    if not (SRC / "railsim" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"error: no railsim source under {SRC} or no {BENCHMARK.name} "
              f"beside it", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
