"""The benchmark's workloads: the operations of one pass and their checks.

railsim receives only what a user would give it: scenario files written
here from the workload seed, and the CLI arguments.  Each operation runs
``railsim.cli.main`` in-process; its bundle is checked afterwards.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
PINNED = json.loads((HERE / "pinned.json").read_text())
WORKLOADS = tuple(SPEC["workloads"])

# Smoke mode shrinks the operations so a whole run takes seconds: the
# simulate counts, and the paper-suite families through their size
# arguments (burst_grid keeps its size: below it its dominance gate is
# at the mercy of sampling noise).  Smoke output is checked like
# full-size output, against digests pinned for the shrunk sizes.
SMOKE_COUNTS = (300, 700)
SMOKE_SUITE_SIZES = {
    "loss_sweep": {"count": 20000},
    "cdf_dominance_runs": {"n_runs": 4, "count": 300},
    "ordering_runs": {"n_runs": 5, "count": 100},
    "jitter_sweep": {"count": 400},
    "padding_check": {"count": 600},
    "mos_dominance_runs": {"n_runs": 3, "count": 400},
}
SMOKE_SUITE_PACKETS = 434320  # traffic.count summed over the shrunk suite's runs


@dataclass
class Operation:
    label: str
    argv: list[str]
    packets: int
    check: Callable[[Path], None]
    # digest of the first run of this operation in the process; later runs
    # must reproduce it byte for byte
    seen_digest: str | None = None


def _draw(rng: np.random.Generator, value) -> float:
    """A [lo, hi] range is drawn uniformly; a number is used as is."""
    if isinstance(value, list):
        return float(rng.uniform(value[0], value[1]))
    return float(value)


def scenario_text(gen: dict, count: int, seed: int, op_index: int) -> str:
    """One 3-path scenario file; parameters drawn from (seed, op_index)."""
    rng = np.random.default_rng([seed, op_index])
    lines = [
        "[scenario]",
        f"label = op{op_index}",
        f"seed = {int(rng.integers(2**31))}",
        f"dedup_window = {gen['dedup_window']}",
        f"reorder_removal = {str(gen['reorder_removal']).lower()}",
        "[traffic]",
        f"interval = {gen['interval_ms']}",
        f"count = {count}",
        "[padding]",
        f"enabled = {str(gen['padding_enabled']).lower()}",
        f"target_one_way = {_draw(rng, gen['padding_target_ms']):.3f}",
    ]
    kinds = gen["delay_kinds"]
    for i in range(3):
        lines += [
            f"[paths.{i}]",
            f"id = p{i}",
            f"rate = {_draw(rng, gen['loss_rate']):.6f}",
            f"correlation = {_draw(rng, gen['loss_correlation']):.6f}",
            f"delay = {kinds[(i + op_index) % len(kinds)]}",
            f"mean = {_draw(rng, gen['delay_mean_ms']):.3f}",
            f"stddev = {_draw(rng, gen['delay_stddev_ms']):.3f}",
            f"delay_correlation = {_draw(rng, gen['delay_correlation']):.6f}",
        ]
    return "\n".join(lines) + "\n"


def _sim_check(count: int, interval_ms: float, pinned: dict | None):
    def check(out_dir: Path) -> None:
        checks.check_ledger(out_dir, count, round(interval_ms * 1_000_000))
        if pinned is not None:
            got = checks.file_digests(out_dir)
            for name, want in pinned.items():
                if got[name] != want:
                    raise checks.CheckFailed(f"{name} sha256 {got[name]} != pinned {want}")
    return check


def _suite_check(want: str):
    def check(out_dir: Path) -> None:
        got = checks.bundle_digest(out_dir)
        if got != want:
            raise checks.CheckFailed(f"paper-suite bundle digest {got} != {want}")
    return check


def operations(workload: str, seed: int, work_dir: Path, smoke: bool) -> list[Operation]:
    """The operations of one pass of ``workload``, with inputs written to
    ``work_dir``."""
    if workload == "paper-suite":
        want = PINNED["paper-suite"]["smoke_bundle_sha256" if smoke else "bundle_sha256"]
        packets = (SMOKE_SUITE_PACKETS if smoke
                   else SPEC["workloads"]["paper-suite"]["packets_per_pass"])
        return [Operation("paper-suite", ["paper-suite"], packets, _suite_check(want))]
    gen = SPEC["workloads"][workload]["generator"]
    pins = PINNED[workload]
    counts = SMOKE_COUNTS if smoke else gen["counts"]
    pinned_ops = pins["smoke_ops" if smoke else "ops"] if seed == pins["seed"] else None
    ops = []
    for k, count in enumerate(counts):
        path = work_dir / f"{workload}-{k}.scenario"
        path.write_text(scenario_text(gen, count, seed, k))
        ops.append(Operation(
            f"{workload}[{k}] count={count}",
            ["simulate", "--scenario", str(path)],
            count,
            _sim_check(count, gen["interval_ms"],
                       pinned_ops[k] if pinned_ops is not None else None),
        ))
    return ops


def warmup_operation(work_dir: Path) -> Operation:
    """A small uncorrelated simulate run once per set-up round."""
    gen = dict(SPEC["workloads"]["sim-correlated"]["generator"],
               loss_correlation=0.0, delay_correlation=0.0)
    path = work_dir / "warmup.scenario"
    path.write_text(scenario_text(gen, 1000, 0, 0))
    return Operation("warmup", ["simulate", "--scenario", str(path)], 1000,
                     _sim_check(1000, gen["interval_ms"], None))


def shrink_suite(suite_module) -> None:
    """Smoke mode: run the paper-suite families at SMOKE_SUITE_SIZES."""
    for name, kwargs in SMOKE_SUITE_SIZES.items():
        setattr(suite_module, name,
                functools.partial(getattr(suite_module, name), **kwargs))
