"""Tests of the benchmark itself (not collected by the repository's tier-1
run, whose test path is ``tests/``).  Run with:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
import workloads

HERE = Path(__file__).resolve().parent


def test_benchmark_json_and_spec_name_the_same_workloads_and_metrics():
    bench = json.loads(run.BENCHMARK.read_text())
    spec = workloads.SPEC
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    assert [w["why"] for w in bench["workloads"]] == [
        w["why"] for w in spec["workloads"].values()]
    # fail_frac is 0 on a correct program; the result line carries it as
    # attempted and failed instead
    assert [m["name"] for m in bench["end_to_end"]] == [
        m for m in spec["end_to_end"] if m != "fail_frac"]
    assert [m["name"] for m in bench["per_layer"]] == list(spec["per_layer"])


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)


def test_sampler_scales_cpu_time_by_the_speed_sampled_during_the_call():
    def busy():
        total = 0
        for i in range(3_000_000):
            total += i
        return total

    sampler = hostspeed.Sampler(interval_s=0.01)
    result, cpu, seconds = sampler.time(busy)
    assert result == sum(range(3_000_000))
    # one sample before, one after, and timer samples in between
    assert len(sampler.speeds) > 4
    assert cpu > 0
    assert seconds == pytest.approx(cpu * statistics.fmean(sampler.speeds))
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_smoke_emits_every_metric_and_catches_an_altered_output():
    assert run.smoke() == 0


def test_refuses_to_run_without_the_railsim_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-hold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
