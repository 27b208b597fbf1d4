"""CLI verbs, exit codes and report files."""

import json
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from railsim import cli, report, suite
from railsim.engine import (LOST_NS, NS_PER_MS, SCENARIO_KEYS, Counters, Scenario,
                            SimResult, TrafficSpec)
from railsim.pathsim import DELAY_FIELDS, PathSpec
from railsim.report import ReportBundle, fmt_ms

SCENARIO = """
[scenario]
label = cli demo
seed = 5

[traffic]
count = 60
interval = 20

[paths.0]
id = a
rate = 0.05
delay = normal
mean = 60
stddev = 10

[paths.1]
id = b
delay = constant
mean = 90
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "demo.scenario"
    path.write_text(SCENARIO)
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


def test_simulate_writes_bundle(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["simulate", "--scenario", scenario_file, "--out", out]) == 0
    assert (out / "records.csv").exists()
    assert (out / "manifest.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["count"] == 60
    assert set(summary["per_path"]) == {"a", "b"}
    header = (out / "records.csv").read_text().splitlines()[0]
    assert header == ("seq,send_ms,arrival_a_ms,arrival_b_ms,"
                      "rail_delay_ms,forward_ms,padding_ms")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5 and "scenario_sha256" in manifest


def test_simulate_rerun_is_byte_identical(scenario_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["simulate", "--scenario", scenario_file, "--out", out1]) == 0
    assert run(["simulate", "--scenario", scenario_file, "--out", out2]) == 0
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_simulate_seed_override_changes_records(scenario_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run(["simulate", "--scenario", scenario_file, "--out", out1])
    run(["simulate", "--scenario", scenario_file, "--seed", 6, "--out", out2])
    assert (out1 / "records.csv").read_text() != (out2 / "records.csv").read_text()


def test_missing_scenario_is_usage_error(tmp_path, capsys):
    assert run(["simulate", "--scenario", tmp_path / "nope.scenario"]) == 1
    assert "scenario not found" in capsys.readouterr().err


def test_invalid_scenario_lists_problems(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("[traffic]\ncount = 0\n[paths.0]\nid = a\nrate = 7\n")
    assert run(["simulate", "--scenario", bad]) == 1
    err = capsys.readouterr().err
    assert "count" in err and "rate" in err


def test_unknown_keys_and_default_section_are_errors(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("[DEFAULT]\nrate = 0.5\n[scenario]\nsed = 1\n[traffic]\ncnt = 5\n"
                   "[padding]\nenable = true\n[shared.core]\nrat = 0.1\n"
                   "[paths.0]\nid = a\nrate = 7\nstdev = 30\n"
                   "[paths.1]\ntrace = t.trace\n")
    assert run(["simulate", "--scenario", bad, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario: ") and "Traceback" not in err
    for fragment in ("[DEFAULT]: unknown section", "[scenario] sed: unknown key",
                     "[traffic] cnt: unknown key", "[padding] enable: unknown key",
                     "[shared.core] rat: unknown key", "[paths.0] stdev: unknown key",
                     "[paths.1] trace: requires delay = trace", "paths[0].loss.rate"):
        assert fragment in err, fragment
    assert not (tmp_path / "o").exists()


def test_percent_in_a_label_is_literal(tmp_path):
    scenario = tmp_path / "pct.scenario"
    scenario.write_text("[scenario]\nlabel = 50% loss\n[traffic]\ncount = 5\n"
                        "[paths.0]\nrate = 0.5\n")
    assert run(["simulate", "--scenario", scenario, "--out", tmp_path / "o"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["label"] == "50% loss"


def _trace_scenario(tmp_path, trace_name):
    path = tmp_path / "trace.scenario"
    path.write_text("[traffic]\ncount = 5\n"
                    f"[paths.0]\nid = t\ndelay = trace\ntrace = {trace_name}\n")
    return path


def test_scenario_that_is_a_directory_is_an_error(tmp_path, capsys):
    assert run(["simulate", "--scenario", tmp_path, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read scenario") and "Traceback" not in err


def test_scenario_trace_that_is_a_directory_is_an_error(tmp_path, capsys):
    (tmp_path / "traces").mkdir()
    scenario = _trace_scenario(tmp_path, "traces")
    assert run(["simulate", "--scenario", scenario, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read trace file") and "traces" in err


def test_non_utf8_trace_is_an_error(tmp_path, capsys):
    trace = tmp_path / "latin1.trace"
    trace.write_bytes("# sonde d\u00e9bit\n1,10\n".encode("latin-1"))
    assert run(["trace-analyze", "--trace", trace, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read trace")
    scenario = _trace_scenario(tmp_path, trace.name)
    assert run(["simulate", "--scenario", scenario, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read trace file")


def test_trace_seq_outside_int64_is_an_error(tmp_path, capsys):
    trace = tmp_path / "huge.trace"
    trace.write_text("1,10\n99999999999999999999999,5\n")
    want = ("error: seq 99999999999999999999999 outside the int64 range "
            "at line 2\n")
    assert run(["trace-analyze", "--trace", trace, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == want
    scenario = _trace_scenario(tmp_path, trace.name)
    assert run(["simulate", "--scenario", scenario, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("stddev", ["1.7e308", "6e307"])
def test_overflowing_delays_print_only_the_error_line(tmp_path, capfd, stddev):
    # the AR(1) scan runs in lockstep here (20000 rows at corr 0.9); inf and
    # NaN delays must reach the clock check without a numpy warning
    path = tmp_path / "huge.scenario"
    path.write_text("[traffic]\ncount = 20000\ninterval = 20\n\n[paths.0]\n"
                    "id = a\ndelay = normal\nmean = 10\n"
                    f"stddev = {stddev}\ndelay_correlation = 0.9\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["simulate", "--scenario", path, "--out", tmp_path / "out"]) == 1
    assert caught == []
    assert capfd.readouterr().err == (
        "error: path a: a sampled delay overflows the int64 ns clock\n")


def test_usage_error_exit_code_is_one(capsys):
    assert run(["simulate"]) == 1  # --scenario missing
    assert run(["mos", "--loss", "nope"]) == 1


def test_calls_in_one_process_behave_as_fresh_processes(tmp_path, monkeypatch,
                                                        capsys):
    # main keeps one parser per process: each call must still read
    # RAILSIM_OUT afresh, and an earlier usage error must leave no trace
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    grid = ["mos", "--grid", "--losses", "0,0.01", "--delays", "0,150"]
    for argv, name, want in [(grid, "first", 0), (["mos", "--loss", "nope"], "bad", 1),
                             (grid, "second", 0)]:
        out, fresh_out = tmp_path / "in-process" / name, tmp_path / "fresh" / name
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(out))
        code = run(argv)
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "railsim.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env=dict(env, **{cli.ENV_OUT_DIR: str(fresh_out)}))
        assert code == proc.returncode == want
        assert captured.out == proc.stdout.replace(str(fresh_out), str(out))
        assert captured.err == proc.stderr
        assert _files(out) == _files(fresh_out)
        assert bool(_files(out)) == (want == 0)


def _files(out):
    return {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}


def test_sweep_verb(scenario_file, tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", "--scenario", scenario_file,
                "--parameter", "paths.0.loss.rate",
                "--values", "0.0,0.1,0.2", "--out", out]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("paths.0.loss.rate,rail_loss,delivered_fraction")
    assert len(lines) == 4


def test_mos_point_prints_json(capsys):
    assert run(["mos", "--loss", 0.0, "--delay", 0.0]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r_factor"] == pytest.approx(93.2)
    assert out["mos"] == pytest.approx(4.4093, abs=1e-4)


def test_mos_grid_table(tmp_path):
    out = tmp_path / "grid"
    assert run(["mos", "--grid", "--losses", "0:0.02:0.01",
                "--delays", "0:100:50", "--out", out]) == 0
    lines = (out / "mos_grid.csv").read_text().splitlines()
    assert lines[0] == "loss,delay_ms,r_factor,mos"
    assert len(lines) == 1 + 3 * 3


def test_mos_curve_verb(scenario_file, tmp_path):
    out = tmp_path / "curve"
    assert run(["mos-curve", "--scenario", scenario_file,
                "--deadlines", "50:200:50", "--end-system-delay", 40,
                "--out", out]) == 0
    lines = (out / "mos_curve.csv").read_text().splitlines()
    assert lines[0] == ("deadline_ms,one_way_ms,effective_loss,mos_rail,"
                        "mos_a,mos_b")
    assert len(lines) == 5
    summary = json.loads((out / "summary.json").read_text())
    assert 50 <= summary["optimal_deadline_ms"] <= 200


def test_tcp_model_verb(capsys):
    assert run(["tcp-model", "--paths", "0.01,10;0.01,100"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["better_than_every_path"] is True
    assert out["virtual_path"]["throughput_pps"] == pytest.approx(11201.818, rel=1e-4)


def test_tcp_model_bad_input(capsys):
    assert run(["tcp-model", "--paths", "0.0,10;0.01,100"]) == 1


@pytest.mark.parametrize("argv", [
    ["tcp-model", "--paths", "abc"],
    ["tcp-model", "--paths", "0.1"],
    ["tcp-model", "--paths", "0.1,x;0.01,100"],
    ["tcp-model", "--paths", "0.01,nan;0.02,20"],
    ["tcp-model", "--paths", "0.01,inf;0.02,20"],
    ["mos", "--delay", "nan"],
    ["mos", "--grid", "--losses", "0:inf:0.01"],
    ["mos", "--grid", "--delays", "0,ten"],
    ["mos", "--grid", "--losses", "0:1e300:1e-300"],
    ["mos", "--delay", "inf"],
    # the loss product underflows to 0, the RTT underflows to 0 in seconds,
    # the throughput overflows to inf, and the expected RTT overflows to inf
    ["tcp-model", "--paths", "1e-200,10;1e-200,20"],
    ["tcp-model", "--paths", "0.5,5e-324"],
    ["tcp-model", "--paths", "0.5,1e-320"],
    ["tcp-model", "--paths", "0.5,1.7976931348623157e308;0.5,1.7976931348623157e308"],
])
def test_malformed_numbers_are_errors_not_tracebacks(argv, capsys):
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("extra", [
    ["--end-system-delay", "inf"],
    ["--end-system-delay", "40", "--deadlines", "50,inf"],
    ["--end-system-delay", "1e308", "--deadlines", "1e308"],
])
def test_mos_curve_infinite_delays_are_errors(scenario_file, tmp_path, extra, capsys):
    # each used to exit 0, with Infinity in manifest.json or summary.json
    # or inf in the one_way_ms cells
    out = tmp_path / "curve"
    assert run(["mos-curve", "--scenario", scenario_file, "--out", out] + extra) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_out_of_memory_is_an_error_not_a_traceback(tmp_path):
    """A run too large for memory passes validation, which has no packet
    cap, and fails at its first allocation.  The CLI runs in a child
    process whose address space is capped at 1 GiB, so that allocation
    fails at once whatever memory the host has."""
    scenario = tmp_path / "huge.scenario"
    scenario.write_text("[traffic]\ncount = 10000000000\n"
                        "[paths.0]\nmean = 10\n[paths.1]\nmean = 20\n")
    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "railsim.cli", "simulate", "--scenario", str(scenario)],
        capture_output=True, text=True, env=env, preexec_fn=cap_address_space,
        timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("parameter, values", [
    ("paths.0.loss.rate", "x"),
    ("paths.0.loss.rate", "0.1,nan"),
    ("traffic.count", "inf"),
    ("traffic.count", "10,20.5"),
    ("seed", "100,200"),
])
def test_sweep_bad_values_are_errors(scenario_file, parameter, values, capsys):
    assert run(["sweep", "--scenario", scenario_file,
                "--parameter", parameter, "--values", values]) == 1
    assert capsys.readouterr().err.startswith("error: ")


UNREAD = "[paths.0]\nmean = 10\nstddev = 30\ndelay_correlation = 0.5\npareto_alpha = 3\n"
UNREAD_PROBLEM = "paths[0].delay.stddev: kind 'constant' does not read it"
UNUSED = "[shared.unused]\nrate = 0.9\n[paths.0]\n"
UNUSED_PROBLEM = "shared_segments[0]: no path references segment 'unused'"
STDDEV_SWEEP = ["sweep", "--parameter", "paths.0.delay.stddev", "--values", "0,10,50"]


# each of these ran with exit 0 and wrote output the unread field did not
# change (identical sweep rows, a lossless run)
@pytest.mark.parametrize("text, argv, problem", [
    (UNREAD, ["simulate"], UNREAD_PROBLEM),
    (UNREAD, STDDEV_SWEEP, UNREAD_PROBLEM),
    ("[paths.0]\nmean = 10\n", STDDEV_SWEEP, UNREAD_PROBLEM),
    (UNUSED, ["simulate"], UNUSED_PROBLEM),
    (UNUSED, ["sweep", "--parameter", "shared_segments.0.loss.rate",
              "--values", "0,0.5,1"], UNUSED_PROBLEM),
], ids=["unread-simulate", "unread-sweep", "sweep-an-unread-field",
        "unused-segment-simulate", "unused-segment-sweep"])
def test_unread_fields_and_unused_segments_exit_one(text, argv, problem, tmp_path,
                                                   capsys):
    scenario = tmp_path / "s.scenario"
    scenario.write_text(text)
    out = tmp_path / "out"
    assert run([*argv[:1], "--scenario", scenario, *argv[1:], "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err and "Traceback" not in err
    assert not out.exists()


def test_range_point_cap_is_checked_before_expanding(monkeypatch, capsys):
    # 1e12 points would be terabytes as a list: the count is refused first
    assert run(["mos", "--grid", "--losses", "0:1e12:1", "--delays", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    monkeypatch.setattr(cli, "MAX_RANGE_POINTS", 10)
    assert run(["mos", "--grid", "--losses", "0:1:0.1", "--delays", "0"]) == 1
    assert "more than 10 points" in capsys.readouterr().err
    assert run(["mos", "--grid", "--losses", "0:0.9:0.1", "--delays", "0"]) == 0


@pytest.mark.parametrize("losses", ["1:0:1", "10:1:5"])
def test_reversed_range_is_an_error(losses, tmp_path, capsys):
    out = tmp_path / "grid"
    assert run(["mos", "--grid", "--losses", losses, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# int64 ns over the engine's clock range, weighted towards small values,
# towards powers of ten ms, where cells gain a digit, towards 2^33 ms,
# where cells stop being spelled from digits, and towards 2^53 ns, where
# float64 stops holding every integer
DIGITS_LIMIT = 2 ** 33 * NS_PER_MS
NS = st.one_of(st.integers(0, 2 ** 60 - 1),
               st.integers(0, 10 ** 7),
               st.builds(lambda k, d: 10 ** k * NS_PER_MS + d,
                         st.integers(0, 9), st.integers(0, 2 * NS_PER_MS)),
               st.integers(DIGITS_LIMIT - 2 ** 12, DIGITS_LIMIT + 2 ** 12),
               st.integers(2 ** 53 - 2 ** 12, 2 ** 53 + 2 ** 12),
               st.integers(2 ** 53, 2 ** 55))


def _per_cell_rows(sim):
    """The ledger row by row: Python int division, except send and
    padding, which numpy divides."""
    send_ms = (sim.send_ns / NS_PER_MS).tolist()
    pad_ms = (sim.padding_ns / NS_PER_MS).tolist()
    rows = []
    for s in range(len(sim.send_ns)):
        arrivals = sim.arrival_ns[:, s].tolist()
        rail, fwd = sim.rail_delay_ns[s].item(), sim.forward_ns[s].item()
        rows.append(
            [s, fmt_ms(send_ms[s])]
            + ["LOST" if t == LOST_NS else fmt_ms(t / NS_PER_MS) for t in arrivals]
            + ["LOST" if rail < 0 else fmt_ms(rail / NS_PER_MS),
               "NEVER" if fwd < 0 else fmt_ms(fwd / NS_PER_MS),
               fmt_ms(pad_ms[s])])
    return rows


@given(st.lists(st.tuples(NS, st.one_of(NS, st.just(LOST_NS)),
                          st.one_of(NS, st.just(LOST_NS)),
                          st.one_of(NS, st.just(-1)), st.one_of(NS, st.just(-1)),
                          NS),
                min_size=1, max_size=30),
       st.integers(1, 8))
def test_records_columns_match_the_per_cell_rule(rows, block_rows):
    send, arr_a, arr_b, rail, fwd, pad = (np.array(c, dtype=np.int64)
                                          for c in zip(*rows))
    sim = SimResult(
        scenario=Scenario(paths=[PathSpec("a"), PathSpec("b")],
                          traffic=TrafficSpec(count=len(rows))),
        forwarded_order=np.empty(0, dtype=np.int64), counters=Counters(), warnings=[],
        send_ns=send, arrival_ns=np.stack([arr_a, arr_b]), rail_delay_ns=rail,
        forward_ns=fwd, padding_ns=pad)
    bundle = ReportBundle(manifest={})
    bundle.add_columns("records", *cli._records_table(sim))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(report, "BLOCK_ROWS", block_rows):
        bundle.write(Path(tmp) / "csv")
        bundle.write(Path(tmp) / "json", fmt="json")
        csv_lines = (Path(tmp) / "csv" / "records.csv").read_bytes().split(b"\n")
        json_rows = json.loads((Path(tmp) / "json" / "records.json").read_bytes())
    header = ["seq", "send_ms", "arrival_a_ms", "arrival_b_ms",
              "rail_delay_ms", "forward_ms", "padding_ms"]
    want = _per_cell_rows(sim)
    assert csv_lines == ([",".join(header).encode()]
                         + [",".join(map(str, r)).encode() for r in want] + [b""])
    assert json_rows == [dict(zip(header, r)) for r in want]


def test_trace_analyze(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("1,10\n2,0\n3,30\n4,0\n5,50\n")
    out = tmp_path / "ta"
    assert run(["trace-analyze", "--trace", trace, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["entries"] == 5
    assert summary["loss"] == pytest.approx(0.4)
    assert run(["trace-analyze", "--trace", tmp_path / "missing.trace"]) == 1


def test_json_format_writes_json_tables(scenario_file, tmp_path):
    out = tmp_path / "json-out"
    assert run(["simulate", "--scenario", scenario_file, "--out", out,
                "--format", "json"]) == 0
    rows = json.loads((out / "records.json").read_text())
    assert len(rows) == 60 and rows[0]["seq"] == 0


def test_out_naming_a_file_is_an_error(scenario_file, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run(["simulate", "--scenario", scenario_file, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err
    assert out.read_text() == "not a directory\n"


def test_out_dir_env_default(scenario_file, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(target))
    assert run(["simulate", "--scenario", scenario_file]) == 0
    assert (target / "records.csv").exists()


def test_paper_suite_exit_two_on_failure(monkeypatch, capsys, tmp_path):
    def fake_suite():
        bundle = ReportBundle(manifest={"tool": "railsim"})
        return bundle, [suite.Gate("always-fails", False, "synthetic")]

    monkeypatch.setattr(suite, "run_paper_suite", fake_suite)
    assert run(["paper-suite", "--out", tmp_path / "suite"]) == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "always-fails" in captured.err


def test_paper_suite_exit_zero_and_writes_bundle(monkeypatch, capsys, tmp_path):
    def fake_suite():
        bundle = ReportBundle(manifest={"tool": "railsim"})
        bundle.add_table("demo", ["x"], [[1]])
        bundle.summaries = {"all_passed": True}
        return bundle, [suite.Gate("always-passes", True, "synthetic")]

    monkeypatch.setattr(suite, "run_paper_suite", fake_suite)
    out = tmp_path / "suite"
    assert run(["paper-suite", "--out", out]) == 0
    captured = capsys.readouterr()
    assert "[PASS] always-passes" in captured.out
    assert (out / "demo.csv").exists()


# values any key may take: NaN, infinities, a float at the edge of
# overflow, empty and non-numeric text, and text with a literal %
FUZZ_VALUES = ["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "", "x", "-1", "0.5",
               "50%", "%(seed)s"]
# per key, values that keep a scenario valid (at most 200 packets; the
# largest window is past the int64 range) and, in FUZZ_BAD, ones that
# make it invalid beyond FUZZ_VALUES
FUZZ_KEYS = {
    "scenario": {"label": ["fuzz", "50% loss"], "seed": ["0", "7"],
                 "reorder_removal": ["false", "true"],
                 "dedup_window": ["1", "4", "4096", "99999999999999999999"]},
    "traffic": {"count": ["1", "37", "200"], "interval": ["0.5", "20"],
                "packet_size": ["200"]},
    "padding": {"enabled": ["false", "true"], "target_one_way": ["60", "0.5"]},
    "shared.core": {"rate": ["0", "0.3"], "correlation": ["0", "0.5"]},
    "paths": {"rate": ["0", "0.2"], "correlation": ["0", "0.5"],
              "delay": ["constant", "normal", "paretonormal", "trace"],
              "mean": ["0", "10", "60"], "stddev": ["0", "5", "30"],
              "delay_correlation": ["0", "0.6"], "trace": ["t.trace"],
              "shared": ["core"], "force_loss": ["0", "3,3"],
              "pareto_alpha": ["2"], "pareto_weight": ["0.25"]},
}
FUZZ_BAD = {"id": ["p0"], "delay": ["bogus"], "trace": ["missing.trace", "tracedir"],
            "shared": ["nowhere"], "force_loss": ["5,300", "1e308"]}
# a key no section has, drawn like the others
FUZZ_MISSPELLED = "stdev"
FUZZ_TRACES = ["1,10\n2,0\n3,30\n", "1,nan\n", "1,inf\n", "1,1e308\n", "", "x\n",
               "2,1\n1,1\n"]


def _fuzz_keys(name):
    return FUZZ_KEYS["paths" if name.startswith("paths.") else name]


def test_fuzz_keys_are_the_scenario_keys():
    fuzzed = {"scenario": set(FUZZ_KEYS["scenario"]), "traffic": set(FUZZ_KEYS["traffic"]),
              "padding": set(FUZZ_KEYS["padding"]),
              "shared.ID": set(FUZZ_KEYS["shared.core"]),
              "paths.N": set(FUZZ_KEYS["paths"]) | {"id"}}
    assert fuzzed == {kind: set(keys) for kind, keys in SCENARIO_KEYS.items()}


@st.composite
def fuzz_scenarios(draw):
    """Scenario text and trace text.  Every section keeps a random subset
    of its keys at valid values: a path keeps only the delay keys its kind
    reads, and [shared.core] is left out unless a path references it.
    Then up to three keys take a value from FUZZ_VALUES or from the key's
    FUZZ_BAD list: a duplicate path id, an unknown delay kind, a missing or
    directory trace path, an unknown segment or a forced seq outside the
    run.  The key may be FUZZ_MISSPELLED, which no section has, a delay
    key the path's kind does not read, or a key of an unreferenced
    [shared.core]."""
    names = ["scenario", "traffic", "padding", "shared.core"]
    names += [f"paths.{i}" for i in range(draw(st.integers(0, 3)))]
    sections = {}
    for name in names:
        sections[name] = {key: draw(st.sampled_from(values))
                          for key, values in _fuzz_keys(name).items()
                          if draw(st.booleans())}
        if name.startswith("paths."):
            body = sections[name]
            body["id"] = "p" + name[len("paths."):]
            reads = DELAY_FIELDS[body.get("delay", "constant")]
            for key in list(body):
                target, attr, _ = SCENARIO_KEYS["paths.N"][key]
                if target == "delay" and attr not in ("kind", *reads):
                    del body[key]
    if not any(sections[name].get("shared") == "core" for name in names):
        del sections["shared.core"]
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(names))
        keys = sorted(_fuzz_keys(name)) + [FUZZ_MISSPELLED]
        keys += ["id"] if name.startswith("paths.") else []
        key = draw(st.sampled_from(keys))
        sections.setdefault(name, {})[key] = draw(
            st.sampled_from(FUZZ_VALUES + FUZZ_BAD.get(key, [])))
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                   for name, body in sections.items())
    return text, draw(st.sampled_from(FUZZ_TRACES[:1] * 3 + FUZZ_TRACES[1:]))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=fuzz_scenarios(),
       parameter=st.sampled_from(["paths.0.loss.rate", "paths.0.delay.mean",
                                  "traffic.interval", "traffic.count", "dedup_window",
                                  "paths.9.loss.rate", "label"]),
       # as traffic.count, 1e308 overflows the clock at every interval
       values=st.sampled_from(["0.1,0.2", "1,nan", "inf", "1e308", "0:1:0.5", "x"]),
       end_system_delay=st.sampled_from(["40", "0", "nan", "inf", "1e308", "x"]))
def test_scenario_fuzz_exits_zero_or_one(case, parameter, values, end_system_delay):
    text, trace_text = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenario = tmp / "fuzz.scenario"
        scenario.write_text(text)
        (tmp / "t.trace").write_text(trace_text)
        (tmp / "tracedir").mkdir()
        for argv in (
            ["simulate", "--out", tmp / "sim"],
            ["sweep", "--parameter", parameter, "--values", values, "--out", tmp / "sw"],
            ["mos-curve", "--end-system-delay", end_system_delay,
             "--out", tmp / "curve"],
        ):
            assert run(argv[:1] + ["--scenario", scenario] + argv[1:]) in (0, 1)
