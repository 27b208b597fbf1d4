"""CLI verbs, exit codes and report files."""

import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from railsim import cli, report, suite
from railsim.engine import (LOST_NS, NS_PER_MS, Counters, Scenario, SimResult,
                            TrafficSpec)
from railsim.pathsim import PathSpec
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
])
def test_malformed_numbers_are_errors_not_tracebacks(argv, capsys):
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("parameter, values", [
    ("paths.0.loss.rate", "x"),
    ("paths.0.loss.rate", "0.1,nan"),
    ("traffic.count", "inf"),
    ("traffic.count", "10,20.5"),
])
def test_sweep_bad_values_are_errors(scenario_file, parameter, values, capsys):
    assert run(["sweep", "--scenario", scenario_file,
                "--parameter", parameter, "--values", values]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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
