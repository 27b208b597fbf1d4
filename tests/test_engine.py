"""Simulation engine: event ordering, dedup accounting, padding, sweeps,
scenario files."""

import math

import numpy as np
import pytest

from railsim import engine
from railsim.engine import (Scenario, TrafficSpec, load_scenario,
                            parse_scenario, run_sweep, set_parameter, simulate)
from railsim.errors import ConfigurationError, ValidationError
from railsim.metrics import reorder_stats
from railsim.pathsim import (DelayModel, LossModel, PathSpec, SharedSegmentSpec,
                             load_trace)
from railsim.railedge import PaddingConfig


def two_const_paths(d1=30.0, d2=50.0, count=10, **kw):
    return Scenario(
        paths=[PathSpec("a", delay=DelayModel("constant", mean=d1)),
               PathSpec("b", delay=DelayModel("constant", mean=d2))],
        traffic=TrafficSpec(interval=20.0, count=count),
        **kw,
    )


# ---------------------------------------------------------------------------
# basic behaviour


def test_lossless_constant_paths_take_the_fast_path():
    sim = simulate(two_const_paths())
    assert np.all(sim.rail_delays_ms() == 30.0)
    assert sim.forwarded_order.tolist() == list(range(10))
    assert reorder_stats(sim.forwarded_order).out_of_order_count == 0
    assert sim.counters.suppressed == 10  # every slow copy suppressed
    send, ms = sim.send_ns, engine.ms_to_ns
    assert np.all(sim.rail_delay_ns == ms(30.0))
    assert np.array_equal(sim.arrival_ns, [send + ms(30.0), send + ms(50.0)])
    assert np.array_equal(sim.forward_ns, send + ms(30.0))
    assert np.all(sim.padding_ns == 0)


def test_single_path_certain_loss():
    sim = simulate(Scenario(
        paths=[PathSpec("only", loss=LossModel(rate=1.0),
                        delay=DelayModel("constant", mean=10.0))],
        traffic=TrafficSpec(count=20),
    ))
    assert sim.forwarded_order.tolist() == []
    assert np.all(sim.rail_delay_ns == -1) and np.all(sim.forward_ns == -1)
    assert sim.counters.lost_copies == 20
    assert np.all(sim.rail_lost_mask())


def test_rail_loss_is_product_of_path_losses():
    sim = simulate(Scenario(
        paths=[PathSpec("a", loss=LossModel(0.1), delay=DelayModel("constant", mean=50)),
               PathSpec("b", loss=LossModel(0.1), delay=DelayModel("constant", mean=50))],
        traffic=TrafficSpec(count=100_000),
        seed=7,
    ))
    measured = np.count_nonzero(sim.rail_lost_mask()) / 100_000
    sigma = math.sqrt(0.01 * 0.99 / 100_000)
    assert abs(measured - 0.01) <= 3 * sigma


def test_copy_accounting_balances():
    sim = simulate(Scenario(
        paths=[PathSpec("a", loss=LossModel(0.3, 0.4),
                        delay=DelayModel("normal", mean=40.0, stddev=15.0)),
               PathSpec("b", loss=LossModel(0.2),
                        delay=DelayModel("paretonormal", mean=90.0, stddev=25.0))],
        traffic=TrafficSpec(count=5000),
        seed=11,
    ))
    c = sim.counters
    assert c.forwarded + c.suppressed + c.lost_copies == 2 * 5000
    assert len(sim.forwarded_order) == c.forwarded
    ledger = (sim.send_ns, *sim.arrival_ns, sim.rail_delay_ns, sim.forward_ns,
              sim.padding_ns)
    assert all(col.dtype == np.int64 and col.shape == (5000,) for col in ledger)


def test_rail_delay_is_min_over_delivered_copies():
    sim = simulate(Scenario(
        paths=[PathSpec("a", loss=LossModel(0.2),
                        delay=DelayModel("normal", mean=60.0, stddev=10.0)),
               PathSpec("b", loss=LossModel(0.2),
                        delay=DelayModel("normal", mean=60.0, stddev=10.0))],
        traffic=TrafficSpec(count=2000),
        seed=13,
    ))
    for i in range(2000):
        delivered = [t - sim.send_ns[i] for t in sim.arrival_ns[:, i]
                     if t != engine.LOST_NS]
        if delivered:
            assert sim.rail_delay_ns[i] == min(delivered)
            assert sim.forward_ns[i] >= sim.send_ns[i] + sim.rail_delay_ns[i]
        else:
            assert sim.rail_delay_ns[i] == -1 and sim.forward_ns[i] == -1


def test_determinism_byte_identical(tmp_path):
    scenario = Scenario(
        paths=[PathSpec("a", loss=LossModel(0.05, 0.2),
                        delay=DelayModel("paretonormal", mean=70.0, stddev=20.0,
                                         correlation=0.3)),
               PathSpec("b", loss=LossModel(0.02),
                        delay=DelayModel("normal", mean=90.0, stddev=30.0))],
        traffic=TrafficSpec(count=3000),
        seed=99,
    )
    a = simulate(scenario)
    b = simulate(scenario)
    for col in ("send_ns", "arrival_ns", "rail_delay_ns", "forward_ns", "padding_ns",
                "forwarded_order"):
        assert getattr(a, col).tobytes() == getattr(b, col).tobytes()
    from railsim.cli import simulation_bundle
    simulation_bundle(a).write(tmp_path / "a")
    simulation_bundle(b).write(tmp_path / "b")
    assert ((tmp_path / "a" / "records.csv").read_bytes()
            == (tmp_path / "b" / "records.csv").read_bytes())


# ---------------------------------------------------------------------------
# padding


def test_padding_release_is_max_of_delay_and_target():
    base = Scenario(
        paths=[PathSpec("a", delay=DelayModel("normal", mean=100.0, stddev=20.0)),
               PathSpec("b", delay=DelayModel("normal", mean=50.0, stddev=20.0))],
        traffic=TrafficSpec(count=4000),
        padding=PaddingConfig(enabled=True, target_one_way=150.0),
        seed=21,
    )
    sim = simulate(base)
    fwd = (sim.forward_ns - sim.send_ns) / engine.NS_PER_MS
    rail = sim.rail_delay_ns / engine.NS_PER_MS
    padding = sim.padding_ns / engine.NS_PER_MS
    for i in range(4000):
        assert fwd[i] == max(rail[i], 150.0)
        assert padding[i] == pytest.approx(
            max(0.0, 150.0 - rail[i]), abs=1e-9)
    # packets under the target come out with literally zero jitter
    padded = fwd[rail <= 150.0]
    assert padded.size > 0 and float(np.std(padded)) == 0.0


def test_padding_total_does_not_wrap_int64():
    # 16 paddings just under the clock limit sum past 2**63
    limit = engine.CLOCK_LIMIT_NS
    pads = np.full(16, limit - 1, dtype=np.int64)
    assert engine._exact_sum(pads, limit) == 16 * (limit - 1)
    assert engine._exact_sum(np.arange(1000, dtype=np.int64), 999) == 499500
    assert engine._exact_sum(np.empty(0, dtype=np.int64), limit) == 0
    # and through simulate: every packet is held for almost the whole target
    sim = simulate(two_const_paths(0.0, 0.0, count=16, padding=PaddingConfig(
        enabled=True, target_one_way=(limit - 1) / engine.NS_PER_MS - 1.0)))
    assert sim.counters.padded == 16
    assert sim.counters.padding_ns == int(sim.padding_ns.astype(object).sum()) > 2**63


def test_padding_never_drops_and_reduces_spread():
    plain = simulate(Scenario(
        paths=[PathSpec("a", delay=DelayModel("normal", mean=100.0, stddev=20.0)),
               PathSpec("b", delay=DelayModel("normal", mean=50.0, stddev=20.0))],
        traffic=TrafficSpec(count=4000), seed=22,
    ))
    padded = simulate(Scenario(
        paths=plain.scenario.paths,
        traffic=plain.scenario.traffic,
        padding=PaddingConfig(enabled=True, target_one_way=160.0),
        seed=22,
    ))
    assert np.array_equal(plain.rail_lost_mask(), padded.rail_lost_mask())
    assert len(padded.forwarded_delays_ms()) == len(plain.forwarded_delays_ms())
    assert np.std(padded.forwarded_delays_ms()) < np.std(plain.forwarded_delays_ms())


# ---------------------------------------------------------------------------
# reordering


def test_forced_fast_path_loss_creates_one_reorder():
    base = Scenario(
        paths=[PathSpec("fast", delay=DelayModel("constant", mean=10.0)),
               PathSpec("slow", delay=DelayModel("constant", mean=50.0))],
        traffic=TrafficSpec(interval=20.0, count=10),
        forced_losses={"fast": (5,)},
    )
    sim = simulate(base)
    stats = reorder_stats(sim.forwarded_order)
    assert stats.out_of_order_count == 1
    assert stats.gaps == {1: 1}
    assert sim.forwarded_order.tolist() == [0, 1, 2, 3, 4, 6, 5, 7, 8, 9]


def test_reorder_removal_restores_order_without_dropping():
    sim = simulate(Scenario(
        paths=[PathSpec("fast", delay=DelayModel("constant", mean=10.0)),
               PathSpec("slow", delay=DelayModel("constant", mean=50.0))],
        traffic=TrafficSpec(interval=20.0, count=10),
        forced_losses={"fast": (5,)},
        padding=PaddingConfig(enabled=False, target_one_way=60.0),
        reorder_removal=True,
    ))
    assert sim.forwarded_order.tolist() == list(range(10))
    assert sim.forward_ns[5] >= 0
    assert np.count_nonzero(sim.forward_ns >= 0) == 10


def test_padding_and_reorder_removal_compose():
    sim = simulate(Scenario(
        paths=[PathSpec("fast", loss=LossModel(0.1),
                        delay=DelayModel("constant", mean=10.0)),
               PathSpec("slow", delay=DelayModel("constant", mean=50.0))],
        traffic=TrafficSpec(interval=20.0, count=400),
        padding=PaddingConfig(enabled=True, target_one_way=60.0),
        reorder_removal=True,
        seed=61,
    ))
    # padding equalises to 60 ms and the hold keeps sequence order; with
    # the slow path lossless nothing is ever dropped
    assert sim.forwarded_order.tolist() == list(range(400))
    assert np.count_nonzero(sim.forward_ns >= 0) == 400
    fwd = (sim.forward_ns - sim.send_ns) / engine.NS_PER_MS
    assert np.all(fwd >= 60.0 - 1e-9)


def test_in_order_paths_yield_sorted_forwarding():
    # replication on its own must not reorder; checked on runs whose paths
    # happened to stay in send order (low jitter makes that the norm)
    considered = 0
    for seed in range(10):
        sim = simulate(Scenario(
            paths=[PathSpec("a", delay=DelayModel("normal", mean=50.0, stddev=3.0)),
                   PathSpec("b", delay=DelayModel("normal", mean=70.0, stddev=3.0))],
            traffic=TrafficSpec(count=500), seed=1000 + seed,
        ))
        if sim.path_in_send_order(0) and sim.path_in_send_order(1):
            considered += 1
            assert np.all(np.diff(sim.forwarded_order) >= 0)
    assert considered >= 8


# ---------------------------------------------------------------------------
# dedup window


def test_window_miss_duplicates_are_forwarded_and_counted():
    sim = simulate(Scenario(
        paths=[PathSpec("fast", delay=DelayModel("constant", mean=0.0)),
               PathSpec("slow", delay=DelayModel("constant", mean=1000.0))],
        traffic=TrafficSpec(interval=20.0, count=10),
        dedup_window=1,
    ))
    c = sim.counters
    assert c.window_miss_duplicates == 10  # every slow copy re-forwarded
    assert c.suppressed == 0
    assert c.forwarded == 20
    assert c.forwarded + c.suppressed + c.lost_copies == 20


@pytest.mark.parametrize("scenario", [
    Scenario(
        paths=[PathSpec("a", loss=LossModel(0.1),
                        delay=DelayModel("paretonormal", mean=60.0, stddev=30.0)),
               PathSpec("b", loss=LossModel(0.1),
                        delay=DelayModel("normal", mean=90.0, stddev=40.0))],
        traffic=TrafficSpec(interval=5.0, count=3000),
        seed=55,
    ),
    # constant delays whose difference is a multiple of dt: arrivals of
    # different seqs tie at the same nanosecond, stressing the tie margin
    Scenario(
        paths=[PathSpec("a", loss=LossModel(0.2),
                        delay=DelayModel("constant", mean=10.0)),
               PathSpec("b", delay=DelayModel("constant", mean=50.0))],
        traffic=TrafficSpec(interval=20.0, count=200),
        dedup_window=8,
        seed=56,
    ),
], ids=["jitter", "constant-ties"])
def test_dedup_fast_path_matches_state_machine(monkeypatch, scenario):
    fast = simulate(scenario)
    monkeypatch.setattr(engine, "_FORCE_DEDUP_LOOP", True)
    slow = simulate(scenario)
    assert np.array_equal(fast.forwarded_order, slow.forwarded_order)
    assert fast.counters == slow.counters
    assert np.array_equal(fast.rail_delay_ns, slow.rail_delay_ns)
    assert np.array_equal(fast.forward_ns, slow.forward_ns)


# ---------------------------------------------------------------------------
# validation


def test_validation_collects_every_violation():
    scenario = Scenario(
        paths=[PathSpec("a", loss=LossModel(rate=2.0)),
               PathSpec("a", delay=DelayModel("normal", mean=-5.0))],
        traffic=TrafficSpec(interval=0.0, count=0),
    )
    with pytest.raises(ValidationError) as err:
        simulate(scenario)
    text = "\n".join(err.value.problems)
    assert "rate" in text
    assert "mean" in text
    assert "interval" in text
    assert "count" in text
    assert "unique" in text
    assert len(err.value.problems) >= 5


def test_validation_rejects_unknown_shared_and_bad_forced_seq():
    scenario = Scenario(
        paths=[PathSpec("a", shared="nope")],
        traffic=TrafficSpec(count=10),
        forced_losses={"ghost": (3,), "a": (99,)},
    )
    with pytest.raises(ValidationError) as err:
        simulate(scenario)
    text = "\n".join(err.value.problems)
    assert "nope" in text and "ghost" in text and "99" in text


def test_reorder_removal_requires_hold_timeout():
    scenario = two_const_paths(reorder_removal=True)
    with pytest.raises(ValidationError, match="target_one_way"):
        simulate(scenario)


# each of these used to run and report every packet lost, raise a bare
# OverflowError, or send every packet at time 0
@pytest.mark.parametrize("field, value, match", [
    ("paths.0.delay.mean", math.nan, r"paths\[0\]\.delay\.mean"),
    ("paths.0.delay.mean", math.inf, r"paths\[0\]\.delay\.mean"),
    ("paths.0.delay.mean", 1e13, "overflows"),
    ("paths.1.delay.stddev", math.nan, r"paths\[1\]\.delay\.stddev"),
    ("paths.1.delay.stddev", math.inf, r"paths\[1\]\.delay\.stddev"),
    ("paths.0.delay.correlation", math.nan, r"paths\[0\]\.delay\.correlation"),
    ("paths.0.delay.pareto_alpha", math.inf, "pareto_alpha"),
    ("paths.0.loss.rate", math.nan, r"paths\[0\]\.loss\.rate"),
    ("paths.0.loss.rate", math.inf, r"paths\[0\]\.loss\.rate"),
    ("paths.1.loss.correlation", math.nan, r"paths\[1\]\.loss\.correlation"),
    ("traffic.interval", math.nan, "traffic.interval"),
    ("traffic.interval", math.inf, "traffic.interval"),
    ("traffic.interval", 1e-7, "rounds to 0 ns"),
    ("traffic.interval", 1e10, "overflow"),
    ("padding.target_one_way", math.nan, "target_one_way"),
    ("padding.target_one_way", math.inf, "target_one_way"),
    ("padding.target_one_way", 1e-7, "rounds to 0 ns"),
])
def test_validation_rejects_non_finite_and_overflowing_values(field, value, match):
    # the hold is on with a valid timeout, so target_one_way is checked as
    # the hold timeout too
    scenario = two_const_paths(count=1000, reorder_removal=True,
                               padding=PaddingConfig(target_one_way=100.0))
    set_parameter(scenario, field, value)
    with pytest.raises(ValidationError, match=match):
        simulate(scenario)


def test_validation_rejects_shared_segment_nan_loss():
    scenario = two_const_paths(
        shared_segments=[SharedSegmentSpec("core", LossModel(math.nan))])
    with pytest.raises(ValidationError, match=r"shared_segments\[0\]\.loss\.rate"):
        simulate(scenario)


def test_sampled_delay_beyond_the_clock_is_an_error():
    # the mean fits, but a heavy tail scaled this far cannot
    scenario = Scenario(
        paths=[PathSpec("a", delay=DelayModel("paretonormal", mean=1.0,
                                              stddev=1e300))],
        traffic=TrafficSpec(count=100),
    )
    with pytest.raises(ConfigurationError, match="clock"):
        simulate(scenario)


def test_set_parameter_rejects_non_integer_for_integer_field():
    for value in (math.nan, math.inf, 20.5):
        with pytest.raises(ConfigurationError, match="is not an integer"):
            set_parameter(two_const_paths(), "traffic.count", value)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_monotone_delivery():
    base = Scenario(
        paths=[PathSpec("a", loss=LossModel(0.01),
                        delay=DelayModel("constant", mean=50.0))],
        traffic=TrafficSpec(count=100_000),
        seed=501,
    )
    rates = [round(0.01 * k, 2) for k in range(1, 21)]
    results = run_sweep(base, "paths.0.loss.rate", rates)
    delivered = [
        1.0 - np.count_nonzero(sim.rail_lost_mask()) / 100_000 for _, sim in results
    ]
    assert len(results) == 20
    assert all(b <= a for a, b in zip(delivered, delivered[1:]))


def test_sweep_empty_and_singleton():
    base = two_const_paths(count=50, seed=77)
    assert run_sweep(base, "paths.0.delay.mean", []) == []
    [(value, swept)] = run_sweep(base, "paths.0.delay.mean", [30.0])
    direct = simulate(base)
    assert value == 30.0
    assert np.array_equal(swept.forwarded_order, direct.forwarded_order)
    assert np.array_equal(swept.rail_delay_ns, direct.rail_delay_ns)


def test_sweep_unknown_parameter():
    base = two_const_paths()
    with pytest.raises(ConfigurationError, match="unknown parameter"):
        run_sweep(base, "paths.0.loss.buckets", [1])
    with pytest.raises(ConfigurationError, match="numeric"):
        run_sweep(base, "paths.0.id", [1])
    with pytest.raises(ConfigurationError, match="numeric"):
        run_sweep(base, "reorder_removal", [1])


def test_set_parameter_reaches_nested_fields():
    scenario = two_const_paths()
    set_parameter(scenario, "paths.1.delay.mean", 75.0)
    assert scenario.paths[1].delay.mean == 75.0
    set_parameter(scenario, "traffic.count", 123)
    assert scenario.traffic.count == 123
    set_parameter(scenario, "padding.target_one_way", 99.5)
    assert scenario.padding.target_one_way == 99.5


# ---------------------------------------------------------------------------
# scenario files


SCENARIO_TEXT = """
[scenario]
label = file demo
seed = 42
reorder_removal = false

[traffic]
packet_size = 200
interval = 20.0
count = 40

[padding]
enabled = true
target_one_way = 120

[shared.core]
rate = 0.01

[paths.0]
id = isp-a
rate = 0.02
delay = normal
mean = 60
stddev = 10
shared = core

[paths.1]
id = isp-b
delay = paretonormal
mean = 90
stddev = 20
force_loss = 3,5
"""


def test_parse_scenario_round_trip():
    scenario = parse_scenario(SCENARIO_TEXT)
    assert scenario.label == "file demo"
    assert scenario.seed == 42
    assert [p.id for p in scenario.paths] == ["isp-a", "isp-b"]
    assert scenario.paths[0].shared == "core"
    assert scenario.paths[0].loss.rate == 0.02
    assert scenario.paths[1].delay.kind == "paretonormal"
    assert scenario.forced_losses == {"isp-b": (3, 5)}
    assert scenario.padding.enabled and scenario.padding.target_one_way == 120.0
    sim = simulate(scenario)
    assert len(sim.send_ns) == 40


def test_parse_scenario_reports_all_problems():
    bad = "[paths.0]\nid = a\nrate = 3.0\nmean = -1\n[traffic]\ncount = 0\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario(bad)
    text = "\n".join(err.value.problems)
    assert "rate" in text and "mean" in text and "count" in text


def test_parse_scenario_collects_malformed_values():
    bad = ("[scenario]\nseed = xyz\n"
           "[traffic]\ncount = many\n"
           "[paths.abc]\nid = ghost\n"
           "[paths.0]\nid = a\nrate = lots\nforce_loss = 1,two\n")
    with pytest.raises(ValidationError) as err:
        parse_scenario(bad)
    text = "\n".join(err.value.problems)
    for fragment in ("seed", "count", "unknown section", "rate", "force_loss"):
        assert fragment in text, fragment


def test_parse_scenario_trace_path(tmp_path):
    (tmp_path / "probe.trace").write_text("1,10\n2,0\n3,30\n")
    text = ("[traffic]\ncount = 7\n"
            "[paths.0]\nid = t\ndelay = trace\ntrace = probe.trace\n")
    scenario = parse_scenario(text, base_dir=tmp_path)
    sim = simulate(scenario)
    assert any("wrapped" in w for w in sim.warnings)
    # positions 1, 4 replay the trace's lost entry
    assert sim.path_lost(0).tolist() == [
        False, True, False, False, True, False, False
    ]


@pytest.mark.parametrize("extra, warned", [(0, False), (1, True)])
def test_trace_wrap_warning_starts_one_past_the_trace(extra, warned):
    trace = load_trace("1,10\n2,0\n3,30")
    sim = simulate(Scenario(
        paths=[PathSpec("t", delay=DelayModel("trace", trace=trace)),
               PathSpec("c", delay=DelayModel("constant", mean=5.0))],
        traffic=TrafficSpec(count=len(trace) + extra),
    ))
    expected = ["path t: trace shorter than the run (3 entries), "
                "replay wrapped around"]
    assert sim.warnings == (expected if warned else [])


def test_load_scenario_missing_file():
    with pytest.raises(ConfigurationError, match="scenario not found"):
        load_scenario("/nonexistent/path.scenario")


def test_scenario_hash_is_stable_and_sensitive():
    a = engine.scenario_sha256(two_const_paths())
    b = engine.scenario_sha256(two_const_paths())
    c = engine.scenario_sha256(two_const_paths(d1=31.0))
    assert a == b != c


def test_scenario_hash_sees_every_trace_entry():
    # numpy prints arrays of more than 1,000 elements with "...", so a
    # hash of a printed array would miss a change this far in
    lines = [f"{k},{10 + k % 7}" for k in range(1, 2001)]
    other = lines[:1500] + ["1501,99"] + lines[1501:]

    def digest(text):
        trace = load_trace("\n".join(text))
        return engine.scenario_sha256(Scenario(
            paths=[PathSpec("t", delay=DelayModel("trace", trace=trace))]))

    assert digest(lines) == digest(lines) != digest(other)
