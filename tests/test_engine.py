"""Simulation engine: event ordering, dedup accounting, padding, sweeps,
scenario files."""

import copy
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim import engine, railedge
from railsim.engine import (PaddingConfig, Scenario, TrafficSpec, load_scenario,
                            parse_scenario, run_sweep, set_parameter, simulate,
                            validate_delay_model)
from railsim.errors import ConfigurationError, RailSimError, ValidationError
from railsim.metrics import reorder_stats
from railsim.pathsim import (DelayModel, LossModel, PathSpec, SharedSegmentSpec,
                             Trace, load_trace)
from railsim.quality import rail_loss_independent, rail_loss_shared
from railsim.railedge import window_miss_duplicates


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


@pytest.mark.parametrize("p_shared", [None, 0.05])
def test_rail_loss_matches_the_closed_forms(p_shared):
    """Rail loss over two lossy constant-delay paths, with and without a
    shared segment, against quality.rail_loss_independent and
    rail_loss_shared.  The lost count is binomial (200,000 packets); the
    bound of 4.5 standard deviations fails a correct engine with
    probability about 7e-6 per seed (two-sided normal tail), and the seed
    is fixed."""
    n, own = 200_000, [0.1, 0.3]
    scenario = Scenario(
        paths=[PathSpec(pid, loss=LossModel(rate), delay=DelayModel("constant", mean=mean),
                        shared=None if p_shared is None else "core")
               for pid, rate, mean in (("a", own[0], 50.0), ("b", own[1], 80.0))],
        shared_segments=([] if p_shared is None
                         else [SharedSegmentSpec("core", LossModel(p_shared))]),
        traffic=TrafficSpec(interval=1.0, count=n),
        seed=21,
    )
    sim = simulate(scenario)
    p = (rail_loss_independent(own) if p_shared is None
         else rail_loss_shared(p_shared, own))
    lost = np.count_nonzero(sim.rail_lost_mask())
    assert abs(lost - n * p) <= 4.5 * math.sqrt(n * p * (1 - p))
    for i, mean in enumerate((50.0, 80.0)):
        delivered = ~sim.path_lost(i)
        assert np.all(sim.arrival_ns[i][delivered]
                      == sim.send_ns[delivered] + engine.ms_to_ns(mean))


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


def test_seeds_are_taken_modulo_2_64():
    # path and shared-segment streams both key on the seed mod 2**64: seed
    # -1 runs as 2**64 - 1 and seed 2**64 as 0, not as an error
    def run(seed):
        return simulate(Scenario(
            paths=[PathSpec("a", loss=LossModel(0.2, 0.5), shared="core",
                            delay=DelayModel("normal", mean=40.0, stddev=15.0)),
                   PathSpec("b", loss=LossModel(0.1),
                            delay=DelayModel("paretonormal", mean=60.0,
                                             stddev=20.0))],
            shared_segments=[SharedSegmentSpec("core", LossModel(0.1))],
            traffic=TrafficSpec(count=2000), seed=seed))

    for seed, same in ((-1, 2 ** 64 - 1), (2 ** 64, 0)):
        a, b = run(seed), run(same)
        for col in ("send_ns", "arrival_ns", "rail_delay_ns", "forward_ns",
                    "padding_ns", "forwarded_order"):
            assert np.array_equal(getattr(a, col), getattr(b, col))
        assert a.counters == b.counters
    assert not np.array_equal(run(-1).arrival_ns, run(0).arrival_ns)


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
    assert railedge._exact_sum(pads, limit) == 16 * (limit - 1)
    assert railedge._exact_sum(np.arange(1000, dtype=np.int64), 999) == 499500
    assert railedge._exact_sum(np.empty(0, dtype=np.int64), limit) == 0
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


@pytest.mark.parametrize("scenario,loops", [
    (Scenario(
        paths=[PathSpec("a", loss=LossModel(0.1),
                        delay=DelayModel("paretonormal", mean=60.0, stddev=30.0)),
               PathSpec("b", loss=LossModel(0.1),
                        delay=DelayModel("normal", mean=90.0, stddev=40.0))],
        traffic=TrafficSpec(interval=5.0, count=3000),
        seed=55,
    ), False),
    # constant delays whose difference is a multiple of dt: arrivals of
    # different seqs tie at the same nanosecond, at the ends of the
    # interval the no-eviction bound counts
    (Scenario(
        paths=[PathSpec("a", loss=LossModel(0.2),
                        delay=DelayModel("constant", mean=10.0)),
               PathSpec("b", delay=DelayModel("constant", mean=50.0))],
        traffic=TrafficSpec(interval=20.0, count=200),
        dedup_window=8,
        seed=56,
    ), False),
    # 49 first arrivals fall between the two copies of each seq, fewer
    # than the window holds
    (two_const_paths(10.0, 1000.0, count=3000, dedup_window=64), False),
    # 49 first arrivals between the copies overflow a 16-seq window
    (two_const_paths(0.0, 1000.0, count=500, dedup_window=16), True),
    # the bound's edge: copies 200 ms - 1 ns apart at 20 ms spacing, so
    # span // dt_ns is 9 and nine first arrivals fall between them; a
    # 10-seq window takes the fast path, a 9-seq window loops and evicts
    (two_const_paths(0.0, 199.999999, count=100, dedup_window=10), False),
    (two_const_paths(0.0, 199.999999, count=100, dedup_window=9), True),
], ids=["jitter", "constant-ties", "far-constant", "window-fills",
        "edge-fast", "edge-loops"])
def test_dedup_fast_path_matches_state_machine(monkeypatch, scenario, loops):
    calls = _spy_loop(monkeypatch)
    sim = simulate(scenario)
    assert bool(calls) == loops
    miss_s, _ = _misses_in_arrival_order(sim.arrival_ns, scenario.dedup_window)
    assert (len(miss_s) > 0) == loops
    c = sim.counters
    firsts = np.count_nonzero(~sim.rail_lost_mask())
    delivered = np.count_nonzero(sim.arrival_ns < engine.LOST_NS)
    assert c.window_miss_duplicates == len(miss_s)
    assert c.forwarded == firsts + len(miss_s)
    assert c.suppressed == delivered - firsts - len(miss_s)


@pytest.mark.parametrize("lost", ["own", "forced", "shared"])
def test_a_constant_path_losing_every_copy_adds_nothing_to_the_bound(
        monkeypatch, lost):
    """A 900 ms path that delivers nothing leaves the largest copy delay at
    the other paths' 30 ms: the no-eviction bound (rail delays 10-30 ms,
    span 40 ms, two seqs) holds for a 4-seq window and the sequential
    pass does not run.  Had the lost path's mean counted, the span would
    cover 45 seqs."""
    gone = {"own": PathSpec("gone", loss=LossModel(1.0),
                            delay=DelayModel("constant", mean=900.0)),
            "forced": PathSpec("gone", delay=DelayModel("constant", mean=900.0)),
            "shared": PathSpec("gone", shared="core",
                               delay=DelayModel("constant", mean=900.0))}[lost]
    scenario = Scenario(
        paths=[gone, PathSpec("b", loss=LossModel(0.2),
                              delay=DelayModel("constant", mean=10.0)),
               PathSpec("c", loss=LossModel(0.2),
                        delay=DelayModel("constant", mean=30.0))],
        shared_segments=([SharedSegmentSpec("core", LossModel(1.0))]
                         if lost == "shared" else []),
        traffic=TrafficSpec(interval=20.0, count=300),
        dedup_window=4, seed=12,
        forced_losses={"gone": tuple(range(300))} if lost == "forced" else {})
    calls = _spy_loop(monkeypatch)
    sim = simulate(scenario)
    assert not calls
    assert sim.path_lost(0).all()
    assert sim.counters.window_miss_duplicates == 0
    assert sim.counters.suppressed > 0


def _misses_in_arrival_order(arrival, window):
    """Seqs and times of the window-miss duplicates among the delivered
    copies, visited in (time, seq, path) order."""
    p_idx, s_idx = np.nonzero(arrival < engine.LOST_NS)
    order = np.lexsort((p_idx, s_idx, arrival[p_idx, s_idx]))
    p_idx, s_idx = p_idx[order], s_idx[order]
    misses = window_miss_duplicates(s_idx, arrival.shape[1], window)
    return s_idx[misses], arrival[p_idx, s_idx][misses]


def _spy_loop(monkeypatch):
    """Record each call of the sequential dedup pass."""
    calls = []

    def spy(*args):
        calls.append(args)
        return window_miss_duplicates(*args)

    monkeypatch.setattr(railedge, "window_miss_duplicates", spy)
    return calls


@st.composite
def arrival_matrices(draw):
    """Send times, 2- or 3-path copy arrivals (LOST_NS where lost) and a
    window, often within a few seqs of the least the no-eviction bound
    accepts.  Each path adds a jitter to its own base delay; integer
    delays a few spacings wide make many arrivals tie, and with no jitter
    and no loss the bound is exact."""
    n = draw(st.integers(60, 200) | st.integers(2, 60))
    dt = draw(st.sampled_from([1, 3, 10, 50]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = dt * draw(st.sampled_from([0, 1, 4, 20])) + draw(st.integers(0, 2 * dt))
    jitter = draw(st.sampled_from([0, 0, 0, 1, dt, top]))
    shape = (draw(st.sampled_from([2, 3])), n)
    send = np.arange(n, dtype=np.int64) * dt
    lost = rng.random(shape) < draw(st.sampled_from([0.0, 0.0, 0.2, 0.6]))
    delay = (rng.integers(0, top + 1, size=(shape[0], 1))
             + rng.integers(0, jitter + 1, size=shape))
    delay[lost] = 0
    arrival = np.where(lost, engine.LOST_NS, send + delay)
    first = arrival.min(axis=0)
    rail = np.where(first < engine.LOST_NS, first - send, -1)
    span = int(delay.max()) + int(rail.max()) - 2 * int(rail[rail >= 0].min(initial=0))
    least = span // dt + 1
    window = draw(st.integers(max(1, least - 2), least + 2) | st.integers(1, least + 2))
    return send, arrival, dt, window


@settings(max_examples=400, deadline=None)
@given(case=arrival_matrices())
def test_no_eviction_bound_is_sound(case):
    """Whenever the receiver skips the sequential window pass, that pass
    over the copies in arrival order finds no window miss; either way the
    receiver forwards each seq's first copy and the misses, in (time,
    seq) order, each seq first at its first arrival."""
    send, arrival, dt, window = case
    delivered = arrival < engine.LOST_NS
    first = arrival.min(axis=0)
    ever = first < engine.LOST_NS
    copy_max = int(np.where(delivered, arrival - send, 0).max())
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_loop(mp)
        _, _, forward, forwarded, counts = railedge.receive(
            arrival, send, dt, copy_max, int(np.count_nonzero(~delivered)),
            None, window, None)
    miss_s, miss_t = _misses_in_arrival_order(arrival, window)
    if not calls:
        assert len(miss_s) == 0
    assert counts["window_miss_duplicates"] == len(miss_s)
    want_s = np.concatenate([np.flatnonzero(ever), miss_s])
    want_t = np.concatenate([first[ever], miss_t])
    assert forwarded.tolist() == want_s[np.lexsort((want_s, want_t))].tolist()
    assert forward.tolist() == np.where(ever, first, -1).tolist()


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


_VALID = object()


def _with_value(field, value=_VALID):
    """A valid scenario, with ``value`` in the float field ``field`` when
    given, else that field's valid value as a numpy float."""
    fields = {"paths[0].delay": {"mean": 5.0, "stddev": 1.0, "correlation": 0.5,
                                 "pareto_alpha": 3.0, "pareto_weight": 0.5},
              "paths[0].loss": {"rate": 0.1, "correlation": 0.2},
              "shared_segments[0].loss": {"rate": 0.1, "correlation": 0.2},
              "traffic": {"interval": 20.0}, "padding": {"target_one_way": 20.0}}
    where, _, name = field.rpartition(".")
    given = fields[where]
    given[name] = np.float64(given[name]) if value is _VALID else value
    return Scenario(
        paths=[PathSpec("a", loss=LossModel(**fields["paths[0].loss"]),
                        delay=DelayModel("paretonormal", **fields["paths[0].delay"]),
                        shared="core")],
        shared_segments=[SharedSegmentSpec(
            "core", LossModel(**fields["shared_segments[0].loss"]))],
        traffic=TrafficSpec(count=10, **fields["traffic"]),
        padding=PaddingConfig(**fields["padding"]), reorder_removal=True)


@pytest.mark.parametrize("field", [
    "traffic.interval", "padding.target_one_way", "paths[0].loss.rate",
    "paths[0].loss.correlation", "shared_segments[0].loss.rate",
    "shared_segments[0].loss.correlation", "paths[0].delay.mean",
    "paths[0].delay.stddev", "paths[0].delay.correlation",
    "paths[0].delay.pareto_alpha", "paths[0].delay.pareto_weight"])
@pytest.mark.parametrize("value", ["3", None, True, [1.0]],
                         ids=["str", "none", "bool", "list"])
def test_a_float_field_holding_no_number_is_a_problem(field, value):
    """Given through the API, a value other than an int, a float or a numpy
    real is a problem naming its field, not a TypeError from a range
    check; a bool is not a number."""
    simulate(_with_value(field))
    with pytest.raises(ValidationError) as err:
        simulate(_with_value(field, value))
    assert err.value.problems == [f"{field}: must be a number, got {value!r}"]


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


# a constant path with three fields it never reads: it ran every packet at
# exactly 10 ms
UNREAD_TEXT = "[paths.0]\nmean = 10\nstddev = 30\ndelay_correlation = 0.5\npareto_alpha = 3\n"
UNREAD_PROBLEMS = [
    f"paths[0].delay.{name}: kind 'constant' does not read it, so it must keep "
    f"its default {default}"
    for name, default in (("stddev", 0.0), ("correlation", 0.0), ("pareto_alpha", 2.0))]


def test_a_delay_field_its_kind_does_not_read_is_a_problem():
    with pytest.raises(ValidationError) as err:
        parse_scenario(UNREAD_TEXT)
    assert err.value.problems == UNREAD_PROBLEMS
    delay = DelayModel(mean=10.0, stddev=30.0, correlation=0.5, pareto_alpha=3.0)
    with pytest.raises(ValidationError) as err:
        simulate(Scenario(paths=[PathSpec("0", delay=delay)]))
    assert err.value.problems == UNREAD_PROBLEMS
    # a sweep over the field runs its default and stops at the first other value
    base = Scenario(paths=[PathSpec("0", delay=DelayModel(mean=10.0))],
                    traffic=TrafficSpec(count=5))
    with pytest.raises(ValidationError) as err:
        run_sweep(base, "paths.0.delay.stddev", [0, 10, 50])
    assert err.value.problems == UNREAD_PROBLEMS[:1]
    # a field given its default changes nothing and passes
    parse_scenario("[paths.0]\nmean = 10\nstddev = 0\npareto_alpha = 2\n")


# the fields each kind reads, stated apart from pathsim's table
KIND_READS = {"constant": {"mean"},
              "normal": {"mean", "stddev", "correlation"},
              "paretonormal": {"mean", "stddev", "correlation", "pareto_alpha",
                               "pareto_weight"},
              "trace": {"trace"}}


@pytest.mark.parametrize("kind", sorted(KIND_READS))
def test_each_delay_kind_accepts_only_the_fields_it_reads(kind):
    trace = Trace([1], [5.0])
    given = [("mean", 5.0), ("mean", math.nan), ("stddev", 1.0), ("correlation", 0.5),
             ("trace", trace), ("pareto_alpha", 3.0), ("pareto_weight", 0.5)]
    for name, value in given:
        fields = {name: value} | ({"trace": trace} if kind == "trace" else {})
        problems = [p for p in validate_delay_model(DelayModel(kind, **fields))
                    if "does not read" in p]
        assert (problems == []) == (name in KIND_READS[kind]), (name, problems)


def test_a_segment_no_path_references_is_a_problem():
    # it was never sampled: a 90 % loss rate gave a lossless run
    problem = "shared_segments[0]: no path references segment 'unused'"
    with pytest.raises(ValidationError) as err:
        parse_scenario("[shared.unused]\nrate = 0.9\n[paths.0]\n")
    assert err.value.problems == [problem]
    base = Scenario(paths=[PathSpec("0")],
                    shared_segments=[SharedSegmentSpec("unused", LossModel(0.9))],
                    traffic=TrafficSpec(count=5))
    with pytest.raises(ValidationError) as err:
        simulate(base)
    assert err.value.problems == [problem]
    with pytest.raises(ValidationError) as err:
        run_sweep(base, "shared_segments.0.loss.rate", [0, 0.5, 1])
    assert err.value.problems == [problem]


# before, a float or bool seq forced another seq, a float window ran as its
# floor (and raised a bare TypeError with the hold on), and a float count
# raised a bare TypeError
@pytest.mark.parametrize("field, value, problem", [
    ("traffic.count", 10.0, "traffic.count: must be an integer, got 10.0"),
    ("traffic.count", True, "traffic.count: must be an integer, got True"),
    ("traffic.packet_size", 200.0, "traffic.packet_size: must be an integer, got 200.0"),
    ("dedup_window", 64.5, "dedup_window: must be an integer, got 64.5"),
    ("seed", 1.0, "seed: must be an integer, got 1.0"),
    ("seed", False, "seed: must be an integer, got False"),
    ("forced_losses", 2.5, "forced_losses[a]: seq must be an integer, got 2.5"),
    ("forced_losses", True, "forced_losses[a]: seq must be an integer, got True"),
    ("traffic.count", "10", "traffic.count: must be an integer, got '10'"),
    # numpy integers are integers
    ("traffic.count", np.int32(10), None),
    ("traffic.packet_size", np.int64(200), None),
    ("dedup_window", np.uint8(64), None),
    ("seed", np.uint64(2**64 - 1), None),
    ("forced_losses", np.int64(2), None),
])
def test_integer_fields_given_through_the_api_must_be_ints(field, value, problem):
    scenario = two_const_paths(count=10, dedup_window=64, reorder_removal=True,
                               padding=PaddingConfig(True, target_one_way=100.0))
    if field == "forced_losses":
        scenario.forced_losses = {"a": (value,)}
    else:
        obj = scenario.traffic if field.startswith("traffic.") else scenario
        setattr(obj, field.rsplit(".", 1)[-1], value)
    if problem is None:
        simulate(scenario)
    else:
        with pytest.raises(ValidationError) as err:
            simulate(scenario)
        assert err.value.problems == [problem]


def test_reorder_removal_requires_hold_timeout():
    scenario = two_const_paths(reorder_removal=True)
    with pytest.raises(ValidationError, match="target_one_way"):
        simulate(scenario)


# before, "false" padded every packet and "no" turned the hold on: a
# non-empty string is true
@pytest.mark.parametrize("field", ["padding.enabled", "reorder_removal"])
@pytest.mark.parametrize("value", ["no", "false", 1])
def test_a_bool_field_holding_no_bool_is_a_problem(field, value):
    scenario = two_const_paths(padding=PaddingConfig(target_one_way=100.0))
    obj = scenario.padding if field.startswith("padding.") else scenario
    setattr(obj, field.rsplit(".", 1)[-1], value)
    with pytest.raises(ValidationError) as err:
        simulate(scenario)
    assert err.value.problems == [f"{field}: must be a bool, got {value!r}"]


def test_numpy_bools_are_bools():
    sim = simulate(two_const_paths(reorder_removal=np.True_, padding=PaddingConfig(
        enabled=np.True_, target_one_way=100.0)))
    assert sim.counters.padded == 10
    sim = simulate(two_const_paths(padding=PaddingConfig(np.False_, 100.0)))
    assert sim.counters.padded == 0


# each of these crashed simulate with a TypeError or an AttributeError
@pytest.mark.parametrize("kw, problems", [
    ({"forced_losses": {"a": 5}}, ["forced_losses[a]: must be a sequence of seqs, got 5"]),
    ({"forced_losses": {"a": np.array([1, 2])}},
     ["forced_losses[a]: must be a sequence of seqs, got array([1, 2])"]),
    ({"forced_losses": None}, ["forced_losses: must be a dict, got None"]),
    ({"paths": [PathSpec("a", loss=None)]}, ["paths[0].loss: must be a LossModel, got None"]),
    ({"paths": [PathSpec("a", delay=None)]},
     ["paths[0].delay: must be a DelayModel, got None"]),
    ({"paths": None}, ["paths: must be a list of PathSpec, got None"]),
    ({"paths": [PathSpec("a"), "b"]}, ["paths[1]: must be a PathSpec, got 'b'"]),
    # type problems come alone: the unused segment is not reported
    ({"shared_segments": [SharedSegmentSpec("core", loss=0.1)]},
     ["shared_segments[0].loss: must be a LossModel, got 0.1"]),
    ({"traffic": None}, ["traffic: must be a TrafficSpec, got None"]),
    ({"padding": 100.0}, ["padding: must be a PaddingConfig, got 100.0"]),
])
def test_a_wrong_spec_object_is_a_problem(kw, problems):
    scenario = two_const_paths()
    for name, value in kw.items():
        setattr(scenario, name, value)
    with pytest.raises(ValidationError) as err:
        simulate(scenario)
    assert err.value.problems == problems


def test_an_object_with_a_misfit_field_skips_its_range_checks():
    # count 0 and interval -1 are out of range, but the count is no integer
    scenario = two_const_paths()
    scenario.traffic = TrafficSpec(interval=-1.0, count=0.0)
    with pytest.raises(ValidationError) as err:
        simulate(scenario)
    assert err.value.problems == ["traffic.count: must be an integer, got 0.0"]


# each of these raised a TypeError or AttributeError inside the run, gave
# a misleading problem (the shared segment 7 was "unknown"), or (the
# label) ran and wrote a number where the bundle holds a string
@pytest.mark.parametrize("scenario, problem", [
    (Scenario(paths=[PathSpec(["a"])]), "paths[0].id: must be a str, got ['a']"),
    # the path left out of the id checks is no unknown path to forced_losses
    (Scenario(paths=[PathSpec("a", shared=7)], forced_losses={"a": (1,)}),
     "paths[0].shared: must be a str or None, got 7"),
    (Scenario(paths=[PathSpec("a")], shared_segments=[SharedSegmentSpec(["s"])]),
     "shared_segments[0].id: must be a str, got ['s']"),
    (Scenario(paths=[PathSpec("a", delay=DelayModel(["constant"]))]),
     "paths[0].delay.kind: must be a str, got ['constant']"),
    (Scenario(paths=[PathSpec("a")], label=7), "label: must be a str, got 7"),
    (Scenario(paths=[PathSpec("a", delay=DelayModel("trace", trace=[5.0, 6.0]))]),
     "paths[0].delay.trace: must be a Trace or None, got [5.0, 6.0]"),
    # the array raised a ValueError from the unread-field check
    (Scenario(paths=[PathSpec("a", delay=DelayModel(trace=np.array([1.0, 2.0])))]),
     "paths[0].delay.trace: must be a Trace or None, got array([1., 2.])"),
    # a problem before too: the trace check left to the delay model
    (Scenario(paths=[PathSpec("a", delay=DelayModel("trace"))]),
     "paths[0].delay.trace: kind 'trace' requires a Trace, got None"),
    # an AttributeError
    (None, "scenario: must be a Scenario, got None"),
], ids=["path-id", "path-shared", "segment-id", "delay-kind", "label", "delay-trace",
        "unread-trace-array", "trace-kind-without-trace", "no-scenario"])
def test_a_misfit_str_or_trace_field_is_a_validation_error(scenario, problem):
    with pytest.raises(ValidationError) as err:
        simulate(scenario)
    assert err.value.problems == [problem]


SCENARIO_TYPES = (Scenario, TrafficSpec, PaddingConfig, PathSpec, SharedSegmentSpec,
                  LossModel, DelayModel)

# the types validation and sweeps check; losing postponed annotations
# would turn every type into a class and empty this set
DECLARED = {
    ("TrafficSpec", "packet_size", "int"), ("TrafficSpec", "interval", "float"),
    ("TrafficSpec", "count", "int"),
    ("PaddingConfig", "enabled", "bool"), ("PaddingConfig", "target_one_way", "float"),
    ("Scenario", "reorder_removal", "bool"), ("Scenario", "seed", "int"),
    ("Scenario", "dedup_window", "int"),
    ("LossModel", "rate", "float"), ("LossModel", "correlation", "float"),
    ("DelayModel", "mean", "float"), ("DelayModel", "stddev", "float"),
    ("DelayModel", "correlation", "float"), ("DelayModel", "pareto_alpha", "float"),
    ("DelayModel", "pareto_weight", "float"), ("DelayModel", "kind", "str"),
    ("Scenario", "label", "str"), ("PathSpec", "id", "str"),
    ("PathSpec", "shared", "str | None"), ("SharedSegmentSpec", "id", "str"),
    ("DelayModel", "trace", "Trace | None"),
}


def test_the_declared_types_of_the_scenario_fields():
    got = {(cls.__name__, name, kind) for cls in SCENARIO_TYPES
           for name, kind in engine.declared_types(cls).items()}
    assert got == DECLARED


def test_the_type_walk_handles_every_field_annotation():
    # a field with any other annotation would be walked as forced_losses,
    # so a new field cannot slip past validation unchecked
    handled = {*engine._ACCEPTS, *engine._SPECS, *engine._LISTS}
    for cls in SCENARIO_TYPES:
        for name, kind in engine._field_types(cls):
            assert kind in handled or (cls, name, kind) == (
                Scenario, "forced_losses", "dict[str, tuple[int, ...]]"), (cls.__name__, name)


def _ledger(sim):
    return (sim.send_ns, sim.arrival_ns, sim.rail_delay_ns, sim.forward_ns,
            sim.padding_ns, sim.forwarded_order)


def _same_run(sim, twin):
    return (sim.counters == twin.counters
            and all(np.array_equal(a, b) for a, b in zip(_ledger(sim), _ledger(twin))))


# before, the int64 count passed validation and its clock product wrapped
# (send_ns went negative), the int8 values and the largest counts raised
# an OverflowError or a numpy overflow, and the uint64 window a TypeError
@pytest.mark.parametrize("assign, problem", [
    ([("traffic.interval", 1e7), ("traffic.count", np.int64(1_000_000))],
     "traffic: 1000000 packets at 10000000.0 ms overflow the int64 ns clock"),
    ([("traffic.count", np.int8(10))], None),
    ([("traffic.interval", np.int8(20))], None),
    ([("padding.target_one_way", np.int8(100))], None),
    ([("traffic.count", np.int64(2**63 - 1))],
     "traffic: 9223372036854775807 packets at 20.0 ms overflow the int64 ns clock"),
    ([("traffic.count", np.uint64(2**64 - 1))],
     "traffic: 18446744073709551615 packets at 20.0 ms overflow the int64 ns clock"),
    ([("dedup_window", np.uint64(4))], None),
], ids=["int64-count-wrap", "int8-count", "int8-interval", "int8-target", "int64-count",
        "uint64-count", "uint64-window"])
def test_a_numpy_scalar_runs_as_its_python_value(assign, problem):
    def scenario(plain):
        s = two_const_paths(count=10, reorder_removal=True,
                            padding=PaddingConfig(True, target_one_way=100.0))
        for field, value in assign:
            where, _, name = field.rpartition(".")
            if plain and isinstance(value, np.generic):
                value = value.item()
            setattr(getattr(s, where) if where else s, name, value)
        return s

    if problem is not None:
        for plain in (True, False):
            with pytest.raises(ValidationError) as err:
                simulate(scenario(plain))
            assert err.value.problems == [problem]
        return
    sim = simulate(scenario(plain=False))
    assert _same_run(sim, simulate(scenario(plain=True)))
    # the run's scenario holds the Python value, replaced in place
    for field, value in assign:
        where, _, name = field.rpartition(".")
        held = getattr(getattr(sim.scenario, where) if where else sim.scenario, name)
        assert type(held) is type(value.item())


# before, a seed that is no int raised a TypeError from base.seed + i, and
# an array label a ValueError from base.label or 'sweep'
@pytest.mark.parametrize("field, value, problem", [
    ("seed", None, "seed: must be an integer, got None"),
    ("seed", "1", "seed: must be an integer, got '1'"),
    ("seed", LossModel(), "seed: must be an integer, got LossModel(rate=0.0, correlation=0.0)"),
    ("label", np.array(["x"]), "label: must be a str, got array(['x'], dtype='<U1')"),
], ids=["seed-none", "seed-str", "seed-spec", "label-array"])
def test_a_sweep_checks_the_base_types_first(field, value, problem):
    base = two_const_paths()
    setattr(base, field, value)
    with pytest.raises(ValidationError) as err:
        run_sweep(base, "traffic.interval", [10.0, 20.0])
    assert err.value.problems == [problem]


def _zoo_base():
    """A valid two-path scenario with a shared segment, forced losses,
    padding and the hold: each delay kind but constant, and a trace."""
    return Scenario(
        paths=[PathSpec("a", LossModel(0.1, 0.2),
                        DelayModel("paretonormal", mean=30.0, stddev=5.0, correlation=0.3,
                                   pareto_alpha=3.0, pareto_weight=0.5), shared="core"),
               PathSpec("b", LossModel(0.05), DelayModel(
                   "trace", trace=Trace([0, 1, 2], [40.0, math.nan, 45.0])))],
        shared_segments=[SharedSegmentSpec("core", LossModel(0.02))],
        traffic=TrafficSpec(packet_size=200, interval=20.0, count=50),
        padding=PaddingConfig(True, target_one_way=60.0), reorder_removal=True,
        seed=3, label="zoo", dedup_window=16, forced_losses={"a": [2, 7], "b": [4]})


def _slots(obj, at=()):
    """The key path of every value in ``obj``: dataclass fields, list
    items, forced-loss entries and their seqs, at any depth."""
    if dataclasses.is_dataclass(obj):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield at + (key,)
        yield from _slots(value, at + (key,))


def _zoo_scenario(slot, value):
    scenario = _zoo_base()
    *parents, key = slot
    obj = scenario
    for part in parents:
        obj = getattr(obj, part) if dataclasses.is_dataclass(obj) else obj[part]
    if dataclasses.is_dataclass(obj):
        setattr(obj, key, copy.deepcopy(value))
    else:
        obj[key] = copy.deepcopy(value)
    return scenario


ZOO_SLOTS = list(_slots(_zoo_base()))
ZOO = [None, "x", b"x", [1], (1,), {"a": 1}, np.array(3), np.array([1, 2]),
       np.int8(3), np.uint64(3), np.uint64(2**64 - 1), np.int64(3), np.int64(2**63 - 1),
       np.float32(0.5), np.float64(0.5), np.bool_(True), True, math.nan, 2**80, -1, 1.5,
       object(), Trace([0], [5.0]), LossModel()]


def _result(call, scenario):
    """What ``call`` returns, or None when it raises a RailSimError; any
    other exception fails the test."""
    try:
        return call(scenario)
    except RailSimError:
        return None


@settings(max_examples=500, deadline=None)
@given(slot=st.sampled_from(ZOO_SLOTS), value=st.sampled_from(ZOO))
def test_any_value_at_any_depth_runs_or_is_a_railsim_error(slot, value):
    # numpy warnings are errors (pyproject), so a numpy overflow fails too
    _result(engine.scenario_sha256, _zoo_scenario(slot, value))
    _result(lambda s: run_sweep(s, "traffic.interval", [20.0, 10.0]),
            _zoo_scenario(slot, value))
    sim = _result(simulate, _zoo_scenario(slot, value))
    if isinstance(value, np.generic):  # it runs exactly when its twin runs, as its twin
        twin = _result(simulate, _zoo_scenario(slot, value.item()))
        assert (sim is None) == (twin is None)
        assert sim is None or _same_run(sim, twin)


def test_each_scenario_key_casts_to_its_fields_declared_type():
    targets = {"scenario": Scenario, "traffic": TrafficSpec, "padding": PaddingConfig,
               "path": PathSpec, "loss": LossModel, "delay": DelayModel}
    casts = {"int": int, "float": float, "bool": engine._parse_bool, "str": str,
             "str | None": str}
    for kind, keys in engine.SCENARIO_KEYS.items():
        for key, (target, attr, cast) in keys.items():
            if (target, attr) == ("path", "force_loss"):
                assert cast is engine._seq_list  # into Scenario.forced_losses
            elif (target, attr) == ("delay", "trace"):
                assert cast is str  # a file name, loaded into a Trace
            else:
                declared = {f.name: f.type for f in dataclasses.fields(targets[target])}
                assert cast is casts[declared[attr]], (kind, key)


# before, the type came from the current value: an int-valued float field
# rejected 20.5, and a numpy scalar field was "not numeric"
@pytest.mark.parametrize("base, parameter, value", [
    (Scenario(paths=[PathSpec("a")], traffic=TrafficSpec(interval=20, count=5)),
     "traffic.interval", 20.5),
    (Scenario(paths=[PathSpec("a", delay=DelayModel(mean=50))], traffic=TrafficSpec(count=5)),
     "paths.0.delay.mean", 50.5),
    (Scenario(paths=[PathSpec("a")], traffic=TrafficSpec(count=np.int64(10))),
     "traffic.count", 7),
    (Scenario(paths=[PathSpec("a", delay=DelayModel(mean=np.float32(5)))],
              traffic=TrafficSpec(count=5)), "paths.0.delay.mean", 6.5),
], ids=["int-valued-interval", "int-valued-mean", "numpy-count", "numpy-mean"])
def test_a_sweep_casts_to_the_fields_declared_type(base, parameter, value):
    [(_, sim)] = run_sweep(base, parameter, [value])
    scenario = sim.scenario
    got = (scenario.traffic if parameter.startswith("traffic.")
           else scenario.paths[0].delay)
    got = getattr(got, parameter.rsplit(".", 1)[-1])
    assert got == value and type(got) is type(value)


def test_a_sweep_rejects_a_non_integral_numpy_float_for_an_int_field():
    # int() ran np.float32(20.5) as 20
    with pytest.raises(ConfigurationError, match="is not an integer"):
        set_parameter(two_const_paths(), "traffic.count", np.float32(20.5))


def test_a_sweep_walks_only_fields_and_list_indices():
    for parameter in ("paths.append", "traffic.__class__.count", "paths.0"):
        with pytest.raises(ConfigurationError, match="unknown parameter path"):
            set_parameter(two_const_paths(), parameter, 1)


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


def test_lost_rows_neither_raise_nor_touch_the_trace():
    # the ledger is built in the sampled delay column; lost rows carry NaN
    # (the trace's own losses) or a delay far past the clock (entry 2,
    # replayed at seqs 2 and 7, both forced lost), and a replayed trace
    # must come out of the run unchanged
    trace = Trace([0, 1, 2, 3, 4], [10.0, math.nan, 1e300, 25.0, math.nan])
    seq, delay = trace.seq.tobytes(), trace.delay_ms.tobytes()
    sim = simulate(Scenario(
        paths=[PathSpec("a", delay=DelayModel("trace", trace=trace))],
        traffic=TrafficSpec(interval=20.0, count=12),
        forced_losses={"a": (2, 7)},
    ))
    assert trace.seq.tobytes() == seq and trace.delay_ms.tobytes() == delay
    lost = [1, 2, 4, 6, 7, 9, 11]
    assert np.flatnonzero(sim.path_lost(0)).tolist() == lost
    delivered = np.delete(np.arange(12), lost)
    want = sim.send_ns[delivered] + np.array([10, 25, 10, 25, 10]) * engine.NS_PER_MS
    assert sim.arrival_ns[0, delivered].tolist() == want.tolist()
    assert sim.counters.lost_copies == 7 and sim.counters.forced_losses == 2


def _release_order_oracle(sim):
    """The seqs in release order by the plain lexsort, from the ledger's
    arrival and send columns and the scenario's padding target: each
    seq's first forward plus the window-miss duplicates, found by the
    window pass over every copy in (time, seq, path) order (for runs
    without the reorder hold)."""
    first = sim.arrival_ns.min(axis=0)
    seqs = np.flatnonzero(first < engine.LOST_NS)
    t = first[seqs]
    if sim.scenario.padding.enabled:
        target_ns = engine.ms_to_ns(sim.scenario.padding.target_one_way)
        t = np.maximum(t, sim.send_ns[seqs] + target_ns)
    miss_s, miss_t = _misses_in_arrival_order(sim.arrival_ns,
                                              sim.scenario.dedup_window)
    seqs, t = np.concatenate([seqs, miss_s]), np.concatenate([t, miss_t])
    return seqs[np.lexsort((seqs, t))]


def _trace_path(delays):
    return PathSpec("a", delay=DelayModel("trace",
                                          trace=Trace(range(len(delays)), delays)))


@pytest.mark.parametrize("scenario, order", [
    # a lossy constant-delay run: the identity
    (Scenario(paths=[PathSpec("a", loss=LossModel(0.3),
                              delay=DelayModel("constant", mean=40.0))],
              traffic=TrafficSpec(interval=20.0, count=200), seed=5), None),
    # padded to 30 ms, seq 1 arrives after 80 ms and the next two overtake it
    (Scenario(paths=[_trace_path([10.0, 80.0, 10.0, 10.0, 10.0])],
              traffic=TrafficSpec(interval=20.0, count=5),
              padding=PaddingConfig(enabled=True, target_one_way=30.0)),
     [0, 2, 3, 1, 4]),
    # seqs 1-3 are all released at 60 ms, before seq 0 (70 ms); seq 4 is lost
    (Scenario(paths=[_trace_path([70.0, 40.0, 20.0, 0.0, math.nan, 0.0])],
              traffic=TrafficSpec(interval=20.0, count=6)),
     [1, 2, 3, 0, 5]),
], ids=["identity", "padded-overtake", "ties"])
def test_release_order_equals_the_lexsort_oracle(scenario, order):
    sim = simulate(scenario)
    assert sim.counters.window_miss_duplicates == 0
    want = _release_order_oracle(sim)
    assert sim.forwarded_order.dtype == np.int64
    assert sim.forwarded_order.tolist() == want.tolist()
    if order is None:
        assert want.tolist() == np.flatnonzero(~sim.rail_lost_mask()).tolist()
        assert 0 < len(want) < 200
    else:
        assert want.tolist() == order


def _jittery_paths(target=None):
    """Three lossy normal-delay paths at 1 ms spacing with an 8-seq
    window: many copies overtake each other and some miss the window."""
    return Scenario(
        paths=[PathSpec(f"p{i}", loss=LossModel(0.2),
                        delay=DelayModel("normal", mean=40.0 + 20 * i, stddev=30.0))
               for i in range(3)],
        traffic=TrafficSpec(interval=1.0, count=3000),
        padding=PaddingConfig(enabled=target is not None,
                              target_one_way=target or 0.0),
        dedup_window=8, seed=11)


@pytest.mark.parametrize("scenario, padded", [
    (_jittery_paths(), False),
    (_jittery_paths(target=0.0), False),
    (_jittery_paths(target=70.0), True),
], ids=["misses", "padding-unused", "padded"])
def test_forwards_with_window_misses_equal_the_lexsort_oracle(scenario, padded):
    """Without padding the forwards keep the copy ordering's (time, seq)
    order; a padded run is sorted again."""
    sim = simulate(scenario)
    assert sim.counters.window_miss_duplicates > 20
    assert (sim.counters.padded > 0) == padded
    want = _release_order_oracle(sim)
    assert sim.forwarded_order.dtype == np.int64
    assert sim.forwarded_order.tolist() == want.tolist()
    assert reorder_stats(want).out_of_order_count > 0


def _keys_with_ties():
    small = st.integers(-3, 3)
    wide = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
    return st.lists(small | wide, max_size=300) | st.lists(small, max_size=300)


@settings(max_examples=300, deadline=None)
@given(keys=_keys_with_ties(), shape=st.sampled_from(
    ["as drawn", "all tied", "sorted", "reversed"]))
def test_the_sort_helper_is_the_stable_argsort(keys, shape):
    keys = np.array(keys, dtype=np.int64)
    if shape == "all tied":
        keys = np.full(len(keys), keys[0] if len(keys) else 5)
    elif shape != "as drawn":
        keys.sort()
        keys = keys if shape == "sorted" else keys[::-1].copy()
    got = railedge._stable_order(keys)
    assert got.tolist() == np.argsort(keys, kind="stable").tolist()


_RNG = np.random.default_rng(8)


@pytest.mark.parametrize("keys, falls_back", [
    ([], True), ([7], True), ([7, 7], False), ([2, 1], False),
    ([1, 1, 0, 0, 1], False),
    # long enough for the SIMD sort: every key tied three ways, few keys
    (np.repeat(_RNG.integers(0, 2**40, 10_000), 3)[_RNG.permutation(30_000)], False),
    (_RNG.integers(0, 50, 30_000), False),
    # two keys pack their index into one bit: a span of 2**62 does not fit
    ([0, 2**62], True), ([2**62 - 1, 0, 2**62 - 1], True), ([2**62 - 1, 0], False),
    ([np.iinfo(np.int64).max, np.iinfo(np.int64).min], True),
], ids=["empty", "one", "pair", "two", "five", "three-way", "few-keys",
        "span-2**62", "three-keys-span-2**62-1", "span-2**62-1", "int64-range"])
def test_the_sort_helper_on_fixed_arrays(monkeypatch, keys, falls_back):
    keys = np.array(keys, dtype=np.int64)
    want = np.argsort(keys, kind="stable")
    stable_sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: stable_sorts.append(kw)
                        or argsort(*a, **kw))
    assert railedge._stable_order(keys).tolist() == want.tolist()
    assert stable_sorts == ([{"kind": "stable"}] if falls_back else [])


@pytest.mark.parametrize("after, missed", [(3, False), (4, True)],
                         ids=["window-after", "window-plus-one-after"])
def test_a_copy_within_the_window_of_its_first_is_left_out_of_the_loop(
        monkeypatch, after, missed):
    """Seq 0's second copy comes `after` + 1 copies after its first, with
    only other seqs' first copies between.  At `window` copies after, it is
    suppressed whatever those forwards are, and the loop never sees it;
    one copy further it is a window-miss duplicate."""
    window, n = 4, 8
    send = np.arange(n, dtype=np.int64) * 10
    arrival = np.vstack([send, np.full(n, engine.LOST_NS)])
    arrival[1, 0] = send[after] + 5
    calls = _spy_loop(monkeypatch)
    rail_delay = arrival.min(axis=0) - send
    t, seqs = railedge._dedup_pass(arrival, rail_delay, 10, window, None)
    walked = calls[0][0].tolist()
    assert walked == list(range(after + 1)) + [0] * missed + list(range(after + 1, n))
    miss_s, miss_t = _misses_in_arrival_order(arrival, window)
    assert miss_s.tolist() == [0] * missed
    want_s = np.concatenate([np.arange(n), miss_s])
    want_t = np.concatenate([send, miss_t])
    order = np.lexsort((want_s, want_t))
    assert seqs.tolist() == want_s[order].tolist()
    assert t.tolist() == want_t[order].tolist()


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


def test_parse_scenario_rejects_unknown_keys():
    bad = ("[DEFAULT]\nrate = 0.5\n[scenario]\nsed = 1\n[traffic]\ncnt = 5\n"
           "[padding]\nenable = true\n[shared.core]\nrat = 0.1\n"
           "[paths.0]\nid = a\nrate = 3.0\nstdev = 30\n")
    with pytest.raises(ValidationError) as err:
        parse_scenario(bad)
    problems = err.value.problems
    for fragment in ("[DEFAULT]: unknown section", "[scenario] sed: unknown key",
                     "[traffic] cnt: unknown key", "[padding] enable: unknown key",
                     "[shared.core] rat: unknown key", "[paths.0] stdev: unknown key",
                     "paths[0].loss.rate"):
        assert any(p.startswith(fragment) for p in problems), fragment


@pytest.mark.parametrize("delay", ["", "delay = constant\n", "delay = normal\n"])
def test_trace_key_needs_a_trace_delay(delay):
    with pytest.raises(ValidationError) as err:
        parse_scenario(f"[paths.0]\n{delay}trace = t.trace\n")
    assert err.value.problems == ["[paths.0] trace: requires delay = trace"]


def test_left_out_keys_take_the_dataclass_defaults():
    assert parse_scenario("[paths.0]\n") == Scenario(paths=[PathSpec("0")])


def test_percent_is_a_literal_character():
    assert parse_scenario("[scenario]\nlabel = 50% loss\n[paths.0]\n").label == "50% loss"
    with pytest.raises(ValidationError) as err:
        parse_scenario("[paths.0]\nmean = 5\nstddev = %(mean)s\n")
    assert err.value.problems == ["[paths.0] stddev: invalid value '%(mean)s'"]


def test_readme_scenario_example_parses_and_shows_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Scenario files", 1)[1].split("```ini\n", 1)[1]
    example = example.split("```", 1)[0]
    (tmp_path / "probe.trace").write_text("1,52.3\n2,0\n")
    scenario = parse_scenario(example, base_dir=tmp_path)
    assert [p.delay.kind for p in scenario.paths] == ["normal", "trace", "paretonormal"]
    shown = {line.split("=", 1)[0].strip() for line in example.splitlines()
             if "=" in line}
    assert shown == {key for keys in engine.SCENARIO_KEYS.values() for key in keys}


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
