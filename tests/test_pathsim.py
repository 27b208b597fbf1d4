"""Loss/delay model behaviour, trace handling and sampling determinism."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import loop_ar1_scan, loop_sticky_scan

from railsim import pathsim
from railsim.engine import Scenario, TrafficSpec, simulate
from railsim.errors import TraceParseError, ValidationError
from railsim.pathsim import (CHUNK, DELAY_FIELDS, DELAY_KINDS, DelayModel, LossModel,
                             PathSpec, SharedSegmentSpec, Trace, load_trace,
                             path_key, sample_path, shared_key)

N = 100_000


def _path(spec, n, seed=0, idx=0):
    return sample_path(spec, path_key(seed, idx), n)


def _loss(model, seed, idx=0, n=N):
    """The loss column of a constant-delay path, the one sampled for a
    shared segment."""
    return _path(PathSpec("s", loss=model), n, seed, idx)[0]


# ---------------------------------------------------------------------------
# path outcomes


def _one_at_a_time(spec, n, seed=0, idx=0):
    """Packet i of each column taken from a run of i + 1 packets."""
    key = path_key(seed, idx)
    lasts = [[col[-1] for col in sample_path(spec, key, i + 1)] for i in range(n)]
    return tuple(np.array(c) for c in zip(*lasts))


def test_zero_loss_constant_delay_delivers():
    spec = PathSpec("a", delay=DelayModel("constant", mean=100.0))
    lost, delay = _one_at_a_time(spec, 200, seed=1)
    assert lost.dtype == bool and not lost.any()
    assert np.all(delay == 100.0)
    batch = _path(spec, 200, seed=1)
    assert lost.tobytes() == batch[0].tobytes()
    assert delay.tobytes() == batch[1].tobytes()


def test_certain_loss_always_lost():
    spec = PathSpec("a", loss=LossModel(rate=1.0),
                    delay=DelayModel("normal", mean=50.0, stddev=10.0))
    lost, _ = _one_at_a_time(spec, 200, seed=1)
    assert lost.all()
    assert _path(spec, 200, seed=1)[0].all()


def test_measured_loss_rate_matches_bernoulli_mean():
    measured = _loss(LossModel(0.1, 0.0), 12).mean()
    sigma = math.sqrt(0.1 * 0.9 / N)
    assert abs(measured - 0.1) <= 3 * sigma


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_uncorrelated_loss_within_four_sigma(seed):
    measured = _loss(LossModel(0.1, 0.0), seed).mean()
    sigma = math.sqrt(0.1 * 0.9 / N)
    assert abs(measured - 0.1) <= 4 * sigma


def test_sticky_loss_keeps_stationary_rate():
    # the sticky process repeats outcomes but leaves the long-run rate alone;
    # autocorrelation inflates the variance of the mean by (1+c)/(1-c)
    measured = _loss(LossModel(0.2, 0.5), 21).mean()
    sigma = math.sqrt(0.2 * 0.8 / N) * math.sqrt(1.5 / 0.5)
    assert abs(measured - 0.2) <= 4 * sigma


def test_sticky_loss_lengthens_runs():
    plain = _loss(LossModel(0.2, 0.0), 40)
    sticky = _loss(LossModel(0.2, 0.7), 40, 1)

    def mean_run(seq):
        runs, cur = [], 0
        for x in seq:
            if x:
                cur += 1
            elif cur:
                runs.append(cur)
                cur = 0
        if cur:
            runs.append(cur)
        return np.mean(runs)

    assert mean_run(sticky) > 1.5 * mean_run(plain)


def test_shared_segment_couples_paths():
    sim = simulate(Scenario(
        paths=[PathSpec(pid, delay=DelayModel("constant", mean=10.0), shared="core")
               for pid in ("a", "b")],
        shared_segments=[SharedSegmentSpec("core", LossModel(0.2, 0.0))],
        traffic=TrafficSpec(count=4000),
        seed=3,
    ))
    a, b = sim.path_lost(0), sim.path_lost(1)
    # own rates are 0, so only the shared draw decides
    assert a.tobytes() == b.tobytes()
    measured = float(np.count_nonzero(a)) / 4000
    assert abs(measured - 0.2) <= 4 * math.sqrt(0.2 * 0.8 / 4000)


# ---------------------------------------------------------------------------
# determinism


def test_same_spec_and_seed_reproduce_byte_identical_streams():
    spec = PathSpec("a", loss=LossModel(0.05, 0.3),
                    delay=DelayModel("paretonormal", mean=80.0, stddev=15.0,
                                     correlation=0.4))
    l1, d1 = _path(spec, 5000, seed=9)
    l2, d2 = _path(spec, 5000, seed=9)
    assert l1.tobytes() == l2.tobytes()
    assert d1.tobytes() == d2.tobytes()
    l3, _ = _path(spec, 5000, seed=10)
    assert l3.tobytes() != l1.tobytes()


def test_streaming_equals_batch():
    spec = PathSpec("a", loss=LossModel(0.2, 0.5),
                    delay=DelayModel("normal", mean=60.0, stddev=12.0,
                                     correlation=0.3))
    lost, delay = _path(spec, 200, seed=4, idx=2)
    one_lost, one_delay = _one_at_a_time(spec, 200, seed=4, idx=2)
    assert one_lost.tobytes() == lost.tobytes()
    assert one_delay.tobytes() == delay.tobytes()


def test_prefix_independent_of_request_size():
    spec = PathSpec("a", loss=LossModel(0.1),
                    delay=DelayModel("normal", mean=50.0, stddev=5.0))
    l_small, d_small = _path(spec, 100, seed=5)
    l_big, d_big = _path(spec, CHUNK + 100, seed=5)
    assert np.array_equal(l_small, l_big[:100])
    assert np.array_equal(d_small, d_big[:100])


WRAP_TRACE = load_trace("".join(f"{k},{0 if k % 5 == 0 else 10 + k % 7}\n"
                                for k in range(1, 3001)))


def test_trace_replay_stays_positional_across_chunks():
    spec = PathSpec("t", loss=LossModel(0.05, 0.3),
                    delay=DelayModel("trace", trace=WRAP_TRACE))
    n = 2 * CHUNK + 7
    lost, delay = _path(spec, n, seed=2)
    # the replay wraps the 3,000-entry trace and crosses two chunk edges
    t_delay = np.resize(WRAP_TRACE.delay_ms, n)
    t_lost = np.isnan(t_delay)
    assert delay.tobytes() == t_delay.tobytes()
    assert np.all(lost[t_lost])
    own = _loss(spec.loss, 2, n=n)
    assert lost.tobytes() == (own | t_lost).tobytes()


# ---------------------------------------------------------------------------
# lazy columns against whole-chunk draws


def eager_sample(kind, loss, delay, key, n):
    """Oracle: every column of each chunk drawn whole, in layout order,
    from numpy's default generator seeded with ``key``, then the loop
    kernels over the whole run.  Returns the loss column, plus the delay
    column for a path kind."""
    rng = np.random.default_rng(key)
    cols = []
    for _ in range(max(1, -(-n // CHUNK))):
        chunk = [rng.random(CHUNK), rng.random(CHUNK)]  # u_repeat, u_fresh
        if kind == "normal":
            chunk.append(rng.standard_normal(CHUNK))
        elif kind == "paretonormal":
            chunk += [rng.random(CHUNK), rng.standard_normal(CHUNK),
                      rng.random(CHUNK)]  # u_mix, z, u_par
        cols.append(chunk)
    u_repeat, u_fresh, *d_cols = (np.concatenate(c)[:n] for c in zip(*cols))
    lost = loop_sticky_scan(u_repeat >= loss.correlation, u_fresh < loss.rate)
    if kind == "loss":
        return (lost,)
    if kind == "constant":
        return lost, np.full(n, delay.mean)
    if kind == "trace":
        recorded = delay.trace.delay_ms.tolist()
        t_delay = np.array([recorded[i % len(recorded)] for i in range(n)])
        return lost | np.isnan(t_delay), t_delay
    if kind == "normal":
        eps = delay.stddev * d_cols[0]
    else:
        u_mix, z, u_par = d_cols
        a = delay.pareto_alpha
        pareto = (1.0 - u_par) ** (-1.0 / a) - a / (a - 1.0)
        eps = delay.stddev * np.where(u_mix < delay.pareto_weight, pareto, z)
    x = loop_ar1_scan(eps, delay.correlation)
    return lost, np.maximum(delay.mean + x, 0.0)


def _delay(kind, delay_corr):
    """The delay model sampled for ``kind``, given only the fields the kind
    reads; None for a bare loss model."""
    if kind == "loss":
        return None
    given = {"mean": 60.0, "stddev": 15.0, "correlation": delay_corr,
             "trace": WRAP_TRACE}
    return DelayModel(kind, **{name: value for name, value in given.items()
                               if name in DELAY_FIELDS[kind]})


def _sample(kind, loss, delay, key, n):
    if kind == "loss":  # a shared segment: a constant-delay path's loss column
        return sample_path(PathSpec("s", loss=loss), key, n)[:1]
    return sample_path(PathSpec("a", loss=loss, delay=delay), key, n)


def _assert_equals_eager(kind, loss, delay_corr, seed, runs):
    delay = _delay(kind, delay_corr)
    for n in runs:
        key = shared_key(seed, 1) if kind == "loss" else path_key(seed, 2)
        got = _sample(kind, loss, delay, key, n)
        want = eager_sample(kind, loss, delay, key, n)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert len(a) == n
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


STREAM_KINDS = ["loss", *DELAY_KINDS]
# run lengths that end exactly on a chunk boundary, one row past or short
# of one, span more than one chunk, and are empty; and one that leaves the
# paretonormal normal column a whole number of discard buffers to skip
BOUNDARY_TAKES = [[CHUNK, CHUNK + 1],
                  [CHUNK - 1, 1, CHUNK - 2 * pathsim._DISCARD.size],
                  [2 * CHUNK + 7], [0, 5, 3 * CHUNK]]


@pytest.mark.parametrize("takes", BOUNDARY_TAKES)
@pytest.mark.parametrize("kind", STREAM_KINDS)
def test_lazy_columns_equal_whole_chunk_draws_at_boundaries(kind, takes):
    # every loss layout: both columns read, u_repeat skipped (correlation
    # 0), and both skipped (rate 0)
    for loss in (LossModel(0.1, 0.6), LossModel(0.1, 0.0), LossModel(0.0, 0.6),
                 LossModel(0.0, 0.0)):
        _assert_equals_eager(kind, loss, 0.9, 17, takes)


@pytest.mark.parametrize("kind", DELAY_KINDS)
def test_sampled_columns_never_share_the_discard_buffer(kind):
    # the paretonormal normal column's unread rows go into one reused
    # buffer; the columns a run returns are its own (the engine writes into
    # the delay column)
    delay = _delay(kind, 0.0)
    for n in (1, CHUNK - 1, CHUNK, CHUNK + 1):
        lost, delay_ms = _sample(kind, LossModel(0.1, 0.6), delay, path_key(4, 0), n)
        assert not np.shares_memory(delay_ms, pathsim._DISCARD)
        assert not np.shares_memory(lost, pathsim._DISCARD)
        assert not np.shares_memory(delay_ms, WRAP_TRACE.delay_ms)


RUN_LENGTHS = [0, 1, 2, 7, 999, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(STREAM_KINDS),
       rate=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       loss_corr=st.sampled_from([0.0, 0.3, 0.9]),
       delay_corr=st.sampled_from([0.0, 0.4, 0.95]),
       seed=st.integers(0, 2 ** 64 - 1),
       n=st.sampled_from(RUN_LENGTHS))
def test_lazy_columns_equal_whole_chunk_draws(kind, rate, loss_corr, delay_corr,
                                              seed, n):
    _assert_equals_eager(kind, LossModel(rate, loss_corr), delay_corr, seed, [n])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(STREAM_KINDS),
       loss_corr=st.sampled_from([0.0, 0.3, 0.9]),
       delay_corr=st.sampled_from([0.0, 0.4, 0.95]),
       seed=st.integers(0, 2 ** 64 - 1),
       n=st.sampled_from(RUN_LENGTHS),
       m=st.sampled_from(RUN_LENGTHS) | st.integers(0, 3 * CHUNK))
def test_a_run_is_a_prefix_of_every_longer_run(kind, loss_corr, delay_corr,
                                               seed, n, m):
    # packet i's outcome does not depend on the run length, also when the
    # shorter run ends inside, at or just past a chunk boundary
    m, n = sorted((n, m))
    loss, delay = LossModel(0.1, loss_corr), _delay(kind, delay_corr)
    short = _sample(kind, loss, delay, path_key(seed, 2), m)
    long = _sample(kind, loss, delay, path_key(seed, 2), n)
    for a, b in zip(short, long):
        assert a.tobytes() == b[:m].tobytes()


def test_loss_ties_at_the_correlation_and_the_rate():
    # a row repeats only when u_repeat is strictly below the correlation,
    # and a fresh row is lost only when u_fresh is strictly below the rate;
    # the model takes both thresholds from the run's own draws
    rng = np.random.default_rng(path_key(3, 0))
    u_repeat, u_fresh = rng.random((2, CHUNK))[:, :2].tolist()
    assert 0.0 < u_repeat[1] and u_fresh[0] < u_fresh[1]
    for corr in (u_repeat[1], 0.0):  # the sticky scan, and the skipped column
        spec = PathSpec("a", loss=LossModel(u_fresh[1], corr))
        lost, _ = sample_path(spec, path_key(3, 0), 2)
        assert lost.tolist() == [True, False]


# ---------------------------------------------------------------------------
# delay models


def test_constant_delay_exact():
    _, d = _path(PathSpec("a", delay=DelayModel("constant", mean=42.5)), 100)
    assert np.all(d == 42.5)


def test_paretonormal_mean_within_five_percent():
    spec = PathSpec("a", delay=DelayModel("paretonormal", mean=100.0, stddev=20.0))
    _, d = _path(spec, N, seed=31)
    assert abs(d.mean() - 100.0) <= 5.0
    assert d.max() > 200.0  # the tail actually shows up


def test_negative_samples_clamp_to_zero():
    spec = PathSpec("a", delay=DelayModel("paretonormal", mean=5.0, stddev=20.0))
    _, d = _path(spec, N, seed=32)
    assert d.min() == 0.0
    assert np.all(d >= 0.0)


def test_ar1_delay_correlation_and_scale():
    spec = PathSpec("a", delay=DelayModel("normal", mean=200.0, stddev=10.0,
                                          correlation=0.6))
    _, d = _path(spec, N, seed=33)
    x = d - d.mean()
    lag1 = float(np.sum(x[:-1] * x[1:]) / np.sum(x * x))
    assert abs(lag1 - 0.6) < 0.02
    assert abs(d.std() - 10.0) < 0.5  # AR(1) weighting preserves the marginal


def test_model_validation():
    # the sampler does not validate: simulate checks each spec, once
    for spec, match in [
            (PathSpec("a", loss=LossModel(rate=1.5)), "rate"),
            (PathSpec("a", loss=LossModel(rate=0.1, correlation=1.0)), "correlation"),
            (PathSpec("a", delay=DelayModel("weird")), "kind"),
            (PathSpec("a", delay=DelayModel("normal", mean=10, stddev=-1)), "stddev"),
            (PathSpec("a", delay=DelayModel("trace")), "trace")]:
        with pytest.raises(ValidationError, match=match):
            simulate(Scenario(paths=[spec], traffic=TrafficSpec(count=1)))


# ---------------------------------------------------------------------------
# traces


def _columns(trace):
    assert trace.seq.dtype == np.int64 and trace.delay_ms.dtype == np.float64
    return trace.seq.tolist(), trace.delay_ms.tolist()


def test_load_trace_maps_zero_delay_to_lost():
    seq, delay = _columns(load_trace("1,52.3\n2,0\n3,54.1"))
    assert seq == [1, 2, 3]
    assert delay[0] == 52.3 and math.isnan(delay[1]) and delay[2] == 54.1


def test_load_trace_single_lost_packet():
    seq, delay = _columns(load_trace("1,0"))
    assert seq == [1] and math.isnan(delay[0])


def test_load_trace_comments_and_blanks():
    text = "# probe run\n\n1,10.5  # first\n2,11.0\n"
    assert _columns(load_trace(text)) == ([1, 2], [10.5, 11.0])


@pytest.mark.parametrize("seq", [2 ** 63, -2 ** 63 - 1, 10 ** 22])
def test_load_trace_rejects_seq_outside_int64(seq):
    with pytest.raises(TraceParseError, match=f"seq {seq} outside the int64 "
                                              "range at line 2"):
        load_trace(f"-5,10\n{seq},11")


def test_load_trace_keeps_the_int64_extremes():
    seq, _ = _columns(load_trace(f"{-2 ** 63},10\n{2 ** 63 - 1},11"))
    assert seq == [-2 ** 63, 2 ** 63 - 1]


def test_load_trace_non_monotone_reports_line():
    with pytest.raises(TraceParseError, match="non-monotone seq at line 2"):
        load_trace("2,10\n1,11")


def test_load_trace_rejects_negative_delay_and_garbage():
    with pytest.raises(TraceParseError, match="negative"):
        load_trace("1,-3")
    with pytest.raises(TraceParseError, match="line 1"):
        load_trace("1;3")
    with pytest.raises(TraceParseError, match="malformed"):
        load_trace("1,abc")


def test_load_trace_empty_is_error():
    with pytest.raises(TraceParseError, match="empty"):
        load_trace("")
    with pytest.raises(TraceParseError, match="empty"):
        load_trace("# only comments\n")


@pytest.mark.parametrize("delay", ["nan", "inf", "-inf", "NaN", "infinity"])
def test_load_trace_rejects_non_finite_delay(delay):
    with pytest.raises(TraceParseError, match="non-finite delay.* at line 2"):
        load_trace(f"1,10\n2,{delay}\n3,30")


@pytest.mark.parametrize("delay", [math.inf, -math.inf, -5.0])
def test_trace_rejects_non_finite_or_negative_delay(delay):
    # an infinite delay never arrives, a negative one would arrive before
    # it was sent
    with pytest.raises(TraceParseError, match="seq 2: delay must be finite"):
        Trace([1, 2, 3], [10.0, delay, math.nan])


def test_trace_nan_delay_is_a_lost_entry():
    trace = Trace([1, 2], [10.0, math.nan])
    lost, _ = _path(PathSpec("t", delay=DelayModel("trace", trace=trace)), 2)
    assert lost.tolist() == [False, True]


@pytest.mark.parametrize("seq, delay", [
    ([1, 2, 3], [10.0, 20.0]),
    ([1, 2], [10.0, 20.0, 30.0]),
    ([[1, 2]], [[10.0, 20.0]]),
    (1, 10.0),
])
def test_trace_columns_must_be_1d_of_one_length(seq, delay):
    with pytest.raises(TraceParseError, match="1-D columns of one length"):
        Trace(seq, delay)


@pytest.mark.parametrize("seq, delay, match", [
    ([1.5, 2.7], [1.0, 2.0], "seq must be an integer, got 1.5"),
    ([1.0, 2.0], [1.0, 2.0], "seq must be an integer, got 1.0"),
    ([True], [1.0], "seq must be an integer, got True"),
    (["1", "2"], [1.0, 2.0], "seq must be an integer, got '1'"),
    ([2**63], [1.0], "seq 9223372036854775808 outside the int64 range"),
    ([-1, 2**63], [1.0, 2.0], "seq 9223372036854775808 outside the int64 range"),
    ([0, -2**63 - 1], [1.0, 2.0], "seq -9223372036854775809 outside the int64 range"),
    (np.array([1, 2**63], dtype=np.uint64), [1.0, 2.0],
     "seq 9223372036854775808 outside the int64 range"),
    ([5, 3], [1.0, 2.0], "non-monotone seq: 5 then 3"),
    ([1, 2, 2], [1.0, 2.0, 3.0], "non-monotone seq: 2 then 2"),
    ([1], ["a"], "delay_ms must be numbers"),
    ([1, 2], [1.0, "2"], "delay_ms must be numbers"),
    ([1, 2], [None, 2.0], "delay_ms must be numbers"),
    ([1], [True], "delay_ms must be numbers"),
])
def test_trace_columns_obey_the_file_rules(seq, delay, match):
    # the rules load_trace applies line by line hold for a Trace built
    # directly: no seq is rounded, wrapped or reordered
    with pytest.raises(TraceParseError, match=re.escape(match)):
        Trace(seq, delay)


def test_trace_takes_integer_and_numeric_columns_of_any_width():
    trace = Trace(np.array([1, 2**63 - 1], dtype=np.uint64), np.array([3, 4], dtype=np.int32))
    assert trace.seq.dtype == np.int64 and trace.seq.tolist() == [1, 2**63 - 1]
    assert trace.delay_ms.dtype == np.float64 and trace.delay_ms.tolist() == [3.0, 4.0]
    assert Trace([np.int64(-2**63), 0], [1.0, 2.0]).seq.tolist() == [-2**63, 0]


def test_trace_replay_wraps():
    trace = load_trace("1,10\n2,0\n3,30")
    lost, delay = _path(PathSpec("t", delay=DelayModel("trace", trace=trace)), 7)
    assert lost.tolist() == [False, True, False, False, True, False, False]
    assert delay[0] == 10 and delay[2] == 30 and delay[3] == 10


def test_trace_driven_stream_combines_with_own_loss():
    trace = load_trace("1,10\n2,0\n3,30\n4,40")
    spec = PathSpec("t", loss=LossModel(rate=1.0),
                    delay=DelayModel("trace", trace=trace))
    lost, _ = _path(spec, 4)
    assert lost.all()  # own loss applies on top of the recorded outcomes
