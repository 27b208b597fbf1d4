"""Loss/delay model behaviour, trace handling and sampling determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim.engine import Scenario, TrafficSpec, simulate
from railsim.errors import ConfigurationError, TraceParseError
from railsim.pathsim import (CHUNK, DELAY_KINDS, DelayModel, LossModel, LossStream,
                             PathSpec, PathStream, SharedSegmentSpec, Trace,
                             load_trace, path_rng, shared_rng)

N = 100_000


def _stream(spec, seed=0, idx=0):
    return PathStream(spec, path_rng(seed, idx))


# ---------------------------------------------------------------------------
# path outcomes


def _one_at_a_time(stream, n):
    pieces = [stream.take(1) for _ in range(n)]
    return tuple(np.concatenate(c) for c in zip(*pieces))


def test_zero_loss_constant_delay_delivers():
    spec = PathSpec("a", delay=DelayModel("constant", mean=100.0))
    lost, delay = _one_at_a_time(_stream(spec, seed=1), 200)
    assert lost.dtype == bool and not lost.any()
    assert np.all(delay == 100.0)
    batch = _stream(spec, seed=1).take(200)
    assert lost.tobytes() == batch[0].tobytes()
    assert delay.tobytes() == batch[1].tobytes()


def test_certain_loss_always_lost():
    spec = PathSpec("a", loss=LossModel(rate=1.0),
                    delay=DelayModel("normal", mean=50.0, stddev=10.0))
    lost, _ = _one_at_a_time(_stream(spec, seed=1), 200)
    assert lost.all()
    assert _stream(spec, seed=1).take(200)[0].all()


def test_measured_loss_rate_matches_bernoulli_mean():
    stream = LossStream(LossModel(0.1, 0.0), path_rng(12, 0))
    measured = stream.take(N).mean()
    sigma = math.sqrt(0.1 * 0.9 / N)
    assert abs(measured - 0.1) <= 3 * sigma


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_uncorrelated_loss_within_four_sigma(seed):
    stream = LossStream(LossModel(0.1, 0.0), path_rng(seed, 0))
    measured = stream.take(N).mean()
    sigma = math.sqrt(0.1 * 0.9 / N)
    assert abs(measured - 0.1) <= 4 * sigma


def test_sticky_loss_keeps_stationary_rate():
    # the sticky process repeats outcomes but leaves the long-run rate alone;
    # autocorrelation inflates the variance of the mean by (1+c)/(1-c)
    stream = LossStream(LossModel(0.2, 0.5), path_rng(21, 0))
    measured = stream.take(N).mean()
    sigma = math.sqrt(0.2 * 0.8 / N) * math.sqrt(1.5 / 0.5)
    assert abs(measured - 0.2) <= 4 * sigma


def test_sticky_loss_lengthens_runs():
    plain = LossStream(LossModel(0.2, 0.0), path_rng(40, 0)).take(N)
    sticky = LossStream(LossModel(0.2, 0.7), path_rng(40, 1)).take(N)

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
    l1, d1 = _stream(spec, seed=9).take(5000)
    l2, d2 = _stream(spec, seed=9).take(5000)
    assert l1.tobytes() == l2.tobytes()
    assert d1.tobytes() == d2.tobytes()
    l3, _ = _stream(spec, seed=10).take(5000)
    assert l3.tobytes() != l1.tobytes()


def test_streaming_equals_batch():
    spec = PathSpec("a", loss=LossModel(0.2, 0.5),
                    delay=DelayModel("normal", mean=60.0, stddev=12.0,
                                     correlation=0.3))
    lost, delay = _stream(spec, seed=4, idx=2).take(200)
    one_lost, one_delay = _one_at_a_time(_stream(spec, seed=4, idx=2), 200)
    assert one_lost.tobytes() == lost.tobytes()
    assert one_delay.tobytes() == delay.tobytes()


def test_prefix_independent_of_request_size():
    spec = PathSpec("a", loss=LossModel(0.1),
                    delay=DelayModel("normal", mean=50.0, stddev=5.0))
    l_small, d_small = _stream(spec, seed=5).take(100)
    l_big, d_big = _stream(spec, seed=5).take(CHUNK + 100)
    assert np.array_equal(l_small, l_big[:100])
    assert np.array_equal(d_small, d_big[:100])


# piece sizes that start and stop inside a chunk, cross one boundary and
# cover a whole chunk past it
SPLIT_PIECES = [1, 999, CHUNK - 1000, 2, CHUNK + 7]


def _split_and_whole(make, take):
    whole = take(make(), sum(SPLIT_PIECES))
    stream = make()
    pieces = [take(stream, k) for k in SPLIT_PIECES]
    split = tuple(np.concatenate(c) for c in zip(*pieces))
    return split, whole


def test_split_takes_equal_one_take_with_carried_scan_state():
    spec = PathSpec("a", loss=LossModel(0.1, 0.6),
                    delay=DelayModel("paretonormal", mean=60.0, stddev=15.0,
                                     correlation=0.9))
    split, whole = _split_and_whole(lambda: _stream(spec, seed=8, idx=1),
                                    lambda s, k: s.take(k))
    for a, b in zip(split, whole):
        assert a.tobytes() == b.tobytes()


def test_split_takes_equal_one_take_for_wrapping_trace():
    trace = load_trace("".join(f"{k},{0 if k % 5 == 0 else 10 + k % 7}\n"
                               for k in range(1, 3001)))
    spec = PathSpec("t", loss=LossModel(0.05, 0.3),
                    delay=DelayModel("trace", trace=trace))
    split, whole = _split_and_whole(lambda: _stream(spec, seed=2),
                                    lambda s, k: s.take(k))
    assert split[0].tobytes() == whole[0].tobytes()
    assert split[1].tobytes() == whole[1].tobytes()
    # the replay stays positional across the chunk boundary
    t_lost, t_delay = trace.replay(0, sum(SPLIT_PIECES))
    assert whole[1].tobytes() == t_delay.tobytes()
    assert np.all(whole[0][t_lost])


def test_split_takes_equal_one_take_for_shared_segment():
    model = LossModel(0.2, 0.7)
    split, whole = _split_and_whole(lambda: LossStream(model, shared_rng(6, 1)),
                                    lambda s, k: (s.take(k),))
    assert split[0].tobytes() == whole[0].tobytes()


# ---------------------------------------------------------------------------
# lazy columns against whole-chunk draws


class _EagerDraws:
    """Oracle: every column of a chunk drawn whole, in order, from the
    stream's own generator as soon as the chunk starts.  The rows of each
    take are finished by the stream's own ``_finish``, so only the drawing
    differs from the lazy stream.  ``chunk_start_state`` is the generator
    state the current chunk was drawn from."""

    def _take(self, n):
        parts = []
        while True:
            if self._cursor == CHUNK:
                self.chunk_start_state = self._rng.bit_generator.state
                self._raw = self._draw()
                self._cursor = 0
                self._chunk_start += CHUNK
            k = min(n, CHUNK - self._cursor)
            lo = self._cursor
            parts.append(self._finish(tuple(r[lo:lo + k] for r in self._raw)))
            self._cursor += k
            n -= k
            if n == 0:
                break
        return tuple(np.concatenate(c) for c in zip(*parts))


class EagerLossStream(_EagerDraws, LossStream):
    def _draw(self):
        u_repeat = self._rng.random(CHUNK)
        u_fresh = self._rng.random(CHUNK)
        return u_repeat, u_fresh


class EagerPathStream(_EagerDraws, PathStream):
    def _draw(self):
        u_repeat = self._rng.random(CHUNK)
        u_fresh = self._rng.random(CHUNK)
        kind = self.spec.delay.kind
        if kind == "normal":
            return u_repeat, u_fresh, self._rng.standard_normal(CHUNK)
        if kind == "paretonormal":
            u_mix = self._rng.random(CHUNK)
            z = self._rng.standard_normal(CHUNK)
            u_par = self._rng.random(CHUNK)
            return u_repeat, u_fresh, u_mix, z, u_par
        return u_repeat, u_fresh


WRAP_TRACE = load_trace("".join(f"{k},{0 if k % 5 == 0 else 10 + k % 7}\n"
                                for k in range(1, 3001)))


def _lazy_and_eager(kind, loss, delay_corr, seed):
    if kind == "loss":
        return (LossStream(loss, shared_rng(seed, 1)),
                EagerLossStream(loss, shared_rng(seed, 1)))
    delay = DelayModel(kind, mean=60.0, stddev=15.0, correlation=delay_corr,
                       trace=WRAP_TRACE)
    spec = PathSpec("a", loss=loss, delay=delay)
    return PathStream(spec, path_rng(seed, 2)), EagerPathStream(spec, path_rng(seed, 2))


def _assert_same_takes(lazy, eager, takes):
    for k in takes:
        got, want = lazy.take(k), eager.take(k)
        got, want = (got, want) if isinstance(got, tuple) else ((got,), (want,))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert len(a) == k
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # the lazy generator waits at the start of the chunk in use
        assert lazy._rng.bit_generator.state == eager.chunk_start_state


STREAM_KINDS = ["loss", *DELAY_KINDS]
# end exactly on a chunk boundary, cross one, span more than one, take nothing
BOUNDARY_TAKES = [[CHUNK, 1], [CHUNK - 1, 2], [2 * CHUNK + 7], [0, 5, 0, CHUNK - 5, 0, 3]]


@pytest.mark.parametrize("takes", BOUNDARY_TAKES)
@pytest.mark.parametrize("kind", STREAM_KINDS)
def test_lazy_columns_equal_whole_chunk_draws_at_boundaries(kind, takes):
    lazy, eager = _lazy_and_eager(kind, LossModel(0.1, 0.6), 0.9, seed=17)
    _assert_same_takes(lazy, eager, takes)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(STREAM_KINDS),
       rate=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       loss_corr=st.sampled_from([0.0, 0.3, 0.9]),
       delay_corr=st.sampled_from([0.0, 0.4, 0.95]),
       seed=st.integers(0, 2 ** 64 - 1),
       takes=st.lists(st.sampled_from([0, 1, 2, 7, 999, CHUNK - 1, CHUNK, CHUNK + 1,
                                       2 * CHUNK + 7]), min_size=1, max_size=4))
def test_lazy_columns_equal_whole_chunk_draws(kind, rate, loss_corr, delay_corr,
                                              seed, takes):
    lazy, eager = _lazy_and_eager(kind, LossModel(rate, loss_corr), delay_corr, seed)
    _assert_same_takes(lazy, eager, takes)


@pytest.mark.parametrize("make_rng", [
    lambda: np.random.Generator(np.random.Philox(1)),
    lambda: np.random.Generator(np.random.PCG64DXSM(1)),
    lambda: np.random.Generator(np.random.MT19937(1)),
    lambda: np.random.Generator(np.random.SFC64(1)),
    lambda: np.random.RandomState(1),
], ids=["philox", "pcg64dxsm", "mt19937", "sfc64", "randomstate"])
def test_streams_reject_generators_other_than_pcg64(make_rng):
    # the lazy columns skip unread rows in PCG64 words; any other generator
    # would silently draw different randomness
    with pytest.raises(ConfigurationError, match="PCG64"):
        PathStream(PathSpec("a"), make_rng())
    with pytest.raises(ConfigurationError, match="PCG64"):
        LossStream(LossModel(), make_rng())


# ---------------------------------------------------------------------------
# delay models


def test_constant_delay_exact():
    _, d = _stream(PathSpec("a", delay=DelayModel("constant", mean=42.5))).take(100)
    assert np.all(d == 42.5)


def test_paretonormal_mean_within_five_percent():
    spec = PathSpec("a", delay=DelayModel("paretonormal", mean=100.0, stddev=20.0))
    _, d = _stream(spec, seed=31).take(N)
    assert abs(d.mean() - 100.0) <= 5.0
    assert d.max() > 200.0  # the tail actually shows up


def test_negative_samples_clamp_to_zero():
    spec = PathSpec("a", delay=DelayModel("paretonormal", mean=5.0, stddev=20.0))
    _, d = _stream(spec, seed=32).take(N)
    assert d.min() == 0.0
    assert np.all(d >= 0.0)


def test_ar1_delay_correlation_and_scale():
    spec = PathSpec("a", delay=DelayModel("normal", mean=200.0, stddev=10.0,
                                          correlation=0.6))
    _, d = _stream(spec, seed=33).take(N)
    x = d - d.mean()
    lag1 = float(np.sum(x[:-1] * x[1:]) / np.sum(x * x))
    assert abs(lag1 - 0.6) < 0.02
    assert abs(d.std() - 10.0) < 0.5  # AR(1) weighting preserves the marginal


def test_model_validation():
    with pytest.raises(ConfigurationError, match="rate"):
        _stream(PathSpec("a", loss=LossModel(rate=1.5)))
    with pytest.raises(ConfigurationError, match="correlation"):
        _stream(PathSpec("a", loss=LossModel(rate=0.1, correlation=1.0)))
    with pytest.raises(ConfigurationError, match="kind"):
        _stream(PathSpec("a", delay=DelayModel("weird")))
    with pytest.raises(ConfigurationError, match="stddev"):
        _stream(PathSpec("a", delay=DelayModel("normal", mean=10, stddev=-1)))
    with pytest.raises(ConfigurationError, match="trace"):
        _stream(PathSpec("a", delay=DelayModel("trace")))


# ---------------------------------------------------------------------------
# traces


def test_load_trace_maps_zero_delay_to_lost():
    trace = load_trace("1,52.3\n2,0\n3,54.1")
    assert trace.entries == [(1, 52.3), (2, None), (3, 54.1)]


def test_load_trace_single_lost_packet():
    assert load_trace("1,0").entries == [(1, None)]


def test_load_trace_comments_and_blanks():
    text = "# probe run\n\n1,10.5  # first\n2,11.0\n"
    assert load_trace(text).entries == [(1, 10.5), (2, 11.0)]


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


@pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf, -5.0])
def test_trace_rejects_non_finite_or_negative_delay(delay):
    # a NaN entry would be a silently lost packet, a negative one would
    # arrive before it was sent
    with pytest.raises(TraceParseError, match="seq 2: delay must be finite"):
        Trace([(1, 10.0), (2, delay), (3, None)])


def test_trace_replay_wraps():
    trace = load_trace("1,10\n2,0\n3,30")
    lost, delay = trace.replay(0, 7)
    assert lost.tolist() == [False, True, False, False, True, False, False]
    assert delay[0] == 10 and delay[2] == 30 and delay[3] == 10


def test_trace_driven_stream_combines_with_own_loss():
    trace = load_trace("1,10\n2,0\n3,30\n4,40")
    spec = PathSpec("t", loss=LossModel(rate=1.0),
                    delay=DelayModel("trace", trace=trace))
    lost, _ = _stream(spec).take(4)
    assert lost.all()  # own loss applies on top of the recorded outcomes
