"""CDF, burst, reorder and downtime statistics."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim.engine import Scenario, TrafficSpec, simulate
from railsim.errors import DomainError
from railsim.metrics import (BurstStats, ReorderStats, burst_stats,
                             downtime_combine, empirical_cdf, rail_cdf,
                             reorder_stats)
from railsim.pathsim import DelayModel, PathSpec


# ---------------------------------------------------------------------------
# empirical CDF


def test_cdf_counts_fraction_at_or_below():
    f = empirical_cdf([10.0, 20.0, 30.0])
    assert f(20.0) == pytest.approx(2 / 3)
    assert f(9.9) == 0.0
    assert f(30.0) == 1.0
    assert f(1e9) == 1.0


def test_cdf_degenerate_distribution():
    f = empirical_cdf([5.0, 5.0, 5.0])
    assert f(5.0) == 1.0
    assert f(4.999) == 0.0


def test_cdf_uniform_monte_carlo():
    rng = np.random.default_rng(77)
    f = empirical_cdf(rng.uniform(0.0, 100.0, size=100_000))
    assert abs(f(50.0) - 0.5) <= 0.01


def test_cdf_empty_is_error():
    with pytest.raises(DomainError):
        empirical_cdf([])


def test_cdf_quantile_is_order_statistic():
    f = empirical_cdf(list(range(1, 11)))
    assert f.quantile(0.5) == 5.0
    assert f.quantile(0.95) == 10.0
    assert f.quantile(1.0) == 10.0
    assert f.quantile(0.01) == 1.0
    with pytest.raises(DomainError):
        f.quantile(0.0)


def test_cdf_is_nondecreasing_with_limits():
    rng = np.random.default_rng(3)
    samples = rng.normal(50, 10, size=500)
    f = empirical_cdf(samples)
    ts = np.sort(samples)
    vals = [f(t) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert f(ts[0] - 1) == 0.0 and f(ts[-1]) == 1.0


@settings(max_examples=200, deadline=None)
@given(samples=st.lists(st.sampled_from([0.0, 1.5, 7.0]) | st.floats(-1e3, 1e3),
                        min_size=1, max_size=60),
       ts=st.lists(st.sampled_from([0.0, 1.5, 7.0]) | st.floats(-2e3, 2e3)
                   | st.just(math.inf) | st.just(-math.inf), max_size=30))
def test_cdf_of_an_array_is_the_cdf_of_each_point(samples, ts):
    """An array of points gives, bit for bit, the float each point gives:
    the same int count over n."""
    f = empirical_cdf(samples)
    got = f(np.array(ts, dtype=np.float64))
    assert got.dtype == np.float64 and got.shape == (len(ts),)
    assert [x.hex() for x in got.tolist()] == [f(t).hex() for t in ts]
    assert isinstance(f(ts[0] if ts else 0.0), float)


# ---------------------------------------------------------------------------
# two-path composition


def test_rail_cdf_combines_survivals():
    assert rail_cdf(lambda t: 0.5, lambda t: 0.5, 0.0) == pytest.approx(0.75)


def test_rail_cdf_absorbing_and_zero():
    assert rail_cdf(lambda t: 1.0, lambda t: 0.123, 0.0) == 1.0
    assert rail_cdf(lambda t: 0.0, lambda t: 0.0, 0.0) == 0.0


def test_rail_cdf_accepts_empirical_cdfs():
    f1 = empirical_cdf([10.0, 20.0])
    f2 = empirical_cdf([15.0, 25.0])
    assert rail_cdf(f1, f2, 15.0) == pytest.approx(1 - (1 - 0.5) * (1 - 0.5))


def test_rail_cdf_dominates_both_paths_on_a_run():
    sim = simulate(Scenario(
        paths=[PathSpec("a", delay=DelayModel("normal", mean=60.0, stddev=15.0)),
               PathSpec("b", delay=DelayModel("paretonormal", mean=80.0, stddev=20.0))],
        traffic=TrafficSpec(count=1500), seed=8,
    ))
    f1 = empirical_cdf(sim.path_delays_ms(0))
    f2 = empirical_cdf(sim.path_delays_ms(1))
    fr = empirical_cdf(sim.rail_delays_ms())
    for t in np.unique(np.concatenate([f1.sorted_samples, f2.sorted_samples,
                                       fr.sorted_samples])):
        assert 1 - fr(t) <= min(1 - f1(t), 1 - f2(t))


def _vector_cdf(samples):
    """The empirical CDF of ``samples``, evaluated at an array of points."""
    s = empirical_cdf(samples).sorted_samples
    return lambda t: np.searchsorted(s, t, side="right") / len(s)


def test_rail_cdf_predicts_the_simulated_first_arrival():
    # Two independent, lossless, uncorrelated paths: the first copy's delay
    # is the minimum of two independent delays, whose CDF rail_cdf gives
    # from the two path CDFs.  By the DKW inequality each of the three
    # empirical CDFs of n samples is within eps = sqrt(ln(2/alpha) / 2n)
    # of its true CDF everywhere, except with probability alpha; rail_cdf
    # moves by at most the sum of its inputs' errors, so the two sides
    # differ by at most 3 eps, except with probability 3 alpha = 3e-6 for
    # the seed.  Every gap between step functions is largest at one of
    # their steps, so checking at every sample checks every t.
    n, alpha = 20_000, 1e-6
    sim = simulate(Scenario(
        paths=[PathSpec("a", delay=DelayModel("normal", mean=60.0, stddev=15.0)),
               PathSpec("b", delay=DelayModel("paretonormal", mean=70.0,
                                              stddev=20.0))],
        traffic=TrafficSpec(count=n), seed=5,
    ))
    d0, d1, rail = sim.path_delays_ms(0), sim.path_delays_ms(1), sim.rail_delays_ms()
    assert len(d0) == len(d1) == len(rail) == n
    t = np.concatenate([d0, d1, rail])
    predicted = rail_cdf(_vector_cdf(d0), _vector_cdf(d1), t)
    eps = math.sqrt(math.log(2 / alpha) / (2 * n))
    assert np.max(np.abs(_vector_cdf(rail)(t) - predicted)) <= 3 * eps


# ---------------------------------------------------------------------------
# burst statistics


L, OK = True, False


def test_burst_requires_two_consecutive_losses():
    stats = burst_stats([L, L, OK, L])
    assert stats == BurstStats(lost_in_burst=2, num_bursts=1, avg_burst=2.0,
                               max_burst=2)


def test_burst_all_delivered():
    assert burst_stats([OK] * 10) == BurstStats(0, 0, 0.0, 0)


def test_burst_single_long_run():
    assert burst_stats([L, L, L, L]) == BurstStats(4, 1, 4.0, 4)


def test_isolated_losses_count_only_toward_max():
    stats = burst_stats([L, OK, L, OK, L])
    assert stats == BurstStats(0, 0, 0.0, 1)


def test_burst_random_sequences_match_groupby_oracle():
    rng = random.Random(202)
    for _ in range(200):
        seq = [rng.random() < 0.4 for _ in range(rng.randrange(0, 80))]
        runs = [len(list(g)) for k, g in itertools.groupby(seq) if k]
        bursts = [r for r in runs if r >= 2]
        got = burst_stats(seq)
        assert got.lost_in_burst == sum(bursts)
        assert got.num_bursts == len(bursts)
        assert got.max_burst == max(runs, default=0)
        if got.num_bursts:
            assert got.avg_burst == pytest.approx(sum(bursts) / len(bursts))
            assert got.max_burst >= got.avg_burst >= 2
            assert got.lost_in_burst >= 2 * got.num_bursts
        else:
            assert got.avg_burst == 0.0 and got.lost_in_burst == 0


def loop_burst_stats(loss_sequence) -> BurstStats:
    """Burst statistics one packet at a time (oracle for the numpy pass)."""
    runs = []
    cur = 0
    for lost in loss_sequence:
        if lost:
            cur += 1
        elif cur:
            runs.append(cur)
            cur = 0
    if cur:
        runs.append(cur)
    bursts = [r for r in runs if r >= 2]
    lost_in_burst = sum(bursts)
    num_bursts = len(bursts)
    return BurstStats(
        lost_in_burst=lost_in_burst,
        num_bursts=num_bursts,
        avg_burst=lost_in_burst / num_bursts if num_bursts else 0.0,
        max_burst=max(runs, default=0),
    )


@settings(max_examples=300, deadline=None)
@given(mask=st.lists(st.booleans(), max_size=120)
       | st.integers(0, 120).map(lambda n: [True] * n))
def test_burst_stats_equal_the_loop(mask):
    want = loop_burst_stats(mask)
    for given_as in (mask, np.array(mask, dtype=bool), iter(mask)):
        got = burst_stats(given_as)
        assert got == want
        assert all(type(v) is int for v in
                   (got.lost_in_burst, got.num_bursts, got.max_burst))
        assert type(got.avg_burst) is float


# ---------------------------------------------------------------------------
# reordering


def loop_reorder_stats(forwarded_order) -> ReorderStats:
    """Reorder statistics one packet at a time (oracle for the numpy pass)."""
    gaps = {}
    count = 0
    high = None
    for seq in forwarded_order:
        if high is not None and seq < high:
            g = high - seq
            gaps[g] = gaps.get(g, 0) + 1
            count += 1
        elif high is None or seq > high:
            high = seq
    return ReorderStats(out_of_order_count=count, gaps=gaps)


@settings(max_examples=300, deadline=None)
@given(order=st.lists(st.integers(0, 60), max_size=120)
       | st.permutations(range(40))
       # gaps far above the stream's length
       | st.lists(st.integers(-2**61, 2**61), max_size=20))
def test_reorder_stats_equal_the_loop(order):
    want = loop_reorder_stats(order)
    got = reorder_stats(np.array(order, dtype=np.int64))
    assert got == want
    assert reorder_stats(order) == want
    # the suite writes str(gaps): the same keys in the same order, as ints
    assert str(got.gaps) == str(want.gaps)
    assert type(got.out_of_order_count) is int



def unique_reorder_stats(forwarded_order) -> ReorderStats:
    """Reorder statistics by sorting the gaps (``np.unique``): the form the
    counting pass replaced, kept as an oracle."""
    order = np.asarray(forwarded_order, dtype=np.int64)
    high = np.empty_like(order)
    high[:1] = np.iinfo(np.int64).min
    np.maximum.accumulate(order[:-1], out=high[1:])
    late = order < high
    gap_values, first_at, counts = np.unique(
        high[late] - order[late], return_index=True, return_counts=True)
    by_first = np.argsort(first_at)
    gaps = dict(zip(gap_values[by_first].tolist(), counts[by_first].tolist()))
    return ReorderStats(out_of_order_count=int(np.count_nonzero(late)), gaps=gaps)


_R = random.Random(12)


@pytest.mark.parametrize("order", [
    [], [4], list(range(50)),
    # gaps up to count - 1
    [49] + list(range(49)), list(range(49, -1, -1)),
    # repeated gaps, the later ones first seen after larger ones
    [5, 3, 9, 8, 2, 7, 1, 12, 11, 10, 6],
    _R.sample(range(3000), 3000),
    # sparse gaps far above the stream's length are sorted instead
    [2**40, 3, 2**50, 0, 2**40 - 1, 7],
    # seqs spanning 2^63 - 1, the widest gap int64 holds
    [2**62 - 1, -2**62, 5],
], ids=["empty", "one", "in-order", "last-first", "reversed", "repeats",
        "shuffled", "sparse", "widest"])
def test_reorder_stats_equal_the_sorting_form(order):
    want = unique_reorder_stats(order)
    got = reorder_stats(np.array(order, dtype=np.int64))
    assert got == want
    assert list(got.gaps) == list(want.gaps)
    assert type(got.out_of_order_count) is int


@pytest.mark.parametrize("order", [
    [2**62, -2**62, 5],
    [0, np.iinfo(np.int64).min],
    [-2**62, 2**62],  # in order: no gap yet, the span alone is checked
], ids=["wrapped", "int64-min", "in-order"])
def test_reorder_stats_reject_seqs_spanning_2_63(order):
    """A gap of 2^63 or more would wrap in int64."""
    with pytest.raises(DomainError, match="2\\^63"):
        reorder_stats(np.array(order, dtype=np.int64))


def test_reorder_gaps_keep_their_first_occurrence_order():
    stats = reorder_stats([5, 3, 9, 8, 2, 7, 1, 12, 11, 10, 6])
    assert list(stats.gaps.items()) == [(2, 3), (1, 2), (7, 1), (8, 1), (6, 1)]


def test_reorder_detects_late_packet_with_gap():
    stats = reorder_stats([3, 5, 4])
    assert stats.out_of_order_count == 1
    assert stats.gaps == {1: 1}


def test_reorder_sorted_input_is_clean():
    assert reorder_stats([1, 2, 3]).out_of_order_count == 0
    rng = random.Random(9)
    for _ in range(50):
        seqs = sorted(rng.sample(range(1000), rng.randrange(0, 40)))
        assert reorder_stats(seqs).out_of_order_count == 0


def test_reorder_counts_each_late_packet():
    stats = reorder_stats([2, 1, 4, 3])
    assert stats.out_of_order_count == 2
    assert stats.gaps == {1: 2}


def test_reorder_gap_mass_equals_count():
    rng = random.Random(10)
    for _ in range(100):
        seqs = list(range(rng.randrange(1, 50)))
        rng.shuffle(seqs)
        stats = reorder_stats(seqs)
        assert stats.out_of_order_count == sum(stats.gaps.values())


def test_reorder_larger_gap():
    stats = reorder_stats([5, 1])
    assert stats.gaps == {4: 1}


# ---------------------------------------------------------------------------
# downtime


@pytest.mark.parametrize("bad,expected", [
    (0.10, 0.01), (0.02, 0.0004), (0.005, 0.000025), (0.001, 0.000001),
])
def test_downtime_combination_rows(bad, expected):
    got = downtime_combine(bad, bad)
    assert abs(got - expected) <= 1e-12 * expected


def test_downtime_zero_and_asymmetric():
    assert downtime_combine(0.0, 0.7) == 0.0
    assert downtime_combine(0.1, 0.2) == pytest.approx(0.02)


def test_downtime_rejects_out_of_range():
    with pytest.raises(DomainError):
        downtime_combine(-0.1, 0.5)
    with pytest.raises(DomainError):
        downtime_combine(0.5, 1.5)
