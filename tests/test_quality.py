"""Loss combination, E-model MOS, playout curves and the TCP model."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from railsim import suite
from railsim.engine import Scenario, TrafficSpec, simulate
from railsim.errors import DomainError
from railsim.pathsim import DelayModel, PathSpec
from railsim.quality import (DELAY_KNEE, DELAY_SLOPE_HIGH, DELAY_SLOPE_LOW, R_BASE,
                             MosPoint, TcpPathSet, _rating, effective_loss, mos,
                             mos_curve, optimal_playout, path_mos_curve,
                             rail_loss_independent, rail_loss_shared,
                             rail_mos_curve, tcp_throughput_rail,
                             tcp_throughput_single)


# ---------------------------------------------------------------------------
# loss combination


def test_independent_loss_multiplies():
    assert rail_loss_independent([0.1, 0.1]) == pytest.approx(0.01)
    assert rail_loss_independent([0.37]) == 0.37


def test_independent_loss_decreasing_returns():
    one = rail_loss_independent([0.1])
    two = rail_loss_independent([0.1, 0.1])
    three = rail_loss_independent([0.1, 0.1, 0.1])
    assert three == pytest.approx(0.001)
    assert one - two == pytest.approx(0.09)
    assert two - three == pytest.approx(0.009)


def test_independent_loss_symmetric_and_bounded():
    assert rail_loss_independent([0.3, 0.05]) == rail_loss_independent([0.05, 0.3])
    assert rail_loss_independent([0.3, 0.05]) <= 0.05
    # raising any path's own loss raises the combination
    assert rail_loss_independent([0.3, 0.05]) > rail_loss_independent([0.2, 0.05])


def test_independent_loss_strictly_drops_per_added_path():
    rng = np.random.default_rng(17)
    for _ in range(100):
        rates = list(rng.uniform(0.01, 0.9, size=rng.integers(1, 5)))
        extra = float(rng.uniform(0.01, 0.99))
        assert rail_loss_independent(rates + [extra]) < rail_loss_independent(rates)


def test_independent_loss_errors():
    with pytest.raises(DomainError):
        rail_loss_independent([])
    with pytest.raises(DomainError):
        rail_loss_independent([0.5, 1.2])


def test_shared_loss_reduces_to_independent():
    assert rail_loss_shared(0.0, [0.1, 0.1]) == pytest.approx(0.01)


def test_shared_loss_dominates_perfect_paths():
    assert rail_loss_shared(0.37, [0.0, 0.0]) == pytest.approx(0.37)


def test_shared_loss_combination():
    assert rail_loss_shared(0.01, [0.1, 0.1]) == pytest.approx(1 - 0.99 * 0.99)


def test_shared_loss_errors():
    with pytest.raises(DomainError):
        rail_loss_shared(1.5, [0.1])


# ---------------------------------------------------------------------------
# effective loss


def test_effective_loss_all_on_time_is_zero():
    assert effective_loss(0.0, [10.0, 20.0, 30.0], deadline=50.0) == 0.0


def test_effective_loss_counts_late_arrivals():
    assert effective_loss(0.0, [100.0, 200.0, 300.0], 150.0) == pytest.approx(2 / 3)


def test_effective_loss_total_network_loss():
    assert effective_loss(1.0, [], 100.0) == 1.0
    assert effective_loss(1.0, [50.0], 100.0) == 1.0


def test_effective_loss_combines_both_terms():
    # half lost in the network, half of the rest late
    assert effective_loss(0.5, [10.0, 999.0], 100.0) == pytest.approx(0.75)


def test_effective_loss_accepts_outcomes_and_none():
    samples = [10.0, math.nan, None, 500.0]
    assert effective_loss(0.0, samples, 100.0) == pytest.approx(0.5)


def test_effective_loss_empty_with_partial_loss_is_error():
    with pytest.raises(DomainError):
        effective_loss(0.5, [], 100.0)
    with pytest.raises(DomainError):
        effective_loss(0.0, [10.0], -1.0)
    with pytest.raises(DomainError):
        effective_loss(0.0, [10.0], math.nan)


def test_array_samples_filter_like_the_list_with_none():
    values = [10.0, math.nan, 500.0, 120.0, math.nan, 80.0]
    with_none = [None if math.isnan(v) else v for v in values]
    arr = np.array(values)
    for deadline in (0.0, 100.0, 200.0, 1000.0):
        assert (effective_loss(0.1, arr, deadline)
                == effective_loss(0.1, with_none, deadline))
    assert (mos_curve(10, arr, [50.0, 150.0], 40.0)
            == mos_curve(10, with_none, [50.0, 150.0], 40.0))


# ---------------------------------------------------------------------------
# E-model


def test_mos_perfect_operating_point():
    score = mos(0.0, 0.0)
    assert score.r_factor == pytest.approx(93.2)
    assert score.mos == pytest.approx(4.409285824, abs=1e-6)


def test_mos_total_loss_floors_at_one():
    score = mos(1.0, 0.0)
    assert score.r_factor == pytest.approx(93.2 - 9500.0 / 104.3, abs=1e-9)
    assert score.mos == 1.0


def test_mos_monotone_in_delay_and_loss():
    for loss in (0.0, 0.02, 0.1):
        values = [mos(loss, d).mos for d in range(0, 500, 10)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    for delay in (0.0, 150.0, 300.0):
        values = [mos(l / 100, delay).mos for l in range(0, 101)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_mos_bounds_and_caps():
    # both impairments are >= 0, so R peaks at R_BASE with no upper clamp
    # and the cubic keeps MOS below 4.5 there
    best = mos(0.0, 0.0)
    assert best.r_factor == R_BASE == 93.2
    assert best.mos < 4.5
    assert mos(0.0, 10_000.0).mos == 1.0
    assert mos(0.0, 10_000.0).r_factor == 0.0
    for loss in (0.0, 0.5, 1.0):
        s = mos(loss, 123.0)
        assert 0.0 <= s.r_factor <= R_BASE
        assert 1.0 <= s.mos <= best.mos


def test_mos_delay_knee_increases_slope():
    below = mos(0.0, 170.0).r_factor - mos(0.0, 160.0).r_factor
    above = mos(0.0, 260.0).r_factor - mos(0.0, 250.0).r_factor
    assert below == pytest.approx(-10 * DELAY_SLOPE_LOW)
    assert above == pytest.approx(-10 * (DELAY_SLOPE_LOW + DELAY_SLOPE_HIGH))


def test_mos_rejects_bad_inputs():
    with pytest.raises(DomainError):
        mos(-0.1, 10.0)
    with pytest.raises(DomainError):
        mos(0.1, -10.0)


def test_mos_rejects_nan_delay_and_loss():
    # a NaN delay used to fall through every comparison and score MOS 1.0
    with pytest.raises(DomainError, match="one_way_delay"):
        mos(0.0, math.nan)
    with pytest.raises(DomainError, match="loss"):
        mos(math.nan, 10.0)


# ---------------------------------------------------------------------------
# playout curves


def test_curve_optimum_sits_at_smallest_deadline_covering_the_delay():
    deadlines = list(range(50, 401, 10))
    points = mos_curve(100, [80.0] * 100, deadlines, end_system_delay=0.0)
    by_deadline = {p.deadline: p for p in points}
    assert by_deadline[70].effective_loss == 1.0
    assert by_deadline[80].effective_loss == 0.0
    assert optimal_playout(points) == 80.0


def test_curve_identical_streams_identical_scores():
    deadlines = range(50, 201, 50)
    a = mos_curve(50, [60.0] * 45, deadlines, 40.0)
    b = mos_curve(50, [60.0] * 45, deadlines, 40.0)
    assert a == b


def test_optimal_playout_breaks_ties_low():
    points = mos_curve(10, [30.0] * 10, [100, 200, 300], 0.0)
    scores = [p.score.mos for p in points]
    assert scores[0] == scores[1] == scores[2]
    assert optimal_playout(points) == 100.0


def test_replication_curve_dominates_single_path():
    sim = simulate(Scenario(
        paths=[PathSpec("a", delay=DelayModel("paretonormal", mean=90.0, stddev=35.0)),
               PathSpec("b", delay=DelayModel("paretonormal", mean=90.0, stddev=35.0))],
        traffic=TrafficSpec(count=2000), seed=404,
    ))
    deadlines = list(range(50, 401, 10))
    rail = rail_mos_curve(sim, deadlines, end_system_delay=40.0)
    singles = [path_mos_curve(sim, i, deadlines, 40.0) for i in (0, 1)]
    for i in range(len(deadlines)):
        best_single = max(singles[0][i].score.mos, singles[1][i].score.mos)
        assert rail[i].score.mos >= best_single - 1e-9


def _mos_curve_per_deadline(n_sent, delivered_delays_ms, deadlines,
                            end_system_delay):
    """Oracle: mos_curve with one ``effective_loss`` call and one on-time
    filter per deadline."""
    deadlines = list(deadlines)
    if not deadlines:
        raise DomainError("deadline range is empty")
    checks = [("end_system_delay", end_system_delay)]
    for d in deadlines:
        checks += [("deadline", d),
                   ("end_system_delay + deadline", end_system_delay + d)]
    for name, value in checks:
        if not 0 <= value < math.inf:
            raise DomainError(f"{name} must be finite and >= 0, got {value}")
    delivered = np.asarray(delivered_delays_ms, dtype=np.float64)
    delivered = delivered[~np.isnan(delivered)]
    if n_sent < 1:
        raise DomainError("n_sent must be >= 1")
    network_loss = 1.0 - delivered.size / n_sent
    points = []
    for d in deadlines:
        eff = (1.0 if delivered.size == 0
               else effective_loss(network_loss, delivered, d))
        on_time = delivered[delivered <= d] if delivered.size else delivered
        if on_time.size:
            rep = end_system_delay + float(np.mean(np.minimum(on_time, d)))
        else:
            rep = end_system_delay + d
        points.append(MosPoint(
            deadline=float(d),
            one_way=end_system_delay + float(d),
            effective_loss=min(1.0, eff),
            representative_delay=rep,
            score=mos(min(1.0, eff), rep),
        ))
    return points


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return ("DomainError", str(exc))


# deadlines and delays share a grid so ties at a deadline are common
GRID = [0.0, 10.0, 50.0, 80.0, 150.0, 400.0]


@settings(max_examples=300, deadline=None)
@given(
    n_sent=st.integers(-1, 40),
    delays=st.lists(st.none() | st.just(math.nan) | st.sampled_from(GRID)
                    | st.floats(-20.0, 1e4) | st.just(math.inf), max_size=40),
    deadlines=st.lists(st.sampled_from(GRID) | st.integers(-5, 500)
                       | st.floats(-5.0, 1e4) | st.just(math.nan)
                       | st.just(math.inf), max_size=8),
    end_system_delay=st.sampled_from([0.0, 40.0]) | st.floats(-1.0, 500.0),
)
# a negative mean on-time delay: mos() rejects the point, and so must the curve
@example(n_sent=1, delays=[-1.0], deadlines=[0.0], end_system_delay=0.0)
def test_mos_curve_equals_per_deadline_loop(n_sent, delays, deadlines,
                                            end_system_delay):
    # Equal points, or the same DomainError.  The oracle's np.minimum(on_time,
    # d) is a no-op except on signed zeros, which == treats as equal.
    want = _outcome(_mos_curve_per_deadline, n_sent, delays, deadlines,
                    end_system_delay)
    got = _outcome(mos_curve, n_sent, delays, deadlines, end_system_delay)
    assert got == want


@st.composite
def on_time_cases(draw):
    """Delivered delays in arrival order, tied on a coarse grid or spread
    wide, short or long enough for several pairwise-sum blocks; deadlines
    at delivered delays (ties at the thresholds), at 0 and half the least
    delay (below it), at the largest (every packet on time) and above."""
    n = draw(st.integers(1, 20) | st.integers(100, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        delivered = rng.choice(GRID[1:], size=n)
    else:
        delivered = rng.uniform(1.0, 1e4, size=n)
    lo, hi = float(delivered.min()), float(delivered.max())
    deadlines = [*rng.choice(delivered, size=5).tolist(), 0.0, lo / 2, hi, 2 * hi,
                 *rng.uniform(0.0, 1.2 * hi, size=3).tolist()]
    return delivered, rng.permutation(deadlines).tolist()


@settings(max_examples=200, deadline=None)
@given(case=on_time_cases(), end=st.sampled_from([0.0, 40.0]) | st.floats(0.0, 500.0))
def test_on_time_means_equal_a_filter_of_the_whole_stream(case, end):
    """Each representative delay is, bit for bit, the add.reduce of the
    on-time packets filtered from the whole stream in arrival order, over
    their count k (the whole budget when nothing is on time)."""
    delivered, deadlines = case
    points = mos_curve(len(delivered) + 3, delivered, deadlines, end)
    ranked = np.sort(delivered)
    ks = set()
    for d, p in zip(deadlines, points):
        k = int(np.searchsorted(ranked, d, "right"))
        ks.add(k)
        want = (end + float(np.add.reduce(delivered[delivered <= ranked[k - 1]])) / k
                if k else end + d)
        assert p.representative_delay.hex() == want.hex()
    assert {0, len(delivered)} <= ks


@settings(max_examples=200, deadline=None)
@given(case=on_time_cases(), lost=st.sampled_from([0, 1]) | st.integers(0, 2000),
       nan_at=st.lists(st.integers(0, 700), max_size=5))
def test_curve_loss_is_the_effective_loss(case, lost, nan_at):
    """``effective_loss`` is the oracle of every curve point's loss, bit
    for bit: network loss from the delivered share, plus the late share,
    capped at 1.  Lost packets appear as NaN among the delays or only in
    ``n_sent``."""
    delivered, deadlines = case
    at = np.minimum(np.array(nan_at, dtype=np.int64), len(delivered))
    delays = np.insert(delivered, at, math.nan)
    n_sent = len(delivered) + len(nan_at) + lost
    points = mos_curve(n_sent, delays, deadlines, 40.0)
    network_loss = 1.0 - len(delivered) / n_sent
    for d, p in zip(deadlines, points):
        want = min(1.0, effective_loss(network_loss, delays, d))
        assert p.effective_loss.hex() == want.hex()


def test_mos_curve_scores_points_as_mos_does():
    # one curve through the knee, the R floor, and the MOS floor with R > 0
    points = mos_curve(2, [DELAY_KNEE, 5000.0], [0.0, 200.0, 6000.0], 0.0)
    for p in points:
        assert p.score == mos(p.effective_loss, p.representative_delay)
    mos_floor, knee, r_floor = points
    assert mos_floor.score.mos == 1.0 and mos_floor.score.r_factor > 0.0
    assert knee.representative_delay == DELAY_KNEE
    assert r_floor.score.r_factor == 0.0


def test_emodel_gate_scores_its_grid_as_mos_does(monkeypatch):
    # the gate scores arrays with _rating; each entry is mos()'s, bit for bit
    losses = [k / 100.0 for k in range(0, 101, 2)]
    delays = [float(d) for d in range(0, 501, 10)]
    r, score = _rating(np.array(losses), np.array(delays)[:, None])
    want = [[mos(l, d) for l in losses] for d in delays]
    assert r.tobytes() == np.array([[q.r_factor for q in row] for row in want]).tobytes()
    assert score.tobytes() == np.array([[q.mos for q in row] for row in want]).tobytes()
    assert suite.emodel_monotonicity_gate() == suite.Gate(
        "emodel-monotonicity", True, "MOS nonincreasing in loss and delay")
    # a model that rose would be named by the first delay or loss it rose at
    monkeypatch.setattr(suite, "_rating", lambda loss, d: (None, d + 0 * loss))
    assert suite.emodel_monotonicity_gate().detail == "MOS rose with delay at loss 0.0"
    monkeypatch.setattr(suite, "_rating",
                        lambda loss, d: (None, np.where(d >= 30.0, loss, 0 * d)))
    assert suite.emodel_monotonicity_gate().detail == "MOS rose with loss at delay 30.0"


def test_mos_contour_gate_reads_both_axes():
    rows = suite.mos_contour()
    d = len(suite.MOS_CONTOUR_DELAYS)  # rows run over delay within each loss
    assert len(rows) == len(suite.MOS_CONTOUR_LOSSES) * d
    assert suite.mos_contour_gate(rows) == suite.Gate(
        "mos-contour-shape", True, "MOS falls along both axes")
    # a rise along delay at loss 0, or along loss at delay 0, fails the gate
    for row, before in ((5, 4), (3 * d, 2 * d)):
        bent = [dict(r) for r in rows]
        bent[row]["mos"] = rows[before]["mos"] + 1e-6
        assert suite.mos_contour_gate(bent) == suite.Gate(
            "mos-contour-shape", False, "MOS rose along an axis")


def test_mos_curve_all_lost_and_empty_inputs():
    for delays in ([], [None] * 5, [math.nan] * 5):
        points = mos_curve(5, delays, [50.0, 150.0], 40.0)
        assert points == _mos_curve_per_deadline(5, delays, [50.0, 150.0], 40.0)
        assert all(p.effective_loss == 1.0 for p in points)


def test_curve_empty_deadlines_is_error():
    with pytest.raises(DomainError):
        mos_curve(10, [10.0], [], 0.0)


def test_curve_rejects_nan_end_system_delay():
    # NaN used to pass the >= 0 check and fail later in mos() with a
    # message about one_way_delay
    with pytest.raises(DomainError, match="end_system_delay"):
        mos_curve(10, [10.0], [50.0], math.nan)


def test_infinite_delays_are_rejected():
    # inf used to pass the >= 0 checks: mos scored it MOS 1.0 and the
    # curve reported an infinite one-way budget or optimal deadline
    with pytest.raises(DomainError, match="one_way_delay"):
        mos(0.0, math.inf)
    with pytest.raises(DomainError, match="end_system_delay"):
        mos_curve(10, [10.0], [50.0], math.inf)
    for deadlines in ([50.0, math.inf], [math.inf], [-math.inf]):
        with pytest.raises(DomainError, match="deadline"):
            mos_curve(10, [10.0], deadlines, 40.0)
    with pytest.raises(DomainError, match="deadline"):
        mos_curve(10, [], [math.inf], 40.0)  # nothing delivered
    # two finite budgets whose sum overflows
    with pytest.raises(DomainError, match="end_system_delay \\+ deadline"):
        mos_curve(10, [10.0], [1e308], 1e308)


# ---------------------------------------------------------------------------
# TCP model


def test_single_path_formula_value():
    assert tcp_throughput_single(0.01, 100.0) == pytest.approx(122.0, rel=1e-12)


def test_quadrupling_loss_halves_throughput():
    t1 = tcp_throughput_single(0.005, 80.0)
    t4 = tcp_throughput_single(0.02, 80.0)
    assert t4 == pytest.approx(t1 / 2, rel=1e-12)


def test_single_path_domain_errors():
    for p, rtt in ((0.0, 100.0), (1.0, 100.0), (0.01, 0.0), (-0.1, 10.0),
                   (0.01, math.nan), (0.01, math.inf)):
        with pytest.raises(DomainError):
            tcp_throughput_single(p, rtt)


def test_rail_symmetric_paths():
    pred = tcp_throughput_rail(TcpPathSet.of([(0.01, 100.0), (0.01, 100.0)]))
    assert pred.expected_rtt == pytest.approx(100.0, rel=1e-12)
    assert pred.throughput == pytest.approx(1220.0, rel=1e-12)


def test_rail_matches_explicit_two_path_formula():
    p1, p2, rtt1, rtt2 = 0.02, 0.005, 40.0, 90.0
    pred = tcp_throughput_rail(TcpPathSet.of([(p1, rtt1), (p2, rtt2)]))
    e_rtt = (rtt1 * (1 - p1) + rtt2 * p1 * (1 - p2)) / (1 - p1 * p2)
    expected = 1.22 / ((e_rtt / 1000.0) * math.sqrt(p1 * p2))
    assert pred.expected_rtt == pytest.approx(e_rtt, rel=1e-12)
    assert pred.throughput == pytest.approx(expected, rel=1e-12)


def test_rail_expected_rtt_between_path_rtts():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p1, p2 = rng.uniform(0.001, 0.5, size=2)
        rtt1 = rng.uniform(5.0, 200.0)
        rtt2 = rtt1 + rng.uniform(0.0, 300.0)
        pred = tcp_throughput_rail(TcpPathSet.of([(p1, rtt1), (p2, rtt2)]))
        assert rtt1 - 1e-9 <= pred.expected_rtt <= rtt2 + 1e-9


def test_rail_single_path_degenerates_to_single_formula():
    pred = tcp_throughput_rail(TcpPathSet.of([(0.03, 55.0)]))
    assert pred.expected_rtt == pytest.approx(55.0, rel=1e-12)
    assert pred.throughput == pytest.approx(tcp_throughput_single(0.03, 55.0),
                                            rel=1e-12)


def test_rail_speedup_matches_ratio_formula():
    # equal loss on both paths: T/T1 = (1/sqrt(p)) * (1+p) / (1 + p*rtt2/rtt1)
    for p in (1e-4, 1e-3, 0.01, 0.05):
        for ratio in (1.0, 2.0, 5.0, 10.0):
            rtt1 = 10.0
            pred = tcp_throughput_rail(TcpPathSet.of([(p, rtt1), (p, rtt1 * ratio)]))
            got = pred.throughput / tcp_throughput_single(p, rtt1)
            expected = (1 / math.sqrt(p)) * (1 + p) / (1 + p * ratio)
            assert got == pytest.approx(expected, rel=1e-12)


def test_rail_spot_value():
    pred = tcp_throughput_rail(TcpPathSet.of([(0.01, 10.0), (0.01, 100.0)]))
    speedup = pred.throughput / tcp_throughput_single(0.01, 10.0)
    assert speedup == pytest.approx(101.0 / 11.0, abs=1e-6)


def _beats_every_path(paths: TcpPathSet) -> bool:
    """Fact 1: the replicated throughput is above each single path's."""
    t = tcp_throughput_rail(paths).throughput
    return all(t > tcp_throughput_single(p.loss_rate, p.rtt) for p in paths.paths)


def test_fact1_check_examples():
    assert _beats_every_path(TcpPathSet.of([(0.01, 10.0), (0.01, 100.0)]))
    assert _beats_every_path(TcpPathSet.of([(0.04, 70.0), (0.04, 70.0)]))


def test_fact1_holds_across_grid():
    for p in np.logspace(-4, -1, 20):
        for ratio in np.linspace(1.0, 10.0, 10):
            pair = TcpPathSet.of([(float(p), 10.0), (float(p), 10.0 * ratio)])
            assert _beats_every_path(pair)


def test_tcp_grids_are_the_numpy_grids_to_one_ulp():
    # the suite spells its grids as literals so that numpy's SIMD dispatch
    # cannot move a point; each must still be the grid it stands for
    grids = [
        (suite.TCP_SURFACE_P, np.logspace(-4, -1, 20)),
        (suite.TCP_SURFACE_RATIOS, np.linspace(1.0, 10.0, 10)),
        (suite.TCP_PRACTICAL_P,
         np.logspace(math.log10(0.01), math.log10(0.03), 10)),
    ]
    for literal, computed in grids:
        assert len(literal) == len(computed)
        for a, b in zip(literal, computed.tolist()):
            assert type(a) is float and abs(a - b) <= math.ulp(b)


def test_pathset_validation():
    with pytest.raises(DomainError):
        TcpPathSet.of([])
    with pytest.raises(DomainError):
        TcpPathSet.of([(0.0, 10.0)])
    with pytest.raises(DomainError):
        TcpPathSet.of([(0.5, -1.0)])
    for rtt in (math.nan, math.inf):
        with pytest.raises(DomainError, match="rtt"):
            TcpPathSet.of([(0.01, 10.0), (0.1, rtt)])
    from railsim.quality import TcpPath
    with pytest.raises(DomainError):
        TcpPathSet((TcpPath(0.1, 100.0), TcpPath(0.1, 10.0)))  # unsorted
    # .of() sorts by RTT
    ps = TcpPathSet.of([(0.1, 100.0), (0.2, 10.0)])
    assert [p.rtt for p in ps.paths] == [10.0, 100.0]

