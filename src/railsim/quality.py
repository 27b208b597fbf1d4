"""Application-level quality models.

Voice quality uses the additive R-factor model: a base rating is reduced
by an equipment/loss impairment and a delay impairment, then mapped to a
1..5 MOS scale, with the standard G.711 codec constants.  TCP throughput
uses the inverse-square-root loss law, extended to a replicated path set
via the product of loss rates and the expected RTT of the first
successful copy.
"""

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError

TCP_CONSTANT = 1.22  # packets-per-RTT rule-of-thumb coefficient

# E-model constants (G.711)
R_BASE = 93.2
CODEC_IE = 0.0           # equipment impairment
CODEC_BPL = 4.3          # packet-loss robustness
DELAY_KNEE = 177.3       # ms; extra slope beyond this one-way delay
DELAY_SLOPE_LOW = 0.024  # R units per ms
DELAY_SLOPE_HIGH = 0.11  # R units per ms past the knee


class QualityScore(NamedTuple):
    r_factor: float
    mos: float


# ---------------------------------------------------------------------------
# loss combination


def _check_prob(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must be in [0, 1], got {value}")


def rail_loss_independent(rates: Sequence[float]) -> float:
    """Loss of a replicated packet over independent paths: every copy must
    be lost, so the rates multiply."""
    if not rates:
        raise DomainError("need at least one loss rate")
    out = 1.0
    for r in rates:
        _check_prob(r, "loss rate")
        out *= r
    return out


def rail_loss_shared(p_shared: float, own_rates: Sequence[float]) -> float:
    """Loss when all paths cross a common segment with loss ``p_shared``.

    Delivery needs the shared segment to pass the packet and at least one
    independent segment to deliver its copy:
    loss = 1 - (1 - p_shared) * (1 - prod(own_rates)).
    """
    _check_prob(p_shared, "p_shared")
    return 1.0 - (1.0 - p_shared) * (1.0 - rail_loss_independent(own_rates))


# ---------------------------------------------------------------------------
# E-model


def _delivered(delay_samples) -> np.ndarray:
    """Delivered delays as float64: NaN and None (lost packets) dropped."""
    arr = np.asarray(delay_samples, dtype=np.float64)
    return arr[~np.isnan(arr)]


def _check_loss_args(network_loss: float, deadline: float) -> None:
    _check_prob(network_loss, "network_loss")
    if not deadline >= 0:  # also rejects NaN
        raise DomainError(f"deadline must be >= 0, got {deadline}")


def _app_loss(network_loss: float, n_late, n_delivered: int):
    """Network loss plus the share of delivered packets that arrive late
    (``n_late`` an int, or an int64 array of late counts)."""
    return network_loss + (1.0 - network_loss) * (n_late / n_delivered)


def effective_loss(network_loss: float,
                   delay_samples: Sequence[float | None] | np.ndarray,
                   deadline: float) -> float:
    """Total loss seen by the application: network loss plus delivered
    packets that miss the playout deadline."""
    _check_loss_args(network_loss, deadline)
    delivered = _delivered(delay_samples)
    if delivered.size == 0:
        if network_loss < 1.0:
            raise DomainError("no delivered samples but network_loss < 1")
        return 1.0
    return _app_loss(network_loss, np.count_nonzero(delivered > deadline),
                     delivered.size)


def _check_delay(value: float, name: str) -> None:
    if not 0 <= value < math.inf:  # also rejects NaN
        raise DomainError(f"{name} must be finite and >= 0, got {value}")


def _check_operating_point(loss: float, one_way_delay: float) -> None:
    _check_prob(loss, "loss")
    _check_delay(one_way_delay, "one_way_delay")


def _rating(loss, one_way_delay):
    """(R, MOS) of the E-model, for floats or float64 arrays alike: the
    same operations in the same order, so an array entry equals the float
    result bit for bit."""
    # the builtin on floats: numpy's scalar calls cost more than the formula
    floor = np.maximum if isinstance(one_way_delay, np.ndarray) else max
    loss_pct = 100.0 * loss
    ie_eff = CODEC_IE + (95.0 - CODEC_IE) * loss_pct / (loss_pct + CODEC_BPL)
    id_delay = DELAY_SLOPE_LOW * one_way_delay + DELAY_SLOPE_HIGH * floor(
        0.0, one_way_delay - DELAY_KNEE
    )
    r = floor(0.0, R_BASE - ie_eff - id_delay)
    raw = 1.0 + 0.035 * r + 7e-6 * r * (r - 60.0) * (100.0 - r)
    return r, floor(1.0, raw)


def mos(loss: float, one_way_delay: float) -> QualityScore:
    """R-factor and MOS for a (loss, one-way delay) operating point.

    R = R_BASE - Ie_eff(loss) - Id(delay), floored at 0, then mapped
    through the standard cubic to MOS, floored at 1.  Both impairments
    are >= 0, so R <= R_BASE = 93.2 and MOS <= 4.41.
    """
    _check_operating_point(loss, one_way_delay)
    r, score = _rating(loss, one_way_delay)
    return QualityScore(r_factor=r, mos=score)


# ---------------------------------------------------------------------------
# playout curves


class MosPoint(NamedTuple):
    deadline: float             # network-delay playout deadline (ms)
    one_way: float              # end-system + deadline budget (ms)
    effective_loss: float
    representative_delay: float  # end-system + mean on-time delay (ms)
    score: QualityScore


def mos_curve(n_sent: int, delivered_delays_ms, deadlines: Iterable[float],
              end_system_delay: float) -> list[MosPoint]:
    """MOS across a range of playout deadlines for one delivery stream.

    Loss combines network loss with late arrivals; the delay fed to the
    model is the end-system budget plus the mean delay of packets that
    were delivered on time (the population that actually plays out).
    Every point is scored as ``mos`` scores it, and the first point
    ``mos`` would reject raises its DomainError.
    """
    deadlines = list(deadlines)
    if not deadlines:
        raise DomainError("deadline range is empty")
    _check_delay(end_system_delay, "end_system_delay")
    for d in deadlines:
        _check_delay(d, "deadline")
        _check_delay(end_system_delay + d, "end_system_delay + deadline")
    delivered = _delivered(delivered_delays_ms)
    if n_sent < 1:
        raise DomainError("n_sent must be >= 1")
    network_loss = 1.0 - delivered.size / n_sent
    if delivered.size:
        _check_prob(network_loss, "network_loss")
    end_system_delay = float(end_system_delay)
    deadline = np.array(deadlines, dtype=np.float64)
    one_way = end_system_delay + deadline
    # nothing plays out: the model sees the whole budget, MOS floors on loss
    rep = one_way.copy()
    loss = np.ones(len(deadline))
    if delivered.size:
        ranked = np.sort(delivered)  # one sort serves every deadline
        n_on_time = np.searchsorted(ranked, deadline, "right")
        loss = np.minimum(1.0, _app_loss(network_loss, delivered.size - n_on_time,
                                         delivered.size))
        # The on-time set is the packets at or below the k-th smallest delay,
        # so it depends only on its count k (a count searchsorted returns,
        # so exactly k packets).  It is averaged in arrival order, not
        # sorted: the pairwise sum depends on it.  The sets nest, so each
        # is filtered from the next larger one, which keeps arrival order
        # and gives add.reduce the same array as a filter of the whole.
        # The mean is np.mean's own arithmetic (one add.reduce, one
        # division by k) without its wrapper.
        counts, which = np.unique(n_on_time, return_inverse=True)
        on_time_rep = np.full(len(counts), math.nan)  # nan where k == 0
        on_time = delivered
        for i in range(len(counts) - 1, -1, -1):
            k = int(counts[i])
            if not k:
                break
            if k < on_time.size:
                on_time = on_time[on_time <= ranked[k - 1]]
            on_time_rep[i] = end_system_delay + float(np.add.reduce(on_time)) / k
        played = n_on_time > 0
        rep[played] = on_time_rep[which[played]]
    bad = ~((0.0 <= loss) & (loss <= 1.0) & (0.0 <= rep) & (rep < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        _check_operating_point(float(loss[i]), float(rep[i]))
    r, score = _rating(loss, rep)
    return [MosPoint(deadline=d, one_way=o, effective_loss=e, representative_delay=t,
                     score=QualityScore(r_factor=rf, mos=m))
            for d, o, e, t, rf, m in zip(deadline.tolist(), one_way.tolist(),
                                         loss.tolist(), rep.tolist(), r.tolist(),
                                         score.tolist())]


def optimal_playout(points: Sequence[MosPoint]) -> float:
    """Deadline with the highest MOS; ties go to the smallest deadline."""
    if not points:
        raise DomainError("no curve points")
    best = max(points, key=lambda p: (p.score.mos, -p.deadline))
    return best.deadline


def rail_mos_curve(sim, deadlines, end_system_delay: float) -> list[MosPoint]:
    """Curve for the replicated stream as released to the LAN."""
    return mos_curve(sim.scenario.traffic.count, sim.forwarded_delays_ms(),
                     deadlines, end_system_delay)


def path_mos_curve(sim, path_index: int, deadlines,
                   end_system_delay: float) -> list[MosPoint]:
    """Curve a single path would have produced on its own, computed from
    the same per-path outcome stream as the replicated run."""
    return mos_curve(sim.scenario.traffic.count, sim.path_delays_ms(path_index),
                     deadlines, end_system_delay)


# ---------------------------------------------------------------------------
# TCP throughput


class TcpPath(NamedTuple):
    loss_rate: float
    rtt: float  # ms


@dataclass
class TcpPathSet:
    """Paths ordered by ascending RTT, each with loss in (0, 1)."""

    paths: tuple[TcpPath, ...]

    def __post_init__(self):
        if not self.paths:
            raise DomainError("need at least one path")
        for p in self.paths:
            _check_path(*p)
        rtts = [p.rtt for p in self.paths]
        if rtts != sorted(rtts):
            raise DomainError("paths must be sorted by ascending RTT")

    @classmethod
    def of(cls, pairs: Iterable[tuple[float, float]]) -> "TcpPathSet":
        """Build from (loss, rtt_ms) pairs, sorting by RTT."""
        return cls(tuple(TcpPath(loss, rtt)
                         for loss, rtt in sorted(pairs, key=lambda x: x[1])))


class TcpPrediction(NamedTuple):
    expected_rtt: float  # ms
    throughput: float    # packets / s


def _check_path(p: float, rtt: float) -> None:
    """DomainError unless loss ``p`` is in (0, 1) and ``rtt`` is finite and > 0."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"loss rate must be in (0, 1), got {p}")
    if not 0 < rtt < math.inf:  # also rejects NaN
        raise DomainError(f"rtt must be finite and > 0, got {rtt}")


def _throughput(p: float, rtt: float) -> float:
    """1.22 / (RTT * sqrt(p)) in packets/s; DomainError where floats under/overflow."""
    denom = (rtt / 1000.0) * math.sqrt(p)
    if not (0.0 < denom < math.inf and TCP_CONSTANT / denom < math.inf):
        raise DomainError(f"TCP throughput at loss {p}, rtt {rtt} ms is not finite")
    return TCP_CONSTANT / denom


def tcp_throughput_single(p: float, rtt: float) -> float:
    """Long-lived TCP throughput over one path: 1.22 / (RTT * sqrt(p))."""
    _check_path(p, rtt)
    return _throughput(p, rtt)


def tcp_throughput_rail(paths: TcpPathSet) -> TcpPrediction:
    """Replication makes TCP see a virtual path whose loss is the product
    of the per-path rates and whose RTT is the expectation over the first
    successful copy: copy i counts when all faster copies were lost and
    copy i was not.

    For n equal paths of loss p the expected RTT is the path RTT and the
    residual loss is p**n, so each added path multiplies throughput by
    p**-0.5: absolute gains T(n+1) - T(n) grow by p**-0.5 per path, while
    the time saved per packet, 1/T(n) - 1/T(n+1), shrinks by sqrt(p)."""
    ps = [p.loss_rate for p in paths.paths]
    rtts = [p.rtt for p in paths.paths]
    prod_all = math.prod(ps)
    denom = 1.0 - prod_all
    e_rtt = 0.0
    prefix = 1.0
    for rtt_i, p_i in zip(rtts, ps):
        e_rtt += rtt_i * prefix * (1.0 - p_i) / denom
        prefix *= p_i
    return TcpPrediction(expected_rtt=e_rtt, throughput=_throughput(prod_all, e_rtt))

