"""Network-level statistics: empirical delay CDFs and their two-path
composition, burst-loss statistics, reordering statistics and downtime
combination.  Pure functions over immutable inputs."""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError


class DelayCdf:
    """Empirical step-function CDF over delay samples (no smoothing)."""

    def __init__(self, samples: Iterable[float]):
        arr = np.sort(np.asarray(list(samples) if not isinstance(samples, np.ndarray)
                                 else samples, dtype=np.float64))
        if arr.size == 0:
            raise DomainError("empirical CDF needs at least one sample")
        arr.setflags(write=False)
        self._samples = arr

    @property
    def sorted_samples(self) -> np.ndarray:
        return self._samples

    @property
    def n(self) -> int:
        return int(self._samples.size)

    def __call__(self, t):
        """Fraction of samples <= t, for a number or an array of them."""
        count = np.searchsorted(self._samples, t, side="right")
        return count / self.n if np.ndim(count) else float(count) / self.n

    def quantile(self, q: float) -> float:
        """Smallest sample x with F(x) >= q (inverse CDF, no interpolation)."""
        if not 0.0 < q <= 1.0:
            raise DomainError(f"quantile level must be in (0, 1], got {q}")
        idx = min(self.n - 1, max(0, math.ceil(q * self.n) - 1))
        return float(self._samples[idx])


def empirical_cdf(delays: Iterable[float]) -> DelayCdf:
    return DelayCdf(delays)


CdfLike = Callable[[float], float]


def rail_cdf(f1: CdfLike, f2: CdfLike, t: float) -> float:
    """Delay CDF of the first-arriving copy over two paths:
    1 - (1 - F1(t)) * (1 - F2(t))."""
    return 1.0 - (1.0 - f1(t)) * (1.0 - f2(t))


class BurstStats(NamedTuple):
    """Loss burstiness; a burst is a maximal run of >= 2 consecutive losses.

    ``max_burst`` reports the longest loss run of any length, so an
    isolated loss still shows up there.
    """

    lost_in_burst: int = 0
    num_bursts: int = 0
    avg_burst: float = 0.0
    max_burst: int = 0


def burst_stats(loss_sequence: Iterable[bool]) -> BurstStats:
    lost = np.asarray(loss_sequence if isinstance(loss_sequence, np.ndarray)
                      else list(loss_sequence), dtype=bool)
    # run starts and ends are the rising and falling edges of the padded mask
    edges = np.diff(np.concatenate(([False], lost, [False])).view(np.int8))
    runs = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
    bursts = runs[runs >= 2]
    lost_in_burst = int(bursts.sum())
    num_bursts = len(bursts)
    return BurstStats(
        lost_in_burst=lost_in_burst,
        num_bursts=num_bursts,
        avg_burst=lost_in_burst / num_bursts if num_bursts else 0.0,
        max_burst=int(runs.max()) if runs.size else 0,
    )


class ReorderStats(NamedTuple):
    """Out-of-order forwards; the gap of a late packet is the distance to
    the highest seq already forwarded when it went out."""

    out_of_order_count: int
    gaps: dict[int, int]


def reorder_stats(forwarded_order: Sequence[int]) -> ReorderStats:
    """The histogram lists the gaps in the order each first occurred.
    Gaps up to a few times the stream's length are counted by value
    (``bincount``), sparser ones by sorting them.  Seqs spanning 2^63 or
    more, whose gaps int64 cannot hold, are a DomainError."""
    order = np.asarray(forwarded_order, dtype=np.int64)
    if len(order) and int(order.max()) - int(order.min()) > np.iinfo(np.int64).max:
        raise DomainError("forwarded seqs span 2^63 or more: their gaps "
                          "overflow int64")
    # highest seq forwarded before each packet (none before the first)
    high = np.empty_like(order)
    high[:1] = np.iinfo(np.int64).min
    np.maximum.accumulate(order[:-1], out=high[1:])
    late = order < high
    gap = high[late] - order[late]
    if gap.max(initial=0) <= 4 * len(order):
        counts = np.bincount(gap)
        first_at = np.full(len(counts), len(gap))
        np.minimum.at(first_at, gap, np.arange(len(gap)))
        gap_values = np.flatnonzero(counts)
        first_at, counts = first_at[gap_values], counts[gap_values]
    else:
        gap_values, first_at, counts = np.unique(gap, return_index=True,
                                                 return_counts=True)
    by_first = np.argsort(first_at)
    gaps = dict(zip(gap_values[by_first].tolist(), counts[by_first].tolist()))
    return ReorderStats(out_of_order_count=len(gap), gaps=gaps)


def downtime_combine(bad_fraction_1: float, bad_fraction_2: float) -> float:
    """Fraction of time both links are bad at once (independent failures)."""
    for v in (bad_fraction_1, bad_fraction_2):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"bad-time fraction must be in [0, 1], got {v}")
    return bad_fraction_1 * bad_fraction_2
