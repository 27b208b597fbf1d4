"""Edge-device datapath at the receiver: duplicate suppression and
release-time policies (delay padding, optional reorder removal)."""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

DEFAULT_DEDUP_WINDOW = 4096


def window_miss_duplicates(seqs: np.ndarray, count: int, window: int) -> np.ndarray:
    """Sliding-window duplicate suppression over delivered copies.

    ``seqs`` holds the seq of every delivered copy in arrival order, each
    below ``count``.  The filter remembers the last ``window`` forwarded
    seqs: the first copy of a seq is forwarded, a later copy is suppressed
    while its seq is remembered and forwarded again (a window-miss
    duplicate) once it was evicted.  The remembered forwards are distinct,
    so with ``f`` forwards made so far a copy whose seq was last forwarded
    as forward number ``k`` is suppressed exactly when ``f <= k + window``.
    Returns the positions in ``seqs`` of the window-miss duplicates.
    """
    if window < 1:
        raise ConfigurationError(f"dedup window must be >= 1, got {window}")
    # forward count up to which each seq stays in the window; -1 = never
    # forwarded (every real bound is >= window >= 1)
    remembered_until = [-1] * count
    f = 0
    misses: list[int] = []
    for i, s in enumerate(seqs.tolist()):
        if f > remembered_until[s]:
            if remembered_until[s] >= 0:
                misses.append(i)
            remembered_until[s] = f + window
            f += 1
    return np.array(misses, dtype=np.int64)


@dataclass
class PaddingConfig:
    """Delay padding: hold early copies so the one-way delay presented to
    the LAN is a roughly constant ``target_one_way`` (never drops)."""

    enabled: bool = False
    target_one_way: float = 0.0  # ms; also the reorder-removal hold timeout


def reorder_hold_schedule(ready: np.ndarray, timeout_ns: int,
                          window: int) -> np.ndarray:
    """Reorder-removal release schedule.

    ``ready`` is the int64 (n, 2) array of (time_ns, seq) rows of packets
    as they become forwardable, sorted by time (ties by seq).  A packet is
    held until every smaller seq has been released or declared lost, where
    a missing seq is declared lost once some held packet above it has
    waited ``timeout_ns``.  At most ``window`` packets are held: one more
    gives up the oldest gap.  Nothing is ever dropped: a copy arriving
    after its gap timed out is released immediately (late, possibly out
    of order).  Returns the int64 (m, 2) array of (release_ns, seq) events
    in emission order.
    """
    ready = np.asarray(ready, dtype=np.int64).reshape(-1, 2)
    out_t: list[int] = []
    out_s: list[int] = []
    buffered: set[int] = set()
    # the buffered seqs as a min-heap; released seqs never come back
    # because next_expected only grows
    held: list[int] = []
    # ready is time-ordered and the timeout constant, so deadlines come
    # due in the order they are pushed
    deadlines: deque[tuple[int, int]] = deque()
    next_expected = 0

    def release_through(top: int, t: int) -> None:
        """Release every buffered seq <= top in seq order at time t, then
        the consecutive run above it."""
        nonlocal next_expected
        while held and held[0] <= top:
            m = heapq.heappop(held)
            buffered.remove(m)
            out_t.append(t)
            out_s.append(m)
        next_expected = top + 1
        while next_expected in buffered:
            heapq.heappop(held)
            buffered.remove(next_expected)
            out_t.append(t)
            out_s.append(next_expected)
            next_expected += 1

    for t, s in zip(ready[:, 0].tolist(), ready[:, 1].tolist()):
        while deadlines and deadlines[0][0] < t:
            dl, d = deadlines.popleft()
            if d in buffered:
                release_through(d, dl)
        if s < next_expected or s in buffered:
            # duplicate, or straggler whose gap already timed out
            out_t.append(t)
            out_s.append(s)
        elif s == next_expected:
            out_t.append(t)
            out_s.append(s)
            release_through(s, t)
        else:
            buffered.add(s)
            heapq.heappush(held, s)
            deadlines.append((t + timeout_ns, s))
            if len(buffered) > window:
                # memory bound: give up on the oldest gap
                release_through(held[0], t)
    for dl, d in deadlines:
        if d in buffered:
            release_through(d, dl)
    return np.array([out_t, out_s], dtype=np.int64).T
