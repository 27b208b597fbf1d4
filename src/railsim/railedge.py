"""Edge-device datapath at the receiver: duplicate suppression and
release-time policies (delay padding, optional reorder removal)."""

from __future__ import annotations

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
    as they become forwardable, sorted by time (ties by seq), with seqs
    >= 0.  A packet is held until every smaller seq has been released or
    declared lost, where a missing seq is declared lost once some held
    packet above it has waited ``timeout_ns`` (>= 0).  At most ``window``
    packets are held: one more gives up the oldest gap.  Nothing is ever
    dropped: a copy arriving after its gap timed out is released
    immediately (late, possibly out of order).  Returns the int64 (m, 2)
    array of (release_ns, seq) events in emission order.
    """
    if timeout_ns < 0:
        raise ConfigurationError(f"hold timeout must be >= 0 ns, got {timeout_ns}")
    ready = np.asarray(ready, dtype=np.int64).reshape(-1, 2)
    if len(ready) and ready[:, 1].min() < 0:
        raise ConfigurationError("hold seqs must be >= 0")
    ts = ready[:, 0].tolist()
    ss = ready[:, 1].tolist()
    out_t: list[int] = []
    out_s: list[int] = []
    # held[s] is 1 while seq s is buffered; every buffered seq is above
    # next_expected, which only grows, so each seq is buffered at most once
    # and the scans below cover each byte once.  The spare zero byte at
    # the end stops the consecutive-run scan.
    held = bytearray(max(ss, default=-1) + 2)
    n_held = 0
    next_expected = 0

    def release_through(top: int, t: int) -> None:
        """Release every buffered seq <= top in seq order at time t, then
        the consecutive run above it."""
        nonlocal next_expected, n_held
        m = held.find(1, next_expected, top + 1)
        while m >= 0:
            held[m] = 0
            n_held -= 1
            out_t.append(t)
            out_s.append(m)
            m = held.find(1, m + 1, top + 1)
        m = top + 1
        while held[m]:
            held[m] = 0
            n_held -= 1
            out_t.append(t)
            out_s.append(m)
            m += 1
        next_expected = m

    # Row due's deadline is ts[due] + timeout_ns; rows are time-ordered and
    # the timeout constant, so deadlines fall due in row order.  A row that
    # did not buffer its seq finds held[seq] clear by then: its seq was
    # already released, or an earlier row buffered it and fires first.
    due = 0
    for t, s in zip(ts, ss):
        while ts[due] + timeout_ns < t:
            if held[ss[due]]:
                release_through(ss[due], ts[due] + timeout_ns)
            due += 1
        if s < next_expected or held[s]:
            # duplicate, or straggler whose gap already timed out
            out_t.append(t)
            out_s.append(s)
        elif s == next_expected:
            out_t.append(t)
            out_s.append(s)
            release_through(s, t)
        else:
            held[s] = 1
            n_held += 1
            if n_held > window:
                # memory bound: give up on the oldest gap
                release_through(held.index(1, next_expected), t)
    for j in range(due, len(ts)):
        if held[ss[j]]:
            release_through(ss[j], ts[j] + timeout_ns)
    del ts, ss
    return np.array([out_t, out_s], dtype=np.int64).T
