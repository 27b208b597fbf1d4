"""Edge-device datapath at the receiver: duplicate suppression and the
optional reorder-removal hold.  Delay padding is only configured here
(``PaddingConfig``); ``engine.simulate`` applies it."""

from __future__ import annotations

from collections import Counter
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


def _early_count(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """For each seq s, how many seqs <= s are among the first ``p[s] + 1``
    first arrivals.  ``x`` lists the seqs in first-arrival order and ``p``
    (one probe per seq) is nondecreasing, so seq ``x[q]`` counts for every
    s at or above both ``x[q]`` and the first s whose probe reaches ``q``."""
    reached = np.cumsum(np.bincount(p, minlength=len(x)))  # [q]: probes <= q
    start = x.copy()
    np.maximum(start[1:], reached[:len(x) - 1], out=start[1:])
    return np.cumsum(np.bincount(start, minlength=len(p) + 1)[:len(p)])


def _frontier_passes(x: np.ndarray, a: np.ndarray, a_first: np.ndarray,
                     deadline_rank: np.ndarray, window: int) -> np.ndarray:
    """P(s), the event at which the hold's frontier passes seq s.

    ``x`` lists the seqs in first-arrival order, ``a_first`` the event
    rank of each first arrival (then one past the last event, for none),
    ``a`` the same rank by seq and ``deadline_rank`` that of each first
    arrival's deadline.
    """
    never = a_first[-1]
    m, M = len(x), len(a)
    # any window >= m gives lo == hi == m below; the clamp keeps a window
    # past the int64 range out of numpy
    window = min(window, m)
    S = np.full(M, never, dtype=np.int64)
    S[x] = deadline_rank
    T = np.minimum(a, np.minimum.accumulate(S[::-1])[::-1])

    # G by its position in first-arrival order, the smallest q at which
    # q - (seqs <= s among the first q + 1 arrivals) >= window, or m for
    # none.  Each probe round evaluates one nondecreasing probe for every
    # s; a probe bounds the answer from both sides, and the answers are
    # nondecreasing in s, so the bounds propagate.  Two probes just below
    # the upper bound settle most seqs, then bisection.  Stop once every
    # open seq's lower bound lies at or past min(a, S).
    lo = np.full(M, window, dtype=np.int64)
    hi = np.minimum(np.cumsum(a < never) + window, m)
    rounds = 0
    while True:
        open_ = np.flatnonzero(lo < hi)
        if not np.any(a_first[lo[open_]] < T[open_]):
            break
        p = np.maximum(hi - 1, lo) if rounds < 2 else (lo + hi) >> 1
        rounds += 1
        need = _early_count(x, p) + window
        passed = p >= need
        bound = np.clip(need, lo, hi)
        hi = np.where(passed, bound, hi)
        lo = np.where(passed, lo, bound)
        np.maximum.accumulate(lo, out=lo)
        hi = np.minimum.accumulate(hi[::-1])[::-1]
    return np.maximum.accumulate(np.minimum(T, a_first[lo]))


def reorder_hold_schedule(ready: np.ndarray, timeout_ns: int, window: int,
                          events: Counter | None = None) -> np.ndarray:
    """Reorder-removal release schedule.

    ``ready`` is the int64 (n, 2) array of (time_ns, seq) rows of packets
    as they become forwardable, sorted by time (ties by seq), with seqs
    >= 0.  A packet is held until every smaller seq has been released or
    declared lost, where a missing seq is declared lost once some held
    packet above it has waited ``timeout_ns`` (>= 0).  At most ``window``
    (>= 1) packets are held: one more gives up the oldest gap.  Nothing
    is ever dropped: a copy arriving after its gap timed out is released
    immediately (late, possibly out of order).  Returns the int64 (n, 2)
    array of (release_ns, seq) events in emission order.  ``events``, when
    given, counts the deadlines that released something (``timeout``) and
    the arrivals of held seqs that did (``give_up``, the memory bound).

    The hold's only state is its frontier, the next expected seq, and it
    is computed in closed form.  Events are the rows and the deadlines of
    each seq's first row, ranked by time, a row before a deadline at the
    same time and deadlines in row order.  The frontier passes seq s at
    the event ``P(s) = max over j <= s of min(a(j), S(j), G(j))``: the
    rank of j's first row, the first deadline of a seq >= j, and the
    arrival of the ``window + 1``-th seq above j.  A first copy goes out
    at ``max(a(s), P(s - 1))`` and any later row at its own event; what
    one event releases goes out in seq order.
    """
    if timeout_ns < 0:
        raise ConfigurationError(f"hold timeout must be >= 0 ns, got {timeout_ns}")
    if window < 1:
        raise ConfigurationError(f"hold window must be >= 1, got {window}")
    ready = np.asarray(ready, dtype=np.int64).reshape(-1, 2)
    n = len(ready)
    if n == 0:
        return np.empty((0, 2), dtype=np.int64)
    ts, seqs = ready[:, 0], ready[:, 1]
    if seqs.min() < 0:
        raise ConfigurationError("hold seqs must be >= 0")
    if np.any(ts[1:] < ts[:-1]):
        raise ConfigurationError("hold rows must be sorted by time")
    if int(ts[-1]) + int(timeout_ns) >= 2**63:
        raise ConfigurationError("a hold deadline overflows the int64 ns clock")

    # seq domain: each run of absent seqs acts as one seq, so sparse seqs
    # are first collapsed onto slots
    ss = seqs
    if int(ss.max()) >= 2 * n:
        present, ss = np.unique(ss, return_inverse=True)
        ss = (np.arange(len(present)) + np.cumsum(np.diff(present, prepend=-1) > 1))[ss]
    M = int(ss.max()) + 1
    first_row = np.full(M, n, dtype=np.int64)
    np.minimum.at(first_row, ss, np.arange(n, dtype=np.int64))
    arrived = first_row < n
    is_first = np.zeros(n, dtype=bool)
    is_first[first_row[arrived]] = True
    firsts = np.flatnonzero(is_first)
    m = len(firsts)
    x = ss[firsts]                       # seqs in first-arrival order

    # rank the events by time; the stable sort puts a row before a deadline
    # at the same time and keeps the deadlines in row order
    times = np.concatenate([ts, ts[firsts] + timeout_ns])
    order = np.argsort(times, kind="stable")
    rank = np.empty(n + m, dtype=np.int64)
    rank[order] = np.arange(n + m, dtype=np.int64)
    row_rank, deadline_rank = rank[:n], rank[n:]
    never = n + m
    a_first = np.append(row_rank[firsts], never)  # by arrival position
    a = np.full(M, never, dtype=np.int64)
    a[x] = a_first[:m]
    P = _frontier_passes(x, a, a_first, deadline_rank, window)
    after = np.concatenate(([-1], P[:-1]))  # P(s - 1)

    # held first copies leave at P(s - 1) in seq order; every other row at
    # its own event, ahead of held seqs released by the same event
    held = np.flatnonzero(arrived & (after >= a))
    direct = np.ones(n, dtype=bool)
    direct[first_row[held]] = False
    direct = np.flatnonzero(direct)
    at = np.concatenate([row_rank[direct], after[held]])
    emit = np.argsort(at, kind="stable")
    released = np.empty((n, 2), dtype=np.int64)
    released[:, 0] = times[order[at[emit]]]
    released[:, 1] = seqs[np.concatenate([direct, first_row[held]])[emit]]
    if events is not None:
        fired = np.zeros(n + m, dtype=bool)
        fired[after[held]] = True
        events["timeout"] += int(np.count_nonzero(fired[deadline_rank]))
        events["give_up"] += int(np.count_nonzero(fired[a[held]]))
    return released
