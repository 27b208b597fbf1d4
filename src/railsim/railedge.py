"""The receiving edge device: ``receive`` forwards the first copy of each
seq, suppresses later copies within the dedup window, pads early packets
and can hold packets to remove reordering, over the ledger of copy
arrivals that ``engine.simulate`` builds."""

from collections import Counter

import numpy as np

from .errors import ConfigurationError

LOST_NS = np.iinfo(np.int64).max  # arrival_ns of a lost copy


def receive(arrival_ns: np.ndarray, send_ns: np.ndarray, dt_ns: int,
            copy_max_ns: int, lost_copies: int, padding_target_ns: int | None,
            window: int, hold_timeout_ns: int | None):
    """The receiver over one run's ledger.

    ``arrival_ns`` is the int64 (n_paths, n) copy arrival matrix (LOST_NS
    where lost), ``send_ns`` the send times ``seq * dt_ns``, ``copy_max_ns``
    the largest delivered copy delay (0 for none) and ``lost_copies`` the
    number of lost copies.  None turns padding or the hold off.  Returns
    ``(rail_delay_ns, padding_ns, forward_ns, forwarded_order, counts)``:
    per seq the first arrival's delay (-1 where nothing arrived), its
    padding and its first release (-1 where never), the seqs in release
    order and the receiver's ``Counters`` fields by name.
    """
    n = arrival_ns.shape[1]
    first_ns = arrival_ns.min(axis=0)  # LOST_NS when no copy delivered
    ever = first_ns < LOST_NS
    never = ~ever
    n_ever = int(np.count_nonzero(ever))
    rail_delay_ns = first_ns - send_ns
    # a seq nothing reached holds LOST_NS - send_ns here, above any delay
    # the clock allows, so the plain minimum (a SIMD loop, where a where=
    # reduction has none) is the least rail delay once any seq arrived
    r_min = int(rail_delay_ns.min()) if n_ever else copy_max_ns
    rail_delay_ns[never] = -1
    r_max = int(rail_delay_ns.max())

    # padding (applies to first forwards; duplicates pass through as-is)
    if padding_target_ns is not None:
        padding_ns = np.where(ever, np.maximum(padding_target_ns - rail_delay_ns, 0), 0)
        padded = int(np.count_nonzero(padding_ns))
        padding_total = _exact_sum(padding_ns, padding_target_ns)
    else:
        padding_ns = np.zeros(n, dtype=np.int64)
        padded = padding_total = 0

    release_ns = first_ns  # padding_ns is 0 where nothing arrived
    if padded:
        release_ns += padding_ns
    release_ns[never] = -1

    # Duplicate suppression.  Before the first eviction only first
    # arrivals are forwarded, and a later copy of seq s is a window miss
    # once `window` of them came after s's first, all at times in
    # [first_s, last_s].  With r the rail delays and c the copy delays,
    # such a seq q has (q - s) * dt_ns in [r_s - r_q, c - r_q], inside
    # [r_min - r_max, c_max - r_min]: an interval of `span` ns that holds
    # at most span // dt_ns seqs other than s, ties at either end
    # included.  (The fastest copy of all is its seq's first, so r_min is
    # also the least copy delay.)  Below the window no eviction is
    # possible, and only the first copies are forwarded.
    #
    # Release order: first forwards plus window-miss duplicates, by time
    # then seq; the reorder hold reschedules that stream when enabled.
    # The dedup pass lists its forwards in (time, seq) order unless
    # padding moved some.  The first forwards alone come in ascending
    # seq, so when their times never decrease that is already the order.
    # Unpadded, seq s goes out at s * dt_ns + r_s, and rail delays
    # spanning less than dt_ns cannot undo a lead of dt_ns: the times
    # strictly increase, unchecked.
    duplicates = arrival_ns.size - lost_copies - n_ever
    span = copy_max_ns + r_max - 2 * r_min
    if duplicates > 0 and window < n and span // dt_ns >= window:
        t, seqs = _dedup_pass(arrival_ns, rail_delay_ns, dt_ns, window,
                              padding_ns if padded else None)
        unsorted = padded
    else:
        seqs = np.nonzero(ever)[0]
        in_order = not padded and r_max - r_min < dt_ns
        t = release_ns[seqs] if hold_timeout_ns is not None or not in_order else None
        unsorted = not in_order and np.any(t[1:] < t[:-1])
    if unsorted:
        order = np.lexsort((seqs, t))
        t, seqs = t[order], seqs[order]
    misses = len(seqs) - n_ever

    hold_events = Counter()
    if hold_timeout_ns is not None:
        released = reorder_hold_schedule(np.column_stack((t, seqs)), hold_timeout_ns,
                                         window=window, events=hold_events)
        t, seqs = released[:, 0], released[:, 1]

    if misses or hold_timeout_ns is not None:
        forward_ns = np.full(n, LOST_NS, dtype=np.int64)
        np.minimum.at(forward_ns, seqs, t)
        forward_ns[forward_ns == LOST_NS] = -1
    else:
        forward_ns = release_ns  # each seq released once, at release_ns

    counts = dict(forwarded=len(seqs), suppressed=duplicates - misses,
                  window_miss_duplicates=misses, hold_timeouts=hold_events["timeout"],
                  hold_give_ups=hold_events["give_up"], padded=padded,
                  padding_ns=padding_total)
    return rail_delay_ns, padding_ns, forward_ns, seqs, counts


def _exact_sum(a: np.ndarray, most: int) -> int:
    """Sum of an int64 array whose elements lie in [0, most], as a Python
    int: numpy's where its int64 sum cannot wrap, else Python's (a long run
    of paddings near the clock limit)."""
    if most * len(a) <= np.iinfo(np.int64).max:
        return int(a.sum())
    return sum(a.tolist())


def _dedup_pass(arrival_ns: np.ndarray, rail_delay_ns: np.ndarray, dt_ns: int,
                window: int, padding_ns: np.ndarray | None):
    """The sequential window pass over the delivered copies in (time, seq,
    path) order, and the release order of what it forwards.

    arrival_ns is (n_paths, count) with LOST_NS marking lost copies,
    rail_delay_ns the first arrival's delay (-1 when none arrived) and
    padding_ns each seq's padding, or None when no packet is padded.
    Returns the forwarded copies, each seq's first plus the window-miss
    duplicates, as release times and seqs in copy order.  Without padding
    a copy is released on arrival, so that is the release order, (time,
    seq); padding moves first copies later.
    """
    # the transpose lists the copies by seq, then path, so a stable sort
    # by time orders them by time, then seq, then path
    copies = arrival_ns.T.ravel()
    at = np.flatnonzero(copies < LOST_NS)
    t, s_idx = copies[at], at // arrival_ns.shape[0]
    del copies, at
    order = _stable_order(t)
    t, s_idx = t[order], s_idx[order]
    del order
    # a seq's first copy arrives at its first arrival time, and a second
    # copy of the seq at that time comes right after it
    forwarded = t == rail_delay_ns[s_idx] + s_idx * dt_ns
    tied = np.flatnonzero(t[1:] == t[:-1]) + 1
    forwarded[tied[s_idx[tied] == s_idx[tied - 1]]] = False
    if padding_ns is not None:
        t[forwarded] += padding_ns[s_idx[forwarded]]
    # A copy at most `window` copies after its seq's first has at most
    # window - 1 forwards between them, so it is suppressed whatever they
    # are, and a suppressed copy changes nothing: the loop walks the rest.
    firsts = np.flatnonzero(forwarded)
    decided_until = np.empty(arrival_ns.shape[1], dtype=np.int64)
    decided_until[s_idx[firsts]] = firsts + window
    kept = np.flatnonzero(forwarded | (np.arange(len(t)) > decided_until[s_idx]))
    del firsts, decided_until
    forwarded[kept[window_miss_duplicates(s_idx[kept], arrival_ns.shape[1], window)]] = True
    at = np.flatnonzero(forwarded)
    return t[at], s_idx[at]


def _stable_order(t: np.ndarray) -> np.ndarray:
    """``np.argsort(t, kind="stable")`` for int64 ``t``.

    Each time is packed with its index into one int64 key, ``(t - t.min())
    << bits | index`` with ``bits`` the bit length of ``len(t) - 1``; the
    keys are distinct, so sorting them by value (numpy's default sort, SIMD
    where the CPU has it) gives the stable order on every CPU.  Times
    spanning ``2**(63 - bits)`` or more do not fit and take the stable
    sort, as does an array of fewer than two."""
    n = len(t)
    if n < 2:
        return np.argsort(t, kind="stable")
    bits = (n - 1).bit_length()
    low = int(t.min())
    if int(t.max()) - low >= 1 << (63 - bits):
        return np.argsort(t, kind="stable")
    keys = t - low
    keys <<= bits
    keys |= np.arange(n, dtype=np.int64)
    keys.sort()
    keys &= (1 << bits) - 1
    return keys


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
    for i, s in enumerate(memoryview(seqs)):
        if f > remembered_until[s]:
            if remembered_until[s] >= 0:
                misses.append(i)
            remembered_until[s] = f + window
            f += 1
    return np.array(misses, dtype=np.int64)


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
