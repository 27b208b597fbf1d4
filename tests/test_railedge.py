"""Duplicate suppression, the receiver over a ledger and the
reorder-removal hold."""

import random

import numpy as np
import pytest

from railsim.errors import ConfigurationError
from railsim.railedge import (LOST_NS, receive, reorder_hold_schedule,
                              window_miss_duplicates)

MS = 1_000_000  # ns per ms, matching the engine clock


# ---------------------------------------------------------------------------
# duplicate suppression


def decisions(seqs, window=4096):
    """True where a copy is forwarded, False where it is suppressed."""
    seqs = np.array(seqs, dtype=np.int64)
    count = int(seqs.max()) + 1 if seqs.size else 0
    misses = set(window_miss_duplicates(seqs, count, window).tolist())
    seen = set()
    out = []
    for i, s in enumerate(seqs.tolist()):
        out.append(s not in seen or i in misses)
        seen.add(s)
    return out


def test_first_copy_forwarded_second_suppressed():
    assert decisions([1, 1]) == [True, False]


def test_interleaved_copies():
    got = decisions([3, 5, 3, 4, 5])
    assert got == [True, True, False, True, False]
    # every forwarded seq is remembered: another copy is suppressed
    assert decisions([3, 5, 3, 4, 5, 3, 4, 5])[5:] == [False, False, False]


def test_empty_state_forwards():
    assert decisions([1]) == [True]
    assert decisions([]) == []


def test_window_eviction_forwards_again():
    got = decisions([1, 2, 3, 1, 3, 1, 2, 1], window=2)
    assert got[:3] == [True, True, True]
    assert got[3]        # 1 evicted, forwarded again
    assert not got[4]    # 3 still remembered
    assert not got[5]    # 1 back in the window
    assert got[6]        # 2 evicted by 1
    assert not got[7]    # 1 still remembered


def test_window_must_be_positive():
    with pytest.raises(ConfigurationError):
        window_miss_duplicates(np.array([0], dtype=np.int64), 1, window=0)


def test_random_interleavings_forward_each_seq_once():
    rng = random.Random(1234)
    for _ in range(200):
        n = rng.randrange(1, 60)
        arrivals = [s for s in range(n) for _ in range(rng.randrange(1, 4))]
        rng.shuffle(arrivals)
        # window covers the run: no evictions
        got = decisions(arrivals, window=n)
        forwarded = [s for s, fwd in zip(arrivals, got) if fwd]
        first_seen = list(dict.fromkeys(arrivals))
        assert forwarded == first_seen
        assert sorted(forwarded) == list(range(n))


# ---------------------------------------------------------------------------
# the receiver over a ledger


def test_receive_walks_tied_copies_in_seq_then_path_order():
    """30,000 copies on three paths land on a 50-seq time grid, so each
    arrival time is shared by up to 150 copies, and numpy's default sort
    (SIMD where the CPU has it) orders them.  The window pass must still
    walk them in (time, seq, path) order on any CPU: its forwards, in
    that order, equal those of the stable lexsort."""
    rng = np.random.default_rng(5)
    n, window = 10_000, 16
    send = np.arange(n, dtype=np.int64)
    arrival = send - send % 50 + np.array([[0], [200], [400]])
    arrival[rng.random(arrival.shape) < 0.1] = LOST_NS
    delivered = arrival < LOST_NS
    p_idx, s_idx = np.nonzero(delivered)
    t = arrival[p_idx, s_idx]
    order = np.lexsort((p_idx, s_idx, t))
    t, s_idx = t[order], s_idx[order]
    # each seq's first copy plus the window-miss duplicates
    forwards = np.zeros(len(t), dtype=bool)
    forwards[np.unique(s_idx, return_index=True)[1]] = True
    forwards[window_miss_duplicates(s_idx, n, window)] = True

    _, _, _, forwarded, counts = receive(
        arrival, send, 1, int((arrival - send)[delivered].max()),
        int(np.count_nonzero(~delivered)), None, window, None)
    assert forwarded.tolist() == s_idx[forwards].tolist()
    assert counts["window_miss_duplicates"] > 1000


# ---------------------------------------------------------------------------
# reorder removal


def hold(ready, timeout_ns, window=4096):
    released = reorder_hold_schedule(np.array(ready, dtype=np.int64).reshape(-1, 2),
                                     timeout_ns, window)
    assert released.dtype == np.int64 and released.shape[1:] == (2,)
    return [tuple(r) for r in released.tolist()]


def test_hold_reorders_back_into_sequence():
    # seq 2's first copy shows up after seq 3 (fast-path loss); holding 3
    # until 2 arrives restores sequence order without dropping anything
    ready = [(10 * MS, 0), (30 * MS, 1), (70 * MS, 3), (90 * MS, 2), (90 * MS, 4)]
    released = hold(ready, timeout_ns=60 * MS)
    assert [s for _, s in released] == [0, 1, 2, 3, 4]
    times = dict((s, t) for t, s in released)
    assert times[3] == 90 * MS  # held until 2 cleared
    assert times[4] == 90 * MS


def test_hold_times_out_missing_seq():
    # seq 1 never arrives; 2 waits its timeout, then goes
    ready = [(10 * MS, 0), (50 * MS, 2), (70 * MS, 3)]
    released = hold(ready, timeout_ns=40 * MS)
    assert [s for _, s in released] == [0, 2, 3]
    times = dict((s, t) for t, s in released)
    assert times[2] == 90 * MS   # 50 + 40 timeout
    assert times[3] == 90 * MS   # unblocked by the same timeout


def test_hold_ready_row_goes_before_a_deadline_at_the_same_time():
    # seq 2's deadline (10 + 40) falls exactly when seq 1 arrives: the
    # arrival is handled first and releases 1 and 2 in order, rather than
    # the deadline giving up gap 1 and sending 1 out late
    released = hold([(0, 0), (10 * MS, 2), (50 * MS, 1)], timeout_ns=40 * MS)
    assert released == [(0, 0), (50 * MS, 1), (50 * MS, 2)]


def test_hold_rejects_negative_timeout_and_seq():
    # the event ranks and the seq-indexed scans rely on both >= 0, on a
    # window of at least one packet, on time-sorted rows and on every
    # deadline fitting the int64 ns clock
    with pytest.raises(ConfigurationError, match="timeout"):
        hold([(0, 0)], timeout_ns=-1)
    with pytest.raises(ConfigurationError, match="seqs"):
        hold([(0, -2), (1, 3), (100, 0)], timeout_ns=10)
    for window in (0, -3):
        with pytest.raises(ConfigurationError, match="window"):
            hold([(0, 0), (1, 2)], timeout_ns=10, window=window)
    with pytest.raises(ConfigurationError, match="sorted"):
        hold([(5, 0), (1, 2)], timeout_ns=10)
    with pytest.raises(ConfigurationError, match="overflows"):
        hold([(0, 0), (2**63 - 10, 1)], timeout_ns=100)
    # the last deadline that fits is accepted, and fires
    assert hold([(0, 1), (2**63 - 101, 3)], timeout_ns=100) == [
        (100, 1), (2**63 - 1, 3)]


def test_hold_one_deadline_releases_every_lower_held_seq_in_order():
    # seq 1 is missing; 4, 3 and 2 arrive in descending order and wait.
    # The first deadline to fire is 4's, and it releases everything held
    # at or below 4 at once, in seq order; the straggler goes out late.
    ready = [(0, 0), (10 * MS, 4), (20 * MS, 3), (30 * MS, 2), (200 * MS, 1)]
    released = hold(ready, timeout_ns=100 * MS)
    assert released == [(0, 0), (110 * MS, 2), (110 * MS, 3), (110 * MS, 4),
                        (200 * MS, 1)]


def test_hold_memory_bound_gives_up_the_oldest_gap():
    # window 2: the third held packet gives up gap 1 at once, long before
    # any deadline, and releases the run above it; 1 then goes out late,
    # and 5's deadline later gives up gap 4 for 5 and 6
    ready = [(10 * MS, 0), (20 * MS, 2), (30 * MS, 3), (40 * MS, 5),
             (50 * MS, 6), (60 * MS, 1)]
    released = hold(ready, timeout_ns=1000 * MS, window=2)
    assert released == [(10 * MS, 0), (40 * MS, 2), (40 * MS, 3), (60 * MS, 1),
                        (1040 * MS, 5), (1040 * MS, 6)]


def test_hold_releases_straggler_late_instead_of_dropping():
    # seq 1 arrives after its gap timed out: released immediately, late
    ready = [(10 * MS, 0), (50 * MS, 2), (200 * MS, 1)]
    released = hold(ready, timeout_ns=40 * MS)
    assert [s for _, s in released] == [0, 2, 1]
    assert dict((s, t) for t, s in released)[1] == 200 * MS


def test_hold_passes_duplicates_through():
    ready = [(10 * MS, 0), (30 * MS, 1), (35 * MS, 1)]
    released = hold(ready, timeout_ns=40 * MS)
    assert [s for _, s in released] == [0, 1, 1]


def test_hold_in_order_stream_is_undisturbed():
    ready = [(20 * MS * (i + 1), i) for i in range(10)]
    assert hold(ready, timeout_ns=50 * MS) == ready
    assert hold([], timeout_ns=50 * MS) == []


@pytest.mark.parametrize("window", [6, 2**63 - 1, 10**30])
def test_hold_window_wider_than_the_run_never_gives_up(window):
    # six first arrivals never fill a window of six or more; a window past
    # the int64 range used to raise OverflowError in numpy
    ready = [(10 * MS, 0), (20 * MS, 2), (30 * MS, 3), (40 * MS, 5),
             (50 * MS, 6), (60 * MS, 1)]
    released = hold(ready, timeout_ns=1000 * MS, window=window)
    assert released == [(10 * MS, 0), (60 * MS, 1), (60 * MS, 2), (60 * MS, 3),
                        (1040 * MS, 5), (1040 * MS, 6)]
