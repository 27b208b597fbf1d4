"""Duplicate suppression and the reorder-removal hold."""

import random

import pytest

from railsim.errors import ConfigurationError
from railsim.railedge import DedupState, reorder_hold_schedule

MS = 1_000_000  # ns per ms, matching the engine clock


# ---------------------------------------------------------------------------
# duplicate suppression


def decisions(seqs, window=4096):
    """True where a copy is forwarded, False where it is suppressed."""
    state = DedupState(window)
    return [state.observe(s) for s in seqs]


def test_first_copy_forwarded_second_suppressed():
    assert decisions([1, 1]) == [True, False]


def test_interleaved_copies():
    state = DedupState()
    got = [state.observe(s) for s in [3, 5, 3, 4, 5]]
    assert got == [True, True, False, True, False]
    # every forwarded seq is remembered: another copy is suppressed
    assert [state.observe(s) for s in (3, 4, 5)] == [False, False, False]


def test_empty_state_forwards():
    assert decisions([1]) == [True]


def test_window_eviction_forwards_again():
    state = DedupState(window=2)
    assert state.observe(1) and state.observe(2) and state.observe(3)
    assert state.observe(1)        # evicted, forwarded again
    assert not state.observe(3)    # still remembered
    assert not state.observe(1)    # back in the window
    assert state.observe(2)        # evicted by 1
    assert not state.observe(1)    # still remembered


def test_window_must_be_positive():
    with pytest.raises(ConfigurationError):
        DedupState(window=0)


def test_random_interleavings_forward_each_seq_once():
    rng = random.Random(1234)
    for _ in range(200):
        n = rng.randrange(1, 60)
        arrivals = [s for s in range(n) for _ in range(rng.randrange(1, 4))]
        rng.shuffle(arrivals)
        state = DedupState(window=n)  # window covers the run: no evictions
        forwarded = [s for s in arrivals if state.observe(s)]
        first_seen = list(dict.fromkeys(arrivals))
        assert forwarded == first_seen
        assert sorted(forwarded) == list(range(n))


# ---------------------------------------------------------------------------
# reorder removal


def test_hold_reorders_back_into_sequence():
    # seq 2's first copy shows up after seq 3 (fast-path loss); holding 3
    # until 2 arrives restores sequence order without dropping anything
    ready = [(10 * MS, 0), (30 * MS, 1), (70 * MS, 3), (90 * MS, 2), (90 * MS, 4)]
    released = reorder_hold_schedule(ready, timeout_ns=60 * MS)
    assert [s for _, s in released] == [0, 1, 2, 3, 4]
    times = dict((s, t) for t, s in released)
    assert times[3] == 90 * MS  # held until 2 cleared
    assert times[4] == 90 * MS


def test_hold_times_out_missing_seq():
    # seq 1 never arrives; 2 waits its timeout, then goes
    ready = [(10 * MS, 0), (50 * MS, 2), (70 * MS, 3)]
    released = reorder_hold_schedule(ready, timeout_ns=40 * MS)
    assert [s for _, s in released] == [0, 2, 3]
    times = dict((s, t) for t, s in released)
    assert times[2] == 90 * MS   # 50 + 40 timeout
    assert times[3] == 90 * MS   # unblocked by the same timeout


def test_hold_releases_straggler_late_instead_of_dropping():
    # seq 1 arrives after its gap timed out: released immediately, late
    ready = [(10 * MS, 0), (50 * MS, 2), (200 * MS, 1)]
    released = reorder_hold_schedule(ready, timeout_ns=40 * MS)
    assert [s for _, s in released] == [0, 2, 1]
    assert dict((s, t) for t, s in released)[1] == 200 * MS


def test_hold_passes_duplicates_through():
    ready = [(10 * MS, 0), (30 * MS, 1), (35 * MS, 1)]
    released = reorder_hold_schedule(ready, timeout_ns=40 * MS)
    assert [s for _, s in released] == [0, 1, 1]


def test_hold_in_order_stream_is_undisturbed():
    ready = [(20 * MS * (i + 1), i) for i in range(10)]
    released = reorder_hold_schedule(ready, timeout_ns=50 * MS)
    assert released == ready
