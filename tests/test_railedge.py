"""Header codec, replication, duplicate suppression and release policies."""

import random

import pytest

from railsim.errors import ConfigurationError
from railsim.railedge import (DedupState, PaddingConfig, RailHeader,
                              decode_packet, encode_packet, padding_release,
                              reorder_hold_schedule, replicate)

MS = 1_000_000  # ns per ms, matching the engine clock


# ---------------------------------------------------------------------------
# encapsulation


def test_encode_known_bytes():
    buf = encode_packet(RailHeader(sender_id=1, seq=7), b"hi")
    assert buf == (b"\x00" * 7 + b"\x01") + (b"\x00" * 7 + b"\x07") + b"\x00\x02hi"


def test_round_trip_is_bit_exact():
    cases = [
        (RailHeader(0, 0), b""),
        (RailHeader(1, 7), b"payload bytes"),
        (RailHeader(2**64 - 1, 2**64 - 1), bytes(range(256))),
    ]
    for header, payload in cases:
        buf = encode_packet(header, payload)
        back_header, back_payload = decode_packet(buf)
        assert back_header == header
        assert back_payload == payload
        assert encode_packet(back_header, back_payload) == buf


def test_codec_errors():
    with pytest.raises(ConfigurationError, match="short"):
        decode_packet(b"\x00" * 10)
    with pytest.raises(ConfigurationError, match="truncated"):
        decode_packet(encode_packet(RailHeader(1, 1), b"abc")[:-1])
    with pytest.raises(ConfigurationError, match="seq"):
        encode_packet(RailHeader(1, 2**64))
    with pytest.raises(ConfigurationError, match="payload"):
        encode_packet(RailHeader(1, 1), b"x" * 70000)


# ---------------------------------------------------------------------------
# replication


def test_replicate_fans_out_same_header():
    copies = replicate(7, sender_id=3, active_paths=["A", "B"])
    assert copies == [("A", RailHeader(3, 7)), ("B", RailHeader(3, 7))]


def test_replicate_single_path():
    assert replicate(7, 1, ["A"]) == [("A", RailHeader(1, 7))]


def test_replicate_no_paths_is_error():
    with pytest.raises(ConfigurationError):
        replicate(7, 1, [])


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
# padding


def test_padding_waits_out_the_difference():
    cfg = PaddingConfig(enabled=True, target_one_way=150.0)
    assert padding_release(1120.0, 120.0, cfg) == 1150.0


def test_padding_forwards_late_packets_immediately():
    cfg = PaddingConfig(enabled=True, target_one_way=150.0)
    assert padding_release(1180.0, 180.0, cfg) == 1180.0


def test_padding_disabled_is_identity():
    assert padding_release(33.25, 12.0, PaddingConfig()) == 33.25


def test_padding_rejects_negative_inputs():
    cfg = PaddingConfig(enabled=True, target_one_way=100.0)
    with pytest.raises(ConfigurationError):
        padding_release(-1.0, 10.0, cfg)
    with pytest.raises(ConfigurationError):
        padding_release(10.0, -1.0, cfg)


def test_padding_release_never_early():
    cfg = PaddingConfig(enabled=True, target_one_way=90.0)
    for delay in (0.0, 45.0, 90.0, 200.0):
        release = padding_release(1000.0 + delay, delay, cfg)
        assert release >= 1000.0 + delay
        assert release - 1000.0 == max(delay, 90.0)


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
