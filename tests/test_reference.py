"""The vectorised engine against a plain per-packet reference simulator.

The reference walks the datapath one packet and one copy at a time with
the scalar primitives: each path's outcome read packet by packet from
its ``sample_path`` columns, each shared segment's from the loss column
of a constant-delay path with the segment's loss model, then forced
losses and nanosecond quantisation, a set-and-deque duplicate filter
(``DedupState`` below) over the copies in arrival order, the padding rule (``padding_release``) and a
heap-driven reorder hold (``reference_hold_schedule``).  None of these
share code with the engine's datapath.  ``simulate()`` must agree with
the reference exactly, ledger columns, counters and per-path accessors
alike.  Runs with small dedup windows (the hard scenarios use 1-8)
take the sequential dedup pass and find window misses; the others take
the fast path.  The reference's receiver half (``reference_receive``)
runs on a ledger alone, so it also checks ``railedge.receive`` directly
on drawn ledgers.

The engine's reorder hold is a closed form over prefix scans, so it is
also checked on its own against two walks over the rows: the heap-driven
reference and ``loop_hold_schedule``, a row loop over one seq-indexed
``bytearray`` of held seqs.  Both count the same hold events as the
closed form: deadlines that released something and give-ups at the
memory bound.
"""

import heapq
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim import engine, railedge
from railsim.engine import (Counters, PaddingConfig, Scenario, TrafficSpec,
                            simulate)
from railsim.metrics import reorder_stats
from railsim.pathsim import (DelayModel, LossModel, PathSpec, SharedSegmentSpec,
                             load_trace, path_key, sample_path, shared_key)
from railsim.railedge import (LOST_NS, receive, reorder_hold_schedule,
                              window_miss_duplicates)

NS = 1_000_000  # ns per ms

TRACE = load_trace("".join(f"{k},{0 if k % 4 == 0 else 5 + 3 * (k % 5)}\n"
                           for k in range(1, 41)))


class DedupState:
    """Sliding-window duplicate filter over sequence numbers.

    Remembers the last ``window`` forwarded seqs; the first copy of a seq
    is forwarded, later copies are suppressed.  A copy arriving after its
    seq was evicted from the window is forwarded again (a window-miss
    duplicate).
    """

    def __init__(self, window: int):
        self.window = window
        self._seen: set[int] = set()
        self._order: deque[int] = deque()

    def observe(self, seq: int) -> bool:
        """True if this copy should be forwarded; updates the window."""
        if seq in self._seen:
            return False
        self._seen.add(seq)
        self._order.append(seq)
        if len(self._order) > self.window:
            self._seen.discard(self._order.popleft())
        return True


def reference_hold_schedule(ready, timeout_ns, window, events=None):
    """Reorder-removal release schedule over (time_ns, seq) pairs sorted
    by time, then seq: a deadline heap, a dict of held packets and scans
    for the smallest held seq.  ``events`` (a Counter), when given, counts
    the hold timeouts that released something and the give-ups at the
    memory bound.  Returns the (release_ns, seq) events in emission order.
    """
    events = Counter() if events is None else events
    released = []
    buffered = {}
    deadlines = []
    next_expected = 0
    ready = list(ready)
    i, n = 0, len(ready)
    inf = 1 << 62
    while i < n or deadlines:
        t_ready = ready[i][0] if i < n else inf
        t_dead = deadlines[0][0] if deadlines else inf
        if t_ready <= t_dead:
            t, s = ready[i]
            i += 1
            if s < next_expected or s in buffered:
                released.append((t, s))
                continue
            buffered[s] = t
            heapq.heappush(deadlines, (t + timeout_ns, s))
            while next_expected in buffered:
                released.append((t, next_expected))
                del buffered[next_expected]
                next_expected += 1
            if len(buffered) > window:
                events["give_up"] += 1
                s_min = min(buffered)
                released.append((t, s_min))
                del buffered[s_min]
                next_expected = s_min + 1
                while next_expected in buffered:
                    released.append((t, next_expected))
                    del buffered[next_expected]
                    next_expected += 1
        else:
            dl, s = heapq.heappop(deadlines)
            if s not in buffered:
                continue
            events["timeout"] += 1
            for m in sorted(k for k in buffered if k <= s):
                released.append((dl, m))
                del buffered[m]
            next_expected = s + 1
            while next_expected in buffered:
                released.append((dl, next_expected))
                del buffered[next_expected]
                next_expected += 1
    return released


def loop_hold_schedule(ready, timeout_ns, window):
    """The same schedule as a walk over the rows with one seq-indexed
    ``bytearray`` of held seqs: the deadlines are read from the rows
    themselves (time plus the constant timeout, so they fall due in row
    order), and releases scan the bytes upward from the next expected
    seq.  Returns the (release_ns, seq) events in emission order."""
    ts = [t for t, _ in ready]
    ss = [s for _, s in ready]
    released = []
    # held[s] is 1 while seq s is buffered; every buffered seq is above
    # next_expected, which only grows, so each seq is buffered at most once
    # and the scans below cover each byte once.  The spare zero byte at
    # the end stops the consecutive-run scan.
    held = bytearray(max(ss, default=-1) + 2)
    n_held = 0
    next_expected = 0

    def release_through(top, t):
        """Release every buffered seq <= top in seq order at time t, then
        the consecutive run above it."""
        nonlocal next_expected, n_held
        m = held.find(1, next_expected, top + 1)
        while m >= 0:
            held[m] = 0
            n_held -= 1
            released.append((t, m))
            m = held.find(1, m + 1, top + 1)
        m = top + 1
        while held[m]:
            held[m] = 0
            n_held -= 1
            released.append((t, m))
            m += 1
        next_expected = m

    # A row that did not buffer its seq finds held[seq] clear by its
    # deadline: its seq was already released, or an earlier row buffered
    # it and fires first.
    due = 0
    for t, s in zip(ts, ss):
        while ts[due] + timeout_ns < t:
            if held[ss[due]]:
                release_through(ss[due], ts[due] + timeout_ns)
            due += 1
        if s < next_expected or held[s]:
            # duplicate, or straggler whose gap already timed out
            released.append((t, s))
        elif s == next_expected:
            released.append((t, s))
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
    return released


def padding_release(arrival_ns: int, rail_delay_ns: int, target_ns: int | None) -> int:
    """Release time of a first copy that arrived with one-way delay
    ``rail_delay_ns``: below the padding target it waits out the
    difference, at or above it (or with padding off, target None) it goes
    straight out; late packets are never dropped."""
    if target_ns is not None and rail_delay_ns < target_ns:
        return arrival_ns + (target_ns - rail_delay_ns)
    return arrival_ns


@dataclass
class Reference:
    send_ns: list = field(default_factory=list)
    arrival_ns: list = field(default_factory=list)  # per path, None where lost
    rail_delay_ns: list = field(default_factory=list)
    padding_ns: list = field(default_factory=list)
    forward_ns: list = field(default_factory=list)
    forwarded_order: list = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    hold_events: Counter = field(default_factory=Counter)


def reference_simulate(s: Scenario) -> Reference:
    n = s.traffic.count
    dt = int(round(s.traffic.interval * NS))
    shared = {seg.id: sample_path(PathSpec(seg.id, seg.loss),
                                  shared_key(s.seed, i), n)[0]
              for i, seg in enumerate(s.shared_segments)}
    columns = [sample_path(p, path_key(s.seed, i), n) for i, p in enumerate(s.paths)]
    ref = Reference(send_ns=[seq * dt for seq in range(n)],
                    arrival_ns=[[] for _ in s.paths])
    for p in s.paths:  # a replay wraps at each seq past its trace's end
        if p.delay.kind == "trace":
            ref.counters.trace_wraps += sum(seq % len(p.delay.trace) == 0
                                            for seq in range(1, n))

    for seq in range(n):
        seg_lost = {sid: bool(column[seq]) for sid, column in shared.items()}
        for pidx, (spec, (lost, delay_ms)) in enumerate(zip(s.paths, columns)):
            own = bool(lost[seq])
            on_segment = spec.shared is not None and seg_lost[spec.shared]
            forced = seq in s.forced_losses.get(spec.id, ())
            if own or on_segment or forced:
                ref.counters.lost_copies += 1
                ref.counters.shared_losses += on_segment and not own
                ref.counters.forced_losses += forced and not (own or on_segment)
                ref.arrival_ns[pidx].append(None)
                continue
            ref.arrival_ns[pidx].append(
                ref.send_ns[seq] + int(round(float(delay_ms[seq]) * NS)))

    target_ns = int(round(s.padding.target_one_way * NS))
    reference_receive(ref, target_ns if s.padding.enabled else None,
                      s.dedup_window, target_ns if s.reorder_removal else None)
    return ref


def reference_receive(ref: Reference, pad_target: int | None, window: int,
                      hold_timeout: int | None) -> None:
    """The receiver half of the reference: fills ``ref``'s receiver columns
    and counters from its ``send_ns`` and ``arrival_ns``.  ``pad_target``
    and ``hold_timeout`` are in ns, None where padding or the hold is off."""
    n = len(ref.send_ns)
    copies = sorted((t, seq, pidx) for pidx, row in enumerate(ref.arrival_ns)
                    for seq, t in enumerate(row) if t is not None)
    state = DedupState(window)
    first = [None] * n
    dups = []
    for t, seq, _ in copies:
        if not state.observe(seq):
            ref.counters.suppressed += 1
        elif first[seq] is None:
            first[seq] = t
        else:
            dups.append((t, seq))

    ready = list(dups)
    for seq, t in enumerate(first):
        if t is None:
            ref.rail_delay_ns.append(-1)
            ref.padding_ns.append(0)
            continue
        rail = t - ref.send_ns[seq]
        release = padding_release(t, rail, pad_target)
        ref.rail_delay_ns.append(rail)
        ref.padding_ns.append(release - t)
        if release > t:
            ref.counters.padded += 1
            ref.counters.padding_ns += release - t
        ready.append((release, seq))
    ready.sort()
    if hold_timeout is not None:
        released = reference_hold_schedule(ready, hold_timeout, window,
                                           ref.hold_events)
    else:
        released = ready

    ref.forward_ns = [-1] * n
    for t, seq in released:
        if ref.forward_ns[seq] < 0 or t < ref.forward_ns[seq]:
            ref.forward_ns[seq] = t
    ref.forwarded_order = [seq for _, seq in released]
    ref.counters.forwarded = len(released)
    ref.counters.window_miss_duplicates = len(dups)
    ref.counters.hold_timeouts = ref.hold_events["timeout"]
    ref.counters.hold_give_ups = ref.hold_events["give_up"]


rates = st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0]) | st.floats(0.0, 0.5)
correlations = st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.95)


@st.composite
def paths(draw, pid):
    kind = draw(st.sampled_from(["constant", "normal", "paretonormal", "trace"]))
    if kind == "trace":  # a replay reads the trace alone
        delay = DelayModel(kind, trace=TRACE)
    else:
        delay = DelayModel(kind, mean=draw(st.sampled_from([0.0, 10.0, 50.0])
                                           | st.floats(0.0, 200.0)))
    if kind in ("normal", "paretonormal"):
        delay.stddev = draw(st.floats(0.0, 60.0))
        delay.correlation = draw(correlations)
    return PathSpec(pid, loss=LossModel(draw(rates), draw(correlations)),
                    delay=delay, shared=draw(st.sampled_from([None, "core", "edge"])))


@st.composite
def scenarios(draw):
    n_paths = draw(st.sampled_from([1, 2, 3]))
    specs = [draw(paths(pid)) for pid in "abc"[:n_paths]]
    count = draw(st.integers(1, 300))
    forced = {}
    for spec in specs:
        seqs = draw(st.lists(st.integers(0, count - 1), max_size=5, unique=True))
        if seqs:
            forced[spec.id] = tuple(sorted(seqs))
    hold = draw(st.booleans())
    # declared only where a path references them
    segments = [SharedSegmentSpec(sid, LossModel(draw(rates), draw(correlations)))
                for sid in ("core", "edge") if sid in {spec.shared for spec in specs}]
    return Scenario(
        paths=specs,
        shared_segments=segments,
        traffic=TrafficSpec(
            interval=draw(st.sampled_from([0.5, 1.0, 20.0]) | st.floats(0.01, 50.0)),
            count=count),
        padding=PaddingConfig(enabled=draw(st.booleans()),
                              target_one_way=draw(st.floats(0.5, 150.0))),
        reorder_removal=hold,
        seed=draw(st.integers(0, 2**32 - 1)),
        dedup_window=draw(st.integers(1, 8) | st.integers(1, 64)),
        forced_losses=forced,
    )


@st.composite
def hard_scenarios(draw):
    """Longer runs with small windows, heavy loss and jitter well above the
    packet spacing: dedup windows fill, hold timeouts fire and the hold
    gives up gaps at its memory bound."""
    specs = [PathSpec(pid,
                      loss=LossModel(draw(st.floats(0.0, 0.5)), draw(correlations)),
                      delay=DelayModel("normal", mean=draw(st.floats(5.0, 60.0)),
                                       stddev=draw(st.floats(2.0, 40.0))))
             for pid in "abc"[:draw(st.sampled_from([2, 3]))]]
    return Scenario(
        paths=specs,
        traffic=TrafficSpec(interval=draw(st.sampled_from([0.5, 1.0, 2.0])),
                            count=2000),
        padding=PaddingConfig(enabled=draw(st.booleans()),
                              target_one_way=draw(st.floats(1.0, 60.0))),
        reorder_removal=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
        dedup_window=draw(st.integers(1, 8)),
    )


def assert_matches_reference(scenario: Scenario, ref: Reference) -> None:
    sim = simulate(scenario)
    arrival = [[None if t == engine.LOST_NS else t for t in row]
               for row in sim.arrival_ns.tolist()]
    assert sim.send_ns.tolist() == ref.send_ns
    assert arrival == ref.arrival_ns
    for i, row in enumerate(ref.arrival_ns):
        arrivals = [t for t in row if t is not None]
        assert sim.path_lost(i).tolist() == [t is None for t in row]
        assert sim.path_delays_ms(i).tolist() == [
            (t - send) / NS for t, send in zip(row, ref.send_ns) if t is not None]
        assert sim.path_in_send_order(i) == (arrivals == sorted(arrivals))
    assert sim.rail_delay_ns.tolist() == ref.rail_delay_ns
    assert sim.padding_ns.tolist() == ref.padding_ns
    assert sim.forward_ns.tolist() == ref.forward_ns
    assert sim.forwarded_order.tolist() == ref.forwarded_order
    assert sim.counters == ref.counters
    for arr in (sim.rail_delay_ns, sim.padding_ns, sim.forward_ns,
                sim.forwarded_order):
        assert arr.dtype == np.int64


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios())
def test_simulate_matches_the_per_packet_reference(scenario):
    assert_matches_reference(scenario, reference_simulate(scenario))


@settings(max_examples=15, deadline=None)
@given(scenario=hard_scenarios())
def test_simulate_matches_the_reference_when_windows_fill(scenario):
    assert_matches_reference(scenario, reference_simulate(scenario))


def test_hard_runs_reach_every_datapath_event():
    """One fixed hard run exercises window-miss duplicates, hold timeouts
    and memory-bound give-ups, so the property tests above cover them."""
    scenario = Scenario(
        paths=[PathSpec(pid, loss=LossModel(0.4),
                        delay=DelayModel("normal", mean=mean, stddev=30.0))
               for pid, mean in (("a", 20.0), ("b", 40.0), ("c", 60.0))],
        traffic=TrafficSpec(interval=1.0, count=2000),
        padding=PaddingConfig(enabled=False, target_one_way=8.0),
        reorder_removal=True,
        seed=7,
        dedup_window=4,
    )
    ref = reference_simulate(scenario)
    assert ref.counters.window_miss_duplicates > 0
    assert ref.hold_events["timeout"] > 0
    assert ref.hold_events["give_up"] > 0
    assert_matches_reference(scenario, ref)


def test_padded_runs_count_held_packets():
    """Delays straddle the padding target, so some first forwards are held
    and some go straight out; the counters equal the oracle's."""
    scenario = Scenario(
        paths=[PathSpec("a", loss=LossModel(0.2),
                        delay=DelayModel("normal", mean=40.0, stddev=20.0,
                                         correlation=0.6)),
               PathSpec("b", delay=DelayModel("paretonormal", mean=45.0, stddev=10.0))],
        traffic=TrafficSpec(interval=20.0, count=1500),
        padding=PaddingConfig(enabled=True, target_one_way=50.0),
        seed=4,
    )
    ref = reference_simulate(scenario)
    assert 0 < ref.counters.padded < scenario.traffic.count
    assert_matches_reference(scenario, ref)


@pytest.mark.parametrize("count", [80, 81])
def test_loss_causes_and_trace_wraps_are_counted(count):
    """Own, shared-segment and forced losses add up to the lost copies;
    forced seqs include one the path lost anyway and one listed twice.
    The 40-entry trace replays twice in 80 packets and three times in 81."""
    scenario = Scenario(
        paths=[PathSpec("a", loss=LossModel(0.3), shared="core",
                        delay=DelayModel("constant", mean=5.0)),
               PathSpec("t", shared="core", delay=DelayModel("trace", trace=TRACE))],
        shared_segments=[SharedSegmentSpec("core", LossModel(0.3))],
        traffic=TrafficSpec(interval=1.0, count=count),
        seed=9,
        forced_losses={"a": (1, 2, 3, 4, 5, 6, 7, 8), "t": (10, 10, 20)},
    )
    ref = reference_simulate(scenario)
    own = sum(int(np.count_nonzero(sample_path(p, path_key(scenario.seed, i), count)[0]))
              for i, p in enumerate(scenario.paths))
    c = ref.counters
    assert own > 0 and c.shared_losses > 0 and c.forced_losses > 0
    assert c.forced_losses < 8 + 2  # some forced copies were lost anyway
    assert c.lost_copies == own + c.shared_losses + c.forced_losses
    assert c.trace_wraps == (count - 1) // 40
    assert_matches_reference(scenario, ref)


def test_tied_arrivals_are_deduplicated_in_seq_order():
    """Path b's copy of seq s lands exactly when path a's copy of s + 1
    does.  Taken in seq order, each tie meets a one-seq window that still
    holds s, so nothing is forwarded twice; taken the other way round,
    every tie would be a window-miss duplicate."""
    scenario = Scenario(
        paths=[PathSpec("a", loss=LossModel(0.1),
                        delay=DelayModel("constant", mean=0.0)),
               PathSpec("b", loss=LossModel(0.1),
                        delay=DelayModel("constant", mean=20.0))],
        traffic=TrafficSpec(interval=20.0, count=500),
        seed=3,
        dedup_window=1,
    )
    ref = reference_simulate(scenario)
    assert ref.counters.suppressed > 300
    assert_matches_reference(scenario, ref)


def _constant(pid, mean, rate=0.0, shared=None):
    return PathSpec(pid, loss=LossModel(rate), shared=shared,
                    delay=DelayModel("constant", mean=mean))


@pytest.mark.parametrize("scenario", [
    # means on half a nanosecond round half to even: to 0 and 2 ns
    Scenario(paths=[_constant("a", 0.0000005, 0.2), _constant("b", 0.0000015, 0.2)],
             traffic=TrafficSpec(interval=0.000003, count=400), seed=1,
             dedup_window=2),
    # a mean just under the clock limit (2^60 ns), and a near path
    Scenario(paths=[_constant("a", 1.1e12, 0.3), _constant("b", 7.5, 0.3)],
             traffic=TrafficSpec(interval=20.0, count=300), seed=2),
    # forced losses on both paths, some seqs on both, behind a shared segment
    Scenario(paths=[_constant("a", 12.5, 0.1, shared="core"),
                    _constant("b", 40.0, 0.1, shared="core")],
             shared_segments=[SharedSegmentSpec("core", LossModel(0.2, 0.5))],
             traffic=TrafficSpec(interval=5.0, count=500), seed=3,
             dedup_window=4,
             forced_losses={"a": (0, 1, 2, 3, 250, 499), "b": (2, 3, 4, 499)}),
    # a path that loses every copy, next to a lossless one
    Scenario(paths=[_constant("gone", 900.0, 1.0), _constant("b", 30.0)],
             traffic=TrafficSpec(interval=20.0, count=200), seed=4,
             dedup_window=4),
    # every copy lost on every path
    Scenario(paths=[_constant("a", 10.0, 1.0),
                    _constant("b", 20.0, 0.0, shared="core")],
             shared_segments=[SharedSegmentSpec("core", LossModel(1.0))],
             traffic=TrafficSpec(interval=20.0, count=50), seed=5),
], ids=["half-ns", "clock-limit", "forced-shared", "one-path-gone", "all-gone"])
def test_constant_rows_match_the_reference(scenario):
    """Constant-delay rows are one integer add of the rounded mean; every
    delivered copy lands at send + round-half-even(mean * 10^6) ns."""
    ref = reference_simulate(scenario)
    assert_matches_reference(scenario, ref)
    for spec, row in zip(scenario.paths, ref.arrival_ns):
        delay_ns = round(spec.delay.mean * NS)
        assert all(t is None or t == send + delay_ns
                   for t, send in zip(row, ref.send_ns))


def _rail_span(sim):
    rail = sim.rail_delay_ns[sim.rail_delay_ns >= 0]
    return int(rail.max()) - int(rail.min())


def _trace(delays):
    return DelayModel("trace", trace=load_trace("".join(
        f"{k},{d}\n" for k, d in enumerate(delays, start=1))))


@pytest.mark.parametrize("scenario, in_order, late", [
    # lossy constant paths: every rail delay is one of two means 5 ms apart
    (Scenario(paths=[_constant("a", 10.0, 0.3), _constant("b", 15.0, 0.3)],
              traffic=TrafficSpec(interval=20.0, count=400), seed=6), True, 0),
    # rail delays spanning 1 ns less than the spacing
    (Scenario(paths=[PathSpec("a", loss=LossModel(0.1),
                              delay=_trace([10.0, 29.999999, 12.0, 20.0]))],
              traffic=TrafficSpec(interval=20.0, count=200), seed=7), True, 0),
    # spanning exactly the spacing: seq 4k + 1 ties with seq 4k + 2
    (Scenario(paths=[PathSpec("a", delay=_trace([10.0, 30.0, 10.0, 20.0]))],
              traffic=TrafficSpec(interval=20.0, count=200), seed=8), False, 0),
    # one inversion: seq 1 (at 30 ms) goes out before seq 0 (at 50 ms)
    (Scenario(paths=[PathSpec("a", delay=_trace([50.0] + [10.0] * 300))],
              traffic=TrafficSpec(interval=20.0, count=300), seed=9), False, 1),
], ids=["constant", "span-below-dt", "span-is-dt", "one-inversion"])
def test_release_order_with_and_without_the_range_proof(scenario, in_order, late):
    """Unpadded first forwards whose rail delays span less than the
    spacing go out in seq order unchecked; any wider span keeps the
    order check and the sort."""
    dt = int(round(scenario.traffic.interval * NS))
    sim = simulate(scenario)
    assert sim.counters.padded == 0 and sim.counters.window_miss_duplicates == 0
    assert (_rail_span(sim) < dt) == in_order
    ref = reference_simulate(scenario)
    assert_matches_reference(scenario, ref)
    assert reorder_stats(ref.forwarded_order).out_of_order_count == late


def test_reorder_hold_after_the_range_proof():
    """Lossy constant paths within one spacing of each other, the hold on:
    the proof skips the order check, and the hold still times out every
    gap a lost packet leaves."""
    scenario = Scenario(
        paths=[_constant("a", 10.0, 0.4), _constant("b", 25.0, 0.4)],
        traffic=TrafficSpec(interval=20.0, count=500),
        padding=PaddingConfig(enabled=False, target_one_way=30.0),
        reorder_removal=True, seed=10, dedup_window=8)
    sim = simulate(scenario)
    assert _rail_span(sim) < int(round(scenario.traffic.interval * NS))
    ref = reference_simulate(scenario)
    assert ref.counters.hold_timeouts > 0
    assert_matches_reference(scenario, ref)


@st.composite
def ledgers(draw):
    """A ledger and the receiver's settings: 1-3 paths of integer delays a
    few spacings wide, so copies tie with each other and with padded
    releases, whole seqs lost on every path, and padding, a dedup window
    and a hold timeout each drawn small enough to matter or turned off."""
    n = draw(st.integers(1, 40) | st.integers(100, 300))
    dt = draw(st.sampled_from([1, 3, 10, 50]))
    n_paths = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = dt * draw(st.sampled_from([0, 1, 4, 20])) + draw(st.integers(0, 2 * dt))
    jitter = draw(st.sampled_from([0, 1, dt, top]))
    delay = (rng.integers(0, top + 1, size=(n_paths, 1))
             + rng.integers(0, jitter + 1, size=(n_paths, n)))
    lost = rng.random((n_paths, n)) < draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    send = [seq * dt for seq in range(n)]
    arrival = [[None if gone else t + d for t, d, gone in zip(send, row, lost_row)]
               for row, lost_row in zip(delay.tolist(), lost.tolist())]
    pad_target = draw(st.none() | st.integers(0, 2 * top + dt))
    window = draw(st.integers(1, 8) | st.integers(1, n + 2))
    hold_timeout = draw(st.none() | st.integers(0, 3 * dt) | st.integers(0, 2 * top + dt))
    return send, arrival, dt, pad_target, window, hold_timeout


def assert_receive_matches_reference(send, arrival, dt, pad_target, window,
                                     hold_timeout) -> Reference:
    ref = Reference(send_ns=send, arrival_ns=arrival)
    reference_receive(ref, pad_target, window, hold_timeout)
    matrix = np.array([[LOST_NS if t is None else t for t in row] for row in arrival],
                      dtype=np.int64).reshape(len(arrival), len(send))
    copy_delays = [t - t0 for row in arrival for t, t0 in zip(row, send) if t is not None]
    lost = sum(t is None for row in arrival for t in row)
    rail, padding, forward, order, counts = receive(
        matrix, np.array(send, dtype=np.int64), dt, max(copy_delays, default=0),
        lost, pad_target, window, hold_timeout)
    assert rail.tolist() == ref.rail_delay_ns
    assert padding.tolist() == ref.padding_ns
    assert forward.tolist() == ref.forward_ns
    assert order.tolist() == ref.forwarded_order
    for arr in (rail, padding, forward, order):
        assert arr.dtype == np.int64
    receiver = {"forwarded", "suppressed", "window_miss_duplicates", "hold_timeouts",
                "hold_give_ups", "padded", "padding_ns"}
    assert counts == {name: getattr(ref.counters, name) for name in receiver}
    return ref


@settings(max_examples=300, deadline=None)
@given(case=ledgers())
def test_receive_matches_the_reference_receiver(case):
    assert_receive_matches_reference(*case)


def test_one_ledger_reaches_every_receiver_event():
    """A fixed ledger, drawn as above, on which ties, seqs no copy reached,
    padding, window misses, hold timeouts and give-ups all occur."""
    rng = np.random.default_rng(21)
    n, dt = 300, 3
    delay = rng.integers(0, 12, size=(3, 1)) + rng.integers(0, 60, size=(3, n))
    lost = rng.random((3, n)) < 0.4
    send = [seq * dt for seq in range(n)]
    arrival = [[None if gone else t + d for t, d, gone in zip(send, row, lost_row)]
               for row, lost_row in zip(delay.tolist(), lost.tolist())]
    ref = assert_receive_matches_reference(send, arrival, dt, 30, 4, 9)
    times = [t for row in arrival for t in row if t is not None]
    assert len(set(times)) < len(times)
    assert -1 in ref.rail_delay_ns
    c = ref.counters
    assert c.padded and c.window_miss_duplicates
    assert c.hold_timeouts and c.hold_give_ups


@st.composite
def copy_streams(draw):
    """Seqs of delivered copies in arrival order: each seq has 0-3 copies
    landing at random offsets after its send slot, so windows fill and
    evict."""
    n = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seqs = np.repeat(np.arange(n), rng.integers(0, 4, size=n))
    arrival = seqs + rng.integers(0, draw(st.sampled_from([1, 5, 40])), size=seqs.size)
    return seqs[np.lexsort((seqs, arrival))].tolist(), n


@settings(max_examples=300, deadline=None)
@given(stream=copy_streams(), window=st.integers(1, 8) | st.integers(1, 300))
def test_window_miss_duplicates_match_the_dedup_state(stream, window):
    seqs, count = stream
    state = DedupState(window)
    seen = set()
    want = []
    for i, seq in enumerate(seqs):
        if state.observe(seq) and seq in seen:
            want.append(i)
        seen.add(seq)
    got = window_miss_duplicates(np.array(seqs, dtype=np.int64), count, window)
    assert got.dtype == np.int64
    assert got.tolist() == want


@st.composite
def ready_streams(draw):
    """(time_ns, seq) ready rows sorted by time then seq, with missing
    seqs, late stragglers, duplicates and ties."""
    n = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seqs = np.repeat(np.arange(n), rng.choice([0, 1, 1, 1, 2], size=n))
    t = 3 * seqs + rng.integers(0, draw(st.sampled_from([1, 10, 60])), size=seqs.size)
    return sorted(zip(t.tolist(), seqs.tolist()))


def assert_hold_matches_both_oracles(ready, timeout, window):
    events = Counter()
    got = reorder_hold_schedule(np.array(ready, dtype=np.int64).reshape(-1, 2),
                                timeout, window, events)
    assert got.dtype == np.int64 and got.shape == (len(ready), 2)
    got = [tuple(r) for r in got.tolist()]
    want_events = Counter()
    assert got == reference_hold_schedule(ready, timeout, window, want_events)
    assert got == loop_hold_schedule(ready, timeout, window)
    assert events == want_events


@settings(max_examples=300, deadline=None)
@given(ready=ready_streams(), timeout=st.integers(0, 80),
       window=st.integers(1, 8) | st.integers(1, 300))
def test_hold_matches_the_heap_reference(ready, timeout, window):
    assert_hold_matches_both_oracles(ready, timeout, window)


@st.composite
def tied_ready_streams(draw):
    """Ready rows on a coarse time grid, so rows tie with each other and,
    at timeouts that are multiples of the grid, with deadlines; seqs may
    be sparse, with long runs of absent seqs."""
    n = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seqs = np.repeat(np.arange(n), rng.choice([0, 1, 1, 2, 3], size=n))
    t = seqs + rng.integers(0, draw(st.sampled_from([1, 8, 40])), size=seqs.size)
    t -= t % draw(st.sampled_from([1, 4, 10]))
    seqs = seqs * draw(st.sampled_from([1, 1, 3, 1000])) + draw(st.sampled_from([0, 5000]))
    return sorted(zip(t.tolist(), seqs.tolist()))


@settings(max_examples=400, deadline=None)
@given(ready=tied_ready_streams(), timeout=st.sampled_from([0, 1, 4, 10, 40]),
       window=st.integers(1, 4) | st.integers(1, 100))
def test_hold_matches_both_oracles_on_tied_streams(ready, timeout, window):
    assert_hold_matches_both_oracles(ready, timeout, window)


@pytest.mark.parametrize("timeout, window", [(0, 1), (100, 64), (10**12, 4096)])
@pytest.mark.parametrize("shape", ["reversed", "permuted", "block-reversed"])
def test_hold_adversarial_orders_match_the_loop(monkeypatch, shape, timeout, window):
    """Seqs far out of arrival order are the search's worst case: it must
    still be exact and settle in a logarithmic number of probe rounds."""
    n = 20_000
    t = np.arange(n, dtype=np.int64)
    seqs = {"reversed": t[::-1],
            "permuted": np.random.default_rng(11).permutation(n),
            "block-reversed": t.reshape(-1, 500)[:, ::-1].reshape(-1)}[shape]
    rounds = []
    probe = railedge._early_count

    def counted_probe(x, p):
        rounds.append(p)
        return probe(x, p)

    monkeypatch.setattr(railedge, "_early_count", counted_probe)
    ready = np.column_stack((t, seqs))
    got = reorder_hold_schedule(ready, timeout, window)
    assert [tuple(r) for r in got.tolist()] == loop_hold_schedule(
        ready.tolist(), timeout, window)
    assert len(rounds) <= int(np.ceil(np.log2(n))) + 3
