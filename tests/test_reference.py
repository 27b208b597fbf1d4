"""The vectorised engine against a plain per-packet reference simulator.

The reference walks the datapath one packet and one copy at a time with
the scalar primitives: each path's outcome from ``PathStream.take(1)``,
each shared segment's from ``LossStream.take(1)``, then forced losses and
nanosecond quantisation, ``DedupState.observe`` over the copies in
arrival order, the padding rule (``padding_release`` below) and
``reorder_hold_schedule``.  ``simulate()`` must agree with it exactly,
ledger columns and per-path accessors alike, with the dedup fast path
allowed and with the sequential dedup pass forced.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim import engine
from railsim.engine import Counters, Scenario, TrafficSpec, simulate
from railsim.pathsim import (DelayModel, LossModel, LossStream, PathSpec,
                             PathStream, SharedSegmentSpec, load_trace,
                             path_rng, shared_rng)
from railsim.railedge import DedupState, PaddingConfig, reorder_hold_schedule

NS = 1_000_000  # ns per ms

TRACE = load_trace("".join(f"{k},{0 if k % 4 == 0 else 5 + 3 * (k % 5)}\n"
                           for k in range(1, 41)))


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


def reference_simulate(s: Scenario) -> Reference:
    n = s.traffic.count
    dt = int(round(s.traffic.interval * NS))
    referenced = {p.shared for p in s.paths}
    shared = {seg.id: LossStream(seg.loss, shared_rng(s.seed, i))
              for i, seg in enumerate(s.shared_segments) if seg.id in referenced}
    streams = [PathStream(p, path_rng(s.seed, i)) for i, p in enumerate(s.paths)]
    ref = Reference(send_ns=[seq * dt for seq in range(n)],
                    arrival_ns=[[] for _ in s.paths])

    copies = []  # (arrival_ns, seq, path index) of every delivered copy
    for seq in range(n):
        seg_lost = {sid: bool(stream.take(1)[0]) for sid, stream in shared.items()}
        for pidx, (spec, stream) in enumerate(zip(s.paths, streams)):
            lost, delay_ms = stream.take(1)
            lost = (bool(lost[0]) or seq in s.forced_losses.get(spec.id, ())
                    or (spec.shared is not None and seg_lost[spec.shared]))
            if lost:
                ref.counters.lost_copies += 1
                ref.arrival_ns[pidx].append(None)
                continue
            t = ref.send_ns[seq] + int(round(float(delay_ms[0]) * NS))
            ref.arrival_ns[pidx].append(t)
            copies.append((t, seq, pidx))

    state = DedupState(s.dedup_window)
    first = [None] * n
    dups = []
    for t, seq, _ in sorted(copies):
        if not state.observe(seq):
            ref.counters.suppressed += 1
        elif first[seq] is None:
            first[seq] = t
        else:
            dups.append((t, seq))

    target_ns = int(round(s.padding.target_one_way * NS))
    pad_target = target_ns if s.padding.enabled else None
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
        ready.append((release, seq))
    ready.sort()
    if s.reorder_removal:
        released = reorder_hold_schedule(ready, target_ns, window=s.dedup_window)
    else:
        released = ready

    ref.forward_ns = [-1] * n
    for t, seq in released:
        if ref.forward_ns[seq] < 0 or t < ref.forward_ns[seq]:
            ref.forward_ns[seq] = t
    ref.forwarded_order = [seq for _, seq in released]
    ref.counters.forwarded = len(released)
    ref.counters.window_miss_duplicates = len(dups)
    return ref


rates = st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0]) | st.floats(0.0, 0.5)
correlations = st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.95)


@st.composite
def paths(draw, pid):
    kind = draw(st.sampled_from(["constant", "normal", "paretonormal", "trace"]))
    delay = DelayModel(
        kind=kind,
        mean=draw(st.sampled_from([0.0, 10.0, 50.0]) | st.floats(0.0, 200.0)),
        stddev=draw(st.floats(0.0, 60.0)),
        correlation=draw(correlations),
        trace=TRACE if kind == "trace" else None,
    )
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
    return Scenario(
        paths=specs,
        shared_segments=[SharedSegmentSpec("core", LossModel(draw(rates), draw(correlations))),
                         SharedSegmentSpec("edge", LossModel(draw(rates), draw(correlations)))],
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


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios())
def test_simulate_matches_the_per_packet_reference(scenario):
    ref = reference_simulate(scenario)
    for force_loop in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_FORCE_DEDUP_LOOP", force_loop)
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
        assert sim.forwarded_order == ref.forwarded_order
        assert sim.counters == ref.counters
        for arr in (sim.rail_delay_ns, sim.padding_ns, sim.forward_ns):
            assert arr.dtype == np.int64
