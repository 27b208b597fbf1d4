"""Deterministic simulation of a replicated packet stream over a set of
emulated WAN paths: probe emission, per-path outcomes, receiver-side
duplicate suppression, delay padding and optional reorder removal.

Time is integer nanoseconds internally so event ordering never suffers
float drift; all interfaces speak milliseconds.
"""

from __future__ import annotations

import configparser
import copy
import hashlib
import json
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ValidationError
from .pathsim import (CLOCK_LIMIT_NS, DelayModel, LossModel, PathSpec,
                      SharedSegmentSpec, Trace, fits_clock, load_trace, path_key,
                      sample_path, shared_key, validate_delay_model,
                      validate_loss_model)
from .railedge import (DEFAULT_DEDUP_WINDOW, PaddingConfig,
                       reorder_hold_schedule, window_miss_duplicates)

NS_PER_MS = 1_000_000
LOST_NS = np.iinfo(np.int64).max  # arrival_ns of a lost copy


def ms_to_ns(ms: float) -> int:
    return int(round(ms * NS_PER_MS))


@dataclass
class TrafficSpec:
    """Probe stream: fixed-size packets emitted at a fixed interval."""

    packet_size: int = 200   # bytes
    interval: float = 20.0   # ms between packets
    count: int = 6000        # 2 minutes at the default interval


@dataclass
class Scenario:
    paths: list[PathSpec]
    shared_segments: list[SharedSegmentSpec] = field(default_factory=list)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    padding: PaddingConfig = field(default_factory=PaddingConfig)
    reorder_removal: bool = False
    seed: int = 0
    label: str = ""
    dedup_window: int = DEFAULT_DEDUP_WINDOW
    # impairment injection: path id -> seqs whose copy on that path is
    # forced lost (used for loss-vs-reorder experiments)
    forced_losses: dict[str, tuple[int, ...]] = field(default_factory=dict)


@dataclass
class Counters:
    forwarded: int = 0
    suppressed: int = 0
    lost_copies: int = 0
    window_miss_duplicates: int = 0
    # reorder hold: deadlines that released something, and arrivals that
    # overflowed the hold and gave up its oldest gap (not in summary.json)
    hold_timeouts: int = 0
    hold_give_ups: int = 0
    # delay padding: first forwards held back, and their total hold in ns
    # (not in summary.json)
    padded: int = 0
    padding_ns: int = 0
    # lost copies by cause beyond the path's own loss: dropped by the
    # path's shared segment only, and forced lost with no other loss; and
    # how often trace replays wrapped (not in summary.json)
    shared_losses: int = 0
    forced_losses: int = 0
    trace_wraps: int = 0


@dataclass
class SimResult:
    scenario: Scenario
    forwarded_order: np.ndarray  # int64[forwarded] seqs in release order
    counters: Counters
    warnings: list[str]
    send_ns: np.ndarray          # int64[n]
    arrival_ns: np.ndarray       # int64[n_paths, n], LOST_NS where lost
    rail_delay_ns: np.ndarray    # int64[n], -1 where all copies lost
    forward_ns: np.ndarray       # int64[n] first release, -1 where never
    padding_ns: np.ndarray       # int64[n]

    def rail_lost_mask(self) -> np.ndarray:
        return self.rail_delay_ns < 0

    def rail_delays_ms(self) -> np.ndarray:
        """One-way delay of the first-arriving copy, delivered packets only."""
        ok = ~self.rail_lost_mask()
        return self.rail_delay_ns[ok] / NS_PER_MS

    def forwarded_delays_ms(self) -> np.ndarray:
        """One-way delay as released to the LAN (includes padding/hold)."""
        ok = self.forward_ns >= 0
        return (self.forward_ns[ok] - self.send_ns[ok]) / NS_PER_MS

    def path_lost(self, path_index: int) -> np.ndarray:
        """Loss column of one path (own, shared-segment and forced losses)."""
        return self.arrival_ns[path_index] == LOST_NS

    def path_delays_ms(self, path_index: int) -> np.ndarray:
        """One-way delays of the copies one path delivered, in send order."""
        ok = ~self.path_lost(path_index)
        return (self.arrival_ns[path_index] - self.send_ns)[ok] / NS_PER_MS

    def path_in_send_order(self, path_index: int) -> bool:
        """True when the path delivered its copies in send order."""
        arrivals = self.arrival_ns[path_index][~self.path_lost(path_index)]
        return bool(np.all(np.diff(arrivals) >= 0))


# ---------------------------------------------------------------------------
# validation


def validate_scenario(s: Scenario) -> list[str]:
    problems: list[str] = []
    if not s.paths:
        problems.append("paths: at least one path is required")
    ids = [p.id for p in s.paths]
    if len(set(ids)) != len(ids):
        problems.append("paths: ids must be unique")
    seg_ids = [g.id for g in s.shared_segments]
    if len(set(seg_ids)) != len(seg_ids):
        problems.append("shared_segments: ids must be unique")
    for i, p in enumerate(s.paths):
        problems += validate_loss_model(p.loss, f"paths[{i}].loss")
        problems += validate_delay_model(p.delay, f"paths[{i}].delay")
        if p.shared is not None and p.shared not in seg_ids:
            problems.append(f"paths[{i}].shared: unknown segment {p.shared!r}")
    for i, g in enumerate(s.shared_segments):
        problems += validate_loss_model(g.loss, f"shared_segments[{i}].loss")
    interval, count = s.traffic.interval, s.traffic.count
    if not interval > 0:
        problems.append(f"traffic.interval: must be > 0, got {interval}")
    elif not fits_clock(interval):
        problems.append(f"traffic.interval: {interval} ms overflows the int64 ns clock")
    elif ms_to_ns(interval) == 0:
        problems.append(f"traffic.interval: {interval} ms rounds to 0 ns")
    elif count * ms_to_ns(interval) >= CLOCK_LIMIT_NS:
        problems.append(f"traffic: {count} packets at {interval} ms "
                        "overflow the int64 ns clock")
    if count < 1:
        problems.append(f"traffic.count: must be >= 1, got {count}")
    if s.traffic.packet_size < 1:
        problems.append("traffic.packet_size: must be >= 1")
    target = s.padding.target_one_way
    if not fits_clock(target):
        problems.append(f"padding.target_one_way: must be finite and fit the "
                        f"int64 ns clock, got {target}")
    elif s.padding.enabled and target < 0:
        problems.append("padding.target_one_way: must be >= 0 when enabled")
    if s.reorder_removal and target <= 0:
        problems.append(
            "reorder_removal: requires padding.target_one_way > 0 (hold timeout)"
        )
    elif s.reorder_removal and fits_clock(target) and ms_to_ns(target) == 0:
        problems.append(f"reorder_removal: padding.target_one_way {target} ms "
                        "(hold timeout) rounds to 0 ns")
    if s.dedup_window < 1:
        problems.append(f"dedup_window: must be >= 1, got {s.dedup_window}")
    for pid, seqs in s.forced_losses.items():
        if pid not in ids:
            problems.append(f"forced_losses: unknown path {pid!r}")
        for q in seqs:
            if not 0 <= q < s.traffic.count:
                problems.append(f"forced_losses[{pid}]: seq {q} outside the run")
    return problems


# ---------------------------------------------------------------------------
# simulation


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` from numpy's default sort, which
    runs SIMD code where the CPU has it but leaves each run of equal keys
    in an order of its own: those entries are put back in index order.

    On a CPU without AVX2 and AVX-512 the default sort has no SIMD loop,
    and the helper is slower than the stable sort: the seven copy
    orderings of a sim-hold perfbench pass took 34.2 ms with it against
    27.3 ms (2-core VM), about 7 ms more a pass.  With SIMD they take
    15.2 ms against 29.8, so the helper stays the one sort."""
    order = np.argsort(keys)
    ranked = keys[order]
    tied = np.flatnonzero(ranked[1:] == ranked[:-1])
    if len(tied):
        # the positions in runs of equal keys and the run of each; runs
        # keep their positions, so one sort of run * n + index (below
        # n * n, which fits int64 for any array numpy can sort here) puts
        # each run's indices in order
        in_run = np.zeros(len(keys), dtype=bool)
        in_run[tied] = in_run[tied + 1] = True
        at = np.flatnonzero(in_run)
        run = np.cumsum(np.r_[0, ranked[at[1:]] != ranked[at[:-1]]]) * len(keys)
        order[at] = np.sort(run + order[at]) - run
    return order


def _dedup_pass(arrival_ns: np.ndarray, rail_delay_ns: np.ndarray,
                r_min: int, r_max: int, copy_max_ns: int, dt_ns: int,
                duplicates: int, window: int, padding_ns: np.ndarray | None):
    """Duplicate suppression over the delivered copies, and the release
    order of what it forwards.

    arrival_ns is (n_paths, count) with LOST_NS marking lost copies,
    rail_delay_ns the first arrival's delay (-1 when none arrived), r_min
    and r_max the least and largest rail delay of the seqs that arrived
    (copy_max_ns and -1 when none did), copy_max_ns the largest delivered
    copy delay, duplicates the number of delivered copies that are not
    their seq's first and padding_ns each seq's padding, or None when no
    packet is padded.  Returns None when no window miss is possible:
    every seq is then forwarded once, its first copy.  Otherwise runs the
    sequential window pass over the copies in (time, seq, path) order
    and returns the forwarded copies, each seq's first plus the
    window-miss duplicates, as release times and seqs in that order.
    Without padding a copy is released on arrival, so that is the
    release order, (time, seq); padding moves first copies later.
    """
    count = arrival_ns.shape[1]
    use_fast = duplicates == 0 or window >= count
    if not use_fast:
        # Before the first eviction only first arrivals are forwarded, and a
        # later copy of seq s is a window miss once `window` of them came
        # after s's first, all at times in [first_s, last_s].  With r the
        # rail delays and c the copy delays, such a seq q has (q - s) * dt_ns
        # in [r_s - r_q, c - r_q], inside [r_min - r_max, c_max - r_min]:
        # an interval of `span` ns that holds at most span // dt_ns seqs
        # other than s, ties at either end included.  (The fastest copy of
        # all is its seq's first, so r_min is also the least copy delay.)
        span = copy_max_ns + r_max - 2 * r_min
        use_fast = span // dt_ns < window

    if use_fast:
        # no eviction is possible: no copy after the first is forwarded
        return None
    # the transpose lists the copies by seq, then path, so a stable sort
    # by time orders them by time, then seq, then path
    copies = arrival_ns.T.ravel()
    at = np.flatnonzero(copies < LOST_NS)
    t, s_idx = copies[at], at // arrival_ns.shape[0]
    del copies, at
    order = _stable_argsort(t)
    t, s_idx = t[order], s_idx[order]
    del order
    # a seq's first copy arrives at its first arrival time, and a second
    # copy of the seq at that time comes right after it
    forwarded = t == rail_delay_ns[s_idx] + s_idx * dt_ns
    tied = np.flatnonzero(t[1:] == t[:-1]) + 1
    forwarded[tied[s_idx[tied] == s_idx[tied - 1]]] = False
    if padding_ns is not None:
        t[forwarded] += padding_ns[s_idx[forwarded]]
    forwarded[window_miss_duplicates(s_idx, count, window)] = True
    at = np.flatnonzero(forwarded)
    return t[at], s_idx[at]


def _exact_sum(a: np.ndarray, most: int) -> int:
    """Sum of an int64 array whose elements lie in [0, most], as a Python
    int: numpy's where its int64 sum cannot wrap, else Python's (a long run
    of paddings near the clock limit)."""
    if most * len(a) <= np.iinfo(np.int64).max:
        return int(a.sum())
    return sum(a.tolist())


def simulate(scenario: Scenario) -> SimResult:
    """Run one scenario and return the complete per-packet ledger."""
    problems = validate_scenario(scenario)
    if problems:
        raise ValidationError(problems)

    n = scenario.traffic.count
    dt_ns = ms_to_ns(scenario.traffic.interval)
    send_ns = np.arange(n, dtype=np.int64) * dt_ns
    warnings: list[str] = []

    # shared segments: one loss column per segment actually referenced
    referenced = {p.shared for p in scenario.paths if p.shared is not None}
    shared_lost = {seg.id: sample_path(PathSpec(seg.id, seg.loss),
                                       shared_key(scenario.seed, idx), n)[0]
                   for idx, seg in enumerate(scenario.shared_segments)
                   if seg.id in referenced}

    arrival_ns = np.empty((len(scenario.paths), n), dtype=np.int64)
    lost_copies = shared_losses = forced_losses = trace_wraps = copy_max_ns = 0
    for pidx, spec in enumerate(scenario.paths):
        lost, delay_ms = sample_path(spec, path_key(scenario.seed, pidx), n)
        if spec.shared is not None:
            n_own = int(np.count_nonzero(lost))
            lost = lost | shared_lost[spec.shared]
            shared_losses += int(np.count_nonzero(lost)) - n_own
        forced = scenario.forced_losses.get(spec.id)
        if forced:
            forced = np.unique(np.asarray(forced, dtype=np.int64))
            forced_losses += int(np.count_nonzero(~lost[forced]))
            lost[forced] = True
        if spec.delay.kind == "trace" and n > len(spec.delay.trace):
            trace_wraps += (n - 1) // len(spec.delay.trace)
            warnings.append(
                f"path {spec.id}: trace shorter than the run "
                f"({len(spec.delay.trace)} entries), replay wrapped around"
            )
        n_lost = int(np.count_nonzero(lost))
        row = arrival_ns[pidx]
        if spec.delay.kind == "constant":
            # every row holds the float mean, which validation fitted to
            # the clock: one integer add, rounded as the float rows are
            delay_ns = ms_to_ns(float(spec.delay.mean))
            np.add(send_ns, delay_ns, out=row)
            if n_lost < n:
                copy_max_ns = max(copy_max_ns, delay_ns)
        else:
            # lost entries may carry NaN (trace convention) or delays past
            # the clock; zero them before the integer cast, the mask keeps
            # them out of the run.  sample_path's columns are fresh, so
            # the row is built in place.  np.putmask does not branch per
            # row as a masked assignment does, but it costs time even when
            # nothing is lost.
            if n_lost:
                np.putmask(delay_ms, lost, 0.0)
            top = float(delay_ms.max())
            if not fits_clock(top):
                raise ConfigurationError(
                    f"path {spec.id}: a sampled delay overflows the int64 ns clock")
            # scaling and rounding are monotone: this is the row's largest delay
            copy_max_ns = max(copy_max_ns, int(np.rint(top * NS_PER_MS)))
            np.multiply(delay_ms, NS_PER_MS, out=delay_ms)
            row[:] = np.rint(delay_ms, out=delay_ms)
            row += send_ns
        if n_lost:
            np.putmask(row, lost, LOST_NS)
        lost_copies += n_lost

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
    if scenario.padding.enabled:
        target_ns = ms_to_ns(scenario.padding.target_one_way)
        padding_ns = np.where(ever, np.maximum(target_ns - rail_delay_ns, 0), 0)
        padded = int(np.count_nonzero(padding_ns))
        padding_total = _exact_sum(padding_ns, target_ns)
    else:
        padding_ns = np.zeros(n, dtype=np.int64)
        padded = padding_total = 0

    duplicates = arrival_ns.size - lost_copies - n_ever
    forwards = _dedup_pass(arrival_ns, rail_delay_ns, r_min, r_max, copy_max_ns,
                           dt_ns, duplicates, scenario.dedup_window,
                           padding_ns if padded else None)
    release_ns = first_ns  # padding_ns is 0 where nothing arrived
    if padded:
        release_ns += padding_ns
    release_ns[never] = -1

    # release order: first forwards plus window-miss duplicates, by time
    # then seq; the reorder hold reschedules that stream when enabled.
    # The first forwards alone come in ascending seq, so when their times
    # never decrease that is already the order.  Unpadded, seq s goes out
    # at s * dt_ns + r_s, and rail delays spanning less than dt_ns cannot
    # undo a lead of dt_ns: the times strictly increase, unchecked.  The
    # dedup pass lists its forwards in (time, seq) order unless padding
    # moved some.
    if forwards is None:
        seqs = np.nonzero(ever)[0]
        in_order = not padded and r_max - r_min < dt_ns
        t = release_ns[seqs] if scenario.reorder_removal or not in_order else None
        unsorted = not in_order and np.any(t[1:] < t[:-1])
    else:
        t, seqs = forwards
        unsorted = padded
    if unsorted:
        order = np.lexsort((seqs, t))
        t, seqs = t[order], seqs[order]
    misses = len(seqs) - n_ever

    hold_events = Counter()
    if scenario.reorder_removal:
        timeout_ns = ms_to_ns(scenario.padding.target_one_way)
        released = reorder_hold_schedule(np.column_stack((t, seqs)), timeout_ns,
                                         window=scenario.dedup_window,
                                         events=hold_events)
        t, seqs = released[:, 0], released[:, 1]

    if misses or scenario.reorder_removal:
        forward_ns = np.full(n, LOST_NS, dtype=np.int64)
        np.minimum.at(forward_ns, seqs, t)
        forward_ns[forward_ns == LOST_NS] = -1
    else:
        forward_ns = release_ns  # each seq released once, at release_ns

    counters = Counters(
        forwarded=len(seqs),
        suppressed=duplicates - misses,
        lost_copies=lost_copies,
        window_miss_duplicates=misses,
        hold_timeouts=hold_events["timeout"],
        hold_give_ups=hold_events["give_up"],
        padded=padded,
        padding_ns=padding_total,
        shared_losses=shared_losses,
        forced_losses=forced_losses,
        trace_wraps=trace_wraps,
    )
    return SimResult(
        scenario=scenario,
        forwarded_order=seqs,
        counters=counters,
        warnings=warnings,
        send_ns=send_ns,
        arrival_ns=arrival_ns,
        rail_delay_ns=rail_delay_ns,
        forward_ns=forward_ns,
        padding_ns=padding_ns,
    )


# ---------------------------------------------------------------------------
# parameter sweeps


def _resolve_parent(scenario: Scenario, parameter: str):
    obj = scenario
    parts = parameter.split(".")
    for part in parts[:-1]:
        if part.isdigit() and isinstance(obj, (list, tuple)):
            idx = int(part)
            if idx >= len(obj):
                raise ConfigurationError(f"parameter {parameter!r}: index {idx} out of range")
            obj = obj[idx]
        elif hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            raise ConfigurationError(f"unknown parameter path {parameter!r}")
    return obj, parts[-1]


def set_parameter(scenario: Scenario, parameter: str, value) -> None:
    """Assign a numeric scenario field addressed by a dotted path,
    e.g. ``paths.0.loss.rate`` or ``traffic.interval``."""
    obj, leaf = _resolve_parent(scenario, parameter)
    if not hasattr(obj, leaf):
        raise ConfigurationError(f"unknown parameter path {parameter!r}")
    current = getattr(obj, leaf)
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise ConfigurationError(
            f"parameter {parameter!r} does not address a numeric field"
        )
    try:
        if not isinstance(current, int):
            value = float(value)
        elif isinstance(value, float) and not value.is_integer():
            raise ValueError  # int() would run 20.5 as 20
        else:
            value = int(value)
    except (ValueError, OverflowError):
        raise ConfigurationError(
            f"parameter {parameter!r}: {value!r} is not an integer") from None
    setattr(obj, leaf, value)


def run_sweep(base: Scenario, parameter: str,
              values: Sequence[float]) -> list[tuple[float, SimResult]]:
    """One independent run per value; run i uses seed base.seed + i."""
    if parameter == "seed":  # the loop below would overwrite every value
        raise ConfigurationError("parameter 'seed' cannot be swept: run i uses "
                                 "the base seed + i (set it with --seed)")
    results = []
    for i, value in enumerate(values):
        scenario = copy.deepcopy(base)
        set_parameter(scenario, parameter, value)
        scenario.seed = base.seed + i
        scenario.label = f"{base.label or 'sweep'}[{parameter}={value}]"
        results.append((value, simulate(scenario)))
    return results


# ---------------------------------------------------------------------------
# scenario files


def _hashed(value):
    """A trace as its ``[seq, delay or null]`` entries (a printed array
    elides the middle of a long one), anything else as ``str``."""
    if isinstance(value, Trace):
        return {"entries": [[s, None if math.isnan(d) else d] for s, d
                            in zip(value.seq.tolist(), value.delay_ms.tolist())]}
    return str(value)


def scenario_sha256(scenario: Scenario) -> str:
    blob = json.dumps(asdict(scenario), sort_keys=True, default=_hashed)
    return hashlib.sha256(blob.encode()).hexdigest()


def _field(sec, key, default, cast, where, problems):
    raw = sec.get(key, None)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError:
        problems.append(f"[{where}] {key}: invalid value {raw!r}")
        return default


def parse_scenario(text: str, base_dir: Path | str = ".") -> Scenario:
    """Parse the scenario file format (see README for the schema)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigurationError(f"scenario parse error: {e}") from None

    base_dir = Path(base_dir)
    problems: list[str] = []

    sc = cp["scenario"] if cp.has_section("scenario") else {}
    tr = cp["traffic"] if cp.has_section("traffic") else {}
    pad = cp["padding"] if cp.has_section("padding") else {}

    known = {"scenario", "traffic", "padding"}
    for name in cp.sections():
        if name in known:
            continue
        kind, _, suffix = name.partition(".")
        if kind == "shared" and suffix:
            continue
        if kind == "paths" and suffix.isdigit():
            continue
        problems.append(f"[{name}]: unknown section (expected [paths.N] or [shared.ID])")

    shared = []
    for name in cp.sections():
        if not (name.startswith("shared.") and len(name) > len("shared.")):
            continue
        sec = cp[name]
        shared.append(SharedSegmentSpec(
            id=name.split(".", 1)[1],
            loss=LossModel(
                rate=_field(sec, "rate", 0.0, float, name, problems),
                correlation=_field(sec, "correlation", 0.0, float, name, problems),
            ),
        ))

    paths = []
    forced: dict[str, tuple[int, ...]] = {}
    path_sections = sorted(
        (name for name in cp.sections()
         if name.startswith("paths.") and name.split(".", 1)[1].isdigit()),
        key=lambda name: int(name.split(".", 1)[1]),
    )
    for name in path_sections:
        sec = cp[name]
        pid = sec.get("id", name.split(".", 1)[1])
        kind = sec.get("delay", "constant")
        trace = None
        if kind == "trace":
            trace_file = sec.get("trace", None)
            if trace_file is None:
                problems.append(f"[{name}]: delay = trace requires a trace file")
            else:
                trace_path = base_dir / trace_file
                if not trace_path.exists():
                    problems.append(f"[{name}]: trace file not found: {trace_path}")
                else:
                    trace = load_trace(read_text(trace_path, "trace file"))
        delay = DelayModel(
            kind=kind,
            mean=_field(sec, "mean", 0.0, float, name, problems),
            stddev=_field(sec, "stddev", 0.0, float, name, problems),
            correlation=_field(sec, "delay_correlation", 0.0, float, name, problems),
            trace=trace,
            pareto_alpha=_field(sec, "pareto_alpha", 2.0, float, name, problems),
            pareto_weight=_field(sec, "pareto_weight", 0.25, float, name, problems),
        )
        loss = LossModel(
            rate=_field(sec, "rate", 0.0, float, name, problems),
            correlation=_field(sec, "correlation", 0.0, float, name, problems),
        )
        paths.append(PathSpec(id=pid, loss=loss, delay=delay,
                              shared=sec.get("shared", None)))
        if sec.get("force_loss", "").strip():
            def _seq_list(raw):
                return tuple(int(x) for x in raw.split(","))
            forced[pid] = _field(sec, "force_loss", (), _seq_list, name, problems)

    scenario = Scenario(
        paths=paths,
        shared_segments=shared,
        traffic=TrafficSpec(
            packet_size=_field(tr, "packet_size", 200, int, "traffic", problems),
            interval=_field(tr, "interval", 20.0, float, "traffic", problems),
            count=_field(tr, "count", 6000, int, "traffic", problems),
        ),
        padding=PaddingConfig(
            enabled=_field(pad, "enabled", False, _parse_bool, "padding", problems),
            target_one_way=_field(pad, "target_one_way", 0.0, float, "padding",
                                  problems),
        ),
        reorder_removal=_field(sc, "reorder_removal", False, _parse_bool,
                               "scenario", problems),
        seed=_field(sc, "seed", 0, int, "scenario", problems),
        label=sc.get("label", ""),
        dedup_window=_field(sc, "dedup_window", DEFAULT_DEDUP_WINDOW, int,
                            "scenario", problems),
        forced_losses=forced,
    )
    problems += validate_scenario(scenario)
    if problems:
        raise ValidationError(problems)
    return scenario


def _parse_bool(text: str) -> bool:
    v = str(text).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def read_text(path: Path, what: str) -> str:
    """Contents of a text file; a file that cannot be read or decoded
    (a directory, no permission, not UTF-8) is a ConfigurationError."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigurationError(f"cannot read {what} {path}: {e}") from None


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"scenario not found: {path}")
    return parse_scenario(read_text(path, "scenario"), base_dir=path.parent)
