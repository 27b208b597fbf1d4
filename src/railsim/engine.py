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
                      SharedSegmentSpec, Trace, fits_clock, load_trace, path_rng,
                      sample_loss, sample_path, shared_rng,
                      validate_delay_model, validate_loss_model)
from .railedge import (DEFAULT_DEDUP_WINDOW, PaddingConfig,
                       reorder_hold_schedule, window_miss_duplicates)

NS_PER_MS = 1_000_000
LOST_NS = np.iinfo(np.int64).max  # arrival_ns of a lost copy

# test hook: force the sequential dedup pass even when the window is
# larger than the run (both code paths must agree exactly)
_FORCE_DEDUP_LOOP = False


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


def _dedup_pass(arrival_ns: np.ndarray, window: int):
    """First-forward bookkeeping over all delivered copies.

    arrival_ns is (n_paths, count) with LOST_NS marking lost copies.
    Returns (first_ns int64[count] with -1 when never forwarded,
    suppressed count, window-miss duplicate times and seqs as int64
    arrays).  The first copy of a seq is always forwarded, so only the
    duplicates need the sequential window pass.
    """
    n_paths, count = arrival_ns.shape
    delivered = arrival_ns < LOST_NS
    delivered_total = int(np.count_nonzero(delivered))
    first_raw = arrival_ns.min(axis=0)  # LOST_NS when no copy delivered
    first_ns = np.where(first_raw == LOST_NS, -1, first_raw)
    n_first = int(np.count_nonzero(first_ns >= 0))

    use_fast = window >= count
    if not use_fast:
        # Eviction needs more than `window` first-forwards between two
        # copies of one seq; count the first arrivals inside each seq's
        # (first, last] copy interval and take the fast path only when the
        # window provably cannot fill up.  Arrivals tied exactly at the
        # interval start are not counted, and at most one per other path
        # can tie there, hence the n_paths margin.
        n_dlv = np.count_nonzero(delivered, axis=0)
        multi = n_dlv >= 2
        if not np.any(multi):
            use_fast = True
        else:
            last = np.where(delivered, arrival_ns, np.int64(-1)).max(axis=0)
            ff = np.sort(first_raw[n_dlv >= 1])
            between = (np.searchsorted(ff, last[multi], side="right")
                       - np.searchsorted(ff, first_raw[multi], side="right"))
            use_fast = bool(between.max() <= window - n_paths)

    if use_fast and not _FORCE_DEDUP_LOOP:
        # no eviction is possible: no copy after the first is forwarded
        dup_t = dup_s = np.empty(0, dtype=np.int64)
    else:
        # the transpose lists the copies by seq, then path, so a stable
        # sort by time orders them by time, then seq, then path
        s_idx, p_idx = np.nonzero(delivered.T)
        t = arrival_ns[p_idx, s_idx]
        order = np.argsort(t, kind="stable")
        t, s_idx = t[order], s_idx[order]
        misses = window_miss_duplicates(s_idx, count, window)
        dup_t, dup_s = t[misses], s_idx[misses]
    return first_ns, delivered_total - n_first - len(dup_t), dup_t, dup_s


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
    shared_lost = {seg.id: sample_loss(seg.loss, shared_rng(scenario.seed, idx), n)
                   for idx, seg in enumerate(scenario.shared_segments)
                   if seg.id in referenced}

    arrival_ns = np.empty((len(scenario.paths), n), dtype=np.int64)
    lost_copies = 0
    for pidx, spec in enumerate(scenario.paths):
        lost, delay_ms = sample_path(spec, path_rng(scenario.seed, pidx), n)
        if spec.shared is not None:
            lost = lost | shared_lost[spec.shared]
        forced = scenario.forced_losses.get(spec.id)
        if forced:
            lost[np.asarray(forced, dtype=np.int64)] = True
        if spec.delay.kind == "trace" and n > len(spec.delay.trace):
            warnings.append(
                f"path {spec.id}: trace shorter than the run "
                f"({len(spec.delay.trace)} entries), replay wrapped around"
            )
        # lost entries may carry NaN delays (trace convention); zero them
        # before the integer cast, the mask keeps them out of the run
        delay_ms = np.where(lost, 0.0, delay_ms)
        if not fits_clock(float(delay_ms.max())):
            raise ConfigurationError(
                f"path {spec.id}: a sampled delay overflows the int64 ns clock")
        delay_ns = np.rint(delay_ms * NS_PER_MS).astype(np.int64)
        arrival_ns[pidx] = np.where(lost, LOST_NS, send_ns + delay_ns)
        lost_copies += int(np.count_nonzero(lost))

    first_ns, suppressed, dup_t, dup_s = _dedup_pass(arrival_ns, scenario.dedup_window)

    ever = first_ns >= 0
    rail_delay_ns = np.where(ever, first_ns - send_ns, -1)

    # padding (applies to first forwards; duplicates pass through as-is)
    if scenario.padding.enabled:
        target_ns = ms_to_ns(scenario.padding.target_one_way)
        padding_ns = np.where(ever, np.maximum(target_ns - rail_delay_ns, 0), 0)
        padded = int(np.count_nonzero(padding_ns))
        padding_total = _exact_sum(padding_ns, target_ns)
    else:
        padding_ns = np.zeros(n, dtype=np.int64)
        padded = padding_total = 0
    release_ns = np.where(ever, first_ns + padding_ns, -1)

    # release order: first forwards plus window-miss duplicates, by time
    # then seq; the reorder hold reschedules that stream when enabled
    seqs = np.nonzero(ever)[0]
    t = release_ns[seqs]
    if len(dup_s):
        t = np.concatenate([t, dup_t])
        seqs = np.concatenate([seqs, dup_s])
    order = np.lexsort((seqs, t))
    t, seqs = t[order], seqs[order]

    hold_events = Counter()
    if scenario.reorder_removal:
        timeout_ns = ms_to_ns(scenario.padding.target_one_way)
        released = reorder_hold_schedule(np.column_stack((t, seqs)), timeout_ns,
                                         window=scenario.dedup_window,
                                         events=hold_events)
        t, seqs = released[:, 0], released[:, 1]

    forward_ns = np.full(n, LOST_NS, dtype=np.int64)
    np.minimum.at(forward_ns, seqs, t)
    forward_ns[forward_ns == LOST_NS] = -1

    counters = Counters(
        forwarded=len(seqs),
        suppressed=suppressed,
        lost_copies=lost_copies,
        window_miss_duplicates=len(dup_s),
        hold_timeouts=hold_events["timeout"],
        hold_give_ups=hold_events["give_up"],
        padded=padded,
        padding_ns=padding_total,
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
