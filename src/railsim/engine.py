"""Deterministic simulation of a replicated packet stream over a set of
emulated WAN paths.  ``simulate`` validates the scenario, samples each
path's outcomes into one ledger row of copy arrivals and hands the
ledger to the receiving edge device (``railedge.receive``: duplicate
suppression, delay padding and optional reorder removal).

Time is integer nanoseconds internally so event ordering never suffers
float drift; all interfaces speak milliseconds.
"""

from __future__ import annotations

import configparser
import copy
import functools
import hashlib
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ValidationError
from .pathsim import (DELAY_FIELDS, DelayModel, LossModel, PathSpec,
                      SharedSegmentSpec, Trace, load_trace, path_key, sample_path,
                      shared_key)
from .railedge import LOST_NS, receive

NS_PER_MS = 1_000_000

# The engine's clock is int64 nanoseconds.  Each time it takes in (run
# length, delay, padding target) stays below 2**60 ns, about 36 years, so
# the sums it forms (send + delay + padding + hold timeout) stay inside
# int64 and below the reorder hold's 2**62 sentinel.
CLOCK_LIMIT_NS = 2 ** 60

DEFAULT_DEDUP_WINDOW = 4096


def ms_to_ns(ms: float) -> int:
    return int(round(ms * NS_PER_MS))


def fits_clock(ms: float) -> bool:
    """True when ``ms`` is finite and within the engine's clock range."""
    return math.isfinite(ms) and abs(ms) * 1e6 < CLOCK_LIMIT_NS


@dataclass
class TrafficSpec:
    """Probe stream: fixed-size packets emitted at a fixed interval."""

    packet_size: int = 200   # bytes
    interval: float = 20.0   # ms between packets
    count: int = 6000        # 2 minutes at the default interval


@dataclass
class PaddingConfig:
    """Delay padding: hold early copies so the one-way delay presented to
    the LAN is a roughly constant ``target_one_way`` (never drops)."""

    enabled: bool = False
    target_one_way: float = 0.0  # ms; also the reorder-removal hold timeout


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


class SimResult(NamedTuple):
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


# What a scenario field declared int, float, bool, str or Trace takes: an
# int field an int or a numpy integer, a float field those or a float or a
# numpy float, a bool field a bool or a numpy bool, a str field a str, and
# an optional field also None.  A bool is never a number.
_ACCEPTS = {"int": (int, np.integer), "float": (int, float, np.integer, np.floating),
            "bool": (bool, np.bool_), "str": str, "str | None": (str, type(None)),
            "Trace | None": (Trace, type(None))}
_WANTED = {"int": "an integer", "float": "a number", "bool": "a bool", "str": "a str",
           "str | None": "a str or None", "Trace | None": "a Trace or None"}
# The spec objects a scenario field holds, alone or in a list, by annotation.
_SPECS = {cls.__name__: cls for cls in (TrafficSpec, PaddingConfig, PathSpec,
                                        SharedSegmentSpec, LossModel, DelayModel)}
_LISTS = {"list[PathSpec]": PathSpec, "list[SharedSegmentSpec]": SharedSegmentSpec}


@functools.cache
def _field_types(cls) -> tuple[tuple[str, str], ...]:
    """(name, annotation text) of each field of ``cls``; annotations are postponed."""
    return tuple((f.name, f.type) for f in fields(cls))


def declared_types(cls) -> dict[str, str]:
    """The int, float, bool, str and Trace fields of ``cls``, name to type."""
    return {name: kind for name, kind in _field_types(cls) if kind in _ACCEPTS}


def _fits(value, kind: str) -> bool:
    return isinstance(value, _ACCEPTS[kind]) and (type(value) is not bool or kind == "bool")


def _type_problems(obj, cls, where: str, problems: list[str]) -> None:
    """Append a problem for ``obj`` (named ``where``, "" for the scenario)
    when it is not a ``cls``, else for each field at any depth that does
    not fit its declared type.  A numpy scalar that fits is replaced by
    its Python value, so later checks and the run see plain values."""
    if not isinstance(obj, cls):
        problems.append(f"{where or 'scenario'}: must be a {cls.__name__}, got {obj!r}")
        return
    for name, kind in _field_types(cls):
        value = getattr(obj, name)
        if kind in _ACCEPTS and _fits(value, kind):
            if isinstance(value, np.generic):
                setattr(obj, name, value.item())
            continue
        at = f"{where}.{name}" if where else name
        if kind in _ACCEPTS:
            problems.append(f"{at}: must be {_WANTED[kind]}, got {value!r}")
        elif kind in _SPECS:
            _type_problems(value, _SPECS[kind], at, problems)
        elif kind in _LISTS and isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                _type_problems(item, _LISTS[kind], f"{at}[{i}]", problems)
        elif kind in _LISTS:
            problems.append(f"{at}: must be a list of {_LISTS[kind].__name__}, got {value!r}")
        elif not isinstance(value, dict):  # forced_losses
            problems.append(f"{at}: must be a dict, got {value!r}")
        else:
            for pid, seqs in value.items():
                if not isinstance(seqs, (list, tuple)):
                    problems.append(f"{at}[{pid}]: must be a sequence of seqs, got {seqs!r}")
                    continue
                problems += [f"{at}[{pid}]: seq must be an integer, got {q!r}"
                             for q in seqs if not _fits(q, "int")]


def validate_loss_model(m: LossModel, where: str = "loss") -> list[str]:
    """Range problems of a loss model whose fields fit their declared types."""
    # the range checks also reject NaN: every comparison with it is false
    problems = []
    if not 0.0 <= m.rate <= 1.0:
        problems.append(f"{where}.rate: must be in [0, 1], got {m.rate}")
    if not 0.0 <= m.correlation < 1.0:
        problems.append(f"{where}.correlation: must be in [0, 1), got {m.correlation}")
    return problems


def validate_delay_model(m: DelayModel, where: str = "delay") -> list[str]:
    """Kind and range problems of a delay model whose fields fit their types."""
    problems = []
    if m.kind not in DELAY_FIELDS:
        problems.append(f"{where}.kind: unknown kind {m.kind!r}")
    else:
        # a field the kind does not read changes nothing, so a value other
        # than its default is a mistake (NaN differs from every default)
        for f in fields(m):
            if (f.name not in ("kind", *DELAY_FIELDS[m.kind])
                    and getattr(m, f.name) != f.default):
                problems.append(f"{where}.{f.name}: kind {m.kind!r} does not "
                                f"read it, so it must keep its default {f.default!r}")
    if m.kind == "trace" and m.trace is None:
        problems.append(f"{where}.trace: kind 'trace' requires a Trace, got None")
    if not m.mean >= 0:
        problems.append(f"{where}.mean: must be >= 0, got {m.mean}")
    elif not fits_clock(m.mean):
        problems.append(f"{where}.mean: {m.mean} ms overflows the int64 ns clock")
    if not 0 <= m.stddev < math.inf:
        problems.append(f"{where}.stddev: must be finite and >= 0, got {m.stddev}")
    if not 0.0 <= m.correlation < 1.0:
        problems.append(f"{where}.correlation: must be in [0, 1), got {m.correlation}")
    if not 1.0 < m.pareto_alpha < math.inf:
        problems.append(f"{where}.pareto_alpha: must be finite and > 1, got {m.pareto_alpha}")
    if not 0.0 <= m.pareto_weight <= 1.0:
        problems.append(f"{where}.pareto_weight: must be in [0, 1], got {m.pareto_weight}")
    return problems


def validate_scenario(s: Scenario) -> list[str]:
    """Every problem of ``s``, [] when it can run.  Type problems come alone:
    the range and reference checks run only once every field fits its
    declared type, each numpy scalar replaced in place by its Python value."""
    problems: list[str] = []
    _type_problems(s, Scenario, "", problems)
    if problems:
        return problems
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
    used = {p.shared for p in s.paths}
    for i, g in enumerate(s.shared_segments):
        problems += validate_loss_model(g.loss, f"shared_segments[{i}].loss")
        if g.id not in used:
            problems.append(f"shared_segments[{i}]: no path references segment {g.id!r}")
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
        problems.append(f"traffic.packet_size: must be >= 1, got {s.traffic.packet_size}")
    target = s.padding.target_one_way
    if not fits_clock(target):
        problems.append(f"padding.target_one_way: must be finite and fit the "
                        f"int64 ns clock, got {target}")
    elif s.padding.enabled and target < 0:
        problems.append("padding.target_one_way: must be >= 0 when enabled")
    if s.reorder_removal and target <= 0:
        problems.append("reorder_removal: requires padding.target_one_way > 0 (hold timeout)")
    elif s.reorder_removal and fits_clock(target) and ms_to_ns(target) == 0:
        problems.append(f"reorder_removal: padding.target_one_way {target} ms "
                        "(hold timeout) rounds to 0 ns")
    if s.dedup_window < 1:
        problems.append(f"dedup_window: must be >= 1, got {s.dedup_window}")
    for pid, seqs in s.forced_losses.items():
        if pid not in ids:
            problems.append(f"forced_losses: unknown path {pid!r}")
        problems += [f"forced_losses[{pid}]: seq {q} outside the run"
                     for q in map(int, seqs) if not 0 <= q < count]
    return problems


# ---------------------------------------------------------------------------
# simulation


def simulate(scenario: Scenario) -> SimResult:
    """Run one scenario and return the complete per-packet ledger.  The
    scenario must pass ``validate_scenario`` (else ValidationError), which
    also turns its numpy scalars into Python values in place."""
    problems = validate_scenario(scenario)
    if problems:
        raise ValidationError(problems)

    n = scenario.traffic.count
    dt_ns = ms_to_ns(scenario.traffic.interval)
    send_ns = np.arange(n, dtype=np.int64) * dt_ns
    warnings: list[str] = []

    # shared segments: one loss column per segment, each one referenced
    shared_lost = {seg.id: sample_path(PathSpec(seg.id, seg.loss),
                                       shared_key(scenario.seed, idx), n)[0]
                   for idx, seg in enumerate(scenario.shared_segments)}

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

    target_ns = ms_to_ns(scenario.padding.target_one_way)
    rail_delay_ns, padding_ns, forward_ns, forwarded_order, counts = receive(
        arrival_ns, send_ns, dt_ns, copy_max_ns, lost_copies,
        target_ns if scenario.padding.enabled else None, scenario.dedup_window,
        target_ns if scenario.reorder_removal else None)
    counters = Counters(lost_copies=lost_copies, shared_losses=shared_losses,
                        forced_losses=forced_losses, trace_wraps=trace_wraps, **counts)
    return SimResult(scenario=scenario, forwarded_order=forwarded_order,
                     counters=counters, warnings=warnings, send_ns=send_ns,
                     arrival_ns=arrival_ns, rail_delay_ns=rail_delay_ns,
                     forward_ns=forward_ns, padding_ns=padding_ns)


# ---------------------------------------------------------------------------
# parameter sweeps


def _has_field(obj, name: str) -> bool:
    return is_dataclass(obj) and name in {f.name for f in fields(obj)}


def set_parameter(scenario: Scenario, parameter: str, value) -> None:
    """Assign an int or float scenario field addressed by a dotted path of
    field names and list indices, e.g. ``paths.0.loss.rate`` or
    ``traffic.interval``, cast to the field's declared type."""
    obj = scenario
    *parents, leaf = parameter.split(".")
    for part in parents:
        if part.isdigit() and isinstance(obj, (list, tuple)):
            idx = int(part)
            if idx >= len(obj):
                raise ConfigurationError(f"parameter {parameter!r}: index {idx} out of range")
            obj = obj[idx]
        elif _has_field(obj, part):
            obj = getattr(obj, part)
        else:
            raise ConfigurationError(f"unknown parameter path {parameter!r}")
    if not _has_field(obj, leaf):
        raise ConfigurationError(f"unknown parameter path {parameter!r}")
    kind = declared_types(type(obj)).get(leaf)
    if kind not in ("int", "float"):
        raise ConfigurationError(f"parameter {parameter!r} does not address a numeric field")
    try:
        if kind == "float":
            value = float(value)
        elif float(value).is_integer():  # int() would run 20.5 as 20
            value = int(value)
        else:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"parameter {parameter!r}: {value!r} is not {_WANTED[kind]}") from None
    setattr(obj, leaf, value)


def run_sweep(base: Scenario, parameter: str,
              values: Sequence[float]) -> list[tuple[float, SimResult]]:
    """One independent run per value; run i uses seed base.seed + i."""
    if parameter == "seed":  # the loop below would overwrite every value
        raise ConfigurationError("parameter 'seed' cannot be swept: run i uses "
                                 "the base seed + i (set it with --seed)")
    problems: list[str] = []
    _type_problems(base, Scenario, "", problems)  # the seeds and labels read it
    if problems:
        raise ValidationError(problems)
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


def _parse_bool(text: str) -> bool:
    v = text.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _seq_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text.strip() else ()


# The scenario file format: per section kind, each key's target object,
# field and cast.  A key a section leaves out takes its field's dataclass
# default; a key not listed here is a problem.  parse_scenario resolves two
# keys further: a path's trace file name into its Trace, and its force_loss
# seqs into Scenario.forced_losses.
SCENARIO_KEYS = {
    "scenario": {"label": ("scenario", "label", str),
                 "seed": ("scenario", "seed", int),
                 "reorder_removal": ("scenario", "reorder_removal", _parse_bool),
                 "dedup_window": ("scenario", "dedup_window", int)},
    "traffic": {"packet_size": ("traffic", "packet_size", int),
                "interval": ("traffic", "interval", float),
                "count": ("traffic", "count", int)},
    "padding": {"enabled": ("padding", "enabled", _parse_bool),
                "target_one_way": ("padding", "target_one_way", float)},
    "shared.ID": {"rate": ("loss", "rate", float),
                  "correlation": ("loss", "correlation", float)},
    "paths.N": {"id": ("path", "id", str),
                "shared": ("path", "shared", str),
                "force_loss": ("path", "force_loss", _seq_list),
                "rate": ("loss", "rate", float),
                "correlation": ("loss", "correlation", float),
                "delay": ("delay", "kind", str),
                "mean": ("delay", "mean", float),
                "stddev": ("delay", "stddev", float),
                "delay_correlation": ("delay", "correlation", float),
                "trace": ("delay", "trace", str),
                "pareto_alpha": ("delay", "pareto_alpha", float),
                "pareto_weight": ("delay", "pareto_weight", float)},
}


def _section_kwargs(cp, name, kind, problems) -> dict[str, dict]:
    """The keys section ``name`` has, cast, as keyword arguments per target."""
    kwargs: dict[str, dict] = {}
    for key, raw in (cp[name].items() if cp.has_section(name) else ()):
        if key not in SCENARIO_KEYS[kind]:
            problems.append(f"[{name}] {key}: unknown key")
            continue
        target, attr, cast = SCENARIO_KEYS[kind][key]
        try:
            kwargs.setdefault(target, {})[attr] = cast(raw)
        except ValueError:
            problems.append(f"[{name}] {key}: invalid value {raw!r}")
    return kwargs


def parse_scenario(text: str, base_dir: Path | str = ".") -> Scenario:
    """Parse the scenario file format (see README for the schema)."""
    # values are literal (no % interpolation), and no header can name the
    # empty default section, so a [DEFAULT] section is an unknown one
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None, default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigurationError(f"scenario parse error: {e}") from None

    base_dir = Path(base_dir)
    problems: list[str] = []
    shared_sections, path_sections = [], []
    for name in cp.sections():
        kind, _, suffix = name.partition(".")
        if kind == "shared" and suffix:
            shared_sections.append(name)
        elif kind == "paths" and suffix.isdigit():
            path_sections.append(name)
        elif name not in ("scenario", "traffic", "padding"):
            problems.append(f"[{name}]: unknown section (expected [paths.N] or [shared.ID])")

    shared = []
    for name in shared_sections:
        loss = _section_kwargs(cp, name, "shared.ID", problems).get("loss", {})
        shared.append(SharedSegmentSpec(name.split(".", 1)[1], LossModel(**loss)))

    paths = []
    forced: dict[str, tuple[int, ...]] = {}
    for name in sorted(path_sections, key=lambda name: int(name.split(".", 1)[1])):
        kw = _section_kwargs(cp, name, "paths.N", problems)
        path, delay = kw.get("path", {}), kw.get("delay", {})
        pid = path.setdefault("id", name.split(".", 1)[1])
        if seqs := path.pop("force_loss", ()):
            forced[pid] = seqs
        trace_file = delay.pop("trace", None)
        if delay.get("kind") != "trace":
            if trace_file is not None:
                problems.append(f"[{name}] trace: requires delay = trace")
        elif trace_file is None:
            problems.append(f"[{name}]: delay = trace requires a trace file")
        elif not (trace_path := base_dir / trace_file).exists():
            problems.append(f"[{name}]: trace file not found: {trace_path}")
        else:
            delay["trace"] = load_trace(read_text(trace_path, "trace file"))
        paths.append(PathSpec(**path, loss=LossModel(**kw.get("loss", {})),
                              delay=DelayModel(**delay)))

    top: dict[str, dict] = {}
    for name in ("traffic", "padding", "scenario"):
        top |= _section_kwargs(cp, name, name, problems)
    scenario = Scenario(paths=paths, shared_segments=shared,
                        traffic=TrafficSpec(**top.get("traffic", {})),
                        padding=PaddingConfig(**top.get("padding", {})),
                        forced_losses=forced, **top.get("scenario", {}))
    problems += validate_scenario(scenario)
    if problems:
        raise ValidationError(problems)
    return scenario


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
