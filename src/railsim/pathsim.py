"""Per-path packet outcomes: parametric loss/delay models and recorded traces.

Every path owns an independent RNG stream derived from the scenario seed,
so a (path spec, seed) pair always reproduces the same outcome sequence
regardless of how many packets are drawn or whether they are drawn one at
a time or in bulk.  Randomness is laid out in fixed-size chunks with a
fixed column layout per chunk, but only the rows handed out are drawn
(the paretonormal kind's normal column is the one exception, drawn whole
per chunk); the sequential recurrences (sticky loss, AR(1) delay) run on
the rows handed out only.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import ConfigurationError, TraceParseError

# Randomness is laid out in chunks of this many rows, one column after
# another, so that packet i sees the same draws no matter how many packets
# a run asks for; a run draws only the rows it reads.
CHUNK = 65536

_MASK64 = (1 << 64) - 1
_PATH_STREAM = 1
_SHARED_STREAM = 2

DELAY_KINDS = ("constant", "normal", "paretonormal", "trace")


def stream_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Independent generator for one (seed, stream kind, index) triple."""
    ss = np.random.SeedSequence([int(seed) & _MASK64, stream, index])
    return np.random.default_rng(ss)


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    return stream_rng(seed, _PATH_STREAM, path_index)


def shared_rng(seed: int, segment_index: int) -> np.random.Generator:
    return stream_rng(seed, _SHARED_STREAM, segment_index)


# ---------------------------------------------------------------------------
# model types


@dataclass
class LossModel:
    """Bernoulli loss with optional first-order stickiness.

    With probability ``correlation`` a packet repeats the previous loss
    outcome, otherwise it draws fresh with probability ``rate``.  The
    stationary loss rate of this process is ``rate`` for any correlation.
    """

    rate: float = 0.0
    correlation: float = 0.0


@dataclass
class DelayModel:
    """One-way delay model for a path.

    kind is one of constant | normal | paretonormal | trace.  The
    paretonormal is a mixture: with weight ``pareto_weight`` the centred
    deviate comes from a Pareto tail (shape ``pareto_alpha``, scale 1,
    recentred to zero mean), otherwise from a standard normal; the deviate
    is scaled by ``stddev`` and added to ``mean``.  ``correlation`` applies
    an AR(1) filter to the pre-clamp deviates; samples are clamped to >= 0.
    """

    kind: str = "constant"
    mean: float = 0.0
    stddev: float = 0.0
    correlation: float = 0.0
    trace: "Trace | None" = None
    pareto_alpha: float = 2.0
    pareto_weight: float = 0.25


@dataclass
class SharedSegmentSpec:
    """A network segment common to several paths; its per-packet loss
    outcome is sampled once and applied to every path that references it."""

    id: str
    loss: LossModel = field(default_factory=LossModel)


@dataclass
class PathSpec:
    """One emulated WAN path."""

    id: str
    loss: LossModel = field(default_factory=LossModel)
    delay: DelayModel = field(default_factory=DelayModel)
    shared: str | None = None


# The engine's clock is int64 nanoseconds.  Each time it takes in (run
# length, delay, padding target) stays below 2**60 ns, about 36 years, so
# the sums it forms (send + delay + padding + hold timeout) stay inside
# int64 and below the reorder hold's 2**62 sentinel.
CLOCK_LIMIT_NS = 2 ** 60


def fits_clock(ms: float) -> bool:
    """True when ``ms`` is finite and within the engine's clock range."""
    return math.isfinite(ms) and abs(ms) * 1e6 < CLOCK_LIMIT_NS


def validate_loss_model(m: LossModel, where: str = "loss") -> list[str]:
    problems = []
    # the range checks also reject NaN: every comparison with it is false
    if not 0.0 <= m.rate <= 1.0:
        problems.append(f"{where}.rate: must be in [0, 1], got {m.rate}")
    if not 0.0 <= m.correlation < 1.0:
        problems.append(f"{where}.correlation: must be in [0, 1), got {m.correlation}")
    return problems


def validate_delay_model(m: DelayModel, where: str = "delay") -> list[str]:
    problems = []
    if m.kind not in DELAY_KINDS:
        problems.append(f"{where}.kind: unknown kind {m.kind!r}")
    if not m.mean >= 0:
        problems.append(f"{where}.mean: must be >= 0, got {m.mean}")
    elif not fits_clock(m.mean):
        problems.append(f"{where}.mean: {m.mean} ms overflows the int64 ns clock")
    if not 0 <= m.stddev < math.inf:
        problems.append(f"{where}.stddev: must be finite and >= 0, got {m.stddev}")
    if not 0.0 <= m.correlation < 1.0:
        problems.append(f"{where}.correlation: must be in [0, 1), got {m.correlation}")
    if m.kind == "trace" and m.trace is None:
        problems.append(f"{where}.trace: kind 'trace' requires a trace")
    if not 1.0 < m.pareto_alpha < math.inf:
        problems.append(
            f"{where}.pareto_alpha: must be finite and > 1, got {m.pareto_alpha}")
    if not 0.0 <= m.pareto_weight <= 1.0:
        problems.append(f"{where}.pareto_weight: must be in [0, 1]")
    return problems


def _check(problems: list[str]) -> None:
    if problems:
        raise ConfigurationError("; ".join(problems))


# ---------------------------------------------------------------------------
# recorded traces


@dataclass
class Trace:
    """Recorded per-packet one-way delays; delay None marks a lost packet."""

    entries: list[tuple[int, float | None]]

    def __post_init__(self):
        if not self.entries:
            raise TraceParseError("empty trace")
        for seq, d in self.entries:
            # also rejects NaN: every comparison with it is false
            if d is not None and not 0 <= d < math.inf:
                raise TraceParseError(
                    f"seq {seq}: delay must be finite and >= 0, got {d}")
        self._delay_ms = np.array(
            [math.nan if d is None else d for _, d in self.entries], dtype=np.float64
        )
        self._lost = np.isnan(self._delay_ms)

    def __len__(self) -> int:
        return len(self.entries)

    def replay(self, start: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Positional replay of packets [start, start+n), wrapping around.

        Returns (lost bool[n], delay_ms float[n]).
        """
        idx = (start + np.arange(n, dtype=np.int64)) % len(self.entries)
        return self._lost[idx], self._delay_ms[idx]


def load_trace(source: str | IO[str]) -> Trace:
    """Parse a trace: one ``seq,delay_ms`` pair per line.

    ``#`` starts a comment, blank lines are skipped, delay 0 marks a lost
    packet, delays must be finite and >= 0, sequence numbers must be
    strictly increasing.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    entries: list[tuple[int, float | None]] = []
    prev_seq = None
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceParseError(f"expected 'seq,delay_ms', got {line!r}", lineno)
        try:
            seq = int(parts[0])
            delay = float(parts[1])
        except ValueError:
            raise TraceParseError(f"malformed entry {line!r}", lineno) from None
        if not math.isfinite(delay):
            raise TraceParseError(f"non-finite delay {delay}", lineno)
        if delay < 0:
            raise TraceParseError(f"negative delay {delay}", lineno)
        if prev_seq is not None and seq <= prev_seq:
            raise TraceParseError("non-monotone seq", lineno)
        prev_seq = seq
        entries.append((seq, None if delay == 0 else delay))
    if not entries:
        raise TraceParseError("empty trace")
    return Trace(entries)


# ---------------------------------------------------------------------------
# scan kernels


def sticky_scan(u_fresh, u_repeat, rate, corr, prev):
    """First-order sticky Bernoulli process.

    Outcome i repeats outcome i-1 with probability ``corr`` (decided by
    ``u_repeat[i]``), otherwise it is a fresh draw ``u_fresh[i] < rate``.
    ``prev`` is the outcome carried over from an earlier chunk (-1 when
    there is none).  Returns (bool array of outcomes, last outcome).

    Outcome i is the fresh draw of the last fresh row at or before i, so
    no loop is needed: rows with ``u_repeat >= corr`` are fresh (row 0 too
    when nothing is carried over), a running maximum over their indices
    finds that row, and rows before the first fresh one repeat ``prev``.
    """
    n = len(u_fresh)
    if n == 0:
        return np.empty(0, dtype=bool), prev
    fresh = u_repeat >= corr
    if prev == -1:
        fresh[0] = True
    src = np.where(fresh, np.arange(n), -1)
    np.maximum.accumulate(src, out=src)
    out = (u_fresh < rate)[src]
    out[src < 0] = prev == 1
    return out, int(out[-1])


def ar1_scan(eps, corr, prev, has_prev):
    """AR(1) scan: x[i] = corr * x[i-1] + sqrt(1 - corr^2) * eps[i].

    The first element is taken verbatim from ``eps`` when ``has_prev``
    is false, so a chunked scan continues an earlier one exactly.
    Returns (float64 array, last value).  The correlated case stays a
    sequential loop: no numpy-only form reproduces its rounding exactly.
    """
    n = len(eps)
    if n == 0:
        return np.empty(0, dtype=np.float64), prev
    if corr == 0.0:
        # Value-identical to the scan (adding 0.0 normalises -0.0).
        out = eps + 0.0
        return out, float(out[-1])
    s = math.sqrt(1.0 - corr * corr)
    out: list[float] = []
    x = prev
    if not has_prev:
        x = float(eps[0])
        out.append(x)
        eps = eps[1:]
    # numpy's float64 product is the same IEEE product as the scalar one
    for b in (s * eps).tolist():
        x = corr * x + b
        out.append(x)
    return np.array(out, dtype=np.float64), x


# ---------------------------------------------------------------------------
# sampling streams


# Seeds the construction of column clones only; each clone's state is
# overwritten at once (a fixed seed skips the OS entropy read).
_CLONE_SEED = np.random.SeedSequence(0)


def _clone(state: dict, words: int) -> np.random.Generator:
    """Generator over a PCG64 at ``state`` advanced by ``words`` outputs."""
    bit_gen = np.random.PCG64(_CLONE_SEED)
    bit_gen.state = state
    bit_gen.advance(words)
    return np.random.Generator(bit_gen)


class _Buffered:
    """take(n) over chunks with a fixed column layout, drawing only the rows
    handed out.

    Each chunk's randomness is laid out as whole columns of ``CHUNK`` rows
    in a fixed order (``layout``: ``"u"`` a uniform column, ``"n"`` a
    standard-normal one), exactly as if each column were drawn whole from
    the stream's generator in turn, so packet i sees the same randomness
    whatever the request sizes.  Only the rows a ``take`` returns are drawn:
    when a chunk starts, each column gets its own PCG64 clone of the
    chunk-start state, advanced to where that column begins.  This is
    exact because ``random()`` takes one 64-bit word per value, and
    consecutive ``random``/``standard_normal`` calls equal one call and
    leave the same state.  A normal column followed by another column is
    drawn whole, because a normal takes a variable number of words and the
    next column starts where it ends.  The stream's generator moves to the
    last column's end state when a take crosses into the next chunk; by
    then every row of the chunk has been drawn.

    The work that turns draws into outcomes (the sequential scans, the
    clamp, the trace merge) runs on the rows a ``take`` returns; the scans
    carry their state from one call to the next, so split takes equal one
    large take.
    """

    def __init__(self, rng: np.random.Generator, layout: str):
        if not (isinstance(rng, np.random.Generator)
                and type(rng.bit_generator) is np.random.PCG64):
            # the skip over unread rows relies on PCG64's one word per value
            raise ConfigurationError(
                f"sampling streams need a numpy Generator over PCG64, got {rng!r}")
        self._rng = rng
        self._layout = layout
        # per column: a draw method positioned at the cursor row, or the
        # whole column when it had to be drawn up front
        self._cols: list = []
        self._tail: np.random.Generator | None = None  # the last column's generator
        self._cursor = CHUNK  # next unfinished row of the current chunk
        self._chunk_start = -CHUNK  # packet index of the current chunk's row 0

    def _start_chunk(self) -> None:
        if self._tail is not None:
            self._rng.bit_generator.state = self._tail.bit_generator.state
        base, words = self._rng.bit_generator.state, 0
        self._cols = []
        for j, kind in enumerate(self._layout):
            gen = _clone(base, words)
            if kind == "u":
                self._cols.append(gen.random)
                words += CHUNK
            elif j < len(self._layout) - 1:
                self._cols.append(gen.standard_normal(CHUNK))
                base, words = gen.bit_generator.state, 0
            else:
                self._cols.append(gen.standard_normal)
        self._tail = gen
        self._cursor = 0
        self._chunk_start += CHUNK

    def _rows(self, k: int) -> tuple[np.ndarray, ...]:
        lo = self._cursor
        return tuple(col[lo:lo + k] if isinstance(col, np.ndarray) else col(k)
                     for col in self._cols)

    def _finish(self, rows: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def _take(self, n: int) -> tuple[np.ndarray, ...]:
        parts: list[tuple[np.ndarray, ...]] = []
        while True:
            if self._cursor == CHUNK:
                self._start_chunk()
            k = min(n, CHUNK - self._cursor)
            parts.append(self._finish(self._rows(k)))
            self._cursor += k
            n -= k
            if n == 0:
                break
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(c) for c in zip(*parts))


class LossStream(_Buffered):
    """Chunked sampler for one LossModel."""

    def __init__(self, model: LossModel, rng: np.random.Generator):
        _check(validate_loss_model(model))
        super().__init__(rng, "uu")  # u_repeat, u_fresh
        self.model = model
        self._state = -1

    def _finish(self, rows):
        u_repeat, u_fresh = rows
        out, self._state = sticky_scan(
            u_fresh, u_repeat, self.model.rate, self.model.correlation, self._state)
        return (out,)

    def take(self, n: int) -> np.ndarray:
        """Next ``n`` loss outcomes as a bool array (True = lost)."""
        return self._take(n)[0]


# Per-chunk column layout of each delay kind, after the loss columns
# (u_repeat, u_fresh): normal draws eps; paretonormal draws u_mix, z, u_par;
# constant and trace draw no delay randomness.
_DELAY_LAYOUT = {"normal": "n", "paretonormal": "unu"}


class PathStream(_Buffered):
    """Chunked sampler producing (lost, delay) columns for one path.

    The per-chunk column layout is fixed (loss columns, then delay
    columns), so outcome i is independent of the total number of packets
    requested.  Only the path's own loss process is sampled here;
    shared-segment loss is combined by the caller.
    """

    def __init__(self, spec: PathSpec, rng: np.random.Generator):
        _check(validate_loss_model(spec.loss, f"path {spec.id}: loss"))
        _check(validate_delay_model(spec.delay, f"path {spec.id}: delay"))
        super().__init__(rng, "uu" + _DELAY_LAYOUT.get(spec.delay.kind, ""))
        self.spec = spec
        self._loss_state = -1
        self._ar_prev = 0.0
        self._ar_has = False

    def _delay_rows(self, rows: tuple[np.ndarray, ...]) -> np.ndarray:
        d = self.spec.delay
        if d.kind == "constant":
            return np.full(len(rows[0]), float(d.mean))
        if d.kind == "normal":
            eps = d.stddev * rows[2]
        else:  # paretonormal
            u_mix, z, u_par = rows[2:]
            u_par = 1.0 - u_par  # (0, 1], keeps the tail finite
            pareto = u_par ** (-1.0 / d.pareto_alpha)
            pareto_mean = d.pareto_alpha / (d.pareto_alpha - 1.0)
            eps = d.stddev * np.where(u_mix < d.pareto_weight, pareto - pareto_mean, z)
        x, self._ar_prev = ar1_scan(eps, d.correlation, self._ar_prev, self._ar_has)
        self._ar_has = self._ar_has or len(eps) > 0
        return np.maximum(d.mean + x, 0.0)

    def _finish(self, rows: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
        u_repeat, u_fresh = rows[:2]
        lost, self._loss_state = sticky_scan(
            u_fresh, u_repeat, self.spec.loss.rate, self.spec.loss.correlation,
            self._loss_state,
        )
        if self.spec.delay.kind == "trace":
            t_lost, delay = self.spec.delay.trace.replay(
                self._chunk_start + self._cursor, len(u_repeat))
            lost = lost | t_lost
        else:
            delay = self._delay_rows(rows)
        return lost, delay

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Next ``n`` packets as (lost bool[n], delay_ms float[n]).

        The delay column is populated for every packet; entries where
        ``lost`` is True are ignored downstream.
        """
        return self._take(n)
