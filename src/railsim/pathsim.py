"""Per-path packet outcomes: parametric loss/delay models and recorded traces.

Every path owns an independent generator derived from the scenario seed.
``sample_path`` and ``sample_loss`` turn it into a run's loss mask and
delay column in one call.  Randomness is laid out in fixed-size chunks
with a fixed column layout per chunk, so packet i's outcome does not
depend on how many packets a run asks for; only the rows of the run are
drawn (the paretonormal kind's normal column is the one exception, drawn
whole per chunk).  Each chunk is reduced to what the sequential
recurrences (sticky loss, AR(1) delay) read as it is drawn, and each
recurrence then runs once over the whole run: sticky loss as a running
maximum, the AR(1) delay filter as a verified lockstep of row blocks that
equals the one-row-at-a-time loop bit for bit (see ``ar1_scan``).
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


class Trace:
    """Recorded one-way delays: int64 ``seq``, float64 ``delay_ms`` (NaN: lost)."""

    def __init__(self, seq, delay_ms):
        self.seq = np.asarray(seq, dtype=np.int64)
        self.delay_ms = np.asarray(delay_ms, dtype=np.float64)
        if self.seq.ndim != 1 or self.seq.shape != self.delay_ms.shape:
            raise TraceParseError("seq and delay_ms must be 1-D columns of one length")
        if not len(self.seq):
            raise TraceParseError("empty trace")
        bad = np.isinf(self.delay_ms) | (self.delay_ms < 0)  # NaN passes
        if bad.any():
            i = np.argmax(bad)
            raise TraceParseError(f"seq {self.seq[i]}: delay must be finite "
                                  f"and >= 0, got {self.delay_ms[i]}")

    def __len__(self) -> int:
        return len(self.seq)


def load_trace(source: str | IO[str]) -> Trace:
    """Parse a trace: one ``seq,delay_ms`` pair per line.

    ``#`` starts a comment, blank lines are skipped, delay 0 marks a lost
    packet, delays must be finite and >= 0, sequence numbers must be
    strictly increasing int64 values.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    seqs, delays = [], []
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
        if not -2 ** 63 <= seq < 2 ** 63:
            raise TraceParseError(f"seq {seq} outside the int64 range", lineno)
        if seqs and seq <= seqs[-1]:
            raise TraceParseError("non-monotone seq", lineno)
        seqs.append(seq)
        delays.append(math.nan if delay == 0 else delay)
    return Trace(seqs, delays)


# ---------------------------------------------------------------------------
# scan kernels


def sticky_scan(fresh, hit):
    """First-order sticky Bernoulli process.

    Row i is fresh when ``fresh[i]`` is true (row 0 always is: nothing
    precedes it), and a fresh row's outcome is ``hit[i]``; any other row
    repeats outcome i-1.  Returns the bool array of outcomes.

    Outcome i is the hit of the last fresh row at or before i, so no loop
    is needed: a running maximum over the fresh rows' indices finds that
    row.
    """
    src = np.where(fresh, np.arange(len(fresh)), 0)
    np.maximum.accumulate(src, out=src)
    return hit[src]


# The AR(1) scan's lockstep: with fewer blocks than this the loop is as
# fast (each lockstep step costs about as much as 15 loop rows, and there
# are up to two steps per block row); a block has at least this many rows,
# and a repair re-runs the loop this many rows at a time.
_MIN_BLOCKS = 32
_MIN_BLOCK_ROWS = 128


def _ar1_loop(x, corr, b, out):
    """Run ``x = corr * x + b[i]`` over ``b`` from the float ``x``, writing
    each value into ``out`` (as long as ``b``), and return the last value.

    Python floats, a list of at most ``CHUNK`` of them at a time: faster
    than numpy scalars, and than one list over a long run."""
    for lo in range(0, len(b), CHUNK):
        block: list[float] = []
        for v in b[lo:lo + CHUNK].tolist():
            x = corr * x + v
            block.append(x)
        out[lo:lo + len(block)] = block
    return x


def _ar1_repair(out, b, lo, hi, corr):
    """Make rows [lo, hi) of ``out`` exact, given an exact row lo - 1.

    Re-runs the loop from row lo - 1, ``_MIN_BLOCK_ROWS`` rows at a time,
    until a recomputed row equals the stored one bit for bit: the stored
    rows from there on follow from it and are right.  Returns False when
    no row merged, so row hi - 1 has changed.
    """
    x = float(out[lo - 1])
    for p in range(lo, hi, _MIN_BLOCK_ROWS):
        q = min(p + _MIN_BLOCK_ROWS, hi)
        fresh = np.empty(q - p)
        x = _ar1_loop(x, corr, b[p:q], fresh)
        same = np.flatnonzero(fresh.view(np.int64) == out[p:q].view(np.int64))
        if len(same):
            out[p:p + same[0]] = fresh[:same[0]]
            return True
        out[p:q] = fresh
    return False


@np.errstate(over="ignore", invalid="ignore")
def ar1_scan(eps, corr):
    """AR(1) scan: x[0] = eps[0], x[i] = corr * x[i-1] + sqrt(1 - corr^2) * eps[i].

    Returns a float64 array equal, bit for bit, to the loop that computes
    ``corr * x + b`` one row at a time (``b`` the scaled innovation).  No
    closed form reproduces that rounding, but the recurrence contracts:
    after ``w = ceil(45 / -ln |corr|)`` rows a start error has shrunk below
    2**-64 of itself, so a run from a wrong start almost always reaches the
    exact bits.  Rows 1.. are split into blocks of ``m = max(w, 128)`` rows
    and every block runs at once, one row index at a time, with the loop's
    two correctly rounded operations as numpy calls (no fused multiply-add):

    - block 0 starts from x[0], block k from a guess: the recurrence run
      from 0.0 over the last ``w`` rows of block k - 1, also in lockstep;
    - each guess is compared, bit for bit on an int64 view, with the value
      block k - 1 ended on.  By induction every block whose guess matched
      is exact;
    - the other blocks are repaired in order by ``_ar1_repair``.  A block
      that does not merge has changed its last value, so the next block
      is repaired too.

    Runs of fewer than ``_MIN_BLOCKS`` blocks, and the rows after the last
    block, use the loop.  Overflow goes to inf without a warning, as in
    the loop.
    """
    if corr == 0.0:
        # Value-identical to the scan (adding 0.0 normalises -0.0).
        return eps + 0.0
    n = len(eps)
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    out[0] = eps[0]
    w = math.ceil(45 / -math.log(abs(corr))) if abs(corr) < 1.0 else n
    m = max(w, _MIN_BLOCK_ROWS)
    k = (n - 1) // m
    # numpy's float64 product is the same IEEE product as the scalar one
    b = math.sqrt(1.0 - corr * corr) * eps
    if k < _MIN_BLOCKS:
        _ar1_loop(float(out[0]), corr, b[1:], out[1:])
        return out
    hi = 1 + k * m
    rows, steps = out[1:hi].reshape(k, m), b[1:hi].reshape(k, m)
    c = np.array(corr, dtype=np.float64)  # a 0-d operand makes the cheapest call
    start = np.zeros(k)
    start[0] = out[0]
    guess = start[1:]
    for step in steps[:-1, m - w:].T:
        np.multiply(guess, c, guess)
        np.add(guess, step, guess)
    x = start
    for row, step in zip(rows.T, steps.T):
        np.multiply(x, c, row)
        np.add(row, step, row)
        x = row
    miss = guess.view(np.int64) != rows[:-1, -1].view(np.int64)
    exact = 1  # blocks below this one are exact
    for blk in (np.flatnonzero(miss) + 1).tolist():
        if blk < exact:
            continue
        while blk < k and not _ar1_repair(out, b, 1 + blk * m, 1 + (blk + 1) * m,
                                          corr):
            blk += 1
        exact = blk + 1
    _ar1_loop(float(out[hi - 1]), corr, b[hi:], out[hi:])
    return out


# ---------------------------------------------------------------------------
# sampling


# Seeds the construction of column clones only; each clone's state is
# overwritten at once (a fixed seed skips the OS entropy read).
_CLONE_SEED = np.random.SeedSequence(0)


def _clone(state: dict, words: int) -> np.random.Generator:
    """Generator over a PCG64 at ``state`` advanced by ``words`` outputs."""
    bit_gen = np.random.PCG64(_CLONE_SEED)
    bit_gen.state = state
    bit_gen.advance(words)
    return np.random.Generator(bit_gen)


def _chunks(rng: np.random.Generator, layout: str, n: int):
    """Yield (start, rows) for the chunks of packets [0, n), in order.

    Each chunk's randomness is laid out as whole columns of ``CHUNK`` rows
    in a fixed order (``layout``: ``"u"`` a uniform column, ``"n"`` a
    standard-normal one), exactly as if each column were drawn whole from
    ``rng`` in turn, so packet i sees the same randomness whatever ``n``
    is.  ``rows`` holds one array per column with the chunk's rows below
    ``n`` only, the first of them packet ``start``'s.

    Only those rows are drawn: each column gets its own PCG64 clone of the
    chunk-start state, advanced to where the column begins.  This is exact
    because ``random()`` takes one 64-bit word per value, and consecutive
    ``random``/``standard_normal`` calls equal one call and leave the same
    state.  A normal column followed by another column is drawn whole,
    because a normal takes a variable number of words and the next column
    starts where it ends.  The next chunk starts where the last column of
    a full chunk ends.  ``rng`` is only read, never advanced.
    """
    if not (isinstance(rng, np.random.Generator)
            and type(rng.bit_generator) is np.random.PCG64):
        # the skip over unread rows relies on PCG64's one word per value
        raise ConfigurationError(
            f"path sampling needs a numpy Generator over PCG64, got {rng!r}")
    state = rng.bit_generator.state
    for start in range(0, n, CHUNK):
        k = min(n - start, CHUNK)
        base, words, rows = state, 0, []
        for j, kind in enumerate(layout):
            gen = _clone(base, words)
            if kind == "u":
                rows.append(gen.random(k))
                words += CHUNK
            elif j < len(layout) - 1:
                rows.append(gen.standard_normal(CHUNK)[:k])
                base, words = gen.bit_generator.state, 0
            else:
                rows.append(gen.standard_normal(k))
        state = gen.bit_generator.state
        yield start, rows


def _loss_rows(model: LossModel, u_repeat: np.ndarray, u_fresh: np.ndarray,
               fresh: np.ndarray, hit: np.ndarray) -> None:
    """One chunk's loss columns reduced, into ``fresh`` and ``hit``, to the
    rows that ``sticky_scan`` reads."""
    np.greater_equal(u_repeat, model.correlation, out=fresh)
    np.less(u_fresh, model.rate, out=hit)


def sample_loss(model: LossModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Loss outcomes of packets [0, n) as a bool array (True = lost).

    Each chunk's columns are ``u_repeat`` then ``u_fresh``.
    """
    _check(validate_loss_model(model))
    fresh, hit = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    for lo, (u_repeat, u_fresh) in _chunks(rng, "uu", n):
        hi = lo + len(u_repeat)
        _loss_rows(model, u_repeat, u_fresh, fresh[lo:hi], hit[lo:hi])
    return sticky_scan(fresh, hit)


# Per-chunk column layout of each delay kind, after the loss columns
# (u_repeat, u_fresh): normal draws eps; paretonormal draws u_mix, z, u_par;
# constant and trace draw no delay randomness.
_DELAY_LAYOUT = {"normal": "n", "paretonormal": "unu"}


# A stddev near the float limit overflows to inf here; the engine's clock
# check turns any non-finite delay into a ConfigurationError, so numpy need
# not also warn on stderr.
@np.errstate(over="ignore")
def _deviates(d: DelayModel, rows: list[np.ndarray]) -> np.ndarray:
    """One chunk's delay columns reduced to the scaled AR(1) innovations."""
    if d.kind == "normal":
        return d.stddev * rows[0]
    u_mix, z, u_par = rows
    u_par = 1.0 - u_par  # (0, 1], keeps the tail finite
    pareto = u_par ** (-1.0 / d.pareto_alpha)
    pareto_mean = d.pareto_alpha / (d.pareto_alpha - 1.0)
    return d.stddev * np.where(u_mix < d.pareto_weight, pareto - pareto_mean, z)


def sample_path(spec: PathSpec, rng: np.random.Generator,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """Packets [0, n) on one path as (lost bool[n], delay_ms float[n]).

    Each chunk holds the loss columns, then the delay columns of
    ``_DELAY_LAYOUT``, and is reduced to the rows the scans read as it is
    drawn; each scan then runs once over the whole run.  The delay column
    is populated for every packet; entries where ``lost`` is True are
    ignored downstream.  Only the path's own loss process is sampled
    here; shared-segment loss is combined by the caller.
    """
    _check(validate_loss_model(spec.loss, f"path {spec.id}: loss"))
    _check(validate_delay_model(spec.delay, f"path {spec.id}: delay"))
    d = spec.delay
    fresh, hit = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    eps = np.empty(n)
    for lo, (u_repeat, u_fresh, *delay_rows) in _chunks(
            rng, "uu" + _DELAY_LAYOUT.get(d.kind, ""), n):
        hi = lo + len(u_repeat)
        _loss_rows(spec.loss, u_repeat, u_fresh, fresh[lo:hi], hit[lo:hi])
        if delay_rows:
            eps[lo:hi] = _deviates(d, delay_rows)
    lost = sticky_scan(fresh, hit)
    if d.kind == "trace":
        # positional replay, wrapping around
        delay = d.trace.delay_ms[np.arange(n) % len(d.trace)]
        return lost | np.isnan(delay), delay
    if d.kind == "constant":
        return lost, np.full(n, float(d.mean))
    x = ar1_scan(eps, d.correlation)
    return lost, np.maximum(d.mean + x, 0.0)
