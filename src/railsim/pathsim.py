"""Per-path packet outcomes: parametric loss/delay models and recorded traces.

Every path and every shared segment owns an independent stream, keyed by
(scenario seed, stream kind, index).  ``sample_path`` builds the stream's
one PCG64 from that key and turns it into a run's loss mask and delay
column in one call.  Randomness is laid out in fixed-size chunks with a
fixed column layout per chunk, so packet i's outcome does not depend on
how many packets a run asks for; the generator draws only the rows of the
run (the paretonormal kind's normal column is the one exception,
generated whole per chunk, its unread rows into a reused buffer), and
skips the loss columns the loss model cannot read.  Each chunk is
reduced to what the sequential recurrences (sticky loss, AR(1) delay)
read as it is drawn, and each recurrence then runs once over the whole
run: sticky loss as a running maximum, the AR(1) delay filter as a
lockstep of row blocks, each started from a guess that is checked bit for
bit; a block whose guess missed runs again, whole, with the
one-row-at-a-time loop, so the scan equals that loop bit for bit (see
``ar1_scan``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TraceParseError

# Randomness is laid out in chunks of this many rows, one column after
# another, so that packet i sees the same draws no matter how many packets
# a run asks for; a run draws only the rows it reads.
CHUNK = 65536

_MASK64 = (1 << 64) - 1
_PATH_STREAM = 1
_SHARED_STREAM = 2

# The DelayModel fields each delay kind reads, ``kind`` aside.  A field its kind
# does not read must keep its dataclass default (engine.validate_delay_model).
DELAY_FIELDS = {
    "constant": ("mean",),
    "normal": ("mean", "stddev", "correlation"),
    "paretonormal": ("mean", "stddev", "correlation", "pareto_alpha",
                     "pareto_weight"),
    "trace": ("trace",),
}
DELAY_KINDS = tuple(DELAY_FIELDS)


# A seed outside [0, 2**64) is taken modulo 2**64 (SeedSequence rejects
# negative entries), so seed -1 runs as seed 2**64 - 1.
def path_key(seed: int, path_index: int) -> np.random.SeedSequence:
    """The stream key of path ``path_index`` under scenario seed ``seed``."""
    return np.random.SeedSequence([int(seed) & _MASK64, _PATH_STREAM,
                                   path_index])


def shared_key(seed: int, segment_index: int) -> np.random.SeedSequence:
    """The stream key of shared segment ``segment_index``."""
    return np.random.SeedSequence([int(seed) & _MASK64, _SHARED_STREAM,
                                   segment_index])


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

    kind is one of constant | normal | paretonormal | trace, and reads
    only the fields ``DELAY_FIELDS`` lists for it.  The paretonormal is a
    mixture: with weight ``pareto_weight`` the centred deviate comes from
    a Pareto tail (shape ``pareto_alpha``, scale 1, recentred to zero
    mean), otherwise from a standard normal; the deviate is scaled by
    ``stddev`` and added to ``mean``.  ``correlation`` applies an AR(1)
    filter to the pre-clamp deviates; samples are clamped to >= 0.
    """

    kind: str = "constant"
    mean: float = 0.0
    stddev: float = 0.0
    correlation: float = 0.0
    trace: Trace | None = None
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


# ---------------------------------------------------------------------------
# recorded traces


class Trace:
    """Recorded one-way delays: int64 ``seq``, float64 ``delay_ms`` (NaN: lost).

    The columns obey a trace file's rules (``load_trace``): seqs are
    integers within int64 (a bool is not one) and strictly increase, and
    delays are numbers, finite and >= 0 or NaN."""

    def __init__(self, seq, delay_ms):
        seqs, delays = np.asarray(seq), np.asarray(delay_ms)
        if seqs.ndim != 1 or seqs.shape != delays.shape:
            raise TraceParseError("seq and delay_ms must be 1-D columns of one length")
        if not len(seqs):
            raise TraceParseError("empty trace")
        if seqs.dtype.kind != "i":  # a seq that is not an integer, or past int64
            for v in seq:
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise TraceParseError(f"seq must be an integer, got {v!r}")
                if not -2 ** 63 <= v < 2 ** 63:
                    raise TraceParseError(f"seq {v} outside the int64 range")
        if delays.dtype.kind not in "iuf":
            raise TraceParseError(f"delay_ms must be numbers, got dtype {delays.dtype}")
        self.seq = seqs.astype(np.int64, copy=False)
        self.delay_ms = delays.astype(np.float64, copy=False)
        back = np.flatnonzero(self.seq[1:] <= self.seq[:-1])
        if len(back):
            raise TraceParseError(f"non-monotone seq: {self.seq[back[0]]} "
                                  f"then {self.seq[back[0] + 1]}")
        bad = np.isinf(self.delay_ms) | (self.delay_ms < 0)  # NaN passes
        if bad.any():
            i = np.argmax(bad)
            raise TraceParseError(f"seq {self.seq[i]}: delay must be finite "
                                  f"and >= 0, got {self.delay_ms[i]}")

    def __len__(self) -> int:
        return len(self.seq)


def load_trace(text: str) -> Trace:
    """Parse the text of a trace: one ``seq,delay_ms`` pair per line.

    ``#`` starts a comment, blank lines are skipped, delay 0 marks a lost
    packet, delays must be finite and >= 0, sequence numbers must be
    strictly increasing int64 values.
    """
    seqs, delays = [], []
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
# are up to two steps per block row); a block has at least this many rows.
# With blocks of max(w, 32) rows, runs of a few thousand rows at a weak
# correlation (w = 38 at 0.3) take the lockstep; a 16-block lockstep is
# slower than the loop (w = 89 at 0.6, 2,000 rows).
_MIN_BLOCKS = 32
_MIN_BLOCK_ROWS = 32


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


@np.errstate(over="ignore", invalid="ignore")
def ar1_scan(eps, corr):
    """AR(1) scan: x[0] = eps[0], x[i] = corr * x[i-1] + sqrt(1 - corr^2) * eps[i].

    Returns a float64 array equal, bit for bit, to the loop that computes
    ``corr * x + b`` one row at a time (``b`` the scaled innovation).  No
    closed form reproduces that rounding, but the recurrence contracts:
    after ``w = ceil(45 / -ln |corr|)`` rows a start error has shrunk below
    2**-64 of itself, so a run from a wrong start almost always reaches the
    exact bits.  Rows 1.. are split into blocks of ``m = max(w, 32)`` rows
    and every block runs at once, one row index at a time, with the loop's
    two correctly rounded operations as numpy calls (no fused multiply-add):

    - block 0 starts from x[0], block k from a guess: the recurrence run
      from 0.0 over the last ``w`` rows of block k - 1, also in lockstep;
    - each guess is compared, bit for bit on an int64 view, with the value
      block k - 1 ended on.  By induction every block whose guess matched
      is exact;
    - a block whose guess missed runs again, whole, with the loop from
      that exact end.  Its end may change, so the next block runs again
      too while its own guess misses the new end.  Misses are rare (about
      one block in ten thousand on drawn inputs), so nothing finer pays.

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
    starts, ends = start.view(np.int64), rows[:, -1].view(np.int64)
    done = 0  # blocks up to this one are exact
    for blk in (np.flatnonzero(starts[1:] != ends[:-1]) + 1).tolist():
        if blk > done:
            while blk < k and starts[blk] != ends[blk - 1]:
                _ar1_loop(float(rows[blk - 1, -1]), corr, steps[blk], rows[blk])
                blk += 1
            done = blk
    _ar1_loop(float(out[hi - 1]), corr, b[hi:], out[hi:])
    return out


# ---------------------------------------------------------------------------
# sampling


# Takes the normals of a chunk past the run's rows when another column
# follows them, a buffer at a time; written, never read.  A whole column's
# worth (512 KiB) would stay resident in every process that samples.
_DISCARD = np.empty(4096)


def _chunks(key: np.random.SeedSequence, layout: str, n: int):
    """Yield (start, rows) for the chunks of packets [0, n), in order.

    Each chunk's randomness is laid out as whole columns of ``CHUNK`` rows
    in a fixed order (``layout``: ``"u"`` a uniform column, ``"-"`` a
    uniform column nobody reads, ``"n"`` a standard-normal one), exactly as
    if each column were drawn whole, in turn, from the PCG64 generator
    seeded with ``key``, so packet i sees the same randomness whatever
    ``n`` is.  ``rows`` holds one entry per column: the chunk's rows below
    ``n`` only, the first of them packet ``start``'s, or None for a ``"-"``
    column.

    Only those rows are drawn, from that one generator: a uniform column
    draws its rows, then ``advance`` skips the rest, and an unread one is
    skipped whole, not drawn.  This is exact because ``random()`` takes
    one 64-bit PCG64 word per value, and consecutive
    ``random``/``standard_normal`` calls equal one call and leave the same
    state, so every column after a skip sees the same bytes.  A normal
    column followed by another column is still generated whole, because
    a normal takes a variable number of words and the next column starts
    where it ends: its rows are drawn, and the rest of the column goes
    through a small reused buffer that nothing reads (``_DISCARD``).
    """
    bit_gen = np.random.PCG64(key)
    gen = np.random.Generator(bit_gen)
    for start in range(0, n, CHUNK):
        k = min(n - start, CHUNK)
        rows = []
        for j, kind in enumerate(layout):
            if kind == "u":
                rows.append(gen.random(k))
                bit_gen.advance(CHUNK - k)
            elif kind == "-":
                rows.append(None)
                bit_gen.advance(CHUNK)
            else:
                rows.append(gen.standard_normal(k))
                if j < len(layout) - 1:
                    for lo in range(k, CHUNK, _DISCARD.size):
                        gen.standard_normal(out=_DISCARD[:CHUNK - lo])
        yield start, rows


def _loss_layout(m: LossModel) -> str:
    """The loss columns (u_repeat, u_fresh) of a chunk, ``"-"`` where the
    model cannot read the column: with correlation 0 every row is fresh
    (``u_repeat >= 0``), and with rate 0 no fresh row is lost
    (``u_fresh < 0``)."""
    if m.rate == 0.0:
        return "--"
    return "-u" if m.correlation == 0.0 else "uu"


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


def sample_path(spec: PathSpec, key: np.random.SeedSequence,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """Packets [0, n) on one path as (lost bool[n], delay_ms float[n]).

    ``key`` is the path's stream key (``path_key``, or ``shared_key`` for a
    shared segment); the stream is one PCG64 built from it, so the same
    key always gives the same columns.  Each chunk holds the loss columns,
    then the delay columns of ``_DELAY_LAYOUT``, and is reduced to the rows
    the scans read as it is drawn; each scan then runs once over the whole
    run.  A loss column the model cannot read is skipped, not drawn
    (``_loss_layout``), with the same bytes out: with correlation 0 every
    row is fresh, so the sticky scan returns the ``u_fresh < rate`` column
    unchanged, and with rate 0 no packet is lost.  The delay column is
    populated for every packet; entries where ``lost`` is True are ignored
    downstream.  Both arrays are fresh for every kind (shared with nothing
    else), so the caller may write into them, as ``engine.simulate`` does.
    Only the path's own loss process is sampled here; the caller samples a
    shared segment as a constant-delay path.

    ``spec`` must be one that ``engine.validate_scenario`` accepts, as
    ``engine.simulate`` guarantees: the sampler does not check it again.
    """
    m, d = spec.loss, spec.delay
    loss_layout = _loss_layout(m)
    # hit stays all False when u_fresh is skipped (rate 0)
    fresh, hit = np.empty(n, dtype=bool), np.zeros(n, dtype=bool)
    eps = np.empty(n)
    for lo, (u_repeat, u_fresh, *delay_rows) in _chunks(
            key, loss_layout + _DELAY_LAYOUT.get(d.kind, ""), n):
        hi = min(lo + CHUNK, n)
        if u_repeat is not None:
            np.greater_equal(u_repeat, m.correlation, out=fresh[lo:hi])
        if u_fresh is not None:
            np.less(u_fresh, m.rate, out=hit[lo:hi])
        if delay_rows:
            eps[lo:hi] = _deviates(d, delay_rows)
    lost = sticky_scan(fresh, hit) if loss_layout == "uu" else hit
    if d.kind == "trace":
        # positional replay, wrapping around
        delay = d.trace.delay_ms[np.arange(n) % len(d.trace)]
        return lost | np.isnan(delay), delay
    if d.kind == "constant":
        return lost, np.full(n, float(d.mean))
    x = ar1_scan(eps, d.correlation)
    return lost, np.maximum(d.mean + x, 0.0)
