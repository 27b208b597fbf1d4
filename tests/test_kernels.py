"""The scan kernels: hand cases, the numpy sticky-loss pass against a
plain sequential loop, and the AR(1) scan against an array loop, bit for
bit.  The AR(1) cases reach both of its paths: the plain loop on short
runs, and the verified lockstep on long ones, including inputs that make
a block's guess miss (a spike just before a warm-up window, inf and NaN
rows, signed zeros) so that the repair and its chain of re-checks run."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim import pathsim


def loop_sticky_scan(fresh, hit):
    """The sticky-loss recurrence written out one row at a time (oracle)."""
    out = np.empty(len(fresh), dtype=bool)
    for i in range(len(fresh)):
        out[i] = hit[i] if i == 0 or fresh[i] else out[i - 1]
    return out


def loop_ar1_scan(eps, corr):
    """The AR(1) recurrence on numpy scalars into a preallocated array
    (oracle for the list-based scan)."""
    n = len(eps)
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    s = math.sqrt(1.0 - corr * corr)
    x = float(eps[0])
    out[0] = x
    for i in range(1, n):
        a = corr * x
        b = s * float(eps[i])
        x = a + b
        out[i] = x
    return out


@pytest.fixture(params=[pathsim.sticky_scan, loop_sticky_scan], ids=["numpy", "loop"])
def sticky_scan(request):
    return request.param


def test_sticky_hand_case(sticky_scan):
    fresh = np.array([True, False, True, False])
    hit = np.array([True, False, True, False])
    # fresh-lost, repeat, fresh-lost, repeat
    assert sticky_scan(fresh, hit).tolist() == [1, 1, 1, 1]

    # row 0 is fresh even when the fresh column says otherwise
    fresh = np.array([False, True, False, True])
    hit = np.array([False, True, False, False])
    assert sticky_scan(fresh, hit).tolist() == [0, 1, 1, 0]


def test_sticky_zero_corr_is_fresh_bernoulli(sticky_scan):
    rng = np.random.default_rng(5)
    hit = rng.random(1000) < 0.3
    out = sticky_scan(np.ones(1000, dtype=bool), hit)
    assert np.array_equal(out, hit)


def test_ar1_hand_case():
    out = pathsim.ar1_scan(np.array([1.0, 2.0, 3.0]), 0.5)
    assert out[0] == 1.0
    assert out[1] == pytest.approx(2.2320508075688772, abs=1e-14)
    assert out[2] == pytest.approx(3.7141016151377544, abs=1e-14)


def test_ar1_zero_corr_passthrough():
    rng = np.random.default_rng(6)
    eps = rng.standard_normal(500)
    assert np.array_equal(pathsim.ar1_scan(eps, 0.0), eps)


def test_empty_inputs():
    out = pathsim.sticky_scan(np.empty(0, dtype=bool), np.empty(0, dtype=bool))
    assert len(out) == 0 and out.dtype == bool
    for corr in (0.0, 0.5):
        out = pathsim.ar1_scan(np.empty(0), corr)
        assert len(out) == 0 and out.dtype == np.float64


@pytest.mark.parametrize("corr", [0.0, 0.3, 0.9])
def test_chunked_scan_continues_exactly(corr):
    # longer than two of ar1_scan's CHUNK-row list blocks: the recurrence
    # continues across the block edges bit for bit
    n = 2 * pathsim.CHUNK + 7
    rng = np.random.default_rng(7)
    fresh = rng.random(n) >= corr
    hit = rng.random(n) < 0.2
    assert (pathsim.sticky_scan(fresh, hit).tobytes()
            == loop_sticky_scan(fresh, hit).tobytes())
    eps = rng.standard_normal(n)
    assert pathsim.ar1_scan(eps, corr).tobytes() == loop_ar1_scan(eps, corr).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    rate=st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0),
    corr=st.sampled_from([0.0, 0.2, 0.5, 0.6, 0.8, 0.95, 1.0]) | st.floats(0.0, 1.0),
    n=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_numpy_sticky_scan_equals_the_loop(rate, corr, n, seed):
    rng = np.random.default_rng(seed)
    fresh = rng.random(n) >= corr
    hit = rng.random(n) < rate
    got = pathsim.sticky_scan(fresh, hit)
    assert got.dtype == bool
    assert got.tobytes() == loop_sticky_scan(fresh, hit).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    corr=st.sampled_from([0.2, 0.6, 0.9, 0.95]),
    n=st.integers(0, 300),
    scale=st.sampled_from([1.0, 30.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ar1_scan_equals_the_loop_bit_for_bit(corr, n, scale, seed):
    eps = np.random.default_rng(seed).standard_normal(n) * scale
    got = pathsim.ar1_scan(eps, corr)
    assert got.dtype == np.float64
    assert got.tobytes() == loop_ar1_scan(eps, corr).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    corr=(st.sampled_from([0.3, 0.6, 0.9, 0.95, 0.999999])
          | st.floats(0.0, 1.0, exclude_max=True)),
    n=st.integers(0, 20000),
    scale=st.sampled_from([1.0, 1e-3, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_long_ar1_scans_equal_the_loop_bit_for_bit(corr, n, scale, seed):
    # long enough for the lockstep at corr up to about 0.9
    eps = np.random.default_rng(seed).standard_normal(n) * scale
    got = pathsim.ar1_scan(eps, corr)
    assert got.dtype == np.float64
    assert got.tobytes() == loop_ar1_scan(eps, corr).tobytes()


@pytest.mark.parametrize("corr", [0.3, 0.6])
@pytest.mark.parametrize("n", [1999, 2000, 3000])
def test_suite_sized_ar1_scans_equal_the_loop_bit_for_bit(n, corr):
    # the correlated paper-suite runs: 2,000-3,000 rows at corr 0.3 (38-row
    # blocks, lockstep) and 0.6 (89-row blocks: the loop up to 2,848 rows)
    rng = np.random.default_rng(n)
    for scale in (1.0, 15.0, 1e-3):
        eps = rng.standard_normal(n) * scale
        assert (pathsim.ar1_scan(eps, corr).tobytes()
                == loop_ar1_scan(eps, corr).tobytes())


@pytest.fixture
def repairs(monkeypatch):
    """(first row, merged) of every block ``ar1_scan`` repairs, in order."""
    calls = []
    real = pathsim._ar1_repair

    def spy(out, b, lo, hi, corr):
        merged = real(out, b, lo, hi, corr)
        calls.append((lo, merged))
        return merged

    monkeypatch.setattr(pathsim, "_ar1_repair", spy)
    return calls


# corr 0.6: each guess warms up over w = 89 rows, blocks have m = 89 rows
# (block k holds rows 1 + k*m ..), and 40 blocks plus a 30-row tail run in
# lockstep.  With m = w a guess warms up over the whole block before it.
CORR, W, M, BLOCKS = 0.6, 89, 89, 40


def _lockstep_eps(seed=11):
    return np.random.default_rng(seed).standard_normal(1 + BLOCKS * M + 30)


def _before_window(k):
    """The row just before the warm-up window that guesses block k + 1."""
    return 1 + k * M + (M - W) - 1


def test_the_lockstep_geometry_is_pinned():
    assert math.ceil(45 / -math.log(CORR)) == W
    assert max(W, pathsim._MIN_BLOCK_ROWS) == M
    assert BLOCKS >= pathsim._MIN_BLOCKS


def test_a_plain_run_needs_no_repair(repairs):
    eps = _lockstep_eps()
    assert pathsim.ar1_scan(eps, CORR).tobytes() == loop_ar1_scan(eps, CORR).tobytes()
    assert repairs == []


def test_a_small_spike_is_repaired_within_its_block(repairs):
    eps = _lockstep_eps()
    eps[_before_window(10)] = 1e6
    assert pathsim.ar1_scan(eps, CORR).tobytes() == loop_ar1_scan(eps, CORR).tobytes()
    assert repairs == [(1 + 11 * M, True)]


def test_a_huge_spike_is_repaired_across_blocks(repairs):
    # its trace outlasts block 11, so blocks 12.. are re-checked until one
    # merges
    eps = _lockstep_eps()
    eps[_before_window(10)] = 1e200
    assert pathsim.ar1_scan(eps, CORR).tobytes() == loop_ar1_scan(eps, CORR).tobytes()
    firsts = [lo for lo, _ in repairs]
    assert firsts == list(range(1 + 11 * M, 1 + (11 + len(repairs)) * M, M))
    assert len(repairs) > 2
    assert [merged for _, merged in repairs] == [False] * (len(repairs) - 1) + [True]


@pytest.mark.parametrize("rows", [{0: math.inf}, {0: math.nan}, {0: -math.inf},
                                  {0: math.inf, 200: -math.inf}],
                         ids=["inf", "nan", "-inf", "inf-then-minus-inf"])
def test_non_finite_rows_chain_repairs_to_the_end(rows, repairs):
    # from the bad row on the run is inf or NaN, which no guess from 0.0
    # reaches: no block merges, so every later block is repaired in turn
    eps = _lockstep_eps()
    for offset, value in rows.items():
        eps[_before_window(10) + offset] = value
    got = pathsim.ar1_scan(eps, CORR)
    assert got.tobytes() == loop_ar1_scan(eps, CORR).tobytes()
    assert not np.isfinite(got[-1])
    assert repairs == [(1 + k * M, False) for k in range(11, BLOCKS)]


@pytest.mark.parametrize("lead, zero", [(-5.0, -0.0), (-5.0, 0.0), (5.0, -0.0),
                                        (5.0, 0.0)])
def test_signed_zero_runs_are_exact(lead, zero):
    # a run of zeros long enough for the value before it to underflow (at
    # corr 0.6 it would stop at the smallest subnormal): only a negative
    # value over -0.0 rows ends on -0.0, which a guess of +0.0 equals as a
    # float but not bit for bit
    corr = 0.4  # w = 50, so 50-row blocks, 71 of them in lockstep
    eps = _lockstep_eps()
    eps[499] = lead
    eps[500:3000] = zero
    want = loop_ar1_scan(eps, corr)
    assert want[2999] == 0.0
    assert np.signbit(want[2999]) == (lead < 0 and np.signbit(zero))
    assert pathsim.ar1_scan(eps, corr).tobytes() == want.tobytes()


def test_an_all_negative_zero_run_is_repaired(repairs):
    eps = np.full(1 + BLOCKS * M + 30, -0.0)
    got = pathsim.ar1_scan(eps, CORR)
    assert got.tobytes() == loop_ar1_scan(eps, CORR).tobytes()
    assert np.signbit(got).all() and repairs
