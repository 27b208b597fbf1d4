"""The scan kernels: hand cases, the numpy sticky-loss pass against a
plain sequential loop and the list-based AR(1) scan against an array
loop, bit for bit, on short runs and on runs longer than one list
block."""

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
