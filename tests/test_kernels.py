"""The scan kernels: hand cases, carry-over across chunks, the numpy
sticky-loss pass against a plain sequential loop and the list-based AR(1)
scan against an array loop, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim import pathsim


def loop_sticky_scan(u_fresh, u_repeat, rate, corr, prev):
    """The sticky-loss recurrence written out one row at a time (oracle)."""
    out = np.empty(len(u_fresh), dtype=bool)
    p = prev
    for i in range(len(u_fresh)):
        if p != -1 and u_repeat[i] < corr:
            cur = p
        else:
            cur = 1 if u_fresh[i] < rate else 0
        out[i] = cur
        p = cur
    return out, p


def loop_ar1_scan(eps, corr, prev, has_prev):
    """The AR(1) recurrence on numpy scalars into a preallocated array
    (oracle for the list-based scan)."""
    n = len(eps)
    if n == 0:
        return np.empty(0, dtype=np.float64), prev
    s = math.sqrt(1.0 - corr * corr)
    out = np.empty(n, dtype=np.float64)
    start = 0
    x = prev
    if not has_prev:
        x = float(eps[0])
        out[0] = x
        start = 1
    for i in range(start, n):
        a = corr * x
        b = s * float(eps[i])
        x = a + b
        out[i] = x
    return out, x


@pytest.fixture(params=[pathsim.sticky_scan, loop_sticky_scan], ids=["numpy", "loop"])
def sticky_scan(request):
    return request.param


def test_sticky_hand_case(sticky_scan):
    u_fresh = np.array([0.05, 0.5, 0.02, 0.9])
    u_repeat = np.array([0.9, 0.3, 0.7, 0.1])
    out, last = sticky_scan(u_fresh, u_repeat, 0.1, 0.5, -1)
    # fresh-lost, repeat, fresh-lost, repeat
    assert out.tolist() == [1, 1, 1, 1]
    assert last == 1

    u_fresh = np.array([0.5, 0.05, 0.5, 0.5])
    u_repeat = np.array([0.0, 0.9, 0.2, 0.6])
    out, last = sticky_scan(u_fresh, u_repeat, 0.1, 0.5, -1)
    assert out.tolist() == [0, 1, 1, 0]
    assert last == 0


def test_sticky_zero_corr_is_fresh_bernoulli(sticky_scan):
    rng = np.random.default_rng(5)
    u_fresh = rng.random(1000)
    u_repeat = rng.random(1000)
    out, last = sticky_scan(u_fresh, u_repeat, 0.3, 0.0, -1)
    expected = u_fresh < 0.3
    assert np.array_equal(out, expected)
    assert last == int(expected[-1])


def test_sticky_prev_carries_over(sticky_scan):
    u_fresh = np.array([0.99])
    u_repeat = np.array([0.1])  # repeats (0.1 < 0.8)
    out, last = sticky_scan(u_fresh, u_repeat, 0.5, 0.8, 1)
    assert out.tolist() == [1] and last == 1
    # repeating needs u_repeat strictly below corr: a tie draws fresh
    out, last = sticky_scan(np.array([0.99, 0.1]), np.array([0.8, 0.0]), 0.5, 0.8, 1)
    assert out.tolist() == [0, 0] and last == 0


def test_ar1_hand_case():
    eps = np.array([1.0, 2.0, 3.0])
    out, last = pathsim.ar1_scan(eps, 0.5, 0.0, False)
    assert out[0] == 1.0
    assert out[1] == pytest.approx(2.2320508075688772, abs=1e-14)
    assert out[2] == pytest.approx(3.7141016151377544, abs=1e-14)
    assert last == out[2]


def test_ar1_zero_corr_passthrough():
    rng = np.random.default_rng(6)
    eps = rng.standard_normal(500)
    out, last = pathsim.ar1_scan(eps, 0.0, 0.0, False)
    assert np.array_equal(out, eps)
    assert last == eps[-1]


def test_empty_inputs():
    out, last = pathsim.sticky_scan(np.empty(0), np.empty(0), 0.5, 0.5, -1)
    assert len(out) == 0 and out.dtype == bool and last == -1
    out, last = pathsim.ar1_scan(np.empty(0), 0.5, 1.25, True)
    assert len(out) == 0 and last == 1.25


@pytest.mark.parametrize("corr", [0.0, 0.3, 0.9])
def test_chunked_scan_continues_exactly(corr):
    rng = np.random.default_rng(7)
    u_fresh = rng.random(1000)
    u_repeat = rng.random(1000)
    full, full_last = pathsim.sticky_scan(u_fresh, u_repeat, 0.2, corr, -1)
    state = -1
    parts = []
    for lo, hi in [(0, 1), (1, 37), (37, 640), (640, 1000)]:
        part, state = pathsim.sticky_scan(u_fresh[lo:hi], u_repeat[lo:hi],
                                          0.2, corr, state)
        parts.append(part)
    assert np.array_equal(np.concatenate(parts), full)
    assert state == full_last

    eps = rng.standard_normal(1000)
    full, full_last = pathsim.ar1_scan(eps, corr, 0.0, False)
    prev, has = 0.0, False
    parts = []
    for lo, hi in [(0, 1), (1, 37), (37, 640), (640, 1000)]:
        part, prev = pathsim.ar1_scan(eps[lo:hi], corr, prev, has)
        has = True
        parts.append(part)
    assert np.array_equal(np.concatenate(parts), full)
    assert prev == full_last


@settings(max_examples=300, deadline=None)
@given(
    rate=st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0),
    corr=st.sampled_from([0.0, 0.2, 0.5, 0.6, 0.8, 0.95]) | st.floats(0.0, 0.999),
    prev=st.sampled_from([-1, 0, 1]),
    n=st.integers(0, 400),
    cuts=st.lists(st.integers(0, 400), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_numpy_sticky_scan_equals_the_loop(rate, corr, prev, n, cuts, seed):
    rng = np.random.default_rng(seed)
    u_fresh = rng.random(n)
    u_repeat = rng.random(n)
    # some draws sit exactly on the thresholds
    u_fresh[rng.random(n) < 0.1] = rate
    u_repeat[rng.random(n) < 0.1] = corr
    bounds = [0] + sorted(min(c, n) for c in cuts) + [n]
    got, want = [], []
    got_last = want_last = prev
    for lo, hi in zip(bounds, bounds[1:]):
        part, got_last = pathsim.sticky_scan(u_fresh[lo:hi], u_repeat[lo:hi],
                                             rate, corr, got_last)
        assert part.dtype == bool
        got.append(part)
        part, want_last = loop_sticky_scan(u_fresh[lo:hi], u_repeat[lo:hi],
                                           rate, corr, want_last)
        want.append(part)
    assert np.concatenate(got).tobytes() == np.concatenate(want).tobytes()
    assert got_last == want_last and type(got_last) is int


@settings(max_examples=200, deadline=None)
@given(
    corr=st.sampled_from([0.2, 0.6, 0.9, 0.95]),
    has_prev=st.booleans(),
    prev=st.floats(-50.0, 50.0),
    n=st.integers(0, 300),
    scale=st.sampled_from([1.0, 30.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ar1_scan_equals_the_loop_bit_for_bit(corr, has_prev, prev, n, scale, seed):
    eps = np.random.default_rng(seed).standard_normal(n) * scale
    got, got_last = pathsim.ar1_scan(eps, corr, prev, has_prev)
    want, want_last = loop_ar1_scan(eps, corr, prev, has_prev)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert np.float64(got_last).tobytes() == np.float64(want_last).tobytes()
