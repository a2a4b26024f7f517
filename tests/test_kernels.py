import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fracmeas import _kernels
from fracmeas.maximal import standard_family


def test_heat_rejects_bad_times():
    with pytest.raises(ValueError):
        _kernels.heat_values(np.zeros((1, 1)), np.zeros((1, 1)), np.ones(1),
                             np.array([0.0]))


def test_conv_rejects_bad_scales():
    with pytest.raises(ValueError):
        _kernels.radial_conv_values(np.zeros((1, 1)), np.zeros((1, 1)),
                                    np.ones(1), np.array([-1.0]),
                                    lambda z: np.exp(-z * z))


@pytest.mark.parametrize("d, t", [(1, 1e-316), (2, 1e-316), (3, 1e-300)])
def test_heat_rejects_overflowing_times(d, t):
    # 1/4t overflows at t = 1e-316, and (4 pi t)^{-3/2} already at 1e-300;
    # the error comes with no numpy warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too small"):
            _kernels.heat_values(np.zeros((2, d)), np.ones((1, d)), np.ones(1),
                                 np.array([1.0, t]))


@pytest.mark.parametrize("d, s", [(1, 1e-310), (2, 1e-160)])
def test_conv_rejects_overflowing_scales(d, s):
    # s^{-d} overflows; the error comes with no numpy warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too small"):
            _kernels.radial_conv_values(np.zeros((2, d)), np.ones((1, d)),
                                        np.ones(1), np.array([1.0, s]),
                                        lambda z: np.exp(-z * z))


@pytest.mark.parametrize("d", [1, 2])
def test_conv_matches_pair_sum(d, warm, rng):
    # scales away from 1, so a lost s^-d factor shows; four masses sit near
    # points, inside the narrow psi support, and the rest reach past every
    # profile's support at the small scales
    x = rng.uniform(-3.0, 3.0, (7, d))
    y = np.vstack([x[:4] + rng.uniform(-0.05, 0.05, (4, d)),
                   rng.uniform(-3.0, 3.0, (5, d))])
    w = rng.uniform(-1.0, 2.0, 9)
    s = np.array([0.05, 0.3, 0.7, 1.9, 4.0])
    for prof in standard_family(d).profiles:
        got = _kernels.radial_conv_values(x, y, w, s, prof.values)
        ref = np.zeros_like(got)
        bound = np.zeros_like(got)
        for i in range(len(x)):
            for j in range(len(s)):
                for m in range(len(y)):
                    term = w[m] * prof.values(np.linalg.norm(x[i] - y[m]) / s[j])
                    ref[i, j] += term * s[j] ** -d
                    bound[i, j] += abs(term) * s[j] ** -d
        assert np.all(np.abs(got - ref) <= 1e-12 * bound), prof.name
        assert np.any(ref != 0.0), prof.name


def _block_loop_conv(x, y, w, s, phi):
    """radial_conv_values with its own row-block loop, as it was written
    before the shared pair driver: the reference."""
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(y, dtype=np.float64)))
    w = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
    s = np.ascontiguousarray(np.asarray(s, dtype=np.float64))
    out = np.zeros((x.shape[0], s.shape[0]))
    if y.shape[0] == 0 or x.shape[0] == 0:
        return out
    sd = s ** (-x.shape[1])
    for lo, hi, d2 in _kernels.pairwise_sq_dists(x, y, max(1, 4_000_000 // y.shape[0])):
        r = np.sqrt(d2)
        for j in range(s.shape[0]):
            z = r / s[j]
            vals = phi(z)
            out[lo:hi, j] = (vals @ w) * sd[j]
    return out


@st.composite
def conv_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    coords = st.floats(-5.0, 5.0, allow_nan=False)
    x = draw(hnp.arrays(np.float64, (draw(st.integers(1, 30)), d), elements=coords))
    y = draw(hnp.arrays(np.float64, (draw(st.integers(0, 20)), d), elements=coords))
    w = draw(hnp.arrays(np.float64, len(y), elements=st.floats(-2.0, 2.0)))
    # scales from 1e-3 to 30, log-uniform
    s = draw(st.lists(st.floats(-3.0, math.log10(30.0)).map(lambda e: 10.0 ** e),
                      min_size=1, max_size=6))
    return x, y, w, np.array(s)


@settings(max_examples=200)
@given(case=conv_cases())
def test_conv_matches_block_loop(case, warm):
    # the pair driver sums in the blocks the kernel's own loop used: same bits
    x, y, w, s = case
    for prof in standard_family(x.shape[1]).profiles:
        got = _kernels.radial_conv_values(x, y, w, s, prof.values)
        ref = _block_loop_conv(x, y, w, s, prof.values)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), prof.name


def test_kernels_match_block_loops_across_blocks(warm, rng):
    # 200_001 masses give blocks of 19 rows: 45 points take three blocks,
    # the last one shorter
    x = rng.uniform(-1.0, 1.0, (45, 1))
    y = rng.uniform(-1.0, 1.0, (200_001, 1))
    w = rng.uniform(-1.0, 1.0, len(y))
    s = np.array([0.01, 0.4])
    prof = standard_family(1).profiles[0]
    got = _kernels.radial_conv_values(x, y, w, s, prof.values)
    ref = _block_loop_conv(x, y, w, s, prof.values)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    t = s ** 2
    got = _kernels.heat_values(x, y, w, t)
    ref = np.zeros_like(got)
    for lo, hi, d2 in _kernels.pairwise_sq_dists(x, y, 4_000_000 // len(y)):
        for j in range(len(t)):
            ref[lo:hi, j] = np.exp(d2 * -(1.0 / (4.0 * t[j]))) @ w
    ref *= (4.0 * np.pi * t) ** -0.5
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_empty_measure_returns_zeros():
    out = _kernels.heat_values(np.zeros((3, 1)), np.zeros((0, 1)),
                               np.zeros(0), np.array([0.5, 1.0]))
    assert out.shape == (3, 2)
    assert np.all(out == 0.0)


@st.composite
def point_sets(draw):
    d = draw(st.sampled_from([1, 2]))
    coords = st.floats(-1e6, 1e6, allow_nan=False)
    x = draw(hnp.arrays(np.float64, (draw(st.integers(1, 40)), d), elements=coords))
    y = draw(hnp.arrays(np.float64, (draw(st.integers(1, 30)), d), elements=coords))
    return x, y


@settings(max_examples=200)
@given(pts=point_sets(), rows=st.integers(1, 64))
def test_pairwise_blocks_match_one_block(pts, rows):
    # byte-identical verify CSVs rely on row blocking never moving a bit
    x, y = pts
    [(_, _, whole)] = _kernels.pairwise_sq_dists(x, y, len(x))
    blocks = list(_kernels.pairwise_sq_dists(x, y, rows))
    assert [s for s, _, _ in blocks] == list(range(0, len(x), rows))
    assert all(e - s == len(b) for s, e, b in blocks)
    assert np.array_equal(np.vstack([b for _, _, b in blocks]), whole)


@settings(max_examples=200)
@given(d=st.integers(1, 7), n=st.integers(1, 40), m=st.integers(1, 30),
       rows=st.integers(1, 64), data=st.data())
def test_pairwise_matches_einsum(d, n, m, rows, data):
    # the per-axis sum adds the squares in einsum's order for d <= 7
    coords = st.floats(-1e6, 1e6, allow_nan=False)
    x = data.draw(hnp.arrays(np.float64, (n, d), elements=coords))
    y = data.draw(hnp.arrays(np.float64, (m, d), elements=coords))
    diff = x[:, None, :] - y[None, :, :]
    ref = np.einsum("ijk,ijk->ij", diff, diff)
    got = np.vstack([b for _, _, b in _kernels.pairwise_sq_dists(x, y, rows)])
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _dense_heat(x, y, w, t):
    """The heat sum with exp evaluated on every pair: the reference."""
    diff = x[:, None, :] - y[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    inv4t = 1.0 / (4.0 * t)
    out = np.zeros((len(x), len(t)))
    for j in range(len(t)):
        out[:, j] = np.exp(-d2 * inv4t[j]) @ w
    return out * ((4.0 * np.pi * t) ** (-x.shape[1] / 2.0))[None, :]


@st.composite
def heat_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    coords = st.floats(-50.0, 50.0, allow_nan=False)
    x = draw(hnp.arrays(np.float64, (draw(st.integers(1, 30)), d), elements=coords))
    y = draw(hnp.arrays(np.float64, (draw(st.integers(1, 20)), d), elements=coords))
    w = draw(hnp.arrays(np.float64, len(y), elements=st.floats(-2.0, 2.0)))
    # times that put one point's nearest exponent in the bulk, in the
    # subnormal band above -745.13, or just below it, where exp gives 0.0
    near = np.min(np.sum((x[draw(st.integers(0, len(x) - 1))] - y) ** 2, axis=1))
    expo = st.one_of(st.floats(-745.2, -745.0), st.floats(-760.0, -700.0),
                     st.floats(-50.0, -1e-3))
    t = [near / (4.0 * -draw(expo)) for _ in range(draw(st.integers(1, 4)))]
    # heat_values rejects times whose 1/4t or (4 pi t)^{-d/2} overflows
    # (below about 1.4e-309 for d <= 2)
    t = [v for v in t if v > 1e-308] + draw(st.lists(st.floats(1e-6, 1.0), max_size=2))
    return x, y, w, np.array(t or [1e-3])


@settings(max_examples=300)
@given(case=heat_cases())
def test_heat_matches_dense_exp(case):
    # terms below the exp floor are written, not evaluated: same bits
    x, y, w, t = case
    with np.errstate(all="ignore"):
        got = _kernels.heat_values(x, y, w, t)
        ref = _dense_heat(x, y, w, t)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
