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
