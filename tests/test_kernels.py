import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fracmeas import _kernels


def test_heat_rejects_bad_times():
    with pytest.raises(ValueError):
        _kernels.heat_values(np.zeros((1, 1)), np.zeros((1, 1)), np.ones(1),
                             np.array([0.0]))


def test_conv_rejects_bad_scales():
    with pytest.raises(ValueError):
        _kernels.radial_conv_values(np.zeros((1, 1)), np.zeros((1, 1)),
                                    np.ones(1), np.array([-1.0]),
                                    _kernels.KIND_GAUSS)


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
