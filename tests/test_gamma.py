import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gamma as scipy_gamma

from fracmeas import _gamma
from fracmeas.content import ball_volume_constant
from fracmeas.potential import RieszConfig


@given(st.floats(min_value=0.0, max_value=180.0, exclude_min=True))
def test_gamma_is_scipys_bit_for_bit(x):
    assert _gamma.gamma(x) == float(scipy_gamma(x))


def test_gamma_matches_scipy_in_every_branch():
    # a seeded sample reaching the small-argument form (x < 1e-9), the
    # recurrence and rational form, Stirling's formula (x > 33, both sides
    # of the MAXSTIR split) and the overflow to inf (x >= MAXGAM)
    rng = np.random.default_rng(21)
    xs = np.concatenate([10.0 ** rng.uniform(-320, -9, 2000),
                         rng.uniform(0.0, 33.0, 4000),
                         rng.uniform(33.0, 180.0, 4000),
                         rng.uniform(171.6, 171.7, 1000),
                         [1e-9, 1.0, 2.0, 3.0, 33.0, 143.01608, 171.624376956302725]])
    xs = xs[xs > 0]
    assert np.sum(xs < 1e-9) > 1000 and np.sum(xs > 33.0) > 4000
    assert np.sum(xs >= 171.62) > 500
    got = np.array([_gamma.gamma(x) for x in xs.tolist()])
    assert np.array_equal(got.view(np.uint64), scipy_gamma(xs).view(np.uint64))
    assert np.isinf(got[xs >= _gamma._MAXGAM]).all()


@pytest.mark.parametrize("x", [0.0, -1.0, -math.inf])
def test_gamma_refuses_nonpositive_arguments(x):
    with pytest.raises(ValueError):
        _gamma.gamma(x)


# the constants at the CLI defaults and inputs (thm14's alpha 0.5, the
# `potential riesz` orders 0.5, 0.9 and 1e-12, the content betas and ball
# dimensions), as scipy.special.gamma gave them
@pytest.mark.parametrize("alpha, d, bits", [
    (0.5, 1, "0x1.40d931ff62706p+1"),
    (0.5, 2, "0x1.a4a43a0a16b62p+3"),
    (0.9, 1, "0x1.565d69d1e614ap-2"),
    (1e-12, 1, "0x1.d1a94a1ffed86p+40"),
])
def test_riesz_constant_keeps_its_bits(alpha, d, bits):
    assert RieszConfig(alpha=alpha, d=d).gamma_alpha == float.fromhex(bits)


@pytest.mark.parametrize("beta, bits", [
    (0.5, "0x1.780419f9120afp+0"),
    (0.63, "0x1.9a14914d9be99p+0"),
    (1.0, "0x1.0000000000000p+1"),
    (1.5, "0x1.48a52ce70cd2bp+1"),
    (2.0, "0x1.921fb54442d18p+1"),
])
def test_ball_volume_constant_keeps_its_bits(beta, bits):
    assert ball_volume_constant(beta) == float.fromhex(bits)
