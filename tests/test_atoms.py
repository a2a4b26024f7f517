import math

import numpy as np
import pytest

from fracmeas import atoms
from fracmeas.atoms import (AtomCandidate, AtomicDecomposition, check_beta_atom,
                            frostman_series_value, make_frostman_atom,
                            make_linf_atom, make_loop_atom)
from fracmeas.heat import TGrid
from fracmeas.measures import Cube, curve_measure, measure_sum, new_grid_measure, unit_cube
from fracmeas.verify import square_loop

BETA0 = math.log(2) / math.log(3)


def _certified(cert):
    """All four conditions of the certificate pass."""
    return all(c.passed for c in cert.checks)


@pytest.fixture(scope="module")
def cantor_atom():
    cand, info = make_frostman_atom(depth=6)
    return cand, info, check_beta_atom(cand)


# ---------------------------------------------------------------------------
# series bound oracle
# ---------------------------------------------------------------------------

def test_series_value_by_direct_summation():
    # independent summation over a wide window, plain python floats
    c1, beta, d = 0.3, BETA0, 1
    total = 0.0
    for k in range(-600, 60):
        total += (4 * math.pi) ** (-d / 2) * math.exp(-(2.0 ** (2 * k - 2))) \
            * 2 * c1 * 2.0 ** ((k + 1) * beta)
    assert frostman_series_value(c1, beta, d) == pytest.approx(total, rel=1e-12)


def test_series_linear_in_c1():
    assert frostman_series_value(0.4, 0.9, 2) == \
        pytest.approx(2 * frostman_series_value(0.2, 0.9, 2), rel=1e-14)


# ---------------------------------------------------------------------------
# generators and certification
# ---------------------------------------------------------------------------

def test_frostman_atom_depth1_structure():
    cand, _ = make_frostman_atom(depth=1)
    assert cand.measure.n_masses == 4
    assert cand.measure.total_mass() == 0.0


def test_frostman_atom_variation_bound(cantor_atom):
    cand, info, _ = cantor_atom
    assert info["c2"] <= 0.5
    assert cand.measure.total_variation() == pytest.approx(2 * info["c2"], rel=1e-12)
    assert cand.measure.total_variation() <= 1.0


def test_frostman_atom_series_bound_holds(cantor_atom):
    # re-verify the annuli series bound with the measured constant
    _, info, _ = cantor_atom
    assert frostman_series_value(info["c1"], BETA0, 1) <= 1.0


def test_cantor_atom_certifies(cantor_atom):
    _, _, cert = cantor_atom
    assert _certified(cert)
    assert cert.sup_ratio <= 1.01
    assert cert.cancellation <= 1e-10 * cert.total_variation
    assert cert.support_overflow == 0.0


def test_bad_beta_rejected():
    with pytest.raises(ValueError):
        make_frostman_atom(beta=0.5, depth=4)
    with pytest.raises(ValueError):
        make_frostman_atom(depth=0)


def test_dirac_difference_fails_heat_bound():
    a = new_grid_measure(1, 0.5, [0.0], [[0], [1]], [0.5, -0.5])
    cand = AtomCandidate(measure=a, cube=unit_cube(1), beta=0.3)
    tg = TGrid.build(1e-9, 64.0, 32)
    cert = check_beta_atom(cand, tgrid=tg)
    assert [c.name for c in cert.checks if not c.passed] == ["heat_bound"]
    # pointwise divergence shows up as the t^{-beta/2} growth
    assert cert.small_t_exponent == pytest.approx(-0.15, abs=0.05)


def test_linf_atom_certifies():
    cand = make_linf_atom(1, 6)
    tg = TGrid.build(cand.measure.h ** 2, 16.0, 16)
    cert = check_beta_atom(cand, tgrid=tg)
    assert _certified(cert)
    assert cert.sup_ratio <= 1.0 + 1e-9   # sup |e^t a| <= ||a||_inf exactly


def test_linf_atom_mass_and_cancellation():
    cand = make_linf_atom(1, 7)
    assert cand.measure.total_variation() == pytest.approx(1.0, rel=1e-12)
    assert cand.measure.total_mass() == 0.0
    assert cand.beta == 1.0


def test_loop_atom_cancellation_exact():
    cand, info = make_loop_atom(square_loop(8), 0, h=1.0 / 16.0)
    assert cand.measure.total_mass() == 0.0
    assert cand.beta == 1.0
    assert info["series_value"] <= 1.0


def test_loop_atom_certifies():
    cand, _ = make_loop_atom(square_loop(16), 1, h=1.0 / 32.0)
    cert = check_beta_atom(cand)
    assert _certified(cert)


def test_loop_atom_guards():
    with pytest.raises(ValueError):
        make_loop_atom(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), 0, h=0.25)
    big = 2.0 * square_loop(4)
    with pytest.raises(ValueError):
        make_loop_atom(big, 0, h=0.25)


def test_scaling_monotonicity(cantor_atom):
    # if a passes with margin, s*a passes for 0 < s <= 1
    cand, _, cert = cantor_atom
    half = AtomCandidate(measure=cand.measure.scaled(0.5), cube=cand.cube,
                         beta=cand.beta)
    cert_half = check_beta_atom(half)
    assert _certified(cert_half)
    assert cert_half.sup_ratio == pytest.approx(0.5 * cert.sup_ratio, rel=1e-9)


# ---------------------------------------------------------------------------
# downgrade and standard normalization
# ---------------------------------------------------------------------------

def _at(cand, beta):
    """The same measure and cube, certified at another exponent."""
    return AtomCandidate(measure=cand.measure, cube=cand.cube, beta=beta)


def test_downgrade_cantor(cantor_atom):
    # a beta-atom is an alpha-atom for every alpha < beta
    cand, _, _ = cantor_atom
    cert = check_beta_atom(_at(cand, 0.3))
    assert _certified(cert)
    assert cert.beta == 0.3


def test_downgrade_linf_all_alpha():
    cand = make_linf_atom(1, 5)
    tg = TGrid.build(cand.measure.h ** 2, 16.0, 16)
    for alpha in (0.25, 0.5, 0.9):
        cert = check_beta_atom(_at(cand, alpha), tgrid=tg)
        assert _certified(cert)


def test_normalize_to_standard_margin_invariant(cantor_atom):
    # the mass-preserving dilation carrying Q onto [-1, 1]^d
    cand, _, cert = cantor_atom
    std = AtomCandidate(measure=cand.measure.dilated(2.0 / cand.side, cand.cube.center),
                        cube=Cube(corner=-np.ones(cand.d), side=2.0), beta=cand.beta)
    assert np.all(std.measure.points() >= -1.0) and np.all(std.measure.points() <= 1.0)
    cert_std = check_beta_atom(std)
    assert _certified(cert_std)
    # ratio * l(Q)^beta is exactly dilation invariant
    assert cert_std.sup_ratio == pytest.approx(cert.sup_ratio, rel=1e-9)
    # and the standard-cube bound itself is met: sup <= t^{(b-d)/2}
    assert cert_std.sup_ratio / 2.0 ** cand.beta <= 1.0


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def _combination(dec):
    """sum_i lambda_i a_i, as ``dimension.atom_sum_dimension_check`` forms it."""
    return measure_sum([cand.measure.scaled(lam) for lam, cand in dec.entries])


def test_decomposition_single_atom(cantor_atom):
    cand, _, _ = cantor_atom
    dec = AtomicDecomposition(entries=((1.0, cand),))
    assert dec.budget == 1.0
    assert dec.beta == cand.beta
    assert np.array_equal(_combination(dec).weights, cand.measure.weights)


def test_decomposition_homogeneity(cantor_atom):
    cand, _, _ = cantor_atom
    dec = AtomicDecomposition(entries=((2.0, cand),))
    assert dec.budget == 2.0
    target = cand.measure.scaled(2.0)
    assert np.array_equal(_combination(dec).weights, target.weights)


def test_decomposition_mixed_beta_rejected(cantor_atom):
    cand, _, _ = cantor_atom
    other = AtomCandidate(measure=cand.measure, cube=cand.cube, beta=0.5)
    with pytest.raises(ValueError):
        AtomicDecomposition(entries=((1.0, cand), (1.0, other)))


def test_square_loop_split_into_two_rectangles():
    # the unit square loop's first component decomposes exactly into the two
    # half-rectangle loops (the shared horizontal edge cancels pairwise)
    n = 8
    h = 1.0 / 16.0
    s = np.linspace(0.0, 1.0, n + 1)

    def rect(y0, y1):
        bottom = np.stack([s, np.full_like(s, y0)], axis=1)
        right = np.stack([np.ones_like(s), y0 + (y1 - y0) * s], axis=1)[1:]
        top = np.stack([s[::-1], np.full_like(s, y1)], axis=1)[1:]
        left = np.stack([np.zeros_like(s), y1 - (y1 - y0) * s], axis=1)[1:]
        return np.vstack([bottom, right, top, left])

    square = curve_measure(square_loop(n), h).components[0]
    lo_comp = curve_measure(rect(0.0, 0.5), h).components[0]
    hi_comp = curve_measure(rect(0.5, 1.0), h).components[0]
    # an identity of measures: same masses at the same places, bit for bit
    split = measure_sum([lo_comp, hi_comp])
    assert np.array_equal(split.indices, square.indices)
    assert np.array_equal(split.weights, square.weights)
    # each half is a certified 1-atom after its scaling, so the square
    # component at the smaller scale has a decomposition of budget <= 2
    lo_cand, lo_info = make_loop_atom(rect(0.0, 0.5), 0, h=h)
    hi_cand, hi_info = make_loop_atom(rect(0.5, 1.0), 0, h=h)
    assert np.array_equal(lo_cand.measure.weights, lo_comp.weights * lo_info["scale"])
    assert np.array_equal(hi_cand.measure.weights, hi_comp.weights * hi_info["scale"])
    lo_cert = check_beta_atom(lo_cand)
    hi_cert = check_beta_atom(hi_cand)
    assert _certified(lo_cert) and _certified(hi_cert)
    s_t = min(lo_info["scale"], hi_info["scale"])
    dec = AtomicDecomposition(entries=((s_t / lo_info["scale"], lo_cand),
                                       (s_t / hi_info["scale"], hi_cand)))
    assert dec.budget <= 2.0 + 1e-9
