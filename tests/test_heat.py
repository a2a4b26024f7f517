import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fracmeas import _kernels, atoms
from fracmeas.heat import TGrid, heat_extension, heat_field, heat_sup_field, \
    mass_conservation_residual
from fracmeas.measures import cantor_measure, dirac, new_grid_measure


def test_tgrid_build():
    tg = TGrid.build(1e-4, 1.0, 8)
    assert tg.nodes[0] == pytest.approx(1e-4)
    assert tg.nodes[-1] == pytest.approx(1.0)
    assert np.all(np.diff(tg.nodes) > 0)
    with pytest.raises(ValueError):
        TGrid.build(1.0, 0.5)


def test_tgrid_for_degenerate_support():
    tg = TGrid.for_measure(dirac(1, h=0.25))
    assert tg.t_min == pytest.approx((0.25 / 4) ** 2)
    assert tg.t_max == pytest.approx(1.0)      # span falls back to h


def test_delta_peak_closed_form():
    # (4 pi t)^{-1/2} = 1 at t = 1/(4 pi)
    v = heat_extension(dirac(1), 1.0 / (4 * math.pi), [[0.0]])
    assert v[0] == pytest.approx(1.0, rel=1e-14)


def test_delta_offset_closed_form():
    v = heat_extension(dirac(1), 0.25, [[1.0]])
    assert v[0] == pytest.approx(math.pi ** -0.5 * math.exp(-1), rel=1e-13)


def test_positive_time_required():
    with pytest.raises(ValueError):
        heat_extension(dirac(1), 0.0, [[0.0]])
    with pytest.raises(ValueError):
        heat_extension(dirac(1), -1.0, [[0.0]])


def test_mass_conservation_over_tgrid(rng):
    mu = new_grid_measure(1, 1 / 16, [0.0], rng.integers(0, 32, (12, 1)),
                          rng.uniform(-1, 1, 12))
    tg = TGrid.for_measure(mu, nodes_per_decade=4)
    tv = mu.total_variation()
    for t in tg.nodes:
        assert mass_conservation_residual(mu, float(t)) <= 1e-6 * tv


def test_positivity(rng):
    mu = new_grid_measure(1, 1 / 8, [0.0], rng.integers(0, 16, (8, 1)),
                          rng.uniform(0.1, 1, 8))
    pts = np.linspace(-2, 4, 101)[:, None]
    for t in (1e-3, 0.1, 3.0):
        assert np.all(heat_extension(mu, t, pts) >= 0)


@st.composite
def nonnegative_measures(draw):
    d = draw(st.sampled_from([1, 2]))
    h = draw(st.sampled_from([1.0 / 32.0, 0.3, 1.0, 7.0]))
    origin = draw(hnp.arrays(np.float64, d, elements=st.floats(-20.0, 20.0)))
    n = draw(st.integers(1, 12))
    idx = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-8, 8)))
    w = draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 2.0)))
    mu = new_grid_measure(d, h, origin, idx, w)
    assume(mu.n_masses > 0)
    return mu


@settings(max_examples=100)
@given(mu=nonnegative_measures(), data=st.data())
def test_heat_positive_and_mass_conserving(mu, data):
    # times from (h/4)^2 to 100 h^2; points on the masses and around them
    t = mu.h ** 2 * 10.0 ** data.draw(st.floats(math.log10(1.0 / 16.0), 2.0))
    off = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(0, 8)), mu.d),
                               elements=st.floats(-30.0, 30.0)))
    pts = np.vstack([mu.points(), mu.points()[0] + off * mu.h])
    assert np.all(heat_extension(mu, t, pts) >= 0.0)
    assert mass_conservation_residual(mu, t) <= 1e-6 * mu.total_variation()


def test_semigroup_property():
    mu = cantor_measure(4)
    s, t = 0.02, 0.05
    # resample e^{t}mu as a measure fine enough for the second convolution:
    # mass_quadrature_grid's lattice at the spacing of time s/4
    hq = 1.25 * math.sqrt(s / 4.0)
    lo, hi = mu.bbox()
    pts = np.arange(lo[0] - 10.0 * math.sqrt(t), hi[0] + 10.0 * math.sqrt(t) + hq, hq)[:, None]
    mid_vals = heat_extension(mu, t, pts)
    mid = new_grid_measure(1, hq, [float(pts[0, 0])],
                           np.arange(len(pts))[:, None], mid_vals * hq)
    sample = np.linspace(-0.3, 0.8, 23)[:, None]
    two_step = heat_extension(mid, s, sample)
    one_step = heat_extension(mu, s + t, sample)
    assert np.max(np.abs(two_step - one_step)) <= 1e-5 * np.max(np.abs(one_step))


def test_dilation_law():
    # e^{t}[dilated mu](x) = l^d e^{t l^2}[mu](l(x - c)) for the mass-
    # preserving pushforward x -> (x - c)/l ... checked in scaled variables
    mu = cantor_measure(4)
    scale = 0.25
    dil = mu.dilated(scale, [0.0])
    x = np.linspace(-0.2, 0.3, 17)[:, None]
    t = 3e-4
    lhs = heat_extension(dil, t, x)
    rhs = heat_extension(mu, t / scale ** 2, x / scale) / scale
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_heat_field_matches_pointwise():
    mu = cantor_measure(3)
    tg = TGrid.for_measure(mu, nodes_per_decade=4)
    pts = np.linspace(0, 0.5, 9)[:, None]
    fld = heat_field(mu, tg, pts)
    j = len(tg.nodes) // 2
    direct = heat_extension(mu, float(tg.nodes[j]), pts)
    assert np.allclose(fld.values[:, j], direct, rtol=1e-12)


def test_sup_field_dirac_gamma_d():
    # t^{d/2}(4 pi t)^{-d/2} is t-independent: sup = (4 pi)^{-d/2}
    d0 = dirac(1, h=0.5)
    tg = TGrid.build(1e-4, 10.0, 16)
    sup = heat_sup_field(d0, 1.0, np.zeros((1, 1)), tg)
    assert sup.values[0] == pytest.approx((4 * math.pi) ** -0.5, rel=1e-10)


def test_sup_field_zero_measure():
    zero = new_grid_measure(1, 1.0, [0.0], np.zeros((0, 1)), [])
    tg = TGrid.build(1e-3, 1.0, 8)
    sup = heat_sup_field(zero, 0.5, np.linspace(0, 1, 5)[:, None], tg)
    assert np.all(sup.values == 0.0)


def test_sup_refinement_improves():
    mu = dirac(1, h=0.5)
    tg = TGrid.build(1e-3, 1.0, 3)         # coarse grid on purpose
    pts = np.array([[0.7]])
    raw = heat_sup_field(mu, 0.6, pts, tg, refine=False)
    ref = heat_sup_field(mu, 0.6, pts, tg, refine=True)
    assert ref.values[0] >= raw.values[0]
    # the refined argmax reproduces the analytic optimum t* = x^2/(2(d-g))
    t_star = 0.7 ** 2 / (2 * (1 - 0.6))
    g = lambda t: t ** 0.3 * (4 * math.pi * t) ** -0.5 * math.exp(-0.49 / (4 * t))
    assert ref.values[0] == pytest.approx(g(t_star), rel=1e-3)


def test_sup_refine_matches_dense_exp(monkeypatch):
    # writing 0.0 for the terms below the exp floor, on the grid and in the
    # golden-section refinement, leaves the sup field's bits unchanged
    mu = cantor_measure(5)
    tg = TGrid.for_measure(mu, nodes_per_decade=8, reach=4.0)
    pts = np.vstack([mu.points()[::3], np.linspace(-3.0, 4.0, 9)[:, None]])
    got = heat_sup_field(mu, 0.6, pts, tg, refine=True)
    monkeypatch.setattr(_kernels, "_gauss_terms",
                        lambda arg, out, keep: np.exp(arg, out=out))
    ref = heat_sup_field(mu, 0.6, pts, tg, refine=True)
    assert np.array_equal(got.values.view(np.uint64), ref.values.view(np.uint64))
    assert np.array_equal(got.t_at.view(np.uint64), ref.t_at.view(np.uint64))


def test_refined_values_are_heat_sums_at_their_times():
    # 600 points over 128 masses span three pair blocks of 256 rows, each
    # block's rows with their own probe times: every value is
    # t^{g/2}|e^{t Delta} mu(x)| at its reported time, summed alone
    mu = cantor_measure(7)
    pts = np.linspace(-1.0, 2.0, 600)[:, None]
    tg = TGrid.for_measure(mu, nodes_per_decade=4, reach=2.0)
    sup = heat_sup_field(mu, 0.6, pts, tg, refine=True)
    assert np.sum(~np.isin(sup.t_at, tg.nodes)) > 500     # mostly refined
    direct = [t ** 0.3 * abs(heat_extension(mu, t, p[None])[0])
              for p, t in zip(pts, sup.t_at)]
    np.testing.assert_allclose(sup.values, direct, rtol=1e-12, atol=0.0)


def test_sup_refinement_sums_in_pair_blocks():
    # the depth-8 Cantor atom's certificate sup: 1211 points x 512 masses
    # over 221 times.  The refinement sums through the pair driver, so the
    # grid field sets the traced peak (6.5 MB); a points x masses array
    # and its scratch took it to 20.3 MB
    cand, _ = atoms.make_frostman_atom(depth=8)
    mu = cand.measure
    pts = atoms.certification_points(cand)
    tg = TGrid.for_measure(mu, nodes_per_decade=16, reach=atoms._FAR_REACH * cand.side)
    assert (len(pts), mu.n_masses, len(tg.nodes)) == (1211, 512, 221)
    tracemalloc.start()
    try:
        heat_sup_field(mu, cand.d - cand.beta, pts, tg, refine=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
