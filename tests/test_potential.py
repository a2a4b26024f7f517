import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from fracmeas import potential
from fracmeas.atoms import AtomCandidate, make_frostman_atom
from fracmeas.maximal import decay_fit
from fracmeas.measures import (Cube, SampledField, cantor_frostman, dirac,
                               lattice_points, new_grid_measure)
from fracmeas.potential import (RieszConfig, heat_besov_functional,
                                lorentz_norm, riesz_field, riesz_heat,
                                riesz_kernel, trace_integral)
from scipy.special import gamma as _gamma

BETA0 = math.log(2) / math.log(3)


def test_riesz_normalization_constant():
    cfg = RieszConfig(alpha=0.5, d=1)
    expect = math.pi ** 0.5 * 2 ** 0.5 * _gamma(0.25) / _gamma(0.25)
    assert cfg.gamma_alpha == pytest.approx(expect)
    with pytest.raises(ValueError):
        RieszConfig(alpha=1.0, d=1)
    with pytest.raises(ValueError):
        RieszConfig(alpha=0.0, d=2)


def test_kernel_unit_distance():
    cfg = RieszConfig(alpha=0.4, d=1)
    v = riesz_kernel(cfg, dirac(1), [[1.0]])
    assert v[0] == pytest.approx(1.0 / cfg.gamma_alpha)


def test_kernel_zero_measure_and_positivity(rng):
    cfg = RieszConfig(alpha=0.7, d=1)
    zero = new_grid_measure(1, 1.0, [0.0], np.zeros((0, 1)), [])
    assert np.all(riesz_kernel(cfg, zero, [[0.3]]) == 0.0)
    pos = new_grid_measure(1, 1 / 8, [0.0], rng.integers(0, 8, (5, 1)),
                           rng.uniform(0.1, 1, 5))
    pts = np.linspace(-1, 2, 33)[:, None] + 1e-4
    assert np.all(riesz_kernel(cfg, pos, pts) >= 0)


def test_kernel_inf_sentinel_at_mass():
    cfg = RieszConfig(alpha=0.5, d=1)
    v = riesz_kernel(cfg, dirac(1), [[0.0]])
    assert np.isinf(v[0])


def test_heat_route_matches_kernel(warm):
    for d in (1, 2):
        mu = dirac(d)
        for alpha in (0.3, 0.5, 1.2):
            if alpha >= d:
                continue
            cfg = RieszConfig(alpha=alpha, d=d)
            rr = np.geomspace(0.1, 10.0, 10)
            pts = np.zeros((len(rr), d))
            pts[:, 0] = rr
            k = riesz_kernel(cfg, mu, pts)
            res = riesz_heat(cfg, mu, pts)
            assert not res.flagged
            assert np.max(np.abs(res.values - k) / k) < 1e-3


def test_routes_agree_for_spread_measure(warm):
    # agreement holds away from the support (>= 10h) for general measures
    mu, _ = cantor_frostman(5, 1.0)
    cfg = RieszConfig(alpha=0.5, d=1)
    pts = np.linspace(0.75, 3.0, 9)[:, None]
    k = riesz_kernel(cfg, mu, pts)
    res = riesz_heat(cfg, mu, pts)
    assert np.max(np.abs(res.values - k) / k) < 1e-3


def test_heat_route_homogeneity():
    cfg = RieszConfig(alpha=0.5, d=1)
    res = riesz_heat(cfg, dirac(1), [[1.0], [2.0]])
    assert res.values[1] / res.values[0] == pytest.approx(2 ** (0.5 - 1), rel=1e-4)


def test_heat_route_zero_measure():
    cfg = RieszConfig(alpha=0.5, d=1)
    zero = new_grid_measure(1, 1.0, [0.0], np.zeros((0, 1)), [])
    res = riesz_heat(cfg, zero, [[1.0]])
    assert np.all(res.values == 0.0)


# ---------------------------------------------------------------------------
# Lorentz norms
# ---------------------------------------------------------------------------

def test_lorentz_indicator():
    # indicator of total volume 1 has norm p under this convention
    for p in (1.5, 2.0, 4.0):
        assert lorentz_norm(np.ones(64), p, cell_volume=1 / 64) == \
            pytest.approx(p, rel=1e-12)


def test_lorentz_scaling_and_rearrangement(rng):
    v = rng.exponential(1.0, 200)
    n = lorentz_norm(v, 2.0, cell_volume=0.01)
    assert lorentz_norm(5 * v, 2.0, cell_volume=0.01) == pytest.approx(5 * n)
    # two disjoint equal indicators vs one of doubled volume
    a = lorentz_norm(np.ones(20), 3.0, cell_volume=0.05)
    b = lorentz_norm(np.ones(40), 3.0, cell_volume=0.05)
    c = lorentz_norm(np.ones(20), 3.0, cell_volume=0.10)
    assert b == pytest.approx(c, rel=1e-12)
    assert b > a


def test_lorentz_dominates_lp(rng):
    for _ in range(5):
        v = rng.exponential(1.0, 300)
        p = 1.7
        lp = (np.sum(np.abs(v) ** p) * 0.002) ** (1 / p)
        assert lp <= lorentz_norm(v, p, cell_volume=0.002) + 1e-12


def test_lorentz_on_sampled_field():
    fld = SampledField(origin=np.zeros(1), spacing=0.1, values=np.ones(10))
    assert lorentz_norm(fld, 2.0) == pytest.approx(2.0)


def test_lorentz_guards():
    assert lorentz_norm(np.zeros(4), 2.0, cell_volume=1.0) == 0.0
    with pytest.raises(ValueError):
        lorentz_norm(np.ones(4), 1.0, cell_volume=1.0)
    with pytest.raises(ValueError):
        lorentz_norm(np.ones(4), 2.0, q=2.0, cell_volume=1.0)
    with pytest.raises(ValueError):
        lorentz_norm(np.ones(4), 2.0)


# ---------------------------------------------------------------------------
# the split heat-integral functional
# ---------------------------------------------------------------------------

def test_besov_zero_measure():
    zero = new_grid_measure(1, 0.25, [0.0], np.zeros((0, 1)), [])
    cand = AtomCandidate(measure=zero, cube=Cube(np.zeros(1), 1.0), beta=0.5)
    res = heat_besov_functional(cand, 0.5)
    assert res.total == 0.0


def test_besov_dilation_invariance(warm):
    cand, _ = make_frostman_atom(depth=5)
    base = heat_besov_functional(cand, 0.5)
    assert math.isfinite(base.total) and base.total > 0
    assert base.below_split > 0 and base.above_split > 0
    for j in (2, 5):
        s = 2.0 ** -j
        dil = AtomCandidate(measure=cand.measure.dilated(s, cand.cube.corner),
                            cube=Cube(corner=cand.cube.corner * s, side=s),
                            beta=cand.beta)
        res = heat_besov_functional(dil, 0.5)
        assert abs(res.total - base.total) / base.total < 0.02


def test_besov_halves_dominated_by_small_t(warm):
    cand, _ = make_frostman_atom(depth=6)
    res = heat_besov_functional(cand, 0.5)
    assert res.below_split > res.above_split
    assert math.isfinite(res.tail_estimate)
    assert not res.flagged


def test_besov_alpha_guard():
    cand, _ = make_frostman_atom(depth=3)
    with pytest.raises(ValueError):
        heat_besov_functional(cand, 1.0)


# ---------------------------------------------------------------------------
# trace integrals
# ---------------------------------------------------------------------------

def test_trace_constant_field():
    nu, _ = cantor_frostman(5, 1.0)
    fld = SampledField(origin=np.array([-1.0]), spacing=0.01,
                       values=np.ones(300))
    assert trace_integral(fld, nu) == pytest.approx(nu.total_mass())
    fld0 = SampledField(origin=np.array([-1.0]), spacing=0.01,
                        values=np.zeros(300))
    assert trace_integral(fld0, nu) == 0.0


def test_trace_rejects_signed_measure():
    bad = new_grid_measure(1, 0.5, [0.0], [[0], [1]], [1.0, -1.0])
    fld = SampledField(origin=np.array([-1.0]), spacing=0.1, values=np.ones(30))
    with pytest.raises(ValueError):
        trace_integral(fld, bad)


def test_trace_interpolation_bilinear():
    vals = np.arange(16.0).reshape(4, 4)
    fld = SampledField(origin=np.zeros(2), spacing=1.0, values=vals)
    nu = new_grid_measure(2, 0.5, [0.0, 0.0], [[1, 1], [3, 3]], [1.0, 1.0])
    got = trace_integral(fld, nu)
    expect = abs(vals[0, 0] + vals[0, 1] + vals[1, 0] + vals[1, 1]) / 4 \
        + abs(vals[1, 1] + vals[1, 2] + vals[2, 1] + vals[2, 2]) / 4
    assert got == pytest.approx(expect)


def test_trace_riesz_of_atom_bounded_across_scales(warm):
    # uniform-constant exhibit: jointly rescaled pair, factor-2 band
    from fracmeas.verify import verify_thm14
    out = verify_thm14(alpha=0.5, n_scales=3, depth=6)
    assert out.ok
    assert out.results["spread"] <= 1.05     # exact scaling up to rounding


def test_riesz_far_field_decay(warm):
    # power-law tail of the potential of a cancellative atom
    cand, _ = make_frostman_atom(depth=6)
    alpha = 0.6
    cfg = RieszConfig(alpha=alpha, d=1)
    radii = np.geomspace(2.0, 16.0, 24)
    pts = np.concatenate([0.5 + radii, 0.5 - radii])[:, None]
    vals = riesz_kernel(cfg, cand.measure, pts)
    fit = decay_fit(pts, vals, np.array([0.5]), 2.0, 16.0)
    assert fit.exponent <= -(1 - alpha + 1) + 0.3
    assert fit.residual <= 0.1


def test_riesz_field_interpolates(warm):
    cand, _ = make_frostman_atom(depth=4)
    cfg = RieszConfig(alpha=0.5, d=1)
    fld = riesz_field(cfg, cand.measure, [-0.5 + 0.2371 * 0.01], 0.01, [200])
    nu, _ = cantor_frostman(4, 1.0)
    tr = trace_integral(fld, nu)
    assert math.isfinite(tr) and tr > 0


@st.composite
def grid_measures(draw):
    d = draw(st.sampled_from([1, 2]))
    h = draw(st.sampled_from([1.0 / 729.0, 1.0 / 32.0, 0.3, 1.0, 7.0]))
    origin = draw(hnp.arrays(np.float64, d, elements=st.floats(-20.0, 20.0)))
    n = draw(st.integers(1, 12))
    idx = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-40, 40)))
    w = draw(hnp.arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    mu = new_grid_measure(d, h, origin, idx, w)
    assume(mu.n_masses > 0)
    return mu


def _kdtree_grid(mu, t):
    """The nearest-mass selection through a k-d tree: the reference."""
    st_ = math.sqrt(t)
    spacing = max(mu.h / 2.0, st_ / 4.0)
    pad = 8.0 * st_
    lo, hi = mu.bbox()
    pts = lattice_points([np.arange(lo[a] - pad, hi[a] + pad + spacing, spacing)
                          for a in range(mu.d)])
    dist, _ = cKDTree(mu.points()).query(pts, k=1)
    return pts[dist <= pad], spacing


@settings(max_examples=150)
@given(mu=grid_measures(), log_ratio=st.floats(-3.0, 6.0))
def test_adaptive_grid_matches_kdtree(mu, log_ratio):
    # times from below the grid scale to far above the support's extent
    t = (mu.h * 2.0 ** log_ratio) ** 2
    pts, spacing = potential._adaptive_heat_grid(mu, t)
    ref, ref_spacing = _kdtree_grid(mu, t)
    assert spacing == ref_spacing
    assert np.array_equal(pts, ref)


def _dense_riesz(cfg, mu, pts):
    """The Riesz sum with two isinf passes and a where: the reference."""
    y = mu.points()
    diff = pts[:, None, :] - y[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    with np.errstate(divide="ignore"):
        kern = np.sqrt(d2) ** (cfg.alpha - cfg.d)
    hot = np.any(np.isinf(kern), axis=1)
    vals = np.where(np.isinf(kern), 0.0, kern) @ mu.weights
    vals[hot] = np.inf
    return vals / cfg.gamma_alpha


@settings(max_examples=150)
@given(mu=grid_measures(), data=st.data())
def test_riesz_kernel_matches_dense(mu, data):
    d = mu.d
    # alpha = d - 1 gives the exponent -1, which numpy's power special-cases
    alpha = data.draw(st.one_of(st.floats(0.05, d - 0.05),
                                st.sampled_from([0.5, d - 1.0] if d > 1 else [0.5])))
    cfg = RieszConfig(alpha=alpha, d=d)
    free = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(0, 10)), d),
                                elements=st.floats(-30.0, 30.0)))
    on_mass = mu.points()[data.draw(st.lists(st.integers(0, mu.n_masses - 1),
                                             max_size=3))]
    pts = np.vstack([free, on_mass]).reshape(-1, d)
    assume(len(pts) > 0)
    got = riesz_kernel(cfg, mu, pts)
    ref = _dense_riesz(cfg, mu, pts)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert np.all(np.isinf(got[len(free):]))


@settings(max_examples=6)
@given(d=st.sampled_from([1, 2]), alpha=st.floats(0.05, 0.95),
       seed=st.integers(0, 2 ** 32 - 1), one=st.integers(0, 4999))
def test_riesz_kernel_rows_match_full_rows(d, alpha, seed, one):
    # 2048 masses make blocks of 1953 rows, so 5000 points take three, the
    # last one shorter; a product over the wanted rows alone moves bits
    rng = np.random.default_rng(seed)
    flat = rng.choice(40_000, 2048, replace=False)
    idx = np.stack(np.unravel_index(flat, (40_000,) if d == 1 else (200, 200)), axis=1)
    mu = new_grid_measure(d, 1.0 / 64.0, np.zeros(d), idx, rng.uniform(-1.0, 1.0, 2048))
    cfg = RieszConfig(alpha=alpha * d, d=d)
    lo, hi = mu.bbox()
    pts = rng.uniform(lo, hi, (5000, d))
    on_mass = rng.choice(5000, 3, replace=False)
    pts[on_mass] = mu.points()[rng.choice(mu.n_masses, 3, replace=False)]
    full = riesz_kernel(cfg, mu, pts)
    assert np.all(np.isposinf(full[on_mass]))
    scattered = np.union1d(rng.choice(5000, rng.integers(1000, 4000), replace=False),
                           on_mass)
    for sel in (np.zeros(0, dtype=np.int64), np.array([one]), np.arange(5000),
                scattered):
        got = riesz_kernel(cfg, mu, pts, rows=sel)
        assert np.array_equal(got.view(np.uint64), full[sel].view(np.uint64))


def test_riesz_kernel_rejects_unordered_rows():
    cfg = RieszConfig(alpha=0.5, d=1)
    for rows in ([1, 0], [0, 0], [-1], [2]):
        with pytest.raises(ValueError, match="strictly increasing"):
            riesz_kernel(cfg, dirac(1), [[0.5], [1.5]], rows=rows)


def test_riesz_field_at_evaluates_the_read_nodes(warm):
    # the nodes read by the trace hold the full field's bits, the rest NaN
    cand, _ = make_frostman_atom(depth=4)
    cfg = RieszConfig(alpha=0.5, d=1)
    nu, _ = cantor_frostman(4, 1.0)
    grid = (cfg, cand.measure, [-0.5 + 0.2371 * 0.01], 0.01, [200])
    full = riesz_field(*grid)
    part = riesz_field(*grid, at=nu.points())
    read = np.unique(part.stencil(nu.points())[0])
    assert np.array_equal(np.flatnonzero(~np.isnan(part.values)), read)
    assert len(read) < part.values.size
    assert np.array_equal(part.values.flat[read].view(np.uint64),
                          full.values.flat[read].view(np.uint64))
    assert trace_integral(part, nu) == trace_integral(full, nu)
