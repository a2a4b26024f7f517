import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from decay import decay_fit
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from fracmeas import _kernels, measures, potential, verify
from fracmeas.atoms import AtomCandidate, make_frostman_atom, make_loop_atom
from fracmeas.heat import TGrid
from fracmeas.measures import (Cube, cantor_measure, dirac,
                               lattice_points, new_grid_measure)
from fracmeas.potential import (RieszConfig, heat_besov_functional,
                                lorentz_norm, riesz_cells, riesz_heat,
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
            assert res.quad_error_est <= 1e-4
            assert np.max(np.abs(res.values - k) / k) < 1e-3


def test_routes_agree_for_spread_measure(warm):
    # agreement holds away from the support (>= 10h) for general measures
    mu = cantor_measure(5)
    cfg = RieszConfig(alpha=0.5, d=1)
    pts = np.linspace(0.75, 3.0, 9)[:, None]
    k = riesz_kernel(cfg, mu, pts)
    res = riesz_heat(cfg, mu, pts)
    assert np.max(np.abs(res.values - k) / k) < 1e-3


def test_heat_route_homogeneity():
    cfg = RieszConfig(alpha=0.5, d=1)
    res = riesz_heat(cfg, dirac(1), [[1.0], [2.0]])
    assert res.values[1] / res.values[0] == pytest.approx(2 ** (0.5 - 1), rel=1e-4)


def test_heat_route_is_infinite_exactly_at_masses():
    # 2048 masses give pair blocks of 16 rows: the points on masses sit in
    # several blocks, and only their rows are +inf
    mu = make_frostman_atom(depth=10)[0].measure
    on = [3, 40, 41, 1000, 2047]
    pts = np.vstack([np.linspace(-1.0, 2.0, 60)[:, None], mu.points()[on]])
    res = riesz_heat(RieszConfig(alpha=0.5, d=1), mu, pts)
    assert np.array_equal(np.flatnonzero(np.isinf(res.values)), 60 + np.arange(len(on)))
    assert np.all(np.isfinite(res.values[:60]))


def test_heat_route_sums_in_pair_blocks():
    # 200 points x the depth-10 atom's 2048 masses: the distances and the
    # incomplete-gamma tails are taken in pair blocks, so the traced peak
    # is 3.2 MB, where the points x masses matrices of distances and tails
    # took 27.6 MB (scipy.special is imported at the top of this module)
    mu = make_frostman_atom(depth=10)[0].measure
    pts = np.linspace(-1.0, 2.0, 200)[:, None]
    tracemalloc.start()
    try:
        riesz_heat(RieszConfig(alpha=0.5, d=1), mu, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


@settings(max_examples=200)
@given(data=st.data())
def test_weighted_columns_match_the_gathered_sum(data):
    # the quadrature's column-by-column sum has the bits of the product and
    # sum over the column-major gather, signed zeros and infinities too, and
    # its NaNs where that sum has them (a NaN's sign bit is not compared)
    n, nt = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 40))
    values = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, np.inf, np.nan]))
    field = data.draw(hnp.arrays(np.float64, (n, nt), elements=values))
    cols = np.unique(data.draw(hnp.arrays(np.int64, data.draw(st.integers(1, nt)),
                                          elements=st.integers(0, nt - 1))))
    w = data.draw(hnp.arrays(np.float64, len(cols), elements=st.floats(-1e3, 1e3)))
    with np.errstate(all="ignore"):
        got = potential._weighted_columns(field, cols, w)
        ref = (field[:, cols] * w[None, :]).sum(axis=1)
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), ref[~nan].view(np.uint64))


def test_heat_route_holds_one_field():
    # 8000 points x 159 times: the quadrature adds the weighted columns of
    # the 10.2 MB heat field into one vector (traced peak 12.7 MB), where the
    # gather and its product held two more copies of the field (30.8 MB)
    mu = cantor_measure(5)
    pts = np.linspace(1.5, 4.0, 8000)[:, None]
    tracemalloc.start()
    try:
        riesz_heat(RieszConfig(alpha=0.5, d=1), mu, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


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


def test_lorentz_guards():
    assert lorentz_norm(np.zeros(4), 2.0, cell_volume=1.0) == 0.0
    with pytest.raises(ValueError):
        lorentz_norm(np.ones(4), 1.0, cell_volume=1.0)


def _two_root_lorentz(values, p, cell_volume):
    """The Lorentz sum with both roots of every step taken: the reference."""
    v = np.abs(np.asarray(values, dtype=np.float64).ravel())
    v = np.sort(v[v > 0])[::-1]
    if len(v) == 0:
        return 0.0
    cum = cell_volume * np.arange(1, len(v) + 1, dtype=np.float64)
    prev = np.concatenate([[0.0], cum[:-1]])
    return float(np.sum(v * p * (cum ** (1.0 / p) - prev ** (1.0 / p))))


@settings(max_examples=150)
@given(values=hnp.arrays(np.float64, st.integers(0, 300),
                         elements=st.floats(-1e6, 1e6, allow_subnormal=False)),
       p=st.one_of(st.floats(1.0001, 8.0), st.sampled_from([4.0 / 3.0, 2.0, 3.0])),
       cell_volume=st.floats(1e-12, 10.0))
def test_lorentz_norm_matches_two_root_sum(values, p, cell_volume):
    # each step's lower root is the previous step's root, bit for bit
    got = lorentz_norm(values, p, cell_volume=cell_volume)
    assert got.hex() == _two_root_lorentz(values, p, cell_volume).hex()


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
    assert math.isfinite(res.total)


def test_besov_alpha_guard():
    cand, _ = make_frostman_atom(depth=3)
    with pytest.raises(ValueError):
        heat_besov_functional(cand, 1.0)


# ---------------------------------------------------------------------------
# trace integrals
# ---------------------------------------------------------------------------

def test_trace_constant_field():
    nu = cantor_measure(5)
    assert trace_integral(np.ones(nu.n_masses), nu) == pytest.approx(nu.total_mass())
    assert trace_integral(np.zeros(nu.n_masses), nu) == 0.0


def test_trace_needs_one_value_per_mass():
    nu = cantor_measure(3)
    with pytest.raises(ValueError, match="does not match"):
        trace_integral(np.ones(nu.n_masses + 1), nu)


def test_trace_rejects_signed_measure():
    bad = new_grid_measure(1, 0.5, [0.0], [[0], [1]], [1.0, -1.0])
    with pytest.raises(ValueError):
        trace_integral(np.ones(bad.n_masses), bad)


def test_trace_riesz_of_atom_bounded_across_scales(warm):
    # uniform-constant exhibit: jointly rescaled pair, factor-2 band
    from fracmeas.verify import verify_thm14
    out = verify_thm14(alpha=0.5, n_scales=3, depth=6)
    assert out.ok
    spread, = (c.value for c in out.checks if c.name == "spread")
    assert spread <= 1.05     # exact scaling up to rounding


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


@st.composite
def grid_measures(draw, max_masses=12, reach=40, dims=(1, 2)):
    d = draw(st.sampled_from(dims))
    h = draw(st.sampled_from([1.0 / 729.0, 1.0 / 32.0, 0.3, 1.0, 7.0]))
    origin = draw(hnp.arrays(np.float64, d, elements=st.floats(-20.0, 20.0)))
    n = draw(st.integers(1, max_masses))
    idx = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-reach, reach)))
    w = draw(hnp.arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    mu = new_grid_measure(d, h, origin, idx, w)
    assume(mu.n_masses > 0)
    return mu


@given(mu=grid_measures(max_masses=8, reach=8),
       s=st.one_of(st.integers(1, 10).map(lambda j: 2.0 ** -j), st.sampled_from([0.3, 3.0])))
def test_besov_total_is_dilation_invariant(mu, s):
    # the docstring's law: every grid parameter scales with the measure, so
    # at p = d / (d - alpha) a mass-preserving dilation of the candidate (its
    # cube with it) reproduces the total to rounding.  Few masses in a small
    # index box keep the examples' grids small
    lo, hi = mu.bbox()
    cand = AtomCandidate(measure=mu, cube=Cube(corner=lo, side=float(np.max(hi - lo)) or mu.h),
                         beta=0.5)
    base = heat_besov_functional(cand, mu.d / 2.0)
    res = heat_besov_functional(verify._dilated_atom(cand, s), mu.d / 2.0)
    assert abs(res.total - base.total) <= 1e-8 * base.total


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


def _assert_grids_match_kdtree(mu, nodes):
    grids = list(potential._adaptive_heat_grids(mu, nodes))
    assert len(grids) == len(nodes)
    for t, (pts, spacing) in zip(nodes, grids):
        ref, ref_spacing = _kdtree_grid(mu, t)
        assert spacing == ref_spacing
        assert pts.shape == ref.shape
        assert np.array_equal(pts.view(np.uint64), ref.view(np.uint64))


# sqrt(t) / h: from below the grid scale to windows far wider than the
# support, and on both sides of the spacing switch sqrt(t) = 2h
_LOG_RATIOS = st.one_of(st.floats(-3.0, 6.0),
                        st.sampled_from([1.0 - 1e-12, 1.0, 1.0 + 1e-12]))


@settings(max_examples=150)
@given(mu=grid_measures(), log_ratios=st.lists(_LOG_RATIOS, min_size=1, max_size=6),
       budget=st.sampled_from([None, (1, 1), (64, 16), (4096, 256)]))
def test_adaptive_grid_matches_kdtree(mu, log_ratios, budget):
    # every node's grid, in node order, whatever groups and chunks the pass
    # takes (one cell and one row take every node and every lattice row of
    # the shared row-run search alone)
    nodes = (mu.h * 2.0 ** np.array(log_ratios)) ** 2
    cells, rows = budget or (potential._GRID_CELLS, measures._RUN_ROWS)
    with mock.patch.object(potential, "_GRID_CELLS", cells), \
            mock.patch.object(measures, "_RUN_ROWS", rows):
        _assert_grids_match_kdtree(mu, nodes)


@settings(max_examples=25)
@given(data=st.data())
def test_adaptive_grid_matches_kdtree_in_3d(data):
    # rows that fix two axes
    n = data.draw(st.integers(1, 6))
    idx = data.draw(hnp.arrays(np.int64, (n, 3), elements=st.integers(-4, 4)))
    w = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.5, 2.0)))
    origin = data.draw(hnp.arrays(np.float64, 3, elements=st.floats(-5.0, 5.0)))
    mu = new_grid_measure(3, 0.25, origin, idx, w)
    log_ratios = data.draw(st.lists(st.floats(-2.0, 1.2), min_size=1, max_size=3))
    _assert_grids_match_kdtree(mu, (mu.h * 2.0 ** np.array(log_ratios)) ** 2)


@given(d=st.integers(1, 3), data=st.data())
def test_side_0_cube_distance_is_the_grid_point_distance(d, data):
    # the grids' points are cubes of side 0 to the row-run search, which
    # tests them with _cube_ball_dist: bit for bit the point distance with
    # the squared axis differences added in axis order
    coords = st.floats(-1e3, 1e3)
    pts = data.draw(hnp.arrays(np.float64, (16, d), elements=coords))
    c = data.draw(hnp.arrays(np.float64, d, elements=coords))
    d2 = np.zeros(len(pts))
    for a in range(d):
        diff = pts[:, a] - c[a]
        d2 += diff * diff
    got = measures._cube_ball_dist(pts, 0.0, c)
    assert np.array_equal(got.view(np.uint64), np.sqrt(d2).view(np.uint64))


@example(lo=1e4, extent=0.0, pad=1e-13, spacing=0.5)      # one point
@example(lo=0.3, extent=0.0, pad=0.01, spacing=0.5)       # two points
@given(lo=st.floats(-1e4, 1e4), extent=st.floats(0.0, 100.0),
       pad=st.floats(0.0, 100.0, exclude_min=True), spacing=st.floats(0.01, 100.0))
def test_axis_is_numpys_arange_fill(lo, extent, pad, spacing):
    # a grid axis built as the grids build it is origin + j * step bit for
    # bit, so the row-run search reads its coordinates from three numbers
    start, stop = lo - pad, lo + extent + pad + spacing
    origin, step, n = potential._axis(start, stop, spacing)
    ax = np.arange(start, stop, spacing)
    assert n == len(ax)
    assert np.array_equal((origin + np.arange(n) * step).view(np.uint64), ax.view(np.uint64))


def _besov_reference(cand, alpha):
    """(total, below, above) of the functional, one node at a time on the
    k-d tree grids: the reference."""
    mu = cand.measure
    p = mu.d / (mu.d - alpha)
    tgrid = TGrid.for_measure(mu, nodes_per_decade=16)
    g = np.zeros(len(tgrid.nodes))
    for j, t in enumerate(tgrid.nodes):
        pts, spacing = _kdtree_grid(mu, t)
        vals = _kernels.heat_values(pts, mu.points(), mu.weights, np.array([t]))[:, 0]
        g[j] = t ** (alpha / 2.0 - 1.0) * lorentz_norm(vals, p, cell_volume=spacing ** mu.d)
    gw = g * potential._log_trapezoid_weights(tgrid.nodes)
    below = float(np.sum(gw[tgrid.nodes <= cand.side ** 2]))
    above = float(np.sum(gw[tgrid.nodes > cand.side ** 2]))
    return below + above, below, above


@settings(max_examples=10, deadline=None)
@given(d=st.sampled_from([1, 2]), data=st.data())
def test_besov_functional_matches_per_node_reference(d, data):
    # a few masses within 8 cells of the origin keep the reference's
    # lattices small
    n = data.draw(st.integers(1, 6))
    idx = data.draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-8, 8)))
    w = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    h = data.draw(st.sampled_from([1.0 / 729.0, 0.3, 7.0]))
    mu = new_grid_measure(d, h, np.zeros(d), idx, w)
    assume(mu.n_masses > 0)
    side = data.draw(st.floats(0.01, 100.0))
    alpha = data.draw(st.floats(0.05, d - 0.05))
    cand = AtomCandidate(measure=mu, cube=Cube(np.zeros(mu.d), side), beta=0.5)
    res = heat_besov_functional(cand, alpha)
    got = (res.total, res.below_split, res.above_split)
    assert [v.hex() for v in got] == [v.hex() for v in _besov_reference(cand, alpha)]


def _loop_atom():
    return make_loop_atom(verify.square_loop(16), 0, h=1.0 / 32.0)[0]


@pytest.mark.parametrize("atom, cells", [
    (lambda: make_frostman_atom(depth=6)[0], 3000),
    (_loop_atom, 20000),
], ids=["cantor-1d", "loop-2d"])
def test_besov_node_batches_keep_each_nodes_bits(atom, cells, monkeypatch):
    # the functional sums the grids of consecutive nodes in one pair pass;
    # each node's values equal a heat_values call on that node alone, bit for
    # bit.  A small budget of cells and of points splits the grid search into
    # groups of nodes and the sums into batches: some batch ends inside a
    # group, and some spans the end of one
    cand = atom()
    mu = cand.measure
    monkeypatch.setattr(potential, "_GRID_CELLS", cells)
    monkeypatch.setattr(potential, "_BATCH_POINTS", cells)
    groups, batches, seen = [], [], []
    row_runs, node_batches = potential._row_runs, potential._node_batches

    def runs_spy(*args, tag, **kwargs):
        groups.append(int(tag[-1]) + 1)
        return row_runs(*args, tag=tag, **kwargs)

    def batches_spy(grids, rows):
        for batch in node_batches(grids, rows):
            assert sum(len(pts) for pts, _ in batch) <= rows or len(batch) == 1
            batches.append(len(batch))
            yield batch

    def norm_spy(values, p, cell_volume):
        seen.append((values.copy(), cell_volume))
        return lorentz_norm(values, p, cell_volume)

    monkeypatch.setattr(potential, "_row_runs", runs_spy)
    monkeypatch.setattr(potential, "_node_batches", batches_spy)
    monkeypatch.setattr(potential, "lorentz_norm", norm_spy)
    heat_besov_functional(cand, 0.5)
    group_ends = set(np.cumsum(groups).tolist())
    batch_ends = np.cumsum(batches).tolist()
    assert any(e not in group_ends for e in batch_ends)
    assert any(any(s < g < e for g in group_ends)
               for s, e in zip([0] + batch_ends, batch_ends))
    tgrid = TGrid.for_measure(mu, nodes_per_decade=16)
    grids = list(potential._adaptive_heat_grids(mu, tgrid.nodes))
    assert len(seen) == len(grids) == len(tgrid.nodes) == batch_ends[-1]
    for t, (pts, spacing), (values, cell_volume) in zip(tgrid.nodes, grids, seen):
        ref = _kernels.heat_values(pts, mu.points(), mu.weights, np.array([t]))[:, 0]
        assert np.array_equal(values.view(np.uint64), ref.view(np.uint64))
        assert cell_volume == spacing ** mu.d


def _dense_riesz(cfg, mu, pts):
    """The Riesz sum with two isinf passes and a where: the reference."""
    y = mu.points()
    diff = pts[:, None, :] - y[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    with np.errstate(divide="ignore"):
        kern = np.sqrt(d2) ** (cfg.alpha - cfg.d)
    hot = np.any(np.isinf(kern), axis=1)
    vals = np.einsum("ij,j->i", np.where(np.isinf(kern), 0.0, kern), mu.weights)
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
    # 2048 masses make blocks of 16 rows, so 5000 points take 313, the last
    # one of 8; a subset of the points, in blocks of its own, gets the full
    # evaluation's rows bit for bit
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
        got = riesz_kernel(cfg, mu, pts[sel])
        assert np.array_equal(got.view(np.uint64), full[sel].view(np.uint64))


def _dense_riesz_cells(cfg, mu, pts, half):
    """The spread-cell Riesz sum, each pair's term by the same closed form,
    in one einsum: the reference."""
    diff = pts[:, None, :] - mu.points()[None, :, :]
    u = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    a = cfg.alpha
    far = u > 2.0 * half
    r = np.where(far, half / np.where(far, u, 1.0), 0.0)
    terms = np.where(far, u ** a * (np.expm1(a * np.log1p(r)) - np.expm1(a * np.log1p(-r))),
                     (u + half) ** a - np.copysign(np.abs(u - half) ** a, u - half))
    return np.einsum("ij,j->i", terms, mu.weights) / (2.0 * half * a * cfg.gamma_alpha)


@settings(max_examples=150)
@given(mu=grid_measures(dims=(1,)), data=st.data())
def test_riesz_cells_matches_dense(mu, data):
    cfg = RieszConfig(alpha=data.draw(st.floats(0.05, 0.95)), d=1)
    half = data.draw(st.sampled_from([mu.h, mu.h / 2.0, 0.3, 1e-3]))
    free = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(0, 10)), 1),
                                elements=st.floats(-30.0, 30.0)))
    # on a mass, at its cell's edge and at two half-widths, where the forms meet
    near = mu.points()[data.draw(st.lists(st.integers(0, mu.n_masses - 1), max_size=3))]
    pts = np.vstack([free, near, near + half, near - 2.0 * half])
    assume(len(pts) > 0)
    got = riesz_cells(cfg, mu, pts, half)
    ref = _dense_riesz_cells(cfg, mu, pts, half)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
def test_riesz_cells_match_a_50_digit_reference(alpha):
    # one unit mass at 0: the value at u is (F(u + h) - F(u - h)) / (2 h
    # gamma(alpha)), here in 50-digit decimal arithmetic, at u from 0 to 2,
    # at the cell edge and around two half-widths, where the forms meet
    h = 3.0 ** -8 / 4.0
    cfg = RieszConfig(alpha=alpha, d=1)
    u = np.concatenate([np.linspace(0.0, 2.0, 1001), np.geomspace(h / 8.0, 2.0, 400),
                        h * np.array([1 - 1e-12, 1, 1 + 1e-12, 2 - 1e-12, 2, 2 + 1e-12])])
    got = riesz_cells(cfg, dirac(1), u[:, None], h)
    with localcontext() as ctx:
        ctx.prec = 50
        a, hd = Decimal(alpha), Decimal(h)
        ref = []
        for x in map(Decimal, u.tolist()):
            edge = abs(x - hd) ** a
            jump = (x + hd) ** a - (edge if x > hd else -edge)
            ref.append(float(jump / (2 * hd * a * Decimal(cfg.gamma_alpha))))
    assert np.max(np.abs(got - ref) / ref) <= 1e-14


def test_riesz_cells_at_the_cell_and_its_edge_warn_nowhere():
    # u = 0 and u = half: the inside form, with no division by u and no
    # power of a negative number, so no RuntimeWarning
    h, a = 0.25, 0.5
    cfg = RieszConfig(alpha=a, d=1)
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        got = riesz_cells(cfg, dirac(1), [[0.0], [h], [-h]], h)
    norm = 2.0 * h * a * cfg.gamma_alpha
    assert got.tolist() == [2.0 * h ** a / norm, (2.0 * h) ** a / norm, (2.0 * h) ** a / norm]


def test_riesz_cells_guards():
    mu = dirac(1)
    cfg = RieszConfig(alpha=0.5, d=1)
    for half in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="half-width"):
            riesz_cells(cfg, mu, [[1.0]], half)
    with pytest.raises(ValueError, match="one-dimensional"):
        riesz_cells(RieszConfig(alpha=0.5, d=2), dirac(2), [[1.0, 0.0]], 0.1)


def test_thm14_trace_is_the_closed_form_per_pair_sum():
    # at each scale the trace is trace_integral of the dense per-pair sum,
    # bit for bit, from the atom, nu and the atom's spacing alone
    out = verify.verify_thm14()
    cand, _ = make_frostman_atom(depth=8)
    nu = cantor_measure(8)
    cfg = RieszConfig(alpha=0.5, d=1)
    for j, (trace, row) in enumerate(zip(out.results["traces"], out.tables["trace"][1])):
        a_s, nu_s = verify._scaled_pair(cand, nu, 0.5, 2.0 ** -j)
        ref = trace_integral(_dense_riesz_cells(cfg, a_s.measure, nu_s.points(),
                                                a_s.measure.h), nu_s)
        assert trace == row[2]
        assert np.float64(trace).view(np.uint64) == np.float64(ref).view(np.uint64)
