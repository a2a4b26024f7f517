import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fracmeas import measures
from fracmeas.measures import (GridMeasure, _cube_sums, cantor_frostman,
                               cantor_measure, curve_measure, dirac, frostman_constant,
                               lebesgue_sample, measure_sum, new_grid_measure,
                               unit_lattice)

BETA0 = math.log(2) / math.log(3)


# ---------------------------------------------------------------------------
# oracle: exact sup of |mu|(B(x,r))/r^beta for 1-d atomic measures
# ---------------------------------------------------------------------------

def frostman_sup_oracle_1d(mu: GridMeasure, beta: float, r_min: float) -> float:
    """Exact supremum over closed balls with radius >= r_min.

    In one dimension the optimal ball for a contiguous point range [i..j]
    is centered at the range midpoint with radius max((p_j-p_i)/2, r_min),
    so scanning all O(n^2) ranges is exhaustive.
    """
    pts = np.sort(mu.points()[:, 0])
    order = np.argsort(mu.points()[:, 0], kind="stable")
    w = np.abs(mu.weights)[order]
    cum = np.concatenate([[0.0], np.cumsum(w)])
    best = 0.0
    n = len(pts)
    for i in range(n):
        spans = 0.5 * (pts[i:] - pts[i])
        radii = np.maximum(spans, r_min)
        mass = cum[i + 1:] - cum[i]
        best = max(best, float(np.max(mass / radii ** beta)))
    return best


def test_new_grid_measure_basic():
    mu = new_grid_measure(1, 1.0, [0.0], [[0]], [1.0])
    assert mu.total_variation() == 1.0
    assert mu.total_mass() == 1.0

    empty = new_grid_measure(1, 1.0, [0.0], np.zeros((0, 1)), [])
    assert empty.total_variation() == 0.0
    assert empty.n_masses == 0

    signed = new_grid_measure(2, 0.5, [0.0, 0.0], [[0, 0], [1, 1]], [1.0, -1.0])
    assert signed.total_mass() == 0.0
    assert signed.total_variation() == 2.0


def test_new_grid_measure_rejections():
    with pytest.raises(ValueError):
        new_grid_measure(1, 0.0, [0.0], [[0]], [1.0])
    with pytest.raises(ValueError):
        new_grid_measure(1, -2.0, [0.0], [[0]], [1.0])
    with pytest.raises(ValueError):
        new_grid_measure(1, 1.0, [0.0], [[0]], [np.nan])
    with pytest.raises(ValueError):
        new_grid_measure(1, 1.0, [0.0], [[0]], [np.inf])


def test_zero_weights_dropped_and_merged():
    mu = new_grid_measure(1, 1.0, [0.0], [[0], [1], [1]], [0.0, 2.0, -2.0])
    assert mu.n_masses == 0


def test_total_variation_additive_disjoint(rng):
    for _ in range(10):
        na, nb = rng.integers(1, 20, 2)
        a = new_grid_measure(1, 0.25, [0.0], rng.integers(0, 50, (na, 1)),
                             rng.normal(size=na))
        b = new_grid_measure(1, 0.25, [0.0], rng.integers(100, 150, (nb, 1)),
                             rng.normal(size=nb))
        if a.n_masses == 0 or b.n_masses == 0:
            continue
        s = measure_sum([a, b])
        assert np.isclose(s.total_variation(),
                          a.total_variation() + b.total_variation(), rtol=1e-14)


def _cube_masses(mu, level):
    """mu of every level-k cube holding a mass: (indices, sums)."""
    return _cube_sums(unit_lattice(mu.d).index_of(mu.points(), level), mu.weights)


def test_cube_sums_dirac_half_open():
    # the point 0 lies in [0, 1), not in [-1, 0): cubes are half-open
    idx, sums = _cube_masses(dirac(1), 0)
    assert idx.tolist() == [[0]] and sums.tolist() == [1.0]


def test_cube_sums_riemann_half():
    h = 2.0 ** -10
    idx, sums = _cube_masses(lebesgue_sample(1, h), 1)
    assert idx.tolist() == [[0], [1]]
    assert abs(sums[0] - 0.5) <= h


def test_children_partition_parent(rng):
    # half-open convention: each mass lands in exactly one child, so each
    # parent's mass is the sum of its children's, whose indices >> 1 name it
    for _ in range(8):
        n = rng.integers(1, 40)
        mu = new_grid_measure(2, 1 / 16, [0.0, 0.0], rng.integers(0, 32, (n, 2)),
                              rng.normal(size=n))
        if mu.n_masses == 0:
            continue
        parents, totals = _cube_masses(mu, 1)
        kids, kid_sums = _cube_masses(mu, 2)
        up, summed = _cube_sums(kids >> 1, kid_sums)
        assert np.array_equal(up, parents)
        assert np.allclose(summed, totals, rtol=0, atol=1e-12)


def test_cantor_construction():
    mu, c = cantor_frostman(1)
    assert mu.n_masses == 2
    assert np.allclose(sorted(mu.points()[:, 0]), [1 / 12, 5 / 12])
    assert np.all(mu.weights == 0.5)
    assert mu.total_mass() == 1.0
    # a ball of radius r_min = 1/6 about a point holds half the mass
    assert c >= 0.5 / (1 / 6) ** BETA0
    # the constant comes on top of cantor_measure's measure
    plain = cantor_measure(1)
    assert np.array_equal(plain.indices, mu.indices)
    assert np.array_equal(plain.weights, mu.weights)
    assert (plain.h, plain.name) == (mu.h, mu.name)


def test_cantor_mass_exact():
    for depth in (3, 7, 10):
        mu = cantor_measure(depth)
        assert mu.total_mass() == 1.0          # binary splitting, exact
        assert mu.n_masses == 2 ** depth
    zero = cantor_measure(8).scaled(0.0)
    assert zero.n_masses == 0
    assert frostman_constant(zero, BETA0, 1.0) == 0.0


@pytest.mark.parametrize("depth", [1, 2, 5, 8])
def test_cantor_cells_are_the_halved_triadic_intervals(depth):
    # mass y stands for its cell [y - h, y + h]: in units of h the cells are
    # [idx - 1, idx + 1], and the level-depth triadic intervals [k, k + 1] /
    # 3^depth, k with ternary digits 0 and 2 only, halved are [2k, 2k + 2]
    mu = cantor_measure(depth)
    assert mu.h == 3.0 ** -depth / 4.0
    assert mu.origin.tolist() == [0.0]
    idx = mu.indices[:, 0]
    assert np.all(np.diff(idx) > 2)                 # sorted, disjoint cells
    assert np.all(mu.weights == 2.0 ** -depth)
    ks = [sum(dig * 3 ** i for i, dig in enumerate(digits))
          for digits in itertools.product((0, 2), repeat=depth)]
    assert (idx - 1).tolist() == sorted(2 * k for k in ks)


def test_cantor_depth_guard():
    with pytest.raises(ValueError):
        cantor_frostman(0)
    with pytest.raises(ValueError):
        cantor_frostman(40)


def test_cantor_frostman_constant_vs_oracle():
    mu, c = cantor_frostman(8)
    r_min = 3.0 ** -8 / 2.0
    oracle = frostman_sup_oracle_1d(mu, BETA0, r_min)
    assert c <= oracle * (1 + 1e-12)
    assert abs(c - oracle) / oracle < 0.05


def test_cantor_frostman_stable_in_depth():
    _, c8 = cantor_frostman(8)
    _, c10 = cantor_frostman(10)
    assert abs(c8 - c10) / c8 < 0.10


def test_difference_atom_tv_at_half_mass():
    # a = mu - translate(mu) with each piece of mass 1/2 has variation 1
    mu = cantor_measure(6).scaled(0.5)
    a = measure_sum([mu, mu.translated([0.5]).scaled(-1.0)])
    assert a.total_variation() == pytest.approx(1.0, rel=1e-14)
    assert a.total_mass() == 0.0


def test_frostman_dirac():
    assert frostman_constant(dirac(1), 0.5, 1.0) == pytest.approx(1.0)


def test_frostman_lebesgue_band():
    h = 2.0 ** -8
    r_min = 2.0 ** -5
    leb = lebesgue_sample(1, h)
    c = frostman_constant(leb, 1.0, r_min)
    # interval of length 2r has mass <= min(2r, 1); the Riemann sample can
    # catch one extra cell, so the discrete ratio tops out at 2 + h/r
    assert 1.0 <= c <= 2.0 + h / r_min + 1e-9


def test_frostman_empty():
    empty = new_grid_measure(1, 1.0, [0.0], np.zeros((0, 1)), [])
    assert frostman_constant(empty, 0.5, 1.0) == 0.0


@pytest.mark.parametrize("r_min", [0.0, -1.0, math.nan])
def test_frostman_needs_positive_r_min(r_min):
    # a zero radius would divide a point's mass by 0^beta
    with pytest.raises(ValueError, match="r_min"):
        frostman_constant(dirac(1), 0.5, r_min)



@settings(max_examples=60)
@given(d=st.sampled_from([1, 2]), data=st.data())
def test_frostman_constant_monotone_under_added_mass(d, data):
    # the probe centres and radius window depend on positions only, so on a
    # fixed support more mass in one point can only raise every ball ratio
    idx = data.draw(st.lists(st.tuples(*[st.integers(-16, 16)] * d),
                             min_size=1, max_size=12, unique=True))
    mags = data.draw(st.lists(st.floats(1e-6, 1e6), min_size=len(idx),
                              max_size=len(idx)))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(idx),
                               max_size=len(idx)))
    j = data.draw(st.integers(0, len(idx) - 1))
    factor = data.draw(st.floats(1.0, 1e3))
    beta = data.draw(st.floats(0.05, float(d)))
    w = np.array(signs) * np.array(mags)
    mu = new_grid_measure(d, 0.25, [0.0] * d, idx, w)
    w[j] *= factor
    more = new_grid_measure(d, 0.25, [0.0] * d, idx, w)
    assert np.array_equal(more.indices, mu.indices)
    assert frostman_constant(more, beta, mu.h) >= frostman_constant(mu, beta, mu.h)


def _frostman_loop(mu, beta, r_min):
    """``frostman_constant`` written as a loop over probe centers, with more
    radii than the critical ones it reads: the 16-per-decade grid of the
    window, and per center each point distance and its neighbours one ulp
    away, where they lie in the window.  Equal bits show that no such
    radius ever beats the critical radii."""
    r_hi = max(2.0 * mu.support_diameter(), 4.0 * r_min)
    grid = np.geomspace(r_min, r_hi, max(2, math.ceil(math.log10(r_hi / r_min) * 16) + 1))
    pts, absw = mu.points(), np.abs(mu.weights)
    best = 0.0
    for c in measures._probe_centers(mu):
        dist = np.sqrt(np.sum((pts - c) ** 2, axis=1))
        order = np.argsort(dist)
        dsort, csum = dist[order], np.cumsum(absw[order])
        rc = np.maximum(dsort, r_min)
        ratios = np.where(dsort <= r_hi, csum / np.power(rc, beta), 0.0)
        near = np.concatenate([dsort, np.nextafter(dsort, 0.0), np.nextafter(dsort, np.inf)])
        radii = np.concatenate([grid, near[(near >= r_min) & (near <= r_hi)]])
        k = np.searchsorted(dsort, radii, side="right")
        mass = np.where(k > 0, csum[np.maximum(k - 1, 0)], 0.0)
        ratios_g = mass / np.power(radii, beta)
        best = max(best, float(np.max(ratios)), float(np.max(ratios_g)))
    return best


@settings(max_examples=80)
@given(d=st.sampled_from([1, 2]), data=st.data())
def test_frostman_constant_matches_center_loop(d, data):
    # signed weights, r_min below, between, at and beyond the point
    # distances: the constant of the loop, bit for bit
    idx = data.draw(st.lists(st.tuples(*[st.integers(-12, 12)] * d),
                             min_size=1, max_size=20, unique=True))
    w = data.draw(st.lists(st.floats(-10.0, 10.0).filter(lambda v: abs(v) > 1e-6),
                           min_size=len(idx), max_size=len(idx)))
    beta = data.draw(st.floats(0.05, float(d)))
    mu = new_grid_measure(d, 0.25, [0.0] * d, idx, w)
    pts = mu.points()
    gaps = np.sqrt(np.sum((pts[:, None] - pts[None]) ** 2, axis=2))
    gaps = sorted(set(gaps[gaps > 0])) or [1.0]
    r_min = data.draw(st.floats(0.01, 20.0) | st.sampled_from(gaps))
    assert frostman_constant(mu, beta, r_min) == _frostman_loop(mu, beta, r_min)


def test_frostman_constant_matches_center_loop_over_blocks():
    # 2048 points and about 4000 centers: the rows run in several blocks
    mu = cantor_measure(11)
    assert frostman_constant(mu, BETA0, mu.h) == _frostman_loop(mu, BETA0, mu.h)


def test_frostman_constant_sorts_in_pair_blocks():
    # 1024 masses and 1536 probe centers, sorted 32 rows at a time: the
    # traced peak is 1.9 MB, where blocks of 2_000_000 // m rows took 50.4 MB
    mu = cantor_measure(10)
    tracemalloc.start()
    try:
        frostman_constant(mu, BETA0, mu.h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


# ---------------------------------------------------------------------------
# curve measures
# ---------------------------------------------------------------------------

def _circle(n, r=0.4, c=(0.5, 0.5)):
    th = 2 * np.pi * np.arange(n + 1) / n
    pts = np.stack([c[0] + r * np.cos(th), c[1] + r * np.sin(th)], axis=1)
    pts[-1] = pts[0]
    return pts


def test_square_loop_components():
    poly = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    vm = curve_measure(poly, 0.5)
    comp0 = vm.components[0]
    assert comp0.n_masses == 2
    assert sorted(comp0.weights.tolist()) == [-1.0, 1.0]
    assert comp0.total_mass() == 0.0
    assert vm.components[1].total_mass() == 0.0


def test_closed_polyline_cancellation_exact(rng):
    for _ in range(12):
        n = rng.integers(3, 24)
        pts = rng.uniform(0, 1, (n, 2))
        poly = np.vstack([pts, pts[:1]])
        vm = curve_measure(poly, 1 / 128)
        for comp in vm.components:
            assert comp.total_mass() == 0.0     # integer telescoping


def test_open_polyline_rejected():
    poly = np.array([[0, 0], [1, 0], [1, 1]], dtype=float)
    with pytest.raises(ValueError):
        curve_measure(poly, 0.25)


def test_degenerate_loop_rejected():
    poly = np.array([[0, 0], [1, 0], [0, 0]], dtype=float)
    with pytest.raises(ValueError):
        curve_measure(poly, 0.25)


def test_circle_component_variation():
    # component 0 total variation ~ integral |cos| ds = 4 r
    r = 0.4
    vm = curve_measure(_circle(64, r=r), 1 / 2048)
    tv = vm.components[0].total_variation()
    assert abs(tv - 4 * r) / (4 * r) < 0.02


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_translate_exact_on_lattice():
    mu = cantor_measure(4)
    shifted = mu.translated([0.5])
    assert np.array_equal(shifted.indices, mu.indices + int(round(0.5 / mu.h)))
    assert shifted.origin[0] == mu.origin[0]


def test_dilated_mass_preserving():
    mu = cantor_measure(4)
    dil = mu.dilated(0.25, [0.0])
    assert dil.total_mass() == mu.total_mass()
    assert np.allclose(dil.points(), mu.points() * 0.25)


def test_measure_sum_misaligned_rejected():
    a = dirac(1, x=[0.0], h=1.0)
    b = dirac(1, x=[0.3], h=1.0)
    with pytest.raises(ValueError):
        measure_sum([a, b])


def test_vector_measure_shared_grid():
    poly = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    vm = curve_measure(poly, 0.25)
    var = vm.variation_measure()
    assert var.total_variation() == pytest.approx(4.0)
    assert vm.total_variation() == pytest.approx(4.0)


def _dict_variation(vm):
    """The variation measure through a dict of index tuples: the reference.
    Each norm adds its squares in component order, as numpy's own loop adds
    fewer than 8 (the BLAS norm rounds otherwise in some rows)."""
    idx = {}
    for ci, comp in enumerate(vm.components):
        for row, w in zip(map(tuple, comp.indices), comp.weights):
            vec = idx.setdefault(row, np.zeros(len(vm.components)))
            vec[ci] += w
    rows = sorted(idx)
    return (np.array(rows, dtype=np.int64).reshape(-1, vm.d),
            np.array([math.sqrt(sum(v * v for v in idx[r].tolist())) for r in rows]))


@settings(max_examples=100)
@given(d=st.integers(1, 2), k=st.integers(1, 3), data=st.data())
def test_variation_measure_matches_dict_sum(d, k, data):
    # repeated rows (unmerged components) are summed in the same order
    comps = []
    for _ in range(k):
        n = data.draw(st.integers(0, 12))
        idx = data.draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-3, 3)))
        w = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
        comps.append(GridMeasure(d=d, h=0.5, origin=np.zeros(d), indices=idx,
                                 weights=w))
    vm = measures.VectorGridMeasure(tuple(comps))
    rows, norms = _dict_variation(vm)
    ref = new_grid_measure(d, 0.5, np.zeros(d), rows, norms)
    got = vm.variation_measure()
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.weights.view(np.uint64), ref.weights.view(np.uint64))


_BIG = 2 ** 62


@pytest.mark.parametrize("rows", [
    *[np.random.default_rng(w).integers(-3, 4, (40, w)) for w in (1, 2, 3, 4)],
    np.zeros((0, 3), dtype=np.int64),
    np.array([[5, -1], [5, -1], [5, -1]]),
    # spans near 2^63 per column: one sort key per column
    np.array([[_BIG - 1, -_BIG + 1, 0], [-_BIG + 1, _BIG - 1, 0],
              [_BIG - 1, -_BIG + 1, 0], [-_BIG + 1, -_BIG + 1, 1]]),
    # spans past 2^63: the column is its own key, unshifted
    np.array([[2 ** 63 - 1, 3], [-2 ** 63, 3], [0, -2], [2 ** 63 - 1, 3]]),
    np.random.default_rng(9).integers(-_BIG, _BIG, (30, 3)) // 7 * 7,
], ids=["w1", "w2", "w3", "w4", "empty", "repeated", "near_2_62", "full_int64",
        "wide_random"])
def test_unique_rows_matches_np_unique(rows):
    rows = np.asarray(rows, dtype=np.int64)
    want = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    got = measures._unique_rows(rows)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
