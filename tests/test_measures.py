import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fracmeas import measures
from fracmeas.measures import (GridMeasure, cantor_frostman, curve_measure,
                               default_radius_grid, dirac, frostman_constant,
                               lebesgue_sample, measure_of_cube, measure_sum,
                               new_grid_measure, unit_lattice)

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


def test_measure_of_cube_dirac():
    lat = unit_lattice(1)
    d0 = dirac(1)
    assert measure_of_cube(d0, lat.cube(0, [0])) == 1.0
    assert measure_of_cube(d0, lat.cube(0, [1])) == 0.0


def test_measure_of_cube_riemann_half():
    h = 2.0 ** -10
    leb = lebesgue_sample(1, h)
    lat = unit_lattice(1)
    got = measure_of_cube(leb, lat.cube(1, [0]))
    assert abs(got - 0.5) <= h


def test_children_partition_parent(rng):
    # half-open convention: each mass lands in exactly one child
    lat = unit_lattice(2)
    for _ in range(8):
        n = rng.integers(1, 40)
        mu = new_grid_measure(2, 1 / 16, [0.0, 0.0], rng.integers(0, 32, (n, 2)),
                              rng.normal(size=n))
        if mu.n_masses == 0:
            continue
        parent = lat.cube(1, rng.integers(0, 2, 2))
        total = measure_of_cube(mu, parent)
        kids = sum(measure_of_cube(mu, c) for c in parent.children())
        assert np.isclose(total, kids, rtol=0, atol=1e-12)


def test_cantor_construction():
    mu, cert = cantor_frostman(1, 1.0)
    assert mu.n_masses == 2
    assert np.allclose(sorted(mu.points()[:, 0]), [1 / 12, 5 / 12])
    assert np.all(mu.weights == 0.5)
    assert mu.total_mass() == 1.0
    assert cert.exponent == pytest.approx(BETA0)


def test_cantor_mass_exact():
    for depth in (3, 7, 10):
        mu, _ = cantor_frostman(depth, 1.0)
        assert mu.total_mass() == 1.0          # binary splitting, exact
        assert mu.n_masses == 2 ** depth
    zero, cert = cantor_frostman(8, 0.0)
    assert zero.n_masses == 0
    assert cert.constant == 0.0


def test_cantor_depth_guard():
    with pytest.raises(ValueError):
        cantor_frostman(0)
    with pytest.raises(ValueError):
        cantor_frostman(40)


def test_cantor_frostman_constant_vs_oracle():
    mu, cert = cantor_frostman(8, 1.0)
    r_min = 3.0 ** -8 / 2.0
    oracle = frostman_sup_oracle_1d(mu, BETA0, r_min)
    assert cert.constant <= oracle * (1 + 1e-12)
    assert abs(cert.constant - oracle) / oracle < 0.05


def test_cantor_frostman_stable_in_depth():
    _, c8 = cantor_frostman(8, 1.0)
    _, c10 = cantor_frostman(10, 1.0)
    assert abs(c8.constant - c10.constant) / c8.constant < 0.10


def test_difference_atom_tv_at_half_mass():
    # a = mu - translate(mu) with each piece of mass 1/2 has variation 1
    mu, _ = cantor_frostman(6, 0.5)
    a = measure_sum([mu, mu.translated([0.5]).scaled(-1.0)])
    assert a.total_variation() == pytest.approx(1.0, rel=1e-14)
    assert a.total_mass() == 0.0


def test_frostman_dirac():
    d0 = dirac(1)
    cert = frostman_constant(d0, 0.5, [1.0])
    assert cert.constant == pytest.approx(1.0)


def test_frostman_lebesgue_band():
    h = 2.0 ** -8
    r_min = 2.0 ** -5
    leb = lebesgue_sample(1, h)
    cert = frostman_constant(leb, 1.0, default_radius_grid(leb, r_min=r_min))
    # interval of length 2r has mass <= min(2r, 1); the Riemann sample can
    # catch one extra cell, so the discrete ratio tops out at 2 + h/r
    assert 1.0 <= cert.constant <= 2.0 + h / r_min + 1e-9


def test_frostman_empty():
    empty = new_grid_measure(1, 1.0, [0.0], np.zeros((0, 1)), [])
    cert = frostman_constant(empty, 0.5, [1.0])
    assert cert.constant == 0.0


def test_frostman_needs_radii():
    with pytest.raises(ValueError):
        frostman_constant(dirac(1), 0.5, [])


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
    mu, _ = cantor_frostman(4, 1.0)
    shifted = mu.translated([0.5])
    assert np.array_equal(shifted.indices, mu.indices + int(round(0.5 / mu.h)))
    assert shifted.origin[0] == mu.origin[0]


def test_dilated_mass_preserving():
    mu, _ = cantor_frostman(4, 1.0)
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
    """The variation measure through a dict of index tuples: the reference."""
    idx = {}
    for ci, comp in enumerate(vm.components):
        for row, w in zip(map(tuple, comp.indices), comp.weights):
            vec = idx.setdefault(row, np.zeros(len(vm.components)))
            vec[ci] += w
    rows = sorted(idx)
    return (np.array(rows, dtype=np.int64).reshape(-1, vm.d),
            np.array([np.linalg.norm(idx[r]) for r in rows]))


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


@settings(max_examples=200)
@given(d=st.integers(1, 2), data=st.data())
def test_stencil_names_every_node_interpolation_reads(d, data):
    # a field that holds NaN off the stencil interpolates to the same bits:
    # the nodes riesz_field evaluates for a trace are the nodes it reads
    shape = tuple(data.draw(st.integers(2, 8)) for _ in range(d))
    origin = data.draw(hnp.arrays(np.float64, d, elements=st.floats(-10.0, 10.0)))
    spacing = data.draw(st.sampled_from([1.0 / 729.0, 0.3, 1.0, 7.0]))
    values = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    # nodes, edges and points between nodes, in grid units
    rel = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 20)), d),
                               elements=st.one_of(st.integers(0, 7).map(float),
                                                  st.floats(0.0, 7.0))))
    pts = origin + np.minimum(rel, np.array(shape) - 1) * spacing
    fld = measures.SampledField(origin=origin, spacing=spacing, values=values)
    nodes, weights = fld.stencil(pts)
    assert nodes.shape == weights.shape == (2 ** d, len(pts))
    sparse = np.full(shape, np.nan)
    sparse.flat[nodes.ravel()] = values.flat[nodes.ravel()]
    got = measures.SampledField(origin=origin, spacing=spacing,
                                values=sparse).interpolate(pts)
    ref = fld.interpolate(pts)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
