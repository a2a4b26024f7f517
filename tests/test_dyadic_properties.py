"""Properties of the array-encoded dyadic tree: cube-union reduction, exact
dyadic content and greedy mass capture, in d = 1 and 2 with cubes on both
sides of the lattice corner (negative indices)."""

import math

import numpy as np
from hypothesis import given, strategies as st

from fracmeas.content import CubeUnion, dyadic_content
from fracmeas.dimension import greedy_mass_capture
from fracmeas.measures import DyadicLattice, new_grid_measure


def _lattice(d):
    return DyadicLattice(corner=np.full(d, -0.25), l0=1.0, d=d)


def _contains(lq, iq, lp, ip):
    """Cube (lq, iq) contains cube (lp, ip); floor division is the ancestor."""
    return lq <= lp and np.array_equal(np.floor_divide(ip, 2 ** (lp - lq)), iq)


@st.composite
def cube_lists(draw, d):
    levels, indices = [], []
    for _ in range(draw(st.integers(0, 12))):
        lv = draw(st.integers(-2, 5))
        span = 2 ** max(lv, 0)
        levels.append(lv)
        indices.append([draw(st.integers(-span, span - 1)) for _ in range(d)])
    return (np.array(levels, dtype=np.int64),
            np.array(indices, dtype=np.int64).reshape(-1, d))


@st.composite
def two_cube_lists(draw):
    d = draw(st.sampled_from([1, 2]))
    return d, draw(cube_lists(d)), draw(cube_lists(d))


def _content(d, cubes, beta):
    return dyadic_content(CubeUnion.build(_lattice(d), *cubes), beta)


@given(two_cube_lists())
def test_build_is_pairwise_reduction(case):
    d, (levels, indices), _ = case
    order = np.argsort(levels, kind="stable")
    lv, ix = levels[order], indices[order]
    # keep a cube unless a coarser input cube contains it or it repeats an
    # earlier one
    keep = [p for p in range(len(lv))
            if not any(q != p and _contains(lv[q], ix[q], lv[p], ix[p])
                       and (lv[q] < lv[p] or q < p) for q in range(len(lv)))]
    E = CubeUnion.build(_lattice(d), levels, indices)
    assert np.array_equal(E.levels, lv[keep])
    assert np.array_equal(E.indices, ix[keep].reshape(-1, d))


@given(two_cube_lists(), st.floats(0.05, 1.0))
def test_content_monotone_and_subadditive(case, frac):
    d, a, b = case
    beta = frac * d
    both = (np.concatenate([a[0], b[0]]), np.vstack([a[1], b[1]]))
    h_a, h_b, h_ab = (_content(d, c, beta) for c in (a, b, both))
    assert h_a <= h_ab * (1 + 1e-12)
    assert h_ab <= (h_a + h_b) * (1 + 1e-12)


@given(two_cube_lists(), st.floats(0.05, 1.0), st.integers(-3, 3))
def test_content_level_shift_scaling(case, frac, j):
    # moving every cube j levels down is the dilation by 2^-j about the
    # lattice corner, which maps dyadic cubes onto dyadic cubes
    d, (levels, indices), _ = case
    beta = frac * d
    want = 2.0 ** (-j * beta) * _content(d, (levels, indices), beta)
    got = _content(d, (levels + j, indices), beta)
    assert math.isclose(got, want, rel_tol=8 * 2.0 ** -52, abs_tol=0.0)


@st.composite
def measures(draw):
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 30))
    h = draw(st.sampled_from([1 / 16, 1 / 8, 0.07]))
    idx = [[draw(st.integers(0, 24)) for _ in range(d)] for _ in range(n)]
    w = [draw(st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-3))
         for _ in range(n)]
    return new_grid_measure(d, h, np.full(d, -0.9), idx, w)


def _greedy_reference(occ, lat, beta, delta):
    """The scan written as a loop over every candidate, sorted as tuples."""
    rows = sorted((-(m / lat.side(k) ** beta), k, tuple(int(v) for v in n), m,
                   lat.side(k) ** beta)
                  for k in occ for n, m in zip(*occ[k]))
    chosen, spent, captured = [], 0.0, 0.0
    for _, k, n, m, cost in rows:
        if spent + cost > delta * (1.0 + 1e-12):
            continue
        if any(_contains(k2, n2, k, n) or _contains(k, n, k2, n2)
               for k2, n2 in chosen):
            continue
        chosen.append((k, n))
        spent += cost
        captured += m
    return chosen, spent, captured


@given(measures(), st.floats(0.05, 1.0), st.floats(1e-3, 2.0),
       st.integers(-2, 0), st.integers(0, 6))
def test_greedy_capture_selects_disjoint_cubes(mu, frac, delta, lo, hi):
    lat = _lattice(mu.d)
    beta = frac * mu.d
    pts, absw = mu.points(), np.abs(mu.weights)
    occ = {}
    for k in range(lo, hi + 1):
        uniq, inv = np.unique(lat.index_of(pts, k), axis=0, return_inverse=True)
        occ[k] = (uniq, np.bincount(inv.reshape(-1), absw, len(uniq)))
    union, captured, spent = greedy_mass_capture(mu, lat, beta, delta, hi,
                                                 min_level=lo, candidates=occ)
    lv, ix = union.levels, union.indices
    for p in range(len(lv)):
        for q in range(len(lv)):
            assert p == q or not _contains(lv[q], ix[q], lv[p], ix[p])
    assert spent <= delta * (1 + 1e-12)
    assert math.isclose(spent, float(np.sum(union.sides() ** beta)),
                        rel_tol=1e-12)
    want = sum(float(np.sum(absw[np.all(lat.index_of(pts, k) == n, axis=1)]))
               for k, n in zip(lv, ix))
    assert math.isclose(captured, want, rel_tol=1e-12, abs_tol=0.0)
    # same selection, in the same order, with the same sums bit for bit
    chosen, ref_spent, ref_captured = _greedy_reference(occ, lat, beta, delta)
    order = np.argsort([k for k, _ in chosen], kind="stable")
    assert np.array_equal(lv, np.array([chosen[i][0] for i in order], dtype=np.int64))
    assert np.array_equal(ix, np.array([chosen[i][1] for i in order],
                                       dtype=np.int64).reshape(-1, mu.d))
    assert (spent, captured) == (ref_spent, ref_captured)
