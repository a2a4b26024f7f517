import math

import numpy as np
import pytest

from fracmeas import content
from fracmeas.content import (BallFamily, CubeUnion, ball_cover,
                              ball_volume_constant, choquet_integral,
                              dyadic_content, dyadic_content_cover,
                              make_ball_family, proof_constants,
                              rasterize_balls, regularized_cover,
                              spherical_content_upper)
from fracmeas.measures import _match_rows, cantor_measure, unit_lattice

BETA0 = math.log(2) / math.log(3)


# ---------------------------------------------------------------------------
# oracle: top-down recursion straight from the cover definition
# ---------------------------------------------------------------------------

def content_oracle(E: CubeUnion, beta: float) -> float:
    """min over dyadic covers, computed by direct top-down recursion from a
    bounding cube (independent of the library's bottom-up sweep)."""
    if E.n_cubes == 0:
        return 0.0
    cells = {(int(l), tuple(int(v) for v in n))
             for l, n in zip(E.levels, E.indices)}
    k_fine = max(l for l, _ in cells)

    def descendants_meet(level, idx):
        for l, n in cells:
            if l >= level:
                if tuple(v >> (l - level) for v in n) == idx:
                    return True
            else:
                if tuple(v >> (level - l) for v in idx) == n:
                    return True
        return False

    def is_cell_or_inside(level, idx):
        for l, n in cells:
            if l <= level and tuple(v >> (level - l) for v in idx) == n:
                return True
        return False

    def cost(level, idx):
        if not descendants_meet(level, idx):
            return 0.0
        side = E.lattice.l0 * 2.0 ** (-level)
        own = side ** beta
        if is_cell_or_inside(level, idx) or level >= k_fine:
            return own
        d = E.lattice.d
        kids = 0.0
        for m in range(2 ** d):
            kid = tuple(2 * idx[a] + ((m >> a) & 1) for a in range(d))
            kids += cost(level + 1, kid)
        return min(own, kids)

    # ascend to roots that each contain their piece entirely
    top = min(l for l, _ in cells) - 12
    roots = {tuple(v >> (l - top) for v in n) for l, n in cells}
    return sum(cost(top, r) for r in roots)


def random_cells(rng, lat, level, max_cells) -> CubeUnion:
    """1 to ``max_cells - 1`` random cells of one level around the unit cube
    (repeats kept once)."""
    n = int(rng.integers(1, max_cells))
    ix = rng.integers(-2, 2 ** level + 2, (n, lat.d))
    return CubeUnion.build(lat, np.full(n, level), ix)


def test_single_cube_exact():
    lat = unit_lattice(2)
    for beta in (0.3, 0.63, 1.0, 2.0):
        for lv, n in [(0, (0, 0)), (3, (5, 2)), (6, (63, 1)), (2, (-3, 7))]:
            E = CubeUnion.build(lat, [lv], [list(n)])
            expect = (2.0 ** -lv) ** beta
            got = dyadic_content(E, beta)
            assert got == pytest.approx(expect, abs=4 * np.spacing(expect))


def test_two_far_cubes_add():
    lat = unit_lattice(1)
    E = CubeUnion.build(lat, [4, 4], [[0], [900]])
    assert dyadic_content(E, 0.5) == pytest.approx(2 * (2.0 ** -4) ** 0.5)


def test_build_keeps_distinct_cubes_in_input_order():
    # nested cubes of several levels stay; only the repeat goes
    lat = unit_lattice(1)
    E = CubeUnion.build(lat, [5, 2, 5], [[12], [1], [12]])   # [12]@5 inside [1]@2
    assert E.levels.tolist() == [5, 2]
    assert E.indices.tolist() == [[12], [1]]


def test_content_rejects_cubes_of_two_levels():
    lat = unit_lattice(1)
    E = CubeUnion.build(lat, [2, 5], [[1], [40]])
    for fn in (dyadic_content, dyadic_content_cover):
        with pytest.raises(ValueError, match="levels 2 to 5"):
            fn(E, 0.5)


def test_content_monotone_and_subadditive(rng):
    lat = unit_lattice(2)
    for _ in range(15):
        lv = int(rng.integers(1, 5))
        E, F = random_cells(rng, lat, lv, 12), random_cells(rng, lat, lv, 12)
        union = CubeUnion.build(lat, np.concatenate([E.levels, F.levels]),
                                np.vstack([E.indices, F.indices]))
        cE, cF, cU = (dyadic_content(x, 0.7) for x in (E, F, union))
        assert cU <= cE + cF + 1e-12
        assert cU >= cE - 1e-12                # E subset of union


def test_content_vs_oracle(rng):
    lat = unit_lattice(1)
    for _ in range(12):
        E = random_cells(rng, lat, int(rng.integers(1, 5)), 10)
        for beta in (0.4, 0.9):
            assert dyadic_content(E, beta) == pytest.approx(
                content_oracle(E, beta), rel=1e-12)


def test_cantor_snap_content_band():
    lat = unit_lattice(1)
    vals = {}
    for depth in (8, 10):
        mu = cantor_measure(depth)
        lv = int(math.ceil(depth * math.log2(3.0))) + 1
        cells = np.unique(lat.index_of(mu.points(), lv), axis=0)
        E = CubeUnion.build(lat, np.full(len(cells), lv), cells)
        vals[depth] = dyadic_content(E, BETA0)
        assert 0.25 <= vals[depth] <= 1.5
    assert abs(vals[8] - vals[10]) / vals[8] < 0.15


def test_cover_extraction_consistent(rng):
    lat = unit_lattice(2)
    for _ in range(6):
        E = random_cells(rng, lat, int(rng.integers(2, 6)), 20)
        val, cov = dyadic_content_cover(E, 0.5)
        assert float(np.sum(lat.side(cov.levels) ** 0.5)) == pytest.approx(val, rel=1e-12)
        # extracted cover must cover every input cube: some cover cube is the
        # input cube itself or one of its ancestors
        covered = np.zeros(E.n_cubes, dtype=bool)
        for lv in np.unique(cov.levels):
            finer = E.levels >= lv
            anc = E.indices[finer] >> (E.levels[finer] - lv)[:, None]
            covered[finer] |= _match_rows(cov.indices[cov.levels == lv], anc) >= 0
        assert covered.all()


# ---------------------------------------------------------------------------
# covering regularization
# ---------------------------------------------------------------------------

def test_proof_constants_balance():
    for d, beta in [(1, 0.5), (2, 0.5), (2, 1.3)]:
        c, c_prime = proof_constants(beta, d)
        omega_d = ball_volume_constant(float(d))
        assert 2 ** d * 4 ** beta == pytest.approx(0.5 * omega_d / c ** (d - beta))
        assert c_prime == pytest.approx(2 ** d * 4 ** beta)
    with pytest.raises(ValueError):
        proof_constants(2.0, 2)


def _assert_dtype_shape(a, b):
    assert (a.dtype, a.shape) == (b.dtype, b.shape)


def test_empty_family_cover():
    # an empty family's covers hold empty arrays of the non-empty dtypes and
    # shapes, and the constants a non-empty family's covers hold
    for d in (1, 2, 3):
        F = BallFamily(centers=np.zeros((0, d)), radii=np.zeros(0))
        c, c_prime = proof_constants(0.5, d)
        consts = {"c": c, "c_prime": c_prime, "C_impl": 0.0, "swaps": 0,
                  "raster_content": 0.0, "cell_level": 0}
        cov = regularized_cover(F, 0.5)
        lat = cov.lattice
        assert (lat.d, lat.l0, lat.corner.tolist()) == (d, 1.0, [0.0] * d)
        _assert_dtype_shape(cov.levels, np.zeros(0, dtype=np.int64))
        _assert_dtype_shape(cov.indices, np.zeros((0, d), dtype=np.int64))
        _assert_dtype_shape(cov.witness, np.zeros(0, dtype=np.int64))
        _assert_dtype_shape(cov.witness_ratio, np.zeros(0))
        assert cov.centers is None and cov.radii is None
        assert cov.n_elements == 0 and cov.total == 0.0 and cov.constants == consts
        bc = ball_cover(F, 0.5)
        _assert_dtype_shape(bc.centers, np.zeros((0, d)))
        _assert_dtype_shape(bc.radii, np.zeros(0))
        _assert_dtype_shape(bc.witness, np.zeros(0, dtype=np.int64))
        _assert_dtype_shape(bc.witness_ratio, np.zeros(0))
        assert bc.n_elements == 0 and bc.total == 0.0
        assert bc.constants == {**consts, "dilate_factor": math.sqrt(d) / 2.0 + 2.0 / c}


@pytest.mark.parametrize("centers, radii, what", [
    ([[0.5, 0.5]], [math.nan], "radius is nan"),
    ([[0.5, 0.5]], [math.inf], "radius is inf"),
    ([[0.5, -math.inf]], [0.1], "centre coordinate is -inf"),
    ([[math.nan, 0.5]], [0.1], "centre coordinate is nan"),
])
def test_ball_family_rejects_non_finite_values(centers, radii, what):
    with pytest.raises(ValueError, match=f"a ball {what}: it must be finite"):
        make_ball_family(centers, radii)


def test_single_ball_cover_postconditions():
    F = make_ball_family([[0.3, 0.4]], [0.11])
    cov = regularized_cover(F, 0.5)
    c = cov.constants["c"]
    assert np.all(cov.witness_ratio >= c)
    omega = ball_volume_constant(0.5)
    assert cov.total <= 40.0 * omega * 0.11 ** 0.5   # crude sanity ceiling
    assert cov.n_elements <= 2 ** 2 * 16
    # recorded total matches its elements
    assert cov.total == pytest.approx(float(np.sum(cov.cube_sides() ** 0.5)))


def test_swap_iteration_from_fine_cover():
    # inject a deliberately fine initial cover; the loop must coarsen it,
    # strictly decreasing the total
    F = make_ball_family([[0.3, 0.4]], [0.25])
    lat = unit_lattice(2)
    fine = rasterize_balls(F, lat, 6)
    fine_total = float(np.sum(lat.side(fine.levels) ** 0.5))
    cov = regularized_cover(F, 0.5, initial_cover=fine)
    assert cov.constants["swaps"] >= 1
    assert cov.total < fine_total
    assert np.all(cov.witness_ratio >= cov.constants["c"])


def test_raster_bounds_the_cells_of_its_boxes(monkeypatch):
    # a 1-d family has one row per ball, so the bound counts cells: the 0.1
    # ball at level 42 (about 8.8e11 cells in one row) is refused
    lat = unit_lattice(1)
    F = make_ball_family([[0.5], [0.2]], [1e-12, 0.1])
    with pytest.raises(ValueError, match="radii 1e-12 to 0.1 need 8.8e"):
        rasterize_balls(F, lat, content._cell_level(F, lat))
    # boxes of 8 + 8 cells at level 4, then one more
    monkeypatch.setattr(content, "_RASTER_CELLS", 16)
    F = make_ball_family([[0.25], [0.75]], [0.25 - 2.0 ** -6] * 2)
    assert rasterize_balls(F, lat, 4).n_cubes == 16
    with pytest.raises(ValueError, match="need 17 cells at raster level 4, over 16"):
        rasterize_balls(make_ball_family([[0.25], [0.75]], [0.25 - 2.0 ** -6, 0.25]), lat, 4)


def _covered_by(cov, raster):
    sets = {}
    for lv, ix in zip(cov.levels, cov.indices):
        sets.setdefault(int(lv), set()).add(tuple(int(v) for v in ix))
    for l, n in zip(raster.levels, raster.indices):
        hit = any(tuple(int(v) >> (int(l) - l2) for v in n) in s
                  for l2, s in sets.items() if l2 <= l)
        if not hit:
            return False
    return True


def test_cover_postconditions_random_families(rng):
    # (i) covers U, (ii) every ball meets a comparable cube, (iii) total
    # at most the raster's own sum of side^beta
    for seed in range(25):
        r = np.random.default_rng(seed)
        nb = int(r.integers(2, 16))
        F = make_ball_family(r.uniform(0, 1, (nb, 2)), r.uniform(0.03, 0.25, nb))
        cov = regularized_cover(F, 0.5)
        raster = rasterize_balls(F, cov.lattice, cov.constants["cell_level"])
        assert np.all(cov.witness_ratio >= cov.constants["c"])
        assert cov.total <= np.sum(cov.lattice.side(raster.levels) ** 0.5)
        assert cov.constants["C_impl"] <= 1.0 + 1e-12   # swaps only decrease
        assert _covered_by(cov, raster)


def test_regularized_cover_needs_beta_below_d():
    F = make_ball_family([[0.5, 0.5]], [0.1])
    with pytest.raises(ValueError):
        regularized_cover(F, 2.0)


def test_ball_cover_contains_inputs(rng):
    for seed in (0, 3):
        r = np.random.default_rng(seed)
        nb = int(r.integers(2, 10))
        F = make_ball_family(r.uniform(0, 1, (nb, 2)), r.uniform(0.05, 0.2, nb))
        bc = ball_cover(F, 0.5)
        assert np.all(bc.witness_ratio >= -1e-9)       # containment slack
        assert bc.total > 0


def test_ball_cover_two_tangent_balls():
    F = make_ball_family([[0.3, 0.5], [0.5, 0.5]], [0.1, 0.1])
    bc = ball_cover(F, 0.5)
    assert bc.n_elements <= 2 * 2 ** 2
    assert np.all(bc.witness_ratio >= -1e-9)


def test_spherical_upper_single_ball():
    F = make_ball_family([[0.4, 0.6]], [0.13])
    omega = ball_volume_constant(0.5)
    up = spherical_content_upper(F, 0.5)
    assert up <= omega * 0.13 ** 0.5 + 1e-12           # self-cover wins
    assert spherical_content_upper(
        BallFamily(centers=np.zeros((0, 2)), radii=np.zeros(0)), 0.5) == 0.0


def test_spherical_packed_cover_constant():
    # many small balls covering one big ball: the upper bound stays within a
    # packing constant of the big ball's self-cover
    th = 2 * np.pi * np.arange(12) / 12
    centers = np.vstack([[0.5, 0.5],
                         np.stack([0.5 + 0.13 * np.cos(th),
                                   0.5 + 0.13 * np.sin(th)], axis=1)])
    F = make_ball_family(centers, np.full(13, 0.07))
    up = spherical_content_upper(F, 0.5)
    omega = ball_volume_constant(0.5)
    big = omega * 0.2 ** 0.5            # the union sits inside B(.5,.5; 0.2)
    c_pack = up / big
    assert 0 < c_pack <= 8.0


def test_spherical_vs_dyadic_band(rng):
    # dimensional equivalence band on random ball unions, against the exact
    # dyadic content of their raster
    lat = unit_lattice(2)
    omega = ball_volume_constant(0.5)
    lo_band = omega / 2 ** (0.5 + 2)
    hi_band = 2.0 * omega * 2 ** 0.25
    for _ in range(100):
        n = int(rng.integers(1, 15))
        F = make_ball_family(rng.uniform(0, 1, (n, 2)), rng.uniform(0.03, 0.25, n))
        raster = rasterize_balls(F, lat, content._cell_level(F, lat))
        ratio = spherical_content_upper(F, 0.5) / dyadic_content(raster, 0.5)
        assert lo_band <= ratio <= hi_band


# ---------------------------------------------------------------------------
# Choquet integration
# ---------------------------------------------------------------------------

def test_choquet_indicator_exact(rng):
    lat = unit_lattice(2)
    for _ in range(10):
        n = int(rng.integers(1, 20))
        lv = int(rng.integers(3, 6))
        ix = np.unique(rng.integers(0, 2 ** lv, (n, 2)), axis=0)
        E = CubeUnion.build(lat, np.full(len(ix), lv), ix)
        val = choquet_integral(ix, np.ones(len(ix)), lat, lv, 0.7)
        assert val == pytest.approx(dyadic_content(E, 0.7), rel=1e-14)


def test_choquet_homogeneity():
    lat = unit_lattice(1)
    rng = np.random.default_rng(5)
    cells = np.arange(0, 32)[:, None]
    f = rng.uniform(0.1, 3.0, 32)
    a = choquet_integral(cells, f, lat, 5, 0.5)
    b = choquet_integral(cells, 7.0 * f, lat, 5, 0.5)
    assert b == pytest.approx(7.0 * a, rel=1e-12)


def test_choquet_two_layer_exact():
    # f = 2 chi_Q1 + chi_Q2 on disjoint cubes: integral =
    # content(Q1 u Q2) + content(Q1)
    lat = unit_lattice(1)
    cells = np.array([[0], [9]])
    f = np.array([2.0, 1.0])
    beta = 0.5
    both = dyadic_content(CubeUnion.build(lat, [4, 4], cells), beta)
    one = dyadic_content(CubeUnion.build(lat, [4], cells[:1]), beta)
    got = choquet_integral(cells, f, lat, 4, beta)
    assert got == pytest.approx(both + one, rel=1e-14)


def test_choquet_monotone_in_f():
    lat = unit_lattice(1)
    rng = np.random.default_rng(11)
    cells = np.arange(0, 16)[:, None]
    f = rng.uniform(0, 2, 16)
    g = f + rng.uniform(0, 1, 16)
    assert choquet_integral(cells, g, lat, 4, 0.5) >= \
        choquet_integral(cells, f, lat, 4, 0.5) - 1e-12


def test_choquet_decreasing_in_beta_inside_unit_cube():
    lat = unit_lattice(1)
    cells = np.array([[0], [5], [11]])
    f = np.array([1.0, 2.0, 0.5])
    v1 = choquet_integral(cells, f, lat, 4, 0.4)
    v2 = choquet_integral(cells, f, lat, 4, 0.9)
    assert v2 <= v1 + 1e-12


def test_choquet_rejects_negative():
    lat = unit_lattice(1)
    with pytest.raises(ValueError):
        choquet_integral(np.array([[0]]), np.array([-1.0]), lat, 2, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_choquet_rejects_non_finite(bad):
    lat = unit_lattice(1)
    with pytest.raises(ValueError, match="finite"):
        choquet_integral(np.array([[0], [1]]), np.array([1.0, bad]), lat, 2, 0.5)


def test_choquet_of_one_cell_is_its_value_times_its_content():
    # the zero cells lie in no level set of t >= 0
    lat = unit_lattice(1)
    cells = np.arange(16)[:, None]
    f = np.zeros(16)
    f[3] = 1.0
    assert choquet_integral(cells, f, lat, 4, 0.5) == 0.25
