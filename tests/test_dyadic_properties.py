"""Properties of the array-encoded dyadic tree: cube-union reduction, exact
dyadic content, the Choquet sweeps over level sets, ball rasters and cover
witnesses, greedy mass capture and the dimension estimate built on it, in
d = 1 and 2 (rasters also in d = 3) with cubes on both sides of the lattice
corner (negative indices)."""

import math
from unittest import mock

import numpy as np
import pytest
from greedy import greedy_mass_capture
from hypothesis import given, strategies as st

from fracmeas import content
from fracmeas.content import (CubeUnion, choquet_integral, dyadic_content,
                              make_ball_family, rasterize_balls, regularized_cover)
from fracmeas.dimension import _occupied_cubes, lower_dim_estimate, maximal_level_sums
from fracmeas.measures import DyadicLattice, lattice_points, new_grid_measure, unit_lattice


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


@given(two_cube_lists(), st.floats(0.05, 1.0), st.lists(st.integers(-3, 3),
                                                      min_size=2, max_size=2))
def test_content_whole_cube_shift(case, frac, shift):
    # shifting every cube by one whole level-K cube (K the coarsest input
    # level, or 0) maps the tree at levels >= K onto itself, so the best
    # cover by cubes of level >= K keeps its cost.  A coarser cube costs at
    # least cap = l(level K - 1)^beta and may pair the shifted cubes
    # differently (H{[0,1), [1,2)} = 2^beta, H{[1,2), [2,3)} = min(2, 4^beta)
    # at level 0), so H is invariant up to cap
    d, (levels, indices), _ = case
    beta = frac * d
    top = int(levels.min(initial=0))
    moved = indices + np.array(shift[:d]) * 2 ** (levels - top)[:, None]
    cap = (2.0 ** (1 - top)) ** beta
    assert (min(_content(d, (levels, moved), beta), cap)
            == min(_content(d, (levels, indices), beta), cap))



@given(st.sampled_from([1, 2]), st.integers(0, 30), st.data())
def test_content_of_one_cube_exact(d, level, data):
    # one cube is its own best cover: H = l(Q)^beta, wherever the cube lies
    index = data.draw(st.lists(st.integers(-2 ** 31, 2 ** 31 - 1),
                               min_size=d, max_size=d))
    beta = data.draw(st.floats(0.0, float(d), exclude_min=True))
    got = dyadic_content(CubeUnion.build(_lattice(d), [level], [index]), beta)
    expect = (2.0 ** -level) ** beta
    assert abs(got - expect) <= 4 * np.spacing(expect)


@st.composite
def sampled_fields(draw):
    """Samples of f >= 0 on cells of one level, with repeated values and
    repeated cells (a repeat keeps the cube once, whatever its values)."""
    d = draw(st.sampled_from([1, 2]))
    level = draw(st.integers(1, 4))
    span = 2 ** (level - 1)
    n = draw(st.integers(1, 25))
    cells = [[draw(st.integers(-span, span - 1)) for _ in range(d)] for _ in range(n)]
    values = [draw(st.sampled_from([0.0, 2.0 ** -6, 0.125, 0.25, 0.375, 1.0, 1.5]))
              for _ in range(n)]
    return (d, level, np.array(cells, dtype=np.int64).reshape(n, d),
            np.array(values))


def _level_content(d, level, cells, mask, beta):
    E = CubeUnion.build(_lattice(d), np.full(int(mask.sum()), level), cells[mask])
    return dyadic_content(E, beta)


@given(sampled_fields(), st.floats(0.05, 1.0),
       st.lists(st.sampled_from(np.arange(0.0, 2.0, 1.0 / 16).tolist()), max_size=12))
def test_choquet_matches_sweep_per_threshold(field, frac, given_thresholds):
    # a level set repeated by the next threshold is not swept again; the sum
    # must equal one sweep per threshold, bit for bit
    d, level, cells, values = field
    beta = frac * d
    got = choquet_integral(cells, values, _lattice(d), level, beta,
                           thresholds=given_thresholds)
    vmax = float(np.max(values))
    if vmax == 0.0:
        assert got == 0.0
        return
    ts = sorted({0.0, vmax, *(t for t in given_thresholds if t <= vmax)})
    want = 0.0
    for t, t_next in zip(ts[:-1], ts[1:]):
        want += (t_next - t) * _level_content(d, level, cells, values > t, beta)
    assert got == want


@given(sampled_fields(), st.floats(0.05, 1.0), st.integers(0, 8))
def test_maximal_level_sums_match_sweep_per_level(field, frac, k_max):
    d, level, cells, values = field
    beta = frac * d
    got = maximal_level_sums(cells, values, _lattice(d), level, beta, k_max=k_max)
    want, acc = [], 0.0
    for k in range(k_max + 1):
        mask = values >= 2.0 ** -k
        if np.any(mask):
            acc += 2.0 ** -k * _level_content(d, level, cells, mask, beta)
        want.append(acc)
    assert got.tolist() == want


@given(sampled_fields(), st.floats(0.05, 1.0),
       st.lists(st.sampled_from(np.arange(0.0, 2.0, 1.0 / 16).tolist()), max_size=12),
       st.integers(-8, 8))
def test_choquet_homogeneous_in_powers_of_two(field, frac, given_thresholds, k):
    # scaling f and the thresholds by 2^k scales every threshold step and
    # leaves every level set, so the integral scales exactly
    d, level, cells, values = field
    beta = frac * d
    scale = 2.0 ** k
    got = choquet_integral(cells, scale * values, _lattice(d), level, beta,
                           thresholds=[scale * t for t in given_thresholds])
    want = choquet_integral(cells, values, _lattice(d), level, beta,
                            thresholds=given_thresholds)
    assert got == scale * want


@given(sampled_fields(), st.data(), st.floats(0.05, 1.0),
       st.lists(st.sampled_from(np.arange(0.0, 2.0, 1.0 / 16).tolist()), max_size=12))
def test_choquet_monotone_in_the_field(field, data, frac, given_thresholds):
    d, level, cells, f = field
    beta = frac * d
    bump = data.draw(st.lists(st.sampled_from([0.0, 2.0 ** -6, 0.125, 0.25, 0.5]),
                              min_size=len(f), max_size=len(f)))
    g = f + np.array(bump)
    lat = _lattice(d)
    assert (choquet_integral(cells, f, lat, level, beta, thresholds=given_thresholds)
            <= choquet_integral(cells, g, lat, level, beta, thresholds=given_thresholds))


# ---------------------------------------------------------------------------
# ball rasters and cover witnesses
# ---------------------------------------------------------------------------

def _cube_ball_distance(corners, sides, center):
    gap = np.maximum(np.maximum(corners - center, center - (corners + sides)), 0.0)
    return np.sqrt(np.sum(gap ** 2, axis=1))


def _raster_reference(F, lat, level):
    """Each ball's index box tested cell by cell, then merged."""
    side = lat.side(level)
    cells = []
    for c, r in zip(F.centers, F.radii):
        lo = np.floor((c - r - lat.corner) / side).astype(np.int64)
        hi = np.floor((c + r - lat.corner) / side).astype(np.int64)
        idx = lattice_points([np.arange(lo[a], hi[a] + 1) for a in range(F.d)])
        corners = lat.corner[None, :] + idx * side
        cells.append(idx[_cube_ball_distance(corners, side, c) <= r])
    return np.unique(np.vstack(cells), axis=0)


@st.composite
def ball_families(draw, dims=(1, 2)):
    """Centres on a 1/32 grid and radii of a few dyadic and other sizes, so
    balls touch cube faces exactly and meet many cubes of one side; radius
    5/32 touches cell corners exactly ((3/32)^2 + (4/32)^2 = (5/32)^2)."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, 6))
    centers = [[draw(st.integers(-8, 40)) / 32 for _ in range(d)] for _ in range(n)]
    radii = [draw(st.sampled_from([1 / 16, 3 / 32, 5 / 32, 0.1, 0.13, 0.25, 0.3]))
             for _ in range(n)]
    return make_ball_family(centers, radii)


@given(ball_families(dims=(1, 2, 3)), st.integers(2, 6),
       st.sampled_from([0.0, -0.25, 0.3, -4096.25, 2.0 ** 20 + 0.3]),
       st.sampled_from([1.0, 0.5, 2.0, 0.75]))
def test_raster_matches_cell_by_cell_reference(F, level, offset, l0):
    lat = DyadicLattice(corner=np.full(F.d, offset), l0=l0, d=F.d)
    if F.d == 3:
        level = min(level, 4)
    got = rasterize_balls(F, lat, level)
    assert np.all(got.levels == level)
    assert np.array_equal(got.indices, _raster_reference(F, lat, level))


@st.composite
def chord_end_on_face_families(draw):
    """2-d balls with a row whose chord ends fall on cell faces up to
    rounding: for a Pythagorean triple (a, b, h), a t that is not dyadic and
    cells of side s = 1/32, the centre is (16 s + a t, n s +- b t) and the
    radius h t.  The row ending at the face 16 s has the chord half-width
    b t, so its estimated ends round a cell either way of the true ones."""
    s = 1 / 32
    centers, radii = [], []
    for _ in range(draw(st.integers(1, 4))):
        t = draw(st.floats(0.005, 0.05))
        a, b, h = draw(st.sampled_from([(3, 4, 5), (4, 3, 5), (5, 12, 13), (8, 15, 17)]))
        sign = draw(st.sampled_from([-1, 1]))
        centers.append([16 * s + a * t, draw(st.integers(12, 20)) * s + sign * b * t])
        radii.append(h * t)
    return make_ball_family(centers, radii)


@given(chord_end_on_face_families())
def test_raster_settles_chord_ends_that_round_across_a_face(F):
    lat = unit_lattice(2)
    got = rasterize_balls(F, lat, 5)
    assert np.array_equal(got.indices, _raster_reference(F, lat, 5))


def test_raster_finds_the_least_gap_cell_when_the_centre_rounds_across_a_face():
    # the centre's last coordinate lies an ulp below a cell face, but its
    # cell index rounds to the cell above, whose gap is 5.6e-17 where the
    # cell below has gap 0.  The row at index 100 touches the ball (gap r on
    # the first axis), and with r = 2^-29 the stray 5.6e-17 would push its
    # distance past r: the row's one cell is found only from the cell below
    s, r = 2.0 ** -19, 2.0 ** -29
    lat = DyadicLattice(corner=np.array([0.0, 0.030568503387485624]), l0=1.0, d=2)
    F = make_ball_family([[100 * s - r, -0.48227939700313943]], [r])
    got = rasterize_balls(F, lat, 19)
    assert np.array_equal(got.indices, _raster_reference(F, lat, 19))
    assert [100, -268881] in got.indices.tolist()


def test_raster_merges_rows_at_last_axis_indices_near_2_to_52():
    # a lattice corner 2^22 below the balls and cells of side 2^-30 put the
    # last-axis indices near 2^52.  Pairs of balls of radius one cell, two
    # cells apart on the last axis, meet 3 rows each in overlapping
    # intervals; 2^12 pairs make 3 * 2^12 rows, so row number times index
    # passes 2^63, yet every row's intervals merge into distinct cells
    side, n = 2.0 ** -30, 2 ** 12
    lat = DyadicLattice(corner=np.array([0.0, -2.0 ** 22]), l0=1.0, d=2)
    x = np.repeat(np.arange(n) * 2 ** 10 + 0.5, 2) * side
    y = np.tile([0.5, 2.5], n) * side + 0.5
    F = make_ball_family(np.column_stack([x, y]), np.full(2 * n, side))
    got = rasterize_balls(F, lat, 30)
    assert np.array_equal(got.indices, _raster_reference(F, lat, 30))


def test_raster_merges_rows_whose_indices_do_not_pack_into_one_key():
    # cells of side 2^-40 and balls at opposite corners of the unit square:
    # the row and last-axis indices each span about 2^40, so (row, start)
    # does not pack into one int64 and the runs are sorted by lexsort; the
    # two balls near the origin meet the same rows in overlapping intervals
    side = 2.0 ** -40
    F = make_ball_family([[3.5 * side, 3.5 * side], [3.5 * side, 5.25 * side],
                          [1 - 3.5 * side, 1 - 3.5 * side]], [1.3 * side] * 3)
    lat = unit_lattice(2)
    got = rasterize_balls(F, lat, 40)
    assert got.indices.max() - got.indices.min() > 2 ** 39
    assert np.array_equal(got.indices, _raster_reference(F, lat, 40))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_raster_keeps_cells_that_only_touch_the_ball(d):
    # dyadic centre and radius: the cells touching the sphere face-on (and
    # corner-on for d >= 2) are at distance r exactly, and belong to the raster
    lat = DyadicLattice(corner=np.full(d, -0.25), l0=0.5, d=d)
    F = make_ball_family([[0.25] * d, [0.75] * d], [5 / 32, 3 / 32])
    level = 4                       # cells of side 1/32
    got = rasterize_balls(F, lat, level)
    assert np.array_equal(got.indices, _raster_reference(F, lat, level))
    side, c, r = lat.side(level), F.centers[0], F.radii[0]
    corners = lat.corner[None, :] + got.indices * side
    gap = np.maximum(np.maximum(corners - c, c - (corners + side)), 0.0)
    touching = np.count_nonzero(gap[np.sqrt(np.sum(gap ** 2, axis=1)) == r], axis=1)
    assert np.any(touching == 1)                # face on
    if d >= 2:
        assert np.any(touching == 2)            # corner on


def _witness_reference(F, lat, levels, indices):
    """Per ball, the first of the largest cover cubes that meet it."""
    sides = lat.l0 * 2.0 ** (-levels.astype(np.float64))
    corners = lat.corner[None, :] + indices * sides[:, None]
    witness = []
    for c, r in zip(F.centers, F.radii):
        meets = np.nonzero(_cube_ball_distance(corners, sides[:, None], c) <= r)[0]
        witness.append(meets[np.argmax(sides[meets])])
    return np.array(witness, dtype=np.int64)


@given(ball_families(), st.sampled_from([0.3, 0.5]))
def test_witness_is_first_largest_meeting_cube(F, frac):
    # from the raw raster every cube has one side (ties everywhere) and the
    # swap loop has to run before the witnesses settle
    beta = frac * F.d
    optimal = regularized_cover(F, beta)
    raster = rasterize_balls(F, optimal.lattice, optimal.constants["cell_level"])
    from_raster = regularized_cover(F, beta, initial_cover=raster)
    for cov in (optimal, from_raster):
        want = _witness_reference(F, cov.lattice, cov.levels, cov.indices)
        assert np.array_equal(cov.witness, want)


@given(st.sampled_from([1, 2, 3]), st.integers(0, 2 ** 32 - 1))
def test_row_norms_match_per_row_norm(d, seed):
    # ball_cover's containment distances: each row's squares added in axis
    # order, one row at a time, as numpy's own loop adds fewer than 8 (the
    # BLAS norm, which differs in about one 2-d or 3-d row in ten, is not
    # used; the rows are drawn off any grid and over many scales)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, (1000, d)) * 10.0 ** rng.integers(-6, 7, (1000, 1))
    want = np.array([math.sqrt(sum(v * v for v in row)) for row in x.tolist()])
    assert content._row_norms(x).tobytes() == want.tobytes()


@st.composite
def witness_covers(draw):
    """A lattice (corner off 0, l0 off 1 allowed), a ball family and a cover
    of distinct cubes sorted by (level, index): per ball, cubes of its
    widened index box at a drawn level, crowding its first rows (which often
    hold only cubes that miss), and the cell of its centre at another
    level; maybe also a cube so far off that the level's index spans do not
    pack into int64."""
    F = draw(ball_families(dims=(1, 2, 3)))
    d = F.d
    lat = DyadicLattice(corner=np.full(d, draw(st.sampled_from([0.0, -0.25, 0.3]))),
                        l0=draw(st.sampled_from([1.0, 0.5, 0.75])), d=d)
    rows = []
    for c, r in zip(F.centers, F.radii):
        k = draw(st.integers(2, 6))
        lo = lat.index_of(c - r, k)[0] - 1
        hi = lat.index_of(c + r, k)[0] + 1
        for _ in range(draw(st.integers(0, 10))):
            # half of them in the box's first three rows
            top = int(hi[0]) if draw(st.booleans()) else min(int(hi[0]), int(lo[0]) + 2)
            rows.append([k, draw(st.integers(int(lo[0]), top)),
                         *(draw(st.integers(int(lo[a]), int(hi[a]))) for a in range(1, d))])
        k = draw(st.integers(1, 6))
        rows.append([k, *lat.index_of(c, k)[0]])
    if draw(st.booleans()):
        rows.append([rows[0][0]] + [2 ** 40] * d)
    rows = np.unique(np.array(rows, dtype=np.int64), axis=0)
    return F, lat, rows[:, 0], rows[:, 1:]


@given(witness_covers(), st.sampled_from([2, 16, content._SCAN_FLOATS]),
       st.sampled_from([0, content._WHOLE_SCAN_PAIRS]))
def test_windowed_witness_matches_whole_scan(case, scan_floats, whole_scan_pairs):
    # with no whole-scan pairs every block goes through the index-box
    # windows, and a small scan budget splits them into chunks
    F, lat, levels, indices = case
    with mock.patch.object(content, "_SCAN_FLOATS", scan_floats), \
            mock.patch.object(content, "_WHOLE_SCAN_PAIRS", whole_scan_pairs):
        got = content._witnesses(F, lat, levels, indices)
    assert np.array_equal(got, _witness_reference(F, lat, levels, indices))


def test_witness_box_reaches_a_cube_past_the_rounded_ball_end():
    # c + r lies on the face of cell 28 (level 4) only up to rounding:
    # (c + r - corner) / side rounds to just below 28, yet cell 28 touches
    # the ball (its gap is r exactly).  The box's extra cell on the high side
    # keeps it, so the witness is cell 28, not the finer cell of the centre
    lat = DyadicLattice(corner=np.array([0.3390665622833302]), l0=1.0, d=1)
    F = make_ball_family([[1.93281656228333]], [0.15625])
    rows = np.array([[4, 0], [4, 28], [4, 40], [6, lat.index_of(F.centers, 6)[0, 0]]])
    with mock.patch.object(content, "_WHOLE_SCAN_PAIRS", 0):
        got = content._witnesses(F, lat, rows[:, 0], rows[:, 1:])
    assert got.tolist() == [1]
    assert np.array_equal(got, _witness_reference(F, lat, rows[:, 0], rows[:, 1:]))


def test_witness_window_doubles_past_rows_that_miss():
    # the first ball's widened box has rows 8..23 at level 5; rows 8-11 hold
    # only its corner cubes, which miss, and its one meeting cube is in row
    # 16, so windows of 1, 2, 4 and 8 rows run.  The second ball's box
    # leaves the cover's index range below 0 and above 31.
    F = make_ball_family([[0.5, 0.5], [0.05, 0.95]], [0.2, 0.1])
    lat = unit_lattice(2)
    cubes = [(8, 8), (8, 23), (9, 8), (9, 23), (10, 8), (11, 23), (16, 16),
             (1, 30), (0, 0), (31, 31)]
    rows = np.unique(np.array([(5, *ix) for ix in cubes], dtype=np.int64), axis=0)
    spy = mock.Mock(wraps=content._first_meeting)
    with mock.patch.object(content, "_WHOLE_SCAN_PAIRS", 0), \
            mock.patch.object(content, "_first_meeting", spy):
        got = content._witnesses(F, lat, rows[:, 0], rows[:, 1:])
    assert np.array_equal(got, _witness_reference(F, lat, rows[:, 0], rows[:, 1:]))
    assert [tuple(rows[w, 1:]) for w in got] == [(16, 16), (1, 30)]
    windows = [int(np.count_nonzero(call.args[2] == 0)) for call in spy.call_args_list]
    assert windows == [1, 2, 4, 8]


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
    assert math.isclose(spent, float(np.sum(lat.side(union.levels) ** beta)),
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


@given(measures(), st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
       st.integers(0, 6))
def test_estimate_matches_one_capture_per_budget(mu, fracs, hi):
    # the estimate scans tables built once per beta; each (beta, delta) cell
    # must equal a capture built from scratch for that budget, bit for bit
    lat = _lattice(mu.d)
    rep = lower_dim_estimate(mu, lat, np.array(fracs) * mu.d, hi)
    occ = _occupied_cubes(mu, lat, 0, hi)
    tv = mu.total_variation()
    for i, beta in enumerate(rep.betas):
        for j, delta in enumerate(rep.deltas):
            _, captured, spent = greedy_mass_capture(mu, lat, beta, delta, hi,
                                                     candidates=occ)
            assert rep.curves[i, j] == captured / tv
            assert rep.diagnostics["spent"][i][j] == spent
