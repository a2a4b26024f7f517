"""Discretized signed measures, dyadic lattices, Frostman probes and generators.

A measure is a finite collection of weighted point masses on a regular grid:
the grid index set is integer, positions are ``origin + index * spacing``.
Densities enter as Riemann weights ``w = f(x) * h^d``.  All values are
immutable after construction and every operation is a pure function.  The
constant C of ``|mu|(B(x,r)) <= C r^beta`` is probed at critical radii only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import pairwise_sq_dists

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)


# ---------------------------------------------------------------------------
# regular grids
# ---------------------------------------------------------------------------

def lattice_points(axes) -> np.ndarray:
    """All points of the product grid of ``axes``, first axis slowest.

    Returns an (prod(len(a)), len(axes)) array with the axes' dtype.
    """
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _cube_ball_dist(corners, side, center):
    """Distance from ball centres to cubes [corner, corner+side]^d, the
    squared gaps added in axis order (as ``np.sum`` adds fewer than 8):
    ``corners`` (..., d), ``side`` (...) or a scalar and ``center`` (..., d)
    broadcast against each other, to their common leading shape."""
    hi = corners + np.asarray(side, dtype=np.float64)[..., None]
    gap = np.maximum(np.maximum(corners - center, center - hi), 0.0)
    return np.sqrt(sum(gap[..., a] ** 2 for a in range(gap.shape[-1])))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, its squares added by ``np.sum`` (numpy's
    own loop, never BLAS, so the bits hold on every host)."""
    return np.sqrt(np.sum(x * x, axis=-1))


def _row_heads(lo, spans, q):
    """Indices on all axes but the last of row ``q`` of boxes that start at
    ``lo`` and span ``spans`` cells on those axes, first axis slowest."""
    head = np.empty(lo.shape, dtype=np.int64)
    for a in reversed(range(lo.shape[1])):
        head[:, a] = lo[:, a] + q % spans[:, a]
        q = q // spans[:, a]
    return head


# lattice rows that _row_runs settles at once: a bound on its temporaries
_RUN_ROWS = 1 << 12


def _row_runs(centers, radii, origin, step, width, lo, hi, tag=None):
    """The distinct lattice cells within a radius of some balls.

    Ball b searches the cells ``[origin + j*step, origin + j*step + width]``
    per axis (``width`` is ``step`` for dyadic cubes, 0 for grid points) of
    its index box ``lo[b]..hi[b]``, ``origin`` and ``step`` per ball or
    shared, and keeps those with ``_cube_ball_dist(...) <= radii[b]``.

    A ball meets a row of its box (all axes but the last fixed) in a run of
    cells, since the last-axis gap falls and then rises along the row.  The
    ends of each run are estimated from the chord half-width ``sqrt(r^2 -
    g2)``, g2 the row's part of the squared distance, and settled with the
    cell test, ``_RUN_ROWS`` rows at a time: an end that passes steps outward
    while the next cell passes, one that fails steps toward the ball's pivot
    (its cell of least last-axis gap) until it passes, and a row whose pivot
    fails is empty.  The runs are then merged per row (``_merge_runs``).

    Returns the merged runs ``(key, first, end)`` (cells: ``_run_cells``),
    ``key`` a run's indices on all axes but the last, after ``tag[b]`` (an
    int per ball, if given: runs of different tags never merge).
    """
    n, d = centers.shape
    origin, step = (np.broadcast_to(v, (n, d)).copy() for v in (origin, step))

    def gap(start, c):
        """Gaps between cells that start at ``start`` and coordinates ``c``."""
        return np.maximum(np.maximum(start - c, c - (start + width)), 0.0)

    # each ball's pivot: descend from the cell of the centre (the gap is
    # unimodal along the last axis)
    o_, st_, c_ = origin[:, -1], step[:, -1], centers[:, -1]
    pivot = np.clip(np.floor((c_ - o_) / st_).astype(np.int64), lo[:, -1], hi[:, -1])
    for out, bound in ((-1, lo[:, -1]), (1, hi[:, -1])):
        move = np.ones(n, dtype=bool)
        while np.any(move):
            nxt = pivot + out
            move = (pivot != bound) & (gap(o_ + nxt * st_, c_) < gap(o_ + pivot * st_, c_))
            pivot = np.where(move, nxt, pivot)
    # the rows of every box, first axis slowest, laid end to end
    spans = hi[:, :-1] - lo[:, :-1] + 1
    n_rows = np.prod(spans, axis=1)
    row_end = np.cumsum(n_rows)
    runs = [(np.zeros((0, d - 1 + (tag is not None)), dtype=np.int64), lo[:0, -1], lo[:0, -1])]
    for s in range(0, int(n_rows.sum()), _RUN_ROWS):
        q = np.arange(s, min(s + _RUN_ROWS, int(n_rows.sum())))
        b = np.searchsorted(row_end, q, "right")
        head = _row_heads(lo[b, :-1], spans[b], q - row_end[b] + n_rows[b])
        # each row's part g2 of the squared distance, whose last term the
        # cell test adds: the sum _cube_ball_dist takes, in the same order
        g2 = np.zeros(len(b))
        for a in range(d - 1):
            g2 += gap(origin[b, a] + head[:, a] * step[b, a], centers[b, a]) ** 2
        c, r, o, st, piv = c_[b], radii[b], o_[b], st_[b], pivot[b]
        w = np.sqrt(np.maximum(r ** 2 - g2, 0.0))

        def meets(i, j):
            return np.sqrt(g2[i] + gap(o[i] + j * st[i], c[i]) ** 2) <= r[i]

        ends = []
        for out, bound in ((-1, lo[b, -1]), (1, hi[b, -1])):
            # the end cell of those meeting the chord [c - w, c + w], kept
            # between its box end and the pivot
            x = (c + out * w - o - (out < 0) * width) / st
            j = (np.ceil(x) if out < 0 else np.floor(x)).astype(np.int64)
            j = np.clip(j, np.minimum(bound, piv), np.maximum(bound, piv))
            hit = meets(slice(None), j)
            # ends that meet step outward while the next cell meets
            i = np.flatnonzero(hit & (j != bound))
            while len(i):
                nxt = j[i] + out
                ok = meets(i, nxt)
                j[i[ok]] = nxt[ok]
                i = i[ok & (nxt != bound[i])]
            # ends that miss step inward until they meet; in an empty row both
            # stop at the pivot, the first one just past it: an empty run
            i = np.flatnonzero(~hit)
            while len(i):
                stuck = j[i] == piv[i]
                j[i[stuck]] -= min(out, 0)
                i = i[~stuck]
                j[i] -= out
                i = i[~meets(i, j[i])]
            ends.append(j)
        key = head if tag is None else np.column_stack([tag[b], head])
        runs.append((key, ends[0], ends[1] + 1))
    return _merge_runs(*runs)


def _merge_runs(*parts):
    """The union of the cell runs ``[first, end)`` of rows ``key`` in some
    ``(key, first, end)`` parts, as disjoint non-empty runs sorted by (row,
    start): once sorted so (by ``_sort_keys``), each start is clipped to the
    running maximum of the earlier ends of its row, taken over row * n + the
    end's rank among the n distinct ends (below n^2 whatever the indices,
    and the rank mod n)."""
    key, first, end = map(np.concatenate, zip(*parts))
    order = np.lexsort(_sort_keys(np.column_stack([key, first]))[::-1])
    key, first, end = key[order], first[order], end[order]
    new = np.concatenate([[True], np.any(key[1:] != key[:-1], axis=1)])
    distinct, rank = np.unique(end, return_inverse=True)
    rank += (np.cumsum(new) - 1) * len(distinct)
    reach = distinct[np.maximum.accumulate(rank) % len(distinct)]
    first[1:] = np.where(new[1:], first[1:], np.maximum(first[1:], reach[:-1]))
    keep = first < end
    return key[keep], first[keep], end[keep]


def _run_cells(key, first, end):
    """The cells of the runs ``[first, end)`` of rows ``key``, run by run."""
    counts = end - first
    # each run's row and start - (cells before it), repeated, + a running index
    cells = np.repeat(np.column_stack([key, first - np.cumsum(counts) + counts]), counts, 0)
    cells[:, -1] += np.arange(len(cells))
    return cells


@dataclass(frozen=True)
class SampledField:
    """Values of a function on a regular grid: ``values[i]`` sits at
    ``origin + i * spacing``."""

    origin: np.ndarray
    spacing: float
    values: np.ndarray

    @property
    def d(self) -> int:
        return self.values.ndim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.d

    def points(self) -> np.ndarray:
        return lattice_points([self.origin[a] + self.spacing * np.arange(n)
                               for a, n in enumerate(self.values.shape)])

    def grid_sum(self) -> float:
        return float(np.sum(self.values)) * self.cell_volume


# ---------------------------------------------------------------------------
# grid measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridMeasure:
    """Finite signed measure as point masses on a regular grid.

    ``indices`` is an (n, d) int64 array, ``weights`` an (n,) float array of
    matching length with no zeros; positions are ``origin + indices * h``.
    """

    d: int
    h: float
    origin: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    name: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"grid spacing {self.h} must be positive and finite")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError(f"grid origin {self.origin.tolist()} must be finite")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if self.indices.shape != (len(self.weights), self.d):
            raise ValueError("index array shape mismatch")

    @property
    def n_masses(self) -> int:
        return len(self.weights)

    def points(self) -> np.ndarray:
        return self.origin[None, :] + self.indices * self.h

    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def total_variation(self) -> float:
        return float(np.sum(np.abs(self.weights)))

    def bbox(self):
        """(lower, upper) corners of the support bounding box."""
        if self.n_masses == 0:
            z = np.zeros(self.d)
            return z, z
        pts = self.points()
        return pts.min(axis=0), pts.max(axis=0)

    def support_diameter(self) -> float:
        lo, hi = self.bbox()
        return float(_row_norms(hi - lo))

    def scaled(self, factor: float, name: str | None = None) -> "GridMeasure":
        """Measure with all weights multiplied by ``factor``."""
        return new_grid_measure(self.d, self.h, self.origin,
                                self.indices, self.weights * factor,
                                name=self.name if name is None else name)

    def translated(self, shift) -> "GridMeasure":
        """Translate by ``shift``; exact (index arithmetic) when the shift is
        an integer multiple of the spacing, otherwise the origin moves."""
        shift = np.asarray(shift, dtype=np.float64)
        steps = shift / self.h
        rounded = np.rint(steps)
        if np.allclose(steps, rounded, rtol=0, atol=1e-9):
            return new_grid_measure(self.d, self.h, self.origin,
                                    self.indices + rounded.astype(np.int64),
                                    self.weights, name=self.name)
        return new_grid_measure(self.d, self.h, self.origin + shift,
                                self.indices, self.weights, name=self.name)

    def dilated(self, scale: float, center) -> "GridMeasure":
        """Mass-preserving pushforward under ``x -> (x - center) * scale``."""
        center = np.asarray(center, dtype=np.float64)
        return new_grid_measure(self.d, self.h * scale,
                                (self.origin - center) * scale,
                                self.indices, self.weights, name=self.name)


def new_grid_measure(d, h, origin, indices, weights, name="") -> GridMeasure:
    """Build a GridMeasure, dropping zero weights and merging duplicates."""
    origin = np.asarray(origin, dtype=np.float64).reshape(d)
    indices = np.asarray(indices, dtype=np.int64).reshape(-1, d)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if len(indices) != len(weights):
        raise ValueError("indices and weights must have equal length")
    indices, weights = _cube_sums(indices, weights)
    keep = weights != 0.0
    indices, weights = indices[keep], weights[keep]
    return GridMeasure(d=int(d), h=float(h), origin=origin,
                       indices=indices, weights=weights, name=name)


def measure_sum(measures, name="") -> GridMeasure:
    """Sum of measures on one compatible lattice (equal h, aligned origins)."""
    measures = [m for m in measures if m.n_masses > 0]
    if not measures:
        raise ValueError("need at least one nonempty measure")
    base = measures[0]
    all_idx, all_w = [], []
    for m in measures:
        if m.d != base.d or not math.isclose(m.h, base.h, rel_tol=1e-12):
            raise ValueError("incompatible lattices")
        offset = (m.origin - base.origin) / base.h
        rounded = np.rint(offset)
        if not np.allclose(offset, rounded, rtol=0, atol=1e-9):
            raise ValueError("origins differ by a non-integer number of cells")
        all_idx.append(m.indices + rounded.astype(np.int64)[None, :])
        all_w.append(m.weights)
    return new_grid_measure(base.d, base.h, base.origin,
                            np.vstack(all_idx), np.concatenate(all_w), name=name)


@dataclass(frozen=True)
class VectorGridMeasure:
    """d-component vector measure; components share one grid."""

    components: tuple

    def __post_init__(self):
        base = self.components[0]
        for c in self.components:
            if c.d != base.d or not math.isclose(c.h, base.h, rel_tol=1e-12) \
                    or not np.allclose(c.origin, base.origin):
                raise ValueError("components must share one grid")

    @property
    def d(self):
        return self.components[0].d

    def variation_measure(self) -> GridMeasure:
        """Scalar measure |F| with the euclidean norm of the weight vectors."""
        base = self.components[0]
        indices, _, inv = _unique_rows(np.vstack([c.indices for c in self.components]))
        comp = np.repeat(np.arange(len(self.components)),
                         [c.n_masses for c in self.components])
        vecs = np.zeros((len(indices), len(self.components)))
        np.add.at(vecs, (inv, comp), np.concatenate([c.weights for c in self.components]))
        weights = _row_norms(vecs)
        return new_grid_measure(base.d, base.h, base.origin, indices, weights,
                                name="|" + (base.name or "F") + "|")

    def total_variation(self) -> float:
        return self.variation_measure().total_variation()


# ---------------------------------------------------------------------------
# cubes and dyadic lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cube:
    """Axis-parallel cube given by its lower corner and sidelength."""

    corner: np.ndarray
    side: float

    def __post_init__(self):
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError("cube side must be positive and finite")
        if not np.all(np.isfinite(self.corner)):
            raise ValueError("cube corner must be finite")

    @property
    def center(self) -> np.ndarray:
        return self.corner + 0.5 * self.side

    def scaled_about_center(self, factor: float) -> "Cube":
        c = self.center
        side = self.side * factor
        return Cube(corner=c - 0.5 * side, side=side)

    def contains_points(self, pts) -> np.ndarray:
        """Which points lie in the closed cube (up to a relative 1e-12)."""
        rel = np.atleast_2d(pts) - self.corner[None, :]
        return np.all((rel >= -1e-12 * self.side)
                      & (rel <= self.side * (1 + 1e-12)), axis=1)


def unit_cube(d: int) -> Cube:
    return Cube(corner=np.zeros(d), side=1.0)


@dataclass(frozen=True)
class DyadicLattice:
    """Dyadic cube system generated by a base cube Q0.

    Level-k cubes have sidelength ``l0 * 2**-k``; the whole translated lattice
    is allowed at every level (cubes need not sit inside Q0), and k may be
    negative.  Point membership uses the half-open convention [a, b)^d via
    floor index arithmetic, so the 2^d children of a cube partition it.
    """

    corner: np.ndarray
    l0: float
    d: int

    def __post_init__(self):
        if self.l0 <= 0:
            raise ValueError("base sidelength must be positive")

    def side(self, level: int) -> float:
        """Side of the level-k cubes (``level`` an int or an int array).

        Raises ``ValueError`` at a level whose side overflows a float.
        """
        try:
            side = self.l0 * 2.0 ** (-level)
        except OverflowError:
            side = math.inf
        # a float for an int level (the one the hot loops pass), else an array
        if side == math.inf if isinstance(side, float) else np.any(side == math.inf):
            raise ValueError(f"the cube side at level {level} overflows")
        return side

    def index_of(self, pts, level: int) -> np.ndarray:
        """Integer lattice index of the level-k cube containing each point.

        Raises ``ValueError`` when an index does not fit in int64 (a point
        too far from the corner for the level, or not finite), where the
        cast would wrap it without an error.
        """
        idx = np.floor((np.atleast_2d(pts) - self.corner[None, :]) / self.side(level))
        if not np.all((idx >= -2.0 ** 63) & (idx < 2.0 ** 63)):
            raise ValueError(f"cube indices at level {level} do not fit in int64 "
                             "(a point too far from the lattice corner, or not finite)")
        return idx.astype(np.int64)


def unit_lattice(d: int) -> DyadicLattice:
    return DyadicLattice(corner=np.zeros(d), l0=1.0, d=d)


# Sets of dyadic cubes are int64 arrays: ``levels`` (m,) with ``indices``
# (m, d).  The level-j ancestor of a level-k cube is ``indices >> (k - j)``
# (the arithmetic shift floors negative indices too).

def _sort_keys(rows):
    """int64 keys, most significant first, whose ``lexsort`` orders the rows
    of an int64 (n, w) array lexicographically.

    The columns are packed into as few keys as their spans allow: each
    column is shifted by its minimum, and consecutive columns share a key
    (mixed radix, the first column most significant) while the product of
    their spans, in Python ints, stays below 2^63.  A column whose span
    alone reaches 2^63 is its own key, unshifted.  The packing is exact and
    order-preserving, so one path serves every input.
    """
    keys, spans = [], []
    for col in rows.T:
        lo, hi = (int(col.min()), int(col.max())) if len(rows) else (0, 0)
        span = hi - lo + 1
        if keys and spans[-1] * span < 2 ** 63:
            keys[-1] = keys[-1] * span + (col - lo)
            spans[-1] *= span
        elif span < 2 ** 63:
            keys.append(col - lo)
            spans.append(span)
        else:
            keys.append(col)
            spans.append(2 ** 64)
    return keys


def _unique_rows(rows):
    """Distinct rows of an int64 (n, w) array in lexicographic order, the
    position of the first occurrence of each, and the position of each row
    among them: what ``np.unique(rows, axis=0, return_index=True,
    return_inverse=True)`` returns.  Cube rows (level, index...) always fit
    one ``_sort_keys`` key, so neighbours compare on it, not on whole rows.
    """
    keys = _sort_keys(rows)
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(rows), dtype=bool)
    new[:1] = True
    for key in keys:
        srt = key[order]
        new[1:] |= srt[1:] != srt[:-1]
    inv = np.empty(len(rows), dtype=np.int64)
    inv[order] = np.cumsum(new) - 1
    first = order[new]
    return rows[first], first, inv


def _match_rows(table, query) -> np.ndarray:
    """Position in ``table`` of each row of ``query``, or -1 if absent.

    Both are int64 (n, w) arrays; a row repeated in ``table`` gets any of
    its positions.
    """
    _, _, inv = _unique_rows(np.vstack([table, query]))
    pos = np.full(len(inv), -1, dtype=np.int64)
    pos[inv[:len(table)]] = np.arange(len(table))
    return pos[inv[len(table):]]


def _cube_sums(idx, weights):
    """Distinct rows of ``idx`` (sorted) with the sum of ``weights`` per row."""
    uniq, _, inv = _unique_rows(idx)
    sums = np.zeros(len(uniq))
    np.add.at(sums, inv, weights)
    return uniq, sums


# ---------------------------------------------------------------------------
# Frostman probing
# ---------------------------------------------------------------------------

def _probe_centers(mu: GridMeasure) -> np.ndarray:
    """Support points plus midpoints with each point's nearest neighbour."""
    pts = mu.points()
    if len(pts) <= 1:
        return pts
    mids = np.empty_like(pts)
    for s, e, d2 in pairwise_sq_dists(pts, pts):
        d2[np.arange(e - s), np.arange(s, e)] = np.inf
        nearest = np.argmin(d2, axis=1)
        mids[s:e] = 0.5 * (pts[s:e] + pts[nearest])
    return np.unique(np.vstack([pts, mids]), axis=0)


def frostman_constant(mu: GridMeasure, beta: float, r_min: float) -> float:
    """Max of |mu|(B(x,r)) / r^beta over probe centers and radii r in
    ``[r_min, inf)``, a lower bound for the C of ``|mu|(B(x,r)) <= C r^beta``.

    Centers are all support points plus nearest-neighbour midpoints.  Each
    is read at its critical radii, its distances to support points clipped
    up to ``r_min``: between two of them a closed ball keeps its mass while
    r^beta grows, so no other radius of the window beats them.
    """
    if not r_min > 0:
        raise ValueError("r_min must be positive")
    if mu.n_masses == 0:
        return 0.0
    pts = mu.points()
    absw = np.abs(mu.weights)
    best = 0.0
    for s, e, d2 in pairwise_sq_dists(_probe_centers(mu), pts):
        dist = np.sqrt(d2, out=d2)
        order = np.argsort(dist, axis=1)
        dsort = np.take_along_axis(dist, order, axis=1)
        csum = absw[order]
        np.cumsum(csum, axis=1, out=csum)
        ratios = np.power(np.maximum(dsort, r_min), beta)
        np.divide(csum, ratios, out=ratios)
        # each row's maximum, NaN for a row that holds one: such a row never
        # beats the best so far
        rows = ratios.max(axis=1)
        best = max(best, float(np.max(rows, initial=0.0, where=~np.isnan(rows))))
    return best


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def cantor_measure(depth: int) -> GridMeasure:
    """Level-``depth`` middle-thirds Cantor measure on [0, 1/2].

    Mass splits equally among the 2^depth triadic intervals, one point mass
    at each interval center; total mass is exactly 1.  Halved, the intervals
    are the disjoint cells ``[y - h, y + h]`` of the masses y, h = 3^-depth / 4
    the spacing, which stays their half-width under translates and dilates.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > 30:
        raise ValueError("depth too large: weights would underflow")
    h = 3.0 ** (-depth) / 4.0
    # interval left endpoints in units of 3^-depth, on [0,1] prior to halving
    lefts = np.zeros(1, dtype=np.int64)
    for i in range(depth):
        lefts = np.concatenate([3 * lefts, 3 * lefts + 2])
    # halving [0,1] -> [0,1/2]: centers land on odd multiples of h
    idx = (2 * np.sort(lefts) + 1).reshape(-1, 1)
    w = np.full(len(idx), 2.0 ** (-depth))
    return new_grid_measure(1, h, [0.0], idx, w, name=f"cantor(depth={depth})")


def cantor_frostman(depth: int):
    """``cantor_measure(depth)`` and its Frostman constant at beta =
    log2/log3, probed from radius 3^-depth / 2 up."""
    mu = cantor_measure(depth)
    return mu, frostman_constant(mu, LOG2_OVER_LOG3, 3.0 ** (-depth) / 2.0)


def curve_measure(polyline, h: float) -> VectorGridMeasure:
    """Vector measure of a closed polyline: one vector mass per segment.

    Vertices snap to the spacing-``h`` lattice; each segment contributes
    (snapped direction x length) at its midpoint, which lies on the h/2
    lattice.  Integer telescoping makes every component sum exactly zero.
    """
    pts = np.atleast_2d(np.asarray(polyline, dtype=np.float64))
    if len(pts) < 4:
        raise ValueError("need a closed polyline with at least 3 distinct points")
    if not np.allclose(pts[0], pts[-1], rtol=0, atol=1e-12):
        raise ValueError("polyline must be closed (first point == last point)")
    d = pts.shape[1]
    g = np.rint(pts / h).astype(np.int64)
    if len(np.unique(g[:-1], axis=0)) < 3:
        raise ValueError("need a closed polyline with at least 3 distinct points")
    steps = g[1:] - g[:-1]                      # per-segment integer direction
    keep = np.any(steps != 0, axis=1)
    steps = steps[keep]
    mids = (g[:-1] + g[1:])[keep]               # on the h/2 lattice
    comps = []
    for a in range(d):
        comps.append(new_grid_measure(d, h / 2.0, np.zeros(d), mids,
                                      steps[:, a] * h, name=f"curve[{a}]"))
    return VectorGridMeasure(components=tuple(comps))


def lebesgue_sample(d: int, h: float) -> GridMeasure:
    """Riemann sample of Lebesgue measure on the unit cube."""
    n = int(round(1.0 / h))
    if n < 1:
        raise ValueError("spacing coarser than the cube")
    idx = lattice_points([np.arange(n, dtype=np.int64)] * d)
    w = np.full(len(idx), h ** d)
    # cell centers: origin at corner + h/2
    return new_grid_measure(d, h, np.full(d, 0.5 * h), idx, w, name="lebesgue")


def dirac(d: int, x=None, h=1.0) -> GridMeasure:
    """Unit point mass (position snapped to a spacing-h lattice at x)."""
    x = np.zeros(d) if x is None else np.asarray(x, dtype=np.float64)
    return new_grid_measure(d, h, x, np.zeros((1, d), dtype=np.int64), [1.0],
                            name="dirac")
