"""Discretized signed measures, dyadic lattices, and Frostman-type generators.

A measure is a finite collection of weighted point masses on a regular grid:
the grid index set is integer, positions are ``origin + index * spacing``.
Densities enter as Riemann weights ``w = f(x) * h^d``.  All values are
immutable after construction and every operation is a pure function.
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


@dataclass(frozen=True)
class SampledField:
    """Values of a function on a regular grid: ``values[i]`` sits at
    ``origin + i * spacing``.  ``k`` is the frequency level of a projector
    output and None for other fields."""

    origin: np.ndarray
    spacing: float
    values: np.ndarray
    k: int | None = None

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

    def stencil(self, pts):
        """Nodes and weights of multilinear interpolation at ``pts``, which
        must lie inside the grid hull.

        Returns ``(nodes, weights)``, two (2^d, n) arrays: corner c of point
        i is node ``nodes[c, i]`` (a C-order flat index) with weight
        ``weights[c, i]``.  Every corner is named, zero weights included.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        rel = (pts - self.origin[None, :]) / self.spacing
        shape = np.array(self.values.shape)
        if np.any(rel < -1e-9) or np.any(rel > shape[None, :] - 1 + 1e-9):
            raise ValueError("interpolation points fall outside the field grid")
        rel = np.clip(rel, 0.0, shape[None, :] - 1 - 1e-12)
        base = np.floor(rel).astype(np.int64)
        base = np.minimum(base, shape[None, :] - 2)
        frac = rel - base
        nodes, weights = [], []
        for corner in range(2 ** self.d):
            bits = np.array([(corner >> a) & 1 for a in range(self.d)])
            weights.append(np.prod(np.where(bits[None, :] == 1, frac, 1.0 - frac), axis=1))
            # "wrap": a one-node axis reads node -1 as numpy indexing does
            nodes.append(np.ravel_multi_index(tuple((base + bits[None, :]).T),
                                              self.values.shape, mode="wrap"))
        return np.array(nodes), np.array(weights)

    def interpolate(self, pts) -> np.ndarray:
        """Multilinear interpolation; points must lie inside the grid hull."""
        nodes, weights = self.stencil(pts)
        flat = self.values.reshape(-1)
        out = np.zeros(nodes.shape[1])
        for idx, weight in zip(nodes, weights):
            out += weight * flat[idx]
        return out


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
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")
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
        return float(np.linalg.norm(hi - lo))

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
    if h <= 0:
        raise ValueError("grid spacing must be positive")
    origin = np.asarray(origin, dtype=np.float64).reshape(d)
    indices = np.asarray(indices, dtype=np.int64).reshape(-1, d)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
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
        # one norm per row: norm(axis=1) can differ from it in the last bit
        weights = np.array([np.linalg.norm(v) for v in vecs])
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

    @property
    def d(self) -> int:
        return len(self.corner)

    @property
    def center(self) -> np.ndarray:
        return self.corner + 0.5 * self.side

    def scaled_about_center(self, factor: float) -> "Cube":
        c = self.center
        side = self.side * factor
        return Cube(corner=c - 0.5 * side, side=side)

    def contains_points(self, pts, closed=True) -> np.ndarray:
        pts = np.atleast_2d(pts)
        rel = pts - self.corner[None, :]
        if closed:
            return np.all((rel >= -1e-12 * self.side)
                          & (rel <= self.side * (1 + 1e-12)), axis=1)
        return np.all((rel >= 0) & (rel < self.side), axis=1)


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
        return self.l0 * 2.0 ** (-level)

    def cube(self, level: int, n) -> "DyadicCube":
        return DyadicCube(lattice=self, level=int(level),
                          n=tuple(int(v) for v in np.atleast_1d(n)))

    def index_of(self, pts, level: int) -> np.ndarray:
        """Integer lattice index of the level-k cube containing each point."""
        pts = np.atleast_2d(pts)
        return np.floor((pts - self.corner[None, :]) / self.side(level)).astype(np.int64)


@dataclass(frozen=True)
class DyadicCube:
    lattice: DyadicLattice
    level: int
    n: tuple

    @property
    def side(self) -> float:
        return self.lattice.side(self.level)

    @property
    def corner(self) -> np.ndarray:
        return self.lattice.corner + np.array(self.n, dtype=np.float64) * self.side

    def children(self):
        base = np.array(self.n, dtype=np.int64) * 2
        d = self.lattice.d
        kids = []
        for m in range(2 ** d):
            off = [(m >> a) & 1 for a in range(d)]
            kids.append(self.lattice.cube(self.level + 1, base + np.array(off)))
        return kids


def unit_lattice(d: int) -> DyadicLattice:
    return DyadicLattice(corner=np.zeros(d), l0=1.0, d=d)


# Sets of dyadic cubes are int64 arrays: ``levels`` (m,) with ``indices``
# (m, d).  The level-j ancestor of a level-k cube is ``indices >> (k - j)``
# (the arithmetic shift floors negative indices too).

def _unique_rows(rows):
    """Distinct rows of an int64 (n, w) array in lexicographic order, the
    position of the first occurrence of each, and the position of each row
    among them: what ``np.unique(rows, axis=0)`` returns, but sorting int64
    columns with ``lexsort`` instead of a structured view of the rows
    (2-3 times faster for 300-10000 rows of width 3)."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    inv = np.empty(len(rows), dtype=np.int64)
    inv[order] = np.cumsum(new) - 1
    return srt[new], order[new], inv


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


def measure_of_cube(mu: GridMeasure, cube: DyadicCube) -> float:
    """mu(Q) under the half-open convention, via floor index arithmetic."""
    if mu.n_masses == 0:
        return 0.0
    idx = cube.lattice.index_of(mu.points(), cube.level)
    target = np.array(cube.n, dtype=np.int64)
    inside = np.all(idx == target[None, :], axis=1)
    return float(np.sum(mu.weights[inside]))


# ---------------------------------------------------------------------------
# Frostman certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrostmanCertificate:
    """Sampled growth bound ``|mu|(B(x,r)) <= C r^beta``.

    ``constant`` is the max sampled ratio, hence a lower bound for the true
    supremum; the probe grid (centers rule + radii) is recorded so the
    certificate is reproducible.
    """

    exponent: float
    constant: float
    radii: np.ndarray
    worst_center: np.ndarray
    worst_radius: float
    centers_rule: str = "support+midpoints"

    def to_dict(self):
        return {
            "exponent": self.exponent,
            "constant": self.constant,
            "radii_min": float(np.min(self.radii)) if len(self.radii) else 0.0,
            "radii_max": float(np.max(self.radii)) if len(self.radii) else 0.0,
            "n_radii": int(len(self.radii)),
            "worst_center": list(map(float, np.atleast_1d(self.worst_center))),
            "worst_radius": self.worst_radius,
            "centers_rule": self.centers_rule,
        }


def _probe_centers(mu: GridMeasure) -> np.ndarray:
    """Support points plus midpoints with each point's nearest neighbour."""
    pts = mu.points()
    if len(pts) <= 1:
        return pts
    mids = np.empty_like(pts)
    for s, e, d2 in pairwise_sq_dists(pts, pts, max(1, 2_000_000 // len(pts))):
        for i in range(e - s):
            d2[i, s + i] = np.inf
        nearest = np.argmin(d2, axis=1)
        mids[s:e] = 0.5 * (pts[s:e] + pts[nearest])
    return np.unique(np.vstack([pts, mids]), axis=0)


def frostman_constant(mu: GridMeasure, beta: float, radii) -> FrostmanCertificate:
    """Max of |mu|(B(x,r)) / r^beta over probe centers and radii.

    Centers are all support points plus nearest-neighbour midpoints; for each
    center the sampled radii are augmented with the exact critical radii (the
    distances to support points) clipped to the probed range, where the ratio
    is locally maximal for closed balls.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if len(radii) == 0:
        raise ValueError("radius grid must be nonempty")
    if mu.n_masses == 0:
        return FrostmanCertificate(exponent=beta, constant=0.0, radii=radii,
                                   worst_center=np.zeros(mu.d), worst_radius=0.0)
    r_lo, r_hi = float(np.min(radii)), float(np.max(radii))
    pts = mu.points()
    absw = np.abs(mu.weights)
    centers = _probe_centers(mu)
    best = (0.0, centers[0], r_lo)
    for s, e, d2 in pairwise_sq_dists(centers, pts, max(1, 2_000_000 // len(pts))):
        dist = np.sqrt(d2)
        order = np.argsort(dist, axis=1)
        dsort = np.take_along_axis(dist, order, axis=1)
        csum = np.cumsum(np.take_along_axis(np.tile(absw, (e - s, 1)), order, axis=1), axis=1)
        for i in range(e - s):
            # critical radii: ratio jumps exactly when a ball gains a mass;
            # clipping up to r_lo keeps the ball valid, but radii beyond r_hi
            # must be dropped (their mass exceeds the r_hi ball's)
            rc = np.maximum(dsort[i], r_lo)
            ratios = np.where(dsort[i] <= r_hi, csum[i] / np.power(rc, beta), 0.0)
            j = int(np.argmax(ratios))
            if ratios[j] > best[0]:
                best = (float(ratios[j]), centers[s + i], float(rc[j]))
            # sampled grid radii on top (mass via searchsorted)
            k = np.searchsorted(dsort[i], radii, side="right")
            mass = np.where(k > 0, csum[i][np.maximum(k - 1, 0)], 0.0)
            ratios_g = mass / np.power(radii, beta)
            j = int(np.argmax(ratios_g))
            if ratios_g[j] > best[0]:
                best = (float(ratios_g[j]), centers[s + i], float(radii[j]))
    return FrostmanCertificate(exponent=beta, constant=best[0], radii=radii,
                               worst_center=best[1], worst_radius=best[2])


def default_radius_grid(mu: GridMeasure, r_min=None, r_max=None, per_decade=16):
    """Geometric radius grid from the resolution scale to the diameter."""
    if r_min is None:
        r_min = mu.h
    if r_max is None:
        r_max = max(2.0 * mu.support_diameter(), 4.0 * r_min)
    n = max(2, int(math.ceil(math.log10(r_max / r_min) * per_decade)) + 1)
    return np.geomspace(r_min, r_max, n)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def cantor_frostman(depth: int, normalization: float = 1.0):
    """Level-``depth`` middle-thirds Cantor measure on [0, 1/2].

    Mass splits equally among the 2^depth triadic intervals, one point mass
    at each interval center; total mass is exactly ``normalization``.
    Returns the measure and a Frostman certificate at beta = log2/log3.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > 30:
        raise ValueError("depth too large: weights would underflow")
    beta = LOG2_OVER_LOG3
    h = 3.0 ** (-depth) / 4.0
    # interval left endpoints in units of 3^-depth, on [0,1] prior to halving
    lefts = np.zeros(1, dtype=np.int64)
    for i in range(depth):
        lefts = np.concatenate([3 * lefts, 3 * lefts + 2])
    # halving [0,1] -> [0,1/2]: centers land on odd multiples of h
    idx = (2 * np.sort(lefts) + 1).reshape(-1, 1)
    w = np.full(len(idx), normalization * 2.0 ** (-depth))
    mu = new_grid_measure(1, h, [0.0], idx, w, name=f"cantor(depth={depth})")
    if mu.n_masses == 0:
        cert = FrostmanCertificate(exponent=beta, constant=0.0,
                                   radii=np.array([1.0]),
                                   worst_center=np.zeros(1), worst_radius=1.0)
        return mu, cert
    r_min = 3.0 ** (-depth) / 2.0
    cert = frostman_constant(mu, beta, default_radius_grid(mu, r_min=r_min))
    return mu, cert


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


def lebesgue_sample(d: int, h: float, cube: Cube | None = None, name="lebesgue") -> GridMeasure:
    """Riemann sample of Lebesgue measure on a cube (default unit cube)."""
    cube = cube or unit_cube(d)
    n = int(round(cube.side / h))
    if n < 1:
        raise ValueError("spacing coarser than the cube")
    idx = lattice_points([np.arange(n, dtype=np.int64)] * d)
    w = np.full(len(idx), h ** d)
    # cell centers: origin at corner + h/2
    return new_grid_measure(d, h, cube.corner + 0.5 * h, idx, w, name=name)


def dirac(d: int, x=None, mass=1.0, h=1.0, name="dirac") -> GridMeasure:
    """Single point mass (position snapped to a spacing-h lattice at x)."""
    x = np.zeros(d) if x is None else np.asarray(x, dtype=np.float64)
    return new_grid_measure(d, h, x, np.zeros((1, d), dtype=np.int64), [mass],
                            name=name)
