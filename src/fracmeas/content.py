"""Hausdorff content (dyadic exact, spherical upper bound), covering
regularization, and Choquet integration.

A set of dyadic cubes is a pair of int64 arrays, ``levels`` (m,) and
``indices`` (m, d); the level-j ancestor of a level-k cube is
``indices >> (k - j)``.  Reduction, cover extraction and cover edits are
row operations on these arrays (sort, unique, row matching) with no
per-cube Python objects.

The dyadic content of a finite cube union is computed exactly by a bottom-up
sweep on the cube tree: ``cost(Q) = min(l(Q)^beta, sum of child costs)``.
The sweep ascends past the coarsest input level until no coarser cube could
pay (a single cube at the next level would already cost more than the
current total), which makes the result the true infimum over all dyadic
covers, not just covers by sub-cubes of the inputs.  The optimal cover is
read off top-down, level by level: a node is in it when it chose itself and
its parent chose its children.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma

from .measures import (Cube, DyadicLattice, _match_rows, _unique_rows, lattice_points,
                       unit_lattice)


def ball_volume_constant(beta: float) -> float:
    """omega_beta = pi^{beta/2} / Gamma(beta/2 + 1)."""
    return math.pi ** (beta / 2.0) / _gamma(beta / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# cube unions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubeUnion:
    """Finite, reduced set of dyadic cubes of one lattice.

    ``levels`` (m,) and ``indices`` (m, d) identify the cubes; no cube is
    contained in another after construction.
    """

    lattice: DyadicLattice
    levels: np.ndarray
    indices: np.ndarray

    @classmethod
    def build(cls, lattice: DyadicLattice, levels, indices) -> "CubeUnion":
        """Reduce the input cubes: sort them stably by level, then drop every
        repeat of an earlier cube and every cube inside a coarser input cube.
        """
        levels = np.asarray(levels, dtype=np.int64).reshape(-1)
        indices = np.asarray(indices, dtype=np.int64).reshape(len(levels), lattice.d)
        order = np.argsort(levels, kind="stable")
        levels, indices = levels[order], indices[order]
        _, first, _ = _unique_rows(np.column_stack([levels, indices]))
        keep = np.zeros(len(levels), dtype=bool)
        keep[first] = True
        for lv in np.unique(levels)[:-1]:
            finer = levels > lv
            anc = indices[finer] >> (levels[finer] - lv)[:, None]
            keep[finer] &= _match_rows(indices[levels == lv], anc) < 0
        return cls(lattice=lattice, levels=levels[keep], indices=indices[keep])

    @property
    def n_cubes(self) -> int:
        return len(self.levels)

    def sides(self) -> np.ndarray:
        return self.lattice.l0 * 2.0 ** (-self.levels.astype(np.float64))

    def corners(self) -> np.ndarray:
        return self.lattice.corner[None, :] + self.indices * self.sides()[:, None]

    def covers_cube(self, level: int, index) -> bool:
        coarser = self.levels <= level
        anc = np.asarray(index, dtype=np.int64) >> (level - self.levels[coarser])[:, None]
        return bool(np.any(np.all(self.indices[coarser] == anc, axis=1)))


# ---------------------------------------------------------------------------
# exact dyadic content
# ---------------------------------------------------------------------------

def _content_sweep(E: CubeUnion, beta: float):
    """Bottom-up cost sweep; returns the total and, finest level first, the
    (level, nodes, costs, chose-itself) arrays of every level swept."""
    lat = E.lattice
    if E.n_cubes == 0:
        return 0.0, []
    levels = E.levels
    k = int(levels.max())
    side = lat.l0 * 2.0 ** (-k)
    nodes = E.indices[levels == k]
    costs = np.full(len(nodes), side ** beta)
    choice_self = np.ones(len(nodes), dtype=bool)
    record = [(k, nodes, costs, choice_self)]
    k_top = int(levels.min())
    while True:
        total = float(np.sum(costs))
        parent_side = lat.l0 * 2.0 ** (-(k - 1))
        if k <= k_top and (len(nodes) <= 1 or parent_side ** beta >= total):
            break
        uniq, _, inv = _unique_rows(nodes >> 1)
        sums = np.zeros(len(uniq))
        np.add.at(sums, inv, costs)
        k -= 1
        own = parent_side ** beta
        # input cubes at this level are disjoint from finer inputs (reduced)
        inputs_here = E.indices[levels == k]
        uniq = np.vstack([uniq, inputs_here])
        sums = np.concatenate([sums, np.full(len(inputs_here), np.inf)])
        choice_self = own <= sums
        costs = np.where(choice_self, own, sums)
        nodes = uniq
        record.append((k, nodes, costs, choice_self))
    return float(np.sum(costs)), record


def dyadic_content(E: CubeUnion, beta: float) -> float:
    """Exact infimum of sum l(Q)^beta over dyadic covers of E."""
    if not (0 < beta <= E.lattice.d):
        raise ValueError("beta must lie in (0, d]")
    total, _ = _content_sweep(E, beta)
    return total


def dyadic_content_cover(E: CubeUnion, beta: float):
    """Exact content together with an optimal cover (as a CubeUnion)."""
    if not (0 < beta <= E.lattice.d):
        raise ValueError("beta must lie in (0, d]")
    lat = E.lattice
    total, record = _content_sweep(E, beta)
    levels = np.zeros(0, dtype=np.int64)
    indices = np.zeros((0, lat.d), dtype=np.int64)
    expanded = None
    for k, nodes, _, choice_self in reversed(record):
        # a node is in the cover when it chose itself and its parent was
        # expanded; every node of the top level is reached
        if expanded is None:
            reached = np.ones(len(nodes), dtype=bool)
        else:
            reached = _match_rows(expanded, nodes >> 1) >= 0
        pick = reached & choice_self
        levels = np.concatenate([levels, np.full(np.count_nonzero(pick), k)])
        indices = np.vstack([indices, nodes[pick]])
        expanded = nodes[reached & ~choice_self]
    return total, CubeUnion(lattice=lat, levels=levels, indices=indices)


# ---------------------------------------------------------------------------
# ball families, rasterization, covering regularization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallFamily:
    centers: np.ndarray          # (m, d)
    radii: np.ndarray            # (m,)

    def __post_init__(self):
        if np.any(self.radii <= 0):
            raise ValueError("radii must be positive")

    @property
    def n_balls(self) -> int:
        return len(self.radii)

    @property
    def d(self) -> int:
        return self.centers.shape[1]


def make_ball_family(centers, radii) -> BallFamily:
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    radii = np.asarray(radii, dtype=np.float64).reshape(-1)
    return BallFamily(centers=centers, radii=radii)


def _cube_ball_dist(corners, side, center):
    """Distance from a ball center to each cube [corner, corner+side]^d.

    ``side`` is a scalar or a per-cube array.
    """
    side = np.asarray(side, dtype=np.float64)
    if side.ndim == 1:
        side = side[:, None]
    lo = corners
    hi = corners + side
    gap = np.maximum(np.maximum(lo - center[None, :], center[None, :] - hi), 0.0)
    return np.sqrt(np.sum(gap ** 2, axis=1))


def rasterize_balls(F: BallFamily, lattice: DyadicLattice, level: int) -> CubeUnion:
    """All level-``level`` cells intersecting the union of balls."""
    side = lattice.side(level)
    cells = []
    for c, r in zip(F.centers, F.radii):
        lo = np.floor((c - r - lattice.corner) / side).astype(np.int64)
        hi = np.floor((c + r - lattice.corner) / side).astype(np.int64)
        idx = lattice_points([np.arange(lo[a], hi[a] + 1) for a in range(F.d)])
        corners = lattice.corner[None, :] + idx * side
        keep = _cube_ball_dist(corners, side, c) <= r
        cells.append(idx[keep])
    if not cells:
        return CubeUnion.build(lattice, [], np.zeros((0, lattice.d)))
    idx, _, _ = _unique_rows(np.vstack(cells))
    return CubeUnion.build(lattice, np.full(len(idx), level), idx)


def proof_constants(beta: float, d: int):
    """(c, c') from the balance 2^d 4^beta = (1/2) omega_d / c^(d-beta)."""
    if beta >= d:
        raise ValueError("the balance equation needs beta < d")
    omega_d = ball_volume_constant(float(d))
    c = (omega_d / (2.0 ** (d + 1) * 4.0 ** beta)) ** (1.0 / (d - beta))
    c_prime = 2.0 ** d * 4.0 ** beta
    return c, c_prime


@dataclass
class ContentCover:
    """A covering family (cubes or balls) with its beta-content and witnesses."""

    kind: str                     # "cubes" or "balls"
    beta: float
    lattice: DyadicLattice | None
    levels: np.ndarray | None
    indices: np.ndarray | None
    centers: np.ndarray | None
    radii: np.ndarray | None
    total: float
    witness: np.ndarray           # per input ball: cover element index
    witness_ratio: np.ndarray     # l/r (cubes) or containment slack (balls)
    constants: dict = field(default_factory=dict)

    @property
    def n_elements(self) -> int:
        if self.kind == "cubes":
            return len(self.levels)
        return len(self.radii)

    def cube_sides(self) -> np.ndarray:
        return self.lattice.l0 * 2.0 ** (-self.levels.astype(np.float64))

    def cube_corners(self) -> np.ndarray:
        return self.lattice.corner[None, :] + self.indices * self.cube_sides()[:, None]


def regularized_cover(F: BallFamily, beta: float, lattice: DyadicLattice | None = None,
                      budget_factor: int = 64,
                      initial_cover: CubeUnion | None = None) -> ContentCover:
    """Dyadic cover of a ball union with per-ball comparable cube sizes.

    Starts from the exact dyadic-content optimizer's cover of the rasterized
    union, then repeatedly picks a ball all of whose intersecting cubes are
    smaller than c*r (largest radius first, lexicographic center tie-break),
    removes those cubes, and adds the at most 2^d cubes of sidelength in
    [4r, 8r) meeting the doubled ball.  Each swap strictly decreases the
    total for beta < 1; a hard budget of ``budget_factor * |F|`` swaps guards
    the loop and exhaustion raises (it indicates a bug, not an input).
    """
    d = F.d
    if not (0 < beta < d):
        raise ValueError("regularized_cover needs 0 < beta < d")
    c, c_prime = proof_constants(beta, d)
    if c * math.sqrt(d) >= 1.0:
        raise AssertionError("violated cubes must sit inside the doubled ball")
    lat = lattice or unit_lattice(d)
    if F.n_balls == 0:
        empty = np.zeros((0, d), dtype=np.int64)
        return ContentCover(kind="cubes", beta=beta, lattice=lat,
                            levels=np.zeros(0, dtype=np.int64), indices=empty,
                            centers=None, radii=None, total=0.0,
                            witness=np.zeros(0, dtype=np.int64),
                            witness_ratio=np.zeros(0),
                            constants={"c": c, "c_prime": c_prime,
                                       "C_impl": 0.0, "swaps": 0,
                                       "raster_content": 0.0})
    r_min = float(np.min(F.radii))
    cell_level = int(math.ceil(math.log2(lat.l0 / (r_min / 4.0))))
    raster = rasterize_balls(F, lat, cell_level)
    raster_content, cover0 = dyadic_content_cover(raster, beta)
    if initial_cover is not None:
        cover0 = initial_cover
    # the cover as distinct rows (level, index...) in lexicographic order
    rows, _, _ = _unique_rows(np.column_stack([cover0.levels, cover0.indices]))
    swaps = 0
    budget = budget_factor * F.n_balls
    while True:
        lv, ix = rows[:, 0], rows[:, 1:]
        sides = lat.l0 * 2.0 ** (-lv.astype(np.float64))
        corners = lat.corner[None, :] + ix * sides[:, None]
        violated = []
        for bi in range(F.n_balls):
            dist = _cube_ball_dist(corners, sides, F.centers[bi])
            meets = dist <= F.radii[bi]
            if not np.any(meets):
                raise AssertionError("cover lost a ball")
            if np.max(sides[meets]) < c * F.radii[bi]:
                violated.append(bi)
        if not violated:
            break
        if swaps >= budget:
            raise RuntimeError("covering regularization failed to stabilize "
                               f"within {budget} swaps")
        radii_v = F.radii[violated]
        big = radii_v > np.max(radii_v) / 2.0
        pool = [violated[i] for i in range(len(violated)) if big[i]]
        pool.sort(key=lambda bi: (-F.radii[bi], tuple(F.centers[bi])))
        bi = pool[0]
        x, r = F.centers[bi], F.radii[bi]
        # replacement level: 4r <= side < 8r, so the doubled ball (diameter
        # 4r) meets at most 2 cubes per axis
        k_new = int(math.floor(math.log2(lat.l0 / (4.0 * r))))
        side_new = lat.side(k_new)
        lo = np.floor((x - 2 * r - lat.corner) / side_new).astype(np.int64)
        hi = np.floor((x + 2 * r - lat.corner) / side_new).astype(np.int64)
        cand = lattice_points([np.arange(lo[a], hi[a] + 1) for a in range(d)])
        cc = lat.corner[None, :] + cand * side_new
        keep = _cube_ball_dist(cc, side_new, x) <= 2 * r
        new_cubes = cand[keep]
        if len(new_cubes) > 2 ** d:
            raise AssertionError("replacement produced more than 2^d cubes")
        dist = _cube_ball_dist(corners, sides, x)
        added = np.column_stack([np.full(len(new_cubes), k_new), new_cubes])
        rows, _, _ = _unique_rows(np.vstack([rows[dist > r], added]))
        swaps += 1

    witness = np.zeros(F.n_balls, dtype=np.int64)
    ratio = np.zeros(F.n_balls)
    for bi in range(F.n_balls):
        dist = _cube_ball_dist(corners, sides, F.centers[bi])
        meets = np.nonzero(dist <= F.radii[bi])[0]
        j = meets[np.argmax(sides[meets])]
        witness[bi] = j
        ratio[bi] = sides[j] / F.radii[bi]
    total = float(np.sum(sides ** beta))
    c_impl = total / raster_content if raster_content > 0 else 0.0
    return ContentCover(kind="cubes", beta=beta, lattice=lat, levels=lv,
                        indices=ix, centers=None, radii=None, total=total,
                        witness=witness, witness_ratio=ratio,
                        constants={"c": c, "c_prime": c_prime, "C_impl": c_impl,
                                   "swaps": swaps,
                                   "raster_content": raster_content,
                                   "cell_level": cell_level})


def ball_cover(F: BallFamily, beta: float, lattice: DyadicLattice | None = None) -> ContentCover:
    """Ball covering with every input ball contained in one covering ball.

    Dilates the regularized cover's cubes to balls of radius
    ``side * (sqrt(d)/2 + 2/c)``: the witness inequality l >= c r makes the
    witness cube's dilate swallow the input ball.
    """
    reg = regularized_cover(F, beta, lattice=lattice)
    d = F.d
    c = reg.constants["c"]
    if reg.n_elements == 0:
        return ContentCover(kind="balls", beta=beta, lattice=None, levels=None,
                            indices=None, centers=np.zeros((0, d)),
                            radii=np.zeros(0), total=0.0,
                            witness=np.zeros(0, dtype=np.int64),
                            witness_ratio=np.zeros(0), constants=reg.constants)
    sides = reg.cube_sides()
    centers = reg.cube_corners() + 0.5 * sides[:, None]
    radii = sides * (math.sqrt(d) / 2.0 + 2.0 / c)
    omega = ball_volume_constant(beta)
    total = float(np.sum(omega * radii ** beta))
    slack = np.zeros(F.n_balls)
    for bi in range(F.n_balls):
        j = reg.witness[bi]
        need = float(np.linalg.norm(F.centers[bi] - centers[j])) + F.radii[bi]
        slack[bi] = radii[j] - need
    if np.any(slack < -1e-9):
        raise AssertionError("ball cover containment failed")
    consts = dict(reg.constants)
    consts["dilate_factor"] = math.sqrt(d) / 2.0 + 2.0 / c
    return ContentCover(kind="balls", beta=beta, lattice=None, levels=None,
                        indices=None, centers=centers, radii=radii, total=total,
                        witness=reg.witness.copy(), witness_ratio=slack,
                        constants=consts)


def spherical_content_upper(obj, beta: float, lattice: DyadicLattice | None = None) -> float:
    """Greedy upper bound for the spherical Hausdorff content.

    Always at least the true content: it is the min of the self-cover cost
    and the circumscribed-ball cost of a regularized/optimal cube cover.
    """
    omega = ball_volume_constant(beta)
    if isinstance(obj, BallFamily):
        if obj.n_balls == 0:
            return 0.0
        self_cover = float(np.sum(omega * obj.radii ** beta))
        if beta >= obj.d:
            return self_cover
        reg = regularized_cover(obj, beta, lattice=lattice)
        circ = float(np.sum(omega * (reg.cube_sides() * math.sqrt(obj.d) / 2.0) ** beta))
        return min(self_cover, circ)
    E: CubeUnion = obj
    if E.n_cubes == 0:
        return 0.0
    d = E.lattice.d
    direct = float(np.sum(omega * (E.sides() * math.sqrt(d) / 2.0) ** beta))
    _, cov = dyadic_content_cover(E, beta)
    via_cover = float(np.sum(omega * (cov.sides() * math.sqrt(d) / 2.0) ** beta))
    return min(direct, via_cover)


# ---------------------------------------------------------------------------
# Choquet integration
# ---------------------------------------------------------------------------

def choquet_integral(cells, values, lattice: DyadicLattice, level: int,
                     beta: float, domain: Cube | None = None,
                     thresholds=None, n_thresholds: int = 64) -> float:
    """Layer-cake integral of f >= 0 against the dyadic content.

    ``cells`` are level-``level`` lattice indices carrying the samples of f;
    the sum ``sum_j (t_{j+1}-t_j) * content({f > t_j})`` with left endpoints
    converges to the integral from above as thresholds refine.  Thresholds
    default to 0 followed by ``n_thresholds`` geometric levels between the
    smallest positive sample and the max.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    cells = np.asarray(cells, dtype=np.int64).reshape(len(values), lattice.d)
    if np.any(values < 0):
        raise ValueError("Choquet integration needs nonnegative samples")
    if domain is not None:
        side = lattice.side(level)
        centers = lattice.corner[None, :] + (cells + 0.5) * side
        rel = centers - domain.corner[None, :]
        keep = np.all((rel >= 0) & (rel < domain.side), axis=1)
        cells, values = cells[keep], values[keep]
    pos = values[values > 0]
    if len(pos) == 0:
        return 0.0
    vmax = float(np.max(pos))
    if thresholds is None:
        vmin = float(np.min(pos))
        if vmin >= vmax:
            thresholds = np.array([0.0, vmax])
        else:
            thresholds = np.concatenate([[0.0],
                                         np.geomspace(vmin, vmax, n_thresholds)])
    thresholds = np.asarray(thresholds, dtype=np.float64)
    thresholds = np.unique(thresholds[thresholds <= vmax])
    if thresholds[0] != 0.0:
        thresholds = np.concatenate([[0.0], thresholds])
    if thresholds[-1] < vmax:
        thresholds = np.concatenate([thresholds, [vmax]])
    total = 0.0
    for j in range(len(thresholds) - 1):
        t = thresholds[j]
        mask = values > t
        if not np.any(mask):
            continue
        E = CubeUnion.build(lattice, np.full(int(np.sum(mask)), level), cells[mask])
        total += (thresholds[j + 1] - t) * dyadic_content(E, beta)
    return total
