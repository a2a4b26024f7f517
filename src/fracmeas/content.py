"""Hausdorff content (dyadic exact, spherical upper bound), covering
regularization, and Choquet integration.

A set of dyadic cubes is a pair of int64 arrays, ``levels`` (m,) and
``indices`` (m, d); the level-j ancestor of a level-k cube is
``indices >> (k - j)``.  Distinct-cube builds, cover extraction and cover
edits are row operations on these arrays (sort, unique, searchsorted) with
no per-cube Python objects.

The dyadic content is computed for the distinct cells of one level, the
only sets the package measures (ball rasters, the supports of sampled
fields), exactly by a bottom-up sweep on their ancestor tree: ``cost(Q) =
min(l(Q)^beta, sum of child costs)``.  The tree is a list of levels, each
holding its nodes and every node's position among its parents one level up
(one ``_unique_rows`` per level), grown on demand while the sweep climbs.
The sweep ascends until no coarser cube could pay (a single cube at the next
level would already cost more than the current total), which makes the
result the true infimum over all dyadic covers.  The optimal cover is read
off top-down along the parent links: a node is in it when it chose itself
and its parent chose its children.

For a field sampled on cells, every node's cost is a decreasing step
function of the threshold t, ``cost_Q(t) = min(l(Q)^beta, sum of child
costs at t)``, the content of the level set ``{f > t}`` below Q.  One climb
of the same tree carries these step functions as jumps (value, drop), so it
gives the content of every level set at once, and the Choquet integral is
the finite sum of value times drop (D. R. Adams, "Choquet integrals in
potential theory", Publ. Mat. 42, 1998).

Ball geometry works by rows: a row is a line of cells along the last axis,
all other indices fixed, and a ball meets a row in an interval of cells.  A
raster settles each row's interval ends from the chord half-width and merges
the intervals per row, with no sort over cells (``measures._row_runs``, as
for the heat functional's grids).  A cover's witnesses are found per level
block of its sorted rows, each ball searching only the rows of its own index
box, in doubling windows, by ``searchsorted`` on packed index keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._gamma import gamma
from .measures import (DyadicLattice, _cube_ball_dist, _row_heads, _row_norms,
                       _row_runs, _run_cells, _unique_rows, unit_lattice)


def ball_volume_constant(beta: float) -> float:
    """omega_beta = pi^{beta/2} / Gamma(beta/2 + 1).

    Gamma is ``_gamma.gamma``, scipy's bit for bit without importing
    ``scipy.special``.  (Not ``math.gamma``: it differs from scipy's in the
    last bits at most betas.)
    """
    return math.pi ** (beta / 2.0) / gamma(beta / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# cube unions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubeUnion:
    """Finite set of distinct dyadic cubes of one lattice, ``levels`` (m,)
    and ``indices`` (m, d)."""

    lattice: DyadicLattice
    levels: np.ndarray
    indices: np.ndarray

    @classmethod
    def build(cls, lattice: DyadicLattice, levels, indices) -> "CubeUnion":
        """The distinct input cubes, in input order (a repeat is dropped)."""
        levels = np.asarray(levels, dtype=np.int64).reshape(-1)
        indices = np.asarray(indices, dtype=np.int64).reshape(len(levels), lattice.d)
        _, first, _ = _unique_rows(np.column_stack([levels, indices]))
        keep = np.sort(first)
        return cls(lattice=lattice, levels=levels[keep], indices=indices[keep])

    @property
    def n_cubes(self) -> int:
        return len(self.levels)


# ---------------------------------------------------------------------------
# exact dyadic content
# ---------------------------------------------------------------------------

class _AncestorTree:
    """Ancestor links of the distinct ``cells`` of one ``level``, one level
    at a time.

    ``nodes[0]`` holds the cells, and ``nodes[i]`` the distinct parents of
    ``nodes[i - 1]``, of level ``k_bottom - i``, in lexicographic order.
    ``up[i]`` is the position of each node of ``nodes[i]`` in
    ``nodes[i + 1]``.  ``grow`` adds the next coarser level.
    """

    def __init__(self, lattice: DyadicLattice, level: int, cells):
        self.lattice = lattice
        self.k_bottom = int(level)
        self.nodes = [cells]
        self.up = []

    def grow(self):
        uniq, _, inv = _unique_rows(self.nodes[-1] >> 1)
        self.up.append(inv)
        self.nodes.append(uniq)


def _content_sweep(tree: _AncestorTree, beta: float):
    """Bottom-up cost sweep of the tree's cells.

    Returns the total and, finest level first, the chose-itself flags of
    every level swept.
    """
    lat = tree.lattice
    k = tree.k_bottom
    costs = np.full(len(tree.nodes[0]), lat.side(k) ** beta)
    choices = [np.ones(len(costs), dtype=bool)]
    i = 0
    while True:
        total = float(np.sum(costs))
        own = lat.side(k - 1) ** beta
        if len(costs) <= 1 or own >= total:
            return total, choices
        if i + 1 == len(tree.nodes):
            tree.grow()
        sums = np.bincount(tree.up[i], weights=costs, minlength=len(tree.nodes[i + 1]))
        k -= 1
        i += 1
        choice_self = own <= sums
        costs = np.where(choice_self, own, sums)
        choices.append(choice_self)


def _tree_of(E: CubeUnion) -> _AncestorTree:
    """The ancestor tree of a nonempty union of one level's cubes; a
    ``ValueError`` for cubes of several levels."""
    k_lo, k_hi = int(E.levels.min()), int(E.levels.max())
    if k_lo != k_hi:
        raise ValueError(f"cubes at levels {k_lo} to {k_hi}: the dyadic content "
                         "takes the cells of one level")
    return _AncestorTree(E.lattice, k_lo, E.indices)


def dyadic_content(E: CubeUnion, beta: float) -> float:
    """Exact infimum of sum l(Q)^beta over dyadic covers of E, whose cubes
    must all have one level."""
    if not (0 < beta <= E.lattice.d):
        raise ValueError("beta must lie in (0, d]")
    if E.n_cubes == 0:
        return 0.0
    total, _ = _content_sweep(_tree_of(E), beta)
    return total


def dyadic_content_cover(E: CubeUnion, beta: float):
    """Exact content together with an optimal cover (as a CubeUnion) of E,
    whose cubes must all have one level."""
    if not (0 < beta <= E.lattice.d):
        raise ValueError("beta must lie in (0, d]")
    lat = E.lattice
    if E.n_cubes == 0:
        return 0.0, CubeUnion(lattice=lat, levels=np.zeros(0, dtype=np.int64),
                              indices=np.zeros((0, lat.d), dtype=np.int64))
    tree = _tree_of(E)
    total, choices = _content_sweep(tree, beta)
    levels, indices = [], []
    expanded = None
    for i in reversed(range(len(choices))):
        # a node is in the cover when it chose itself and its parent was
        # expanded; every node of the top level is reached
        reached = np.ones(len(choices[i]), dtype=bool) if expanded is None \
            else expanded[tree.up[i]]
        pick = reached & choices[i]
        levels.append(np.full(np.count_nonzero(pick), tree.k_bottom - i, dtype=np.int64))
        indices.append(tree.nodes[i][pick])
        expanded = reached & ~choices[i]
    return total, CubeUnion(lattice=lat, levels=np.concatenate(levels),
                           indices=np.vstack(indices))


def _layer_cake(cells, values, lattice: DyadicLattice, level: int,
                beta: float):
    """t -> H_beta({f > t}) of f >= 0 sampled on level-``level`` cells, as
    jumps: the content is ``sum(drop[tau > t])``.

    A repeated cell carries its largest sample.  Each node's cost is the
    step function ``cost_Q(t) = min(l(Q)^beta, sum of child costs)``; a
    distinct support cell is the one jump (its peak, l(cell)^beta).  Per
    level every jump moves to its parent; sorted by (parent, -tau), each
    jump's running sum ``above`` over its parent's larger jumps gives the
    capped step function, ``drop = min(drop, own - above)`` where ``above <
    own``.  The climb stops where the sweep of the whole support stops:
    H(t) <= H(0+), so no coarser cube caps any t.
    """
    if not (0 < beta <= lattice.d):
        raise ValueError("beta must lie in (0, d]")
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    cells = np.asarray(cells, dtype=np.int64).reshape(len(values), lattice.d)
    bad = values[~np.isfinite(values)]
    if len(bad):
        raise ValueError(f"a sample is {bad[0]}: Choquet integration needs finite samples")
    if np.any(values < 0):
        raise ValueError("Choquet integration needs nonnegative samples")
    support = values > 0
    leaves, _, inv = _unique_rows(cells[support])
    tau = np.zeros(len(leaves))
    np.maximum.at(tau, inv, values[support])
    tree = _AncestorTree(lattice, level, leaves)
    node = np.arange(len(leaves))
    drop = np.full(len(leaves), lattice.side(level) ** beta)
    k, i = int(level), 0
    while True:
        own = lattice.side(k - 1) ** beta
        if len(tree.nodes[i]) <= 1 or own >= np.sum(drop):
            return tau, drop
        if i + 1 == len(tree.nodes):
            tree.grow()
        parent = tree.up[i][node]
        order = np.lexsort((-tau, parent))
        parent, tau, drop = parent[order], tau[order], drop[order]
        # running sums restart at each parent's first jump
        head = np.flatnonzero(np.diff(parent, prepend=-1))
        above = np.cumsum(drop) - drop
        above -= np.repeat(above[head], np.diff(head, append=len(parent)))
        keep = above < own
        node, tau = parent[keep], tau[keep]
        drop = np.minimum(drop[keep], own - above[keep])
        k -= 1
        i += 1


# ---------------------------------------------------------------------------
# ball families, rasterization, covering regularization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallFamily:
    centers: np.ndarray          # (m, d)
    radii: np.ndarray            # (m,)

    def __post_init__(self):
        for what, values in (("radius", self.radii), ("centre coordinate", self.centers)):
            bad = values[~np.isfinite(values)]
            if len(bad):
                raise ValueError(f"a ball {what} is {bad[0]}: it must be finite")
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


def _runs(counts):
    """For runs of lengths ``counts`` laid end to end: each slot's run and
    its offset within the run."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


# cells of the balls' index boxes that one raster may search: a bound on the
# rows it searches and the cells it returns (radii far apart put the large
# balls at the level of the small)
_RASTER_CELLS = 1 << 24


def rasterize_balls(F: BallFamily, lattice: DyadicLattice, level: int) -> CubeUnion:
    """All level-``level`` cells intersecting the union of balls, found row
    by row in each ball's index box (``measures._row_runs``); a
    ``ValueError`` if the boxes hold more than ``_RASTER_CELLS`` cells."""
    side = lattice.side(level)
    radii = F.radii[:, None]
    lo = lattice.index_of(F.centers - radii, level)
    hi = lattice.index_of(F.centers + radii, level)
    # in float: the spans of int64 indices can overflow int64
    boxes = float(np.sum(np.prod(hi.astype(np.float64) - lo + 1, axis=1)))
    if boxes > _RASTER_CELLS:
        raise ValueError(f"radii {np.min(F.radii):.3g} to {np.max(F.radii):.3g} need "
                         f"{boxes:.3g} cells at raster level {level}, over {_RASTER_CELLS}")
    idx = _run_cells(*_row_runs(F.centers, F.radii, lattice.corner, side, side, lo, hi))
    # the cells are distinct, as a CubeUnion's cubes must be
    return CubeUnion(lattice=lattice, levels=np.full(len(idx), level, dtype=np.int64),
                     indices=idx)


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
    """A dyadic cube cover, its beta-content and witnesses; ball covers add balls."""

    beta: float
    lattice: DyadicLattice
    levels: np.ndarray
    indices: np.ndarray
    total: float
    witness: np.ndarray           # per input ball: cover element index
    witness_ratio: np.ndarray     # l/r (cubes) or containment slack (balls)
    constants: dict = field(default_factory=dict)
    centers: np.ndarray | None = None
    radii: np.ndarray | None = None

    @property
    def n_elements(self) -> int:
        return len(self.levels)

    def cube_sides(self) -> np.ndarray:
        return self.lattice.side(self.levels)

    def cube_corners(self) -> np.ndarray:
        return self.lattice.corner[None, :] + self.indices * self.cube_sides()[:, None]


# temporaries of one witness scan chunk, in float64 entries (0.5 MB)
_SCAN_FLOATS = 2 ** 16
# swaps allowed per ball before covering regularization gives up
_SWAPS_PER_BALL = 64
# (pending ball, cube) pairs up to which a level block is scanned whole: the
# measured crossover.  Over the 553 level blocks of the content workload's
# covers for seeds 2001-2012, the whole scan was faster in 405 of the 406
# blocks at or below this count and the windows in 145 of the 147 above it
_WHOLE_SCAN_PAIRS = 3 * 2 ** 10


def _first_meeting(F: BallFamily, witness, balls, left, right, corners_of, offset):
    """Give each ball of ``balls`` still without a witness its first meeting
    cube among rows ``left:right`` of a block (a ball may take several
    ranges; its ranges follow one another in row order), in chunks of
    (ball, cube) pairs whose temporaries stay near ``_SCAN_FLOATS``."""
    counts = right - left
    ends = np.cumsum(counts)
    limit = max(1, _SCAN_FLOATS // F.d)
    s = 0
    while s < len(counts):
        e = max(s + 1, int(np.searchsorted(ends, ends[s] - counts[s] + limit, "right")))
        pair, off = _runs(counts[s:e])
        owner, pos = balls[s:e][pair], left[s:e][pair] + off
        hit = np.flatnonzero(_cube_ball_dist(*corners_of(pos), F.centers[owner])
                             <= F.radii[owner])
        # a ball's pairs are contiguous and in row order: its first hit is
        # its first meeting cube
        first = hit[np.diff(owner[hit], prepend=-1) != 0]
        free = witness[owner[first]] < 0
        witness[owner[first[free]]] = offset + pos[first[free]]
        s = e


def _witnesses(F: BallFamily, lattice: DyadicLattice, levels, indices) -> np.ndarray:
    """Each ball's largest meeting cover cube, the first among equal sides.

    The cover's rows are distinct and sorted by (level, index), so sides
    never increase along them and the first meeting row is that cube.  One
    pass takes the level blocks in that order.  In a block, a ball still
    without a witness tests only the cubes in its index box widened by one
    cell on each side (rounding moves a meeting cube's index by less than
    one): the box's rows (all axes but the last fixed) are found by
    ``searchsorted`` on the block's packed index keys and taken in doubling
    windows of 1, 2, 4, ... rows until a window holds a meeting cube, whose
    first one in row order is the witness a scan of the whole block finds.
    A block with at most ``_WHOLE_SCAN_PAIRS`` (pending ball, cube) pairs,
    or whose index spans do not pack into one int64 key, is scanned whole.
    """
    d = F.d
    witness = np.full(F.n_balls, -1, dtype=np.int64)
    bounds = np.flatnonzero(np.diff(levels, prepend=levels[:1] - 1, append=levels[-1:] + 1))
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        pending = np.flatnonzero(witness < 0)
        if len(pending) == 0:
            break
        level = int(levels[b0])
        side = lattice.side(level)
        ix = indices[b0:b1]

        def corners_of(pos):
            return lattice.corner[None, :] + ix[pos] * side, side

        mn, mx = ix.min(axis=0), ix.max(axis=0)
        spans = [int(s) for s in mx - mn + 1]
        if len(ix) * len(pending) <= _WHOLE_SCAN_PAIRS or math.prod(spans) >= 2 ** 63:
            _first_meeting(F, witness, pending, np.zeros(len(pending), dtype=np.int64),
                           np.full(len(pending), len(ix)), corners_of, b0)
            continue
        strides = np.array([math.prod(spans[a + 1:]) for a in range(d)], dtype=np.int64)
        keys = np.sum((ix - mn) * strides, axis=1)
        c, r = F.centers[pending], F.radii[pending, None]
        lo = np.maximum(lattice.index_of(c - r, level) - 1, mn)
        hi = np.minimum(lattice.index_of(c + r, level) + 1, mx)
        head_spans = hi[:, :-1] - lo[:, :-1] + 1
        n_rows = np.where(np.all(lo <= hi, axis=1), np.prod(head_spans, axis=1), 0)
        done = np.zeros(len(pending), dtype=np.int64)
        width = 1
        live = np.flatnonzero(n_rows > 0)
        while len(live):
            take = np.minimum(width, n_rows[live] - done[live])
            p, off = _runs(take)
            p = live[p]
            head = _row_heads(lo[p, :-1], head_spans[p], done[p] + off)
            row = np.sum((head - mn[:-1]) * strides[:-1], axis=1)
            left = np.searchsorted(keys, row + (lo[p, -1] - mn[-1]), "left")
            right = np.searchsorted(keys, row + (hi[p, -1] - mn[-1]), "right")
            _first_meeting(F, witness, pending[p], left, right, corners_of, b0)
            done[live] += take
            live = live[(witness[pending[live]] < 0) & (done[live] < n_rows[live])]
            width *= 2
    if np.any(witness < 0):
        raise AssertionError("cover lost a ball")
    return witness


def _cell_level(F: BallFamily, lattice: DyadicLattice) -> int:
    """Raster level of a ball family: the coarsest with cells of side at
    most a quarter of the smallest radius (0 for a family with no balls)."""
    if F.n_balls == 0:
        return 0
    r_min = float(np.min(F.radii))
    return int(math.ceil(math.log2(lattice.l0 / (r_min / 4.0))))


def regularized_cover(F: BallFamily, beta: float,
                      initial_cover: CubeUnion | None = None) -> ContentCover:
    """Dyadic cover of a ball union, on the unit lattice, with per-ball
    comparable cube sizes.

    Starts from the exact dyadic-content optimizer's cover of the rasterized
    union (or from ``initial_cover``, and then only the raster's content is
    computed), then repeatedly picks a ball all of whose intersecting cubes
    are smaller than c*r (largest radius first, lexicographic center
    tie-break), removes those cubes, and adds the at most 2^d cubes of
    sidelength in [4r, 8r) meeting the doubled ball.  Each swap strictly
    decreases the total for beta < 1; a hard budget of ``_SWAPS_PER_BALL *
    |F|`` swaps guards the loop and exhaustion raises (it indicates a bug,
    not an input).
    """
    d = F.d
    if not (0 < beta < d):
        raise ValueError("regularized_cover needs 0 < beta < d")
    c, c_prime = proof_constants(beta, d)
    if c * math.sqrt(d) >= 1.0:
        raise AssertionError("violated cubes must sit inside the doubled ball")
    lat = unit_lattice(d)
    cell_level = _cell_level(F, lat)
    raster = rasterize_balls(F, lat, cell_level)
    if initial_cover is None:
        raster_content, cover0 = dyadic_content_cover(raster, beta)
    else:
        raster_content, cover0 = dyadic_content(raster, beta), initial_cover
    # the cover as distinct rows (level, index...) in lexicographic order
    rows, _, _ = _unique_rows(np.column_stack([cover0.levels, cover0.indices]))
    swaps = 0
    budget = _SWAPS_PER_BALL * F.n_balls
    while True:
        lv, ix = rows[:, 0], rows[:, 1:]
        sides = lat.side(lv)
        witness = _witnesses(F, lat, lv, ix)
        violated = np.nonzero(sides[witness] < c * F.radii)[0]
        if len(violated) == 0:
            break
        if swaps >= budget:
            raise RuntimeError("covering regularization failed to stabilize "
                               f"within {budget} swaps")
        # largest radius first, then the lexicographically least centre
        keys = (*F.centers[violated].T[::-1], -F.radii[violated])
        bi = violated[np.lexsort(keys)[0]]
        x, r = F.centers[bi], F.radii[bi]
        # replacement level: 4r <= side < 8r, so the doubled ball (diameter
        # 4r) meets at most 2 cubes per axis
        k_new = int(math.floor(math.log2(lat.l0 / (4.0 * r))))
        new_cubes = rasterize_balls(make_ball_family(x, 2 * r), lat, k_new).indices
        if len(new_cubes) > 2 ** d:
            raise AssertionError("replacement produced more than 2^d cubes")
        dist = _cube_ball_dist(lat.corner[None, :] + ix * sides[:, None], sides, x)
        added = np.column_stack([np.full(len(new_cubes), k_new), new_cubes])
        rows, _, _ = _unique_rows(np.vstack([rows[dist > r], added]))
        swaps += 1

    ratio = sides[witness] / F.radii
    total = float(np.sum(sides ** beta))
    c_impl = total / raster_content if raster_content > 0 else 0.0
    return ContentCover(beta=beta, lattice=lat, levels=lv, indices=ix, total=total,
                        witness=witness, witness_ratio=ratio,
                        constants={"c": c, "c_prime": c_prime, "C_impl": c_impl,
                                   "swaps": swaps,
                                   "raster_content": raster_content,
                                   "cell_level": cell_level})


def ball_cover(F: BallFamily, beta: float) -> ContentCover:
    """Ball covering with every input ball contained in one covering ball.

    Dilates the regularized cover's cubes to balls of radius
    ``side * (sqrt(d)/2 + 2/c)``: the witness inequality l >= c r makes the
    witness cube's dilate swallow the input ball.  The result keeps the
    cubes; ``witness_ratio`` holds each input ball's containment slack.
    """
    reg = regularized_cover(F, beta)
    dilate = math.sqrt(F.d) / 2.0 + 2.0 / reg.constants["c"]
    sides = reg.cube_sides()
    centers = reg.cube_corners() + 0.5 * sides[:, None]
    radii = sides * dilate
    omega = ball_volume_constant(beta)
    dist = _row_norms(F.centers - centers[reg.witness])
    slack = radii[reg.witness] - (dist + F.radii)
    if np.any(slack < -1e-9):
        raise AssertionError("ball cover containment failed")
    return replace(reg, centers=centers, radii=radii,
                   total=float(np.sum(omega * radii ** beta)), witness_ratio=slack,
                   constants={**reg.constants, "dilate_factor": dilate})


def spherical_content_upper(F: BallFamily, beta: float,
                            cover: ContentCover | None = None) -> float:
    """Greedy upper bound for the spherical Hausdorff content of a ball union.

    Always at least the true content: it is the min of the self-cover cost
    and the circumscribed-ball cost of the regularized cube cover (the
    self-cover alone at beta >= d).  The regularized cover is computed here
    unless the caller passes the one it holds as ``cover``.
    """
    omega = ball_volume_constant(beta)
    self_cover = float(np.sum(omega * F.radii ** beta))
    if beta >= F.d:
        return self_cover
    reg = regularized_cover(F, beta) if cover is None else cover
    circ = float(np.sum(omega * (reg.cube_sides() * math.sqrt(F.d) / 2.0) ** beta))
    return min(self_cover, circ)


# ---------------------------------------------------------------------------
# Choquet integration
# ---------------------------------------------------------------------------

def choquet_integral(cells, values, lattice: DyadicLattice, level: int,
                     beta: float) -> float:
    """Choquet integral of f >= 0 against the dyadic content, exactly.

    ``cells`` are level-``level`` lattice indices carrying the finite
    samples of f, so f is a step function and its layer cake ``int_0^inf
    H_beta({f > t}) dt`` is the finite sum ``sum(tau * drop)`` over the
    jumps of ``_layer_cake``.  A negative or non-finite sample is a
    ``ValueError``.
    """
    tau, drop = _layer_cake(cells, values, lattice, level, beta)
    return float(np.sum(tau * drop))
