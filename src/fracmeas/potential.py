"""Riesz potentials, Lorentz rearrangement norms, the split heat-integral
functional behind the strong-type inequality, and trace integrals.

Gamma comes from ``_gamma.gamma``, bit for bit scipy's, so the Riesz
constant costs no ``scipy.special`` import: that loads on first use inside
``riesz_heat``, for its incomplete gammas, and no ``fracmeas verify`` target
pays its start-up cost.

The heat-integral functional's quadrature grids, one per time node, come
from one vectorized pass over groups of nodes (``_adaptive_heat_grids``):
for each (node, mass, lattice row) the points within the pad form one run
along the row, whose ends are estimated from the chord and settled with the
exact distance test, and the runs are merged with a difference array.  Each
grid holds the points a search of the node's whole lattice keeps, in the
same order.

Lorentz convention, fixed for every constant reported from this module:
``||f||_{p,1} = integral_0^inf t^{1/p - 1} f*(t) dt`` with f* the decreasing
rearrangement weighted by cell volume (equals ``p * integral lambda_f(s)^{1/p}
ds``); an indicator of volume V has norm ``p V^{1/p}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._gamma import gamma
from .heat import TGrid
from .measures import GridMeasure, SampledField


@dataclass(frozen=True)
class RieszConfig:
    """Order alpha in (0, d) with the classical normalization constant."""

    alpha: float
    d: int

    def __post_init__(self):
        if not (0.0 < self.alpha < self.d):
            raise ValueError("alpha must lie in (0, d)")

    @property
    def gamma_alpha(self) -> float:
        a, d = self.alpha, self.d
        return math.pi ** (d / 2.0) * 2.0 ** a * gamma(a / 2.0) / gamma((d - a) / 2.0)


def riesz_kernel(cfg: RieszConfig, mu: GridMeasure, points, rows=None) -> np.ndarray:
    """Direct kernel sum ``(1/gamma(alpha)) sum w_m |x - y_m|^{alpha-d}``.

    Evaluation at a point mass location records the +inf sentinel.  With
    ``rows`` (strictly increasing indices into ``points``) only those points
    are evaluated and returned, each bit for bit its value in the full
    evaluation: the pair driver keeps the fixed row blocks of all the points
    (``_kernels._pair_sums``).
    """
    hot = []

    def power_terms(d2):
        kern = np.sqrt(d2, out=d2)
        kern **= cfg.alpha - cfg.d
        yield kern
        # an infinite term only spoils its own row, which is set afterwards
        hot.append(np.isinf(kern).any(axis=1))

    with np.errstate(divide="ignore", invalid="ignore"):
        out = _kernels._pair_sums(points, mu.points(), mu.weights,
                                  lambda d: np.ones(1), power_terms, rows)[:, 0]
    if hot:
        out[np.concatenate(hot)] = np.inf
    return out / cfg.gamma_alpha


def riesz_field(cfg: RieszConfig, mu: GridMeasure, origin, spacing: float,
                shape, at) -> SampledField:
    """The Riesz potential at the nodes ``origin + i * spacing`` of a grid
    that ``interpolate(at)`` reads, for points ``at`` inside the grid.

    Only those nodes are evaluated (``SampledField.stencil``), each equal to
    its value in a full evaluation ``riesz_kernel(cfg, mu, fld.points())``
    bit for bit; every other node holds NaN, so a read outside them shows.
    """
    shape = tuple(int(v) for v in np.atleast_1d(shape))
    fld = SampledField(origin=np.asarray(origin, dtype=np.float64),
                       spacing=float(spacing), values=np.full(shape, np.nan))
    rows = np.unique(fld.stencil(at)[0])
    # a view: writes land in the field
    fld.values.reshape(-1)[rows] = riesz_kernel(cfg, mu, fld.points(), rows)
    return fld


@dataclass(frozen=True)
class RieszHeatResult:
    values: np.ndarray
    quad_error_est: float
    flagged: bool
    t_window: tuple


def _log_trapezoid_weights(nodes):
    u = np.log(nodes)
    w = np.zeros_like(nodes)
    w[1:-1] = 0.5 * (u[2:] - u[:-2])
    w[0] = 0.5 * (u[1] - u[0])
    w[-1] = 0.5 * (u[-1] - u[-2])
    return w * nodes


def riesz_heat(cfg: RieszConfig, mu: GridMeasure, points) -> RieszHeatResult:
    """Riesz potential via the time integral of heat extensions.

    Log-trapezoid quadrature over a TGrid of 32 nodes per decade from
    (r_lo/8)^2 to (8 r_hi)^2, r_lo and r_hi the least and greatest
    point-mass distances (r_hi widened by the support), plus exact power-law
    tail corrections at both ends (incomplete-gamma closed forms, valid for
    point masses).  The result is flagged when halving the node density
    moves the quadrature by more than 1e-4 relative.
    """
    from scipy.special import gammainc, gammaincc

    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if mu.n_masses == 0:
        return RieszHeatResult(values=np.zeros(len(pts)), quad_error_est=0.0,
                               flagged=False, t_window=(0.0, 0.0))
    y = mu.points()
    dists = np.empty((len(pts), len(y)))
    for s, e, d2 in _kernels.pairwise_sq_dists(pts, y, 4096):
        dists[s:e] = np.sqrt(d2)
    positive = dists[dists > 0]
    r_lo = float(np.min(positive)) if len(positive) else mu.h
    r_hi = float(np.max(dists)) + mu.support_diameter() + mu.h
    tgrid = TGrid.build((r_lo / 8.0) ** 2, (8.0 * r_hi) ** 2, 32)
    a, d = cfg.alpha, cfg.d
    ga2 = gamma(a / 2.0)
    field = _kernels.heat_values(pts, y, mu.weights, tgrid.nodes)

    def quad(sel):
        nodes = tgrid.nodes[sel]
        w = _log_trapezoid_weights(nodes) * nodes ** (a / 2.0 - 1.0)
        return (field[:, sel] * w[None, :]).sum(axis=1) / ga2

    all_sel = np.arange(len(tgrid.nodes))
    main = quad(all_sel)
    # half-density comparison grid keeps both endpoints (the analytic tails
    # are anchored at t_min and t_max)
    half_sel = np.unique(np.concatenate([all_sel[::2], [all_sel[-1]]]))
    half = quad(half_sel)
    # exact tails: integral over (0, t_min] resp. [t_max, inf) of the kernel
    shape_par = (d - a) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = dists ** (a - d)
        lowtail_frac = gammaincc(shape_par, dists ** 2 / (4.0 * tgrid.t_min))
        hightail_frac = gammainc(shape_par, dists ** 2 / (4.0 * tgrid.t_max))
        tails = np.where(dists > 0, kern * (lowtail_frac + hightail_frac), np.inf)
    hot = np.any(np.isinf(tails) & (np.abs(mu.weights)[None, :] > 0), axis=1)
    tailsum = np.where(np.isinf(tails), 0.0, tails) @ mu.weights / cfg.gamma_alpha
    values = main + tailsum
    values[hot] = np.inf
    finite = np.isfinite(values) & (np.abs(values) > 0)
    err = float(np.max(np.abs(main[finite] - half[finite])
                       / np.abs(values[finite]))) if np.any(finite) else 0.0
    return RieszHeatResult(values=values, quad_error_est=err,
                           flagged=err > 1e-4,
                           t_window=(tgrid.t_min, tgrid.t_max))


# ---------------------------------------------------------------------------
# Lorentz norms
# ---------------------------------------------------------------------------

def lorentz_norm(values, p: float, cell_volume: float) -> float:
    """L^{p,1} norm of the samples ``values``, one per cell of volume
    ``cell_volume`` (exact sum over sorted cells)."""
    if p <= 1.0:
        raise ValueError("need p > 1")
    v = np.abs(np.asarray(values, dtype=np.float64).ravel())
    v = v[v > 0]
    if len(v) == 0:
        return 0.0
    v = np.sort(v)[::-1]
    # the roots of the cumulative volumes, each taken once: a cell's lower
    # root is the cell before's upper one (the first cell's is 0.0)
    root = (cell_volume * np.arange(1, len(v) + 1, dtype=np.float64)) ** (1.0 / p)
    step = root.copy()
    step[1:] -= root[:-1]
    return float(np.sum(v * p * step))


# ---------------------------------------------------------------------------
# the split heat-integral functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BesovResult:
    """integral of t^{a/2-1} ||e^{t Delta} a||_{p,1} dt, split at l(Q)^2."""

    total: float
    below_split: float
    above_split: float
    tail_estimate: float
    p: float
    split_t: float
    t_window: tuple
    n_nodes: int
    flagged: bool


# transient bounds of the grid pass: lattice cells merged at once, and
# (node, mass, row) triples settled at once
_GRID_CELLS = 1 << 16
_GRID_ROWS = 1 << 12


def _adaptive_heat_grids(mu: GridMeasure, nodes):
    """Grids resolving scale sqrt(t) near the support (pad 8 sqrt(t)), one
    ``(points, spacing)`` per time node t, in node order.

    Node t keeps the points of its bounding-box lattice (axes
    ``np.arange(lo - pad, hi + pad + spacing, spacing)``, spacing
    ``max(h/2, sqrt(t)/4)``) within the pad of some mass, first axis
    slowest: squared axis differences are added in axis order, and a point
    is kept when ``sqrt(d2) <= pad``.  The nodes are taken in groups of at
    most ``_GRID_CELLS`` lattice cells (or one node), and each group's kept
    cells are found in one vectorized pass (``_grid_cover``): numpy is
    called per group and per chunk of about ``_GRID_ROWS`` lattice rows, not
    per node, and the pass's arrays stay bounded.  A node's points are
    gathered from its lattice when it is reached.
    """
    d = mu.d
    y = mu.points()
    lo, hi = mu.bbox()
    group, size = [], 0
    for t in np.asarray(nodes, dtype=np.float64).tolist():
        st = math.sqrt(t)
        spacing = max(mu.h / 2.0, st / 4.0)
        pad = 8.0 * st
        axes = [np.arange(lo[a] - pad, hi[a] + pad + spacing, spacing) for a in range(d)]
        cells = math.prod(len(ax) for ax in axes)
        if group and size + cells > _GRID_CELLS:
            yield from _group_grids(y, group)
            group, size = [], 0
        group.append((pad, spacing, axes))
        size += cells
    if group:
        yield from _group_grids(y, group)


def _group_grids(y, group):
    """``(points, spacing)`` of each node of a group, gathered from its
    lattice's kept cells when the node is reached."""
    near = _grid_cover(y, group)
    at = 0
    for _, spacing, axes in group:
        shape = [len(ax) for ax in axes]
        idx = np.nonzero(near[at:at + math.prod(shape)].reshape(shape))
        at += math.prod(shape)
        yield np.stack([ax[i] for ax, i in zip(axes, idx)], axis=1), spacing


def _grid_cover(y, group):
    """The kept cells of the lattices ``(pad, spacing, axes)`` of a group of
    nodes, laid end to end, each lattice first axis slowest.

    For one mass and one row of a lattice (indices fixed on all axes but the
    last) the kept points form a run, since d2 falls and then rises along
    the row.  Each run's ends are estimated from the chord half-width
    ``sqrt(pad^2 - g2)``, g2 the row's part of d2, then settled with the
    same test, for all (node, mass, row) triples of a chunk at once: an end
    that passes steps outward while the next point passes, one that fails
    steps toward the row's point nearest the mass until it passes (a row
    whose nearest point fails is empty).  The runs are merged with one
    difference array and its cumulative sum.
    """
    d = y.shape[1]
    pads = np.array([lat[0] for lat in group])
    steps = np.array([lat[1] for lat in group])
    lens = np.array([[len(ax) for ax in lat[2]] for lat in group], dtype=np.int64)
    # every node's axes laid end to end, and where each one starts
    axes = [np.concatenate([lat[2][a] for lat in group]) for a in range(d)]
    aoff = np.cumsum(lens, axis=0) - lens
    start = np.stack([axes[a][aoff[:, a]] for a in range(d)], axis=1)
    cells = np.prod(lens, axis=1)
    # each lattice's first cell, and its row-major strides
    first = np.cumsum(cells) - cells
    strides = np.ones((len(group), d), dtype=np.int64)
    for a in reversed(range(d - 1)):
        strides[:, a] = strides[:, a + 1] * lens[:, a + 1]
    # every (node, mass) pair's box of rows, widened by one row each way
    node = np.repeat(np.arange(len(group)), len(y))
    mass = np.tile(np.arange(len(y)), len(group))
    lo = np.floor((y[mass, :-1] - pads[node, None] - start[node, :-1])
                  / steps[node, None]).astype(np.int64) - 1
    hi = np.floor((y[mass, :-1] + pads[node, None] - start[node, :-1])
                  / steps[node, None]).astype(np.int64) + 1
    lo = np.clip(lo, 0, lens[node, :-1] - 1)
    spans = np.clip(hi, 0, lens[node, :-1] - 1) - lo + 1
    rows = np.prod(spans, axis=1)
    del hi
    cover = np.zeros(int(np.sum(cells)) + 1, dtype=np.int32)
    tables = (axes, aoff, start, first, strides, lens, pads, steps)
    # the pairs in chunks of about _GRID_ROWS rows
    ends = np.cumsum(rows)
    cuts = (np.flatnonzero(np.diff(ends // _GRID_ROWS)) + 1).tolist()
    for s, e in zip([0, *cuts], [*cuts, len(node)]):
        _add_runs(cover, y, tables, node[s:e], mass[s:e], lo[s:e], spans[s:e], rows[s:e])
    np.cumsum(cover, dtype=np.int32, out=cover)
    return cover[:-1] > 0


def _add_runs(cover, y, tables, node, mass, lo, spans, rows):
    """Add the runs of the rows of some (node, mass) pairs to ``cover``, the
    difference array of ``_grid_cover``."""
    axes, aoff, start, first, strides, lens, pads, steps = tables
    d = y.shape[1]
    last, c = axes[-1], y[mass, -1]
    base, n_last = aoff[node, -1], lens[node, -1]
    inv = 1.0 / steps[node]
    u = (c - start[node, -1]) * inv
    # each pair's last-axis point nearest its mass: the first point at or
    # above the mass, or the one before
    k0 = np.clip(np.ceil(u).astype(np.int64), 0, n_last)
    i = np.arange(len(node))
    while len(i):
        i = i[(k0[i] < n_last[i]) & (last[base[i] + np.minimum(k0[i], n_last[i] - 1)] < c[i])]
        k0[i] += 1
    i = np.arange(len(node))
    while len(i):
        i = i[(k0[i] > 0) & (last[base[i] + k0[i] - 1] >= c[i])]
        k0[i] -= 1
    below, above = np.maximum(k0 - 1, 0), np.minimum(k0, n_last - 1)
    db, da = last[base + below] - c, last[base + above] - c
    piv = np.where(da * da < db * db, above, below)
    # the rows of every box, first axis slowest
    pr = np.repeat(np.arange(len(node)), rows)
    q = np.arange(len(pr)) - np.repeat(np.cumsum(rows) - rows, rows)
    head = np.empty((len(pr), d - 1), dtype=np.int64)
    for a in reversed(range(d - 1)):
        head[:, a] = lo[pr, a] + q % spans[pr, a]
        q //= spans[pr, a]
    g2 = np.zeros(len(pr))
    for a in range(d - 1):
        diff = axes[a][aoff[node[pr], a] + head[:, a]] - y[mass[pr], a]
        g2 += diff * diff
    row0 = first[node[pr]] + np.sum(head * strides[node[pr], :-1], axis=1)
    del q, head
    base, c, piv, n_last = base[pr], c[pr], piv[pr], n_last[pr]
    pad = pads[node[pr]]
    half = np.sqrt(np.maximum(pad * pad - g2, 0.0)) * inv[pr]
    u = u[pr]

    def kept(i, k):
        diff = last[base[i] + k] - c[i]
        return np.sqrt(g2[i] + diff * diff) <= pad[i]

    for out in (-1, 1):
        # the end estimated from the chord, kept between its row end and
        # the nearest point
        if out < 0:
            bound, j = np.zeros_like(n_last), np.ceil(u - half).astype(np.int64)
        else:
            bound, j = n_last - 1, np.floor(u + half).astype(np.int64)
        j = np.clip(j, np.minimum(bound, piv), np.maximum(bound, piv))
        hit = kept(slice(None), j)
        # ends that pass step outward while the next point passes
        i = np.flatnonzero(hit & (j != bound))
        while len(i):
            nxt = j[i] + out
            ok = kept(i, nxt)
            j[i[ok]] = nxt[ok]
            i = i[ok & (nxt != bound[i])]
        # ends that fail step inward until they pass; in an empty row they
        # stop at the nearest point, the first end just past it, so that its
        # run is empty
        i = np.flatnonzero(~hit)
        while len(i):
            at = j[i] == piv[i]
            j[i[at]] -= min(out, 0)
            i = i[~at]
            j[i] -= out
            i = i[~kept(i, j[i])]
        # a run adds 1 from its first cell on and takes it away after its
        # last, which may be the next row's first cell
        np.add.at(cover, row0 + j + max(out, 0), np.int32(-out))


def heat_besov_functional(cand, alpha: float) -> BesovResult:
    """Quadrature of the t-integral of Lorentz norms of heat extensions, on
    the measure's default time window at 16 nodes per decade.

    Each node's heat extension is summed on its own adaptive grid
    (``_adaptive_heat_grids``, which finds the grids of many nodes in one
    pass) and its Lorentz norm taken on those values.  Exactly invariant
    under mass-preserving dilation of the candidate when p = d/(d-alpha)
    (every grid parameter scales with the measure, so the computed sums
    reproduce to rounding).  Both halves of the split at t = l(Q)^2 are
    reported; a divergent-looking integrand flags the result.
    """
    mu = cand.measure
    d = mu.d
    if not (0.0 < alpha < d):
        raise ValueError("alpha must lie in (0, d)")
    p = d / (d - alpha)
    tgrid = TGrid.for_measure(mu, nodes_per_decade=16)
    y = mu.points()
    g = np.zeros(len(tgrid.nodes))
    grids = _adaptive_heat_grids(mu, tgrid.nodes)
    for j, (t, (pts, spacing)) in enumerate(zip(tgrid.nodes, grids)):
        vals = _kernels.heat_values(pts, y, mu.weights, np.array([t]))[:, 0]
        g[j] = t ** (alpha / 2.0 - 1.0) * lorentz_norm(vals, p, cell_volume=spacing ** d)
    wts = _log_trapezoid_weights(tgrid.nodes)
    split = cand.side ** 2
    below = float(np.sum((g * wts)[tgrid.nodes <= split]))
    above = float(np.sum((g * wts)[tgrid.nodes > split]))
    # extrapolated tail from the last decade's fitted power
    sel = tgrid.nodes >= tgrid.t_max / 10.0
    tail = math.inf
    slope = 0.0
    pos = g[sel] > 0
    if np.sum(pos) >= 3:
        lx = np.log(tgrid.nodes[sel][pos])
        ly = np.log(g[sel][pos])
        slope = float(np.polyfit(lx, ly, 1)[0])
        if slope < -1.05:
            tail = float(g[sel][pos][-1] * tgrid.nodes[sel][pos][-1] / (-slope - 1.0))
    elif np.all(g[sel] == 0):
        tail = 0.0
    flagged = not math.isfinite(tail) or not np.all(np.isfinite(g))
    return BesovResult(total=below + above, below_split=below, above_split=above,
                       tail_estimate=tail, p=p, split_t=split,
                       t_window=(tgrid.t_min, tgrid.t_max),
                       n_nodes=len(tgrid.nodes), flagged=flagged)


# ---------------------------------------------------------------------------
# trace integrals
# ---------------------------------------------------------------------------

def trace_integral(field, nu: GridMeasure, values_at=None) -> float:
    """``sum_y |f(y)| nu({y})`` with f interpolated to nu's support points.

    ``field`` is a SampledField (multilinear interpolation) or a per-point
    value array aligned with nu's support (pass ``values_at=True``).
    """
    if np.any(nu.weights < 0):
        raise ValueError("trace measure must be nonnegative")
    if nu.n_masses == 0:
        return 0.0
    if values_at is True:
        f = np.asarray(field, dtype=np.float64).reshape(-1)
        if len(f) != nu.n_masses:
            raise ValueError("value array does not match nu's support")
    else:
        f = field.interpolate(nu.points())
    return float(np.sum(np.abs(f) * nu.weights))
