"""Riesz potentials, Lorentz rearrangement norms, the split heat-integral
functional behind the strong-type inequality, and trace integrals.

The Riesz kernel, its spread-cell closed form (``riesz_cells``) and the heat
route's incomplete-gamma tails are sums over masses in the pair driver
(``_kernels._pair_sums``).  Gamma comes from ``_gamma.gamma``, bit for bit
scipy's, so the Riesz constant costs no ``scipy.special`` import: that loads
on first use inside ``riesz_heat``, for its incomplete gammas, and no
``fracmeas verify`` target pays its start-up cost.

The heat-integral functional's quadrature grids, one per time node, come
from one vectorized pass over groups of nodes (``_adaptive_heat_grids``):
each (node, mass) pair is a ball of radius pad on the node's lattice, and
``measures._row_runs``, the row-run search that also rasterizes ball
families (``content.rasterize_balls``), finds its points row by row and
merges them per (node, row).  Each grid holds the points a search of the
node's whole lattice keeps, in the same order.  The grids of consecutive
nodes stream into batches of at most ``_BATCH_POINTS`` points, each summed in
one ``_kernels.heat_values`` call with a time per row (see there for the
tail cutoff and the bits each row keeps).  The heat route to the Riesz
potential adds its quadrature's weighted field columns into one vector,
holding no copy of the points x times field.

Lorentz convention, fixed for every constant reported from this module:
``||f||_{p,1} = integral_0^inf t^{1/p - 1} f*(t) dt`` with f* the decreasing
rearrangement weighted by cell volume (equals ``p * integral lambda_f(s)^{1/p}
ds``); an indicator of volume V has norm ``p V^{1/p}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._gamma import gamma
from .heat import TGrid
from .measures import GridMeasure, _row_runs, _run_cells


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


def riesz_kernel(cfg: RieszConfig, mu: GridMeasure, points) -> np.ndarray:
    """Direct kernel sum ``(1/gamma(alpha)) sum w_m |x - y_m|^{alpha-d}``.

    Evaluation at a point mass location records the +inf sentinel.  Each
    point's value has the same bits whatever other points it is evaluated
    with: the pair driver sums row by row (``_kernels._pair_sums``).
    """
    hot = []

    def power_terms(d2, _):
        kern = np.sqrt(d2, out=d2)
        kern **= cfg.alpha - cfg.d
        yield 0, kern
        # an infinite term only spoils its own row, which is set afterwards
        hot.append(np.isinf(kern).any(axis=1))

    with np.errstate(divide="ignore", invalid="ignore"):
        out = _kernels._pair_sums(points, mu.points(), mu.weights,
                                  lambda d: np.ones(1), power_terms)[:, 0]
    if hot:
        out[np.concatenate(hot)] = np.inf
    return out / cfg.gamma_alpha


def riesz_cells(cfg: RieszConfig, mu: GridMeasure, points, half: float) -> np.ndarray:
    """The Riesz potential of ``mu`` (d = 1) with each mass spread uniformly
    over its cell ``[y - half, y + half]``: per pair at distance u, the even
    closed form ``(F(u + half) - F(u - half)) / (2 half gamma(alpha))`` with
    ``F(u) = sign(u) |u|^alpha / alpha``, finite everywhere.  Past two
    half-widths the difference is taken as ``u^alpha (expm1(alpha log1p(half/u))
    - expm1(alpha log1p(-half/u))) / alpha``: the plain one cancels there (up
    to 8e-12 relative for u <= 2, half = 3^-8/4, alpha = 1/2); within them
    u - half is exact, and the plain one keeps the bits ``half/u`` near 1 loses.
    """
    if cfg.d != 1 or mu.d != 1:
        raise ValueError("spread-cell Riesz potentials are one-dimensional")
    if not half > 0:
        raise ValueError("cell half-width must be positive")
    a = cfg.alpha

    def cell_terms(d2, _):
        u = np.sqrt(d2, out=d2)
        far = u > 2.0 * half
        r = np.divide(half, u, out=np.zeros_like(u), where=far)
        terms = u ** a * (np.expm1(a * np.log1p(r)) - np.expm1(a * np.log1p(-r)))
        v = u[~far]
        terms[~far] = (v + half) ** a - np.copysign(np.abs(v - half) ** a, v - half)
        yield 0, terms

    sums = _kernels._pair_sums(points, mu.points(), mu.weights, lambda d: np.ones(1),
                               cell_terms)
    return sums[:, 0] / (2.0 * half * a * cfg.gamma_alpha)


@dataclass(frozen=True)
class RieszHeatResult:
    values: np.ndarray
    quad_error_est: float


def _log_trapezoid_weights(nodes):
    u = np.log(nodes)
    w = np.zeros_like(nodes)
    w[1:-1] = 0.5 * (u[2:] - u[:-2])
    w[0] = 0.5 * (u[1] - u[0])
    w[-1] = 0.5 * (u[-1] - u[-2])
    return w * nodes


def _weighted_columns(field, cols, w):
    """``(field[:, cols] * w).sum(axis=1)`` bit for bit, with no copy of the
    (n, T) field: the weighted columns ``field[:, cols[k]] * w[k]`` added
    to +0.0 one at a time, in the order of ``cols``.  That is the order the
    sum takes, since the gather ``field[:, cols]`` is column-major."""
    acc = np.zeros(len(field))
    col = np.empty_like(acc)
    for j, wj in zip(cols, w):
        acc += np.multiply(field[:, j], wj, out=col)
    return acc


def riesz_heat(cfg: RieszConfig, mu: GridMeasure, points) -> RieszHeatResult:
    """Riesz potential via the time integral of heat extensions.

    Log-trapezoid quadrature over a TGrid of 32 nodes per decade from
    (r_lo/8)^2 to (8 r_hi)^2, r_lo and r_hi the least and greatest
    point-mass distances (r_hi widened by the support), plus exact power-law
    tail corrections at both ends (incomplete-gamma closed forms, valid for
    point masses).  ``quad_error_est`` is the largest relative move of the
    quadrature when the node density is halved.
    """
    from scipy.special import gammainc, gammaincc

    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if mu.n_masses == 0:
        return RieszHeatResult(values=np.zeros(len(pts)), quad_error_est=0.0)
    y = mu.points()
    # sqrt is monotone: the extreme distances are the roots of these squares
    lo2, hi2 = math.inf, 0.0
    for _, _, d2 in _kernels.pairwise_sq_dists(pts, y):
        lo2 = float(np.min(d2, initial=lo2, where=d2 > 0))
        hi2 = float(np.max(d2, initial=hi2))
    r_lo = math.sqrt(lo2) if lo2 < math.inf else mu.h
    r_hi = math.sqrt(hi2) + mu.support_diameter() + mu.h
    tgrid = TGrid.build((r_lo / 8.0) ** 2, (8.0 * r_hi) ** 2, 32)
    a, d = cfg.alpha, cfg.d
    ga2 = gamma(a / 2.0)
    field = _kernels.heat_values(pts, y, mu.weights, tgrid.nodes)

    def quad(sel):
        nodes = tgrid.nodes[sel]
        w = _log_trapezoid_weights(nodes) * nodes ** (a / 2.0 - 1.0)
        return _weighted_columns(field, sel, w) / ga2

    all_sel = np.arange(len(tgrid.nodes))
    main = quad(all_sel)
    # half-density comparison grid keeps both endpoints (the analytic tails
    # are anchored at t_min and t_max)
    half_sel = np.unique(np.concatenate([all_sel[::2], [all_sel[-1]]]))
    half = quad(half_sel)
    # exact tails: integral over (0, t_min] resp. [t_max, inf) of the kernel
    shape_par = (d - a) / 2.0
    hot = np.zeros(len(pts), dtype=bool)

    def tail_terms(d2, rows):
        dists = np.sqrt(d2)
        kern = dists ** (a - d)
        lowtail_frac = gammaincc(shape_par, dists ** 2 / (4.0 * tgrid.t_min))
        hightail_frac = gammainc(shape_par, dists ** 2 / (4.0 * tgrid.t_max))
        tails = np.where(dists > 0, kern * (lowtail_frac + hightail_frac), np.inf)
        inf = np.isinf(tails)
        hot[rows] = np.any(inf & (np.abs(mu.weights) > 0), axis=1)
        tails[inf] = 0.0
        yield 0, tails

    with np.errstate(divide="ignore", invalid="ignore"):
        tailsum = _kernels._pair_sums(pts, y, mu.weights, lambda _: np.ones(1),
                                      tail_terms)[:, 0] / cfg.gamma_alpha
    values = main + tailsum
    values[hot] = np.inf
    finite = np.isfinite(values) & (np.abs(values) > 0)
    err = float(np.max(np.abs(main[finite] - half[finite]) / np.abs(values[finite]),
                       initial=0.0))
    return RieszHeatResult(values=values, quad_error_est=err)


# ---------------------------------------------------------------------------
# Lorentz norms
# ---------------------------------------------------------------------------

def lorentz_norm(values, p: float, cell_volume: float) -> float:
    """L^{p,1} norm of the samples ``values``, one per cell of volume
    ``cell_volume`` (exact sum over sorted cells)."""
    if p <= 1.0:
        raise ValueError("need p > 1")
    v = np.abs(np.asarray(values, dtype=np.float64).ravel())
    v = np.sort(v[v > 0])[::-1]
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


# lattice cells whose grids one pass finds at most (or one node's)
_GRID_CELLS = 1 << 16
# grid points that one pair-driver pass sums at most (or one node's grid): in
# one verify-trace run each, batches of 2^16 points took the peak RSS from
# 49.7 to 55.4 MB, and of 2^15 to 52.4 MB
_BATCH_POINTS = _GRID_CELLS // 4


def _axis(start, stop, spacing):
    """``(origin, step, n)`` of ``np.arange(start, stop, spacing)``, which
    numpy fills as ``origin + i * step`` with ``step = ax[1] - ax[0]``."""
    ax = np.arange(start, stop, spacing)
    return ax[0], (ax[1] - ax[0] if len(ax) > 1 else spacing), len(ax)


def _adaptive_heat_grids(mu: GridMeasure, nodes):
    """Grids resolving scale sqrt(t) near the support (pad 8 sqrt(t)), one
    ``(points, spacing)`` per time node t, in node order.

    Node t keeps the points of its bounding-box lattice (axes
    ``np.arange(lo - pad, hi + pad + spacing, spacing)``, spacing
    ``max(h/2, sqrt(t)/4)``, read as ``origin + j * step`` by ``_axis``)
    within the pad of some mass, first axis slowest.  Groups of nodes with
    at most ``_GRID_CELLS`` lattice cells (or one node) are searched by one
    ``measures._row_runs`` call, a ball of radius pad per (node, mass) pair
    and rows keyed by (node, row), so each node's points come out in its
    lattice order.
    """
    d, y = mu.d, mu.points()
    lo, hi = mu.bbox()
    # per node its spacing, pad and axes (origins, steps, lengths)
    lats, cuts, size = [], [0], 0
    for t in np.asarray(nodes, dtype=np.float64).tolist():
        st = math.sqrt(t)
        spacing = max(mu.h / 2.0, st / 4.0)
        pad = 8.0 * st
        axes = [_axis(lo[a] - pad, hi[a] + pad + spacing, spacing) for a in range(d)]
        cells = math.prod(n for *_, n in axes)
        if len(lats) > cuts[-1] and size + cells > _GRID_CELLS:
            cuts.append(len(lats))
            size = 0
        size += cells
        lats.append((spacing, pad, *zip(*axes)))
    for s, e in zip(cuts, cuts[1:] + [len(lats)]):
        _, pad, origin, step, shape = (np.array(v) for v in zip(*lats[s:e]))
        # each (node, mass) pair is a ball on its node's lattice, whose index
        # box is widened by one cell each way and clipped to the lattice
        node = np.repeat(np.arange(e - s), len(y))
        c, r, o, st = np.tile(y, (e - s, 1)), pad[node], origin[node], step[node]
        box = [np.clip(np.floor((c + out * r[:, None] - o) / st).astype(np.int64) + out,
                       0, shape[node] - 1) for out in (-1, 1)]
        key, first, end = _row_runs(c, r, o, st, 0.0, *box, tag=node)
        at = np.searchsorted(key[:, 0], np.arange(e - s + 1))
        del c, r, o, st, box, node    # the heat sums of the group's nodes come next
        for k in range(e - s):
            run = slice(at[k], at[k + 1])
            yield (origin[k] + _run_cells(key[run, 1:], first[run], end[run]) * step[k],
                   lats[s + k][0])


def _node_batches(grids, rows):
    """Consecutive ``(points, spacing)`` grids of ``grids`` in lists of at
    most ``rows`` points in all (or one grid), in order; the grids stream
    through, a batch at a time."""
    batch, size = [], 0
    for grid in grids:
        if batch and size + len(grid[0]) > rows:
            yield batch
            batch, size = [], 0
        batch.append(grid)
        size += len(grid[0])
    if batch:
        yield batch


def heat_besov_functional(cand, alpha: float) -> BesovResult:
    """Quadrature of the t-integral of Lorentz norms of heat extensions, on
    the measure's default time window at 16 nodes per decade.

    Each node's heat extension is summed on its own adaptive grid
    (``_adaptive_heat_grids``, which finds the grids of many nodes in one
    pass) and its Lorentz norm taken on those values.  The grids of
    consecutive nodes, at most ``_BATCH_POINTS`` points a batch (or one grid),
    are summed in one ``_kernels.heat_values`` call, each row at its own
    node's time.  Exactly invariant under mass-preserving dilation of the
    candidate when p = d/(d-alpha) (every grid parameter scales with the
    measure, so the computed sums reproduce to rounding).  Both halves of the split at t = l(Q)^2 are
    reported; a divergent-looking integrand has an infinite ``tail_estimate``
    and a non-finite one an infinite or NaN ``total``.
    """
    mu = cand.measure
    d = mu.d
    if not (0.0 < alpha < d):
        raise ValueError("alpha must lie in (0, d)")
    p = d / (d - alpha)
    tgrid = TGrid.for_measure(mu, nodes_per_decade=16)
    y = mu.points()
    g = np.zeros(len(tgrid.nodes))
    done = 0
    for batch in _node_batches(_adaptive_heat_grids(mu, tgrid.nodes), _BATCH_POINTS):
        t = tgrid.nodes[done:done + len(batch)]
        sizes = [len(pts) for pts, _ in batch]
        vals = _kernels.heat_values(np.concatenate([pts for pts, _ in batch]), y,
                                    mu.weights, np.repeat(t, sizes)[:, None])[:, 0]
        at = np.cumsum([0] + sizes)
        for k, (_, spacing) in enumerate(batch):
            g[done + k] = (t[k] ** (alpha / 2.0 - 1.0) * lorentz_norm(
                vals[at[k]:at[k + 1]], p, cell_volume=spacing ** d))
        done += len(batch)
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
    return BesovResult(total=below + above, below_split=below, above_split=above,
                       tail_estimate=tail, p=p, split_t=split)


# ---------------------------------------------------------------------------
# trace integrals
# ---------------------------------------------------------------------------

def trace_integral(values, nu: GridMeasure) -> float:
    """``sum_y |f(y)| nu({y})`` for values f(y) aligned with nu's support."""
    if np.any(nu.weights < 0):
        raise ValueError("trace measure must be nonnegative")
    f = np.asarray(values, dtype=np.float64).reshape(-1)
    if len(f) != nu.n_masses:
        raise ValueError("value array does not match nu's support")
    return float(np.sum(np.abs(f) * nu.weights))
