"""Riesz potentials, Lorentz rearrangement norms, the split heat-integral
functional behind the strong-type inequality, and trace integrals.

Lorentz convention, fixed for every constant reported from this module:
``||f||_{p,1} = integral_0^inf t^{1/p - 1} f*(t) dt`` with f* the decreasing
rearrangement weighted by cell volume (equals ``p * integral lambda_f(s)^{1/p}
ds``); an indicator of volume V has norm ``p V^{1/p}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma, gammainc, gammaincc

from . import _kernels
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
        return math.pi ** (d / 2.0) * 2.0 ** a * _gamma(a / 2.0) / _gamma((d - a) / 2.0)


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
                shape, at=None) -> SampledField:
    """The Riesz potential at the nodes ``origin + i * spacing`` of a grid.

    With ``at`` (points inside the grid) only the nodes that
    ``interpolate(at)`` reads are evaluated (``SampledField.stencil``), each
    equal to its value in the full field bit for bit; every other node holds
    NaN, so a read outside them shows.
    """
    shape = tuple(int(v) for v in np.atleast_1d(shape))
    fld = SampledField(origin=np.asarray(origin, dtype=np.float64),
                       spacing=float(spacing), values=np.full(shape, np.nan))
    flat = fld.values.reshape(-1)      # a view: writes land in the field
    if at is None:
        flat[:] = riesz_kernel(cfg, mu, fld.points())
    else:
        rows = np.unique(fld.stencil(at)[0])
        flat[rows] = riesz_kernel(cfg, mu, fld.points(), rows)
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


def riesz_heat(cfg: RieszConfig, mu: GridMeasure, points,
               tgrid: TGrid | None = None, rel_tol: float = 1e-4) -> RieszHeatResult:
    """Riesz potential via the time integral of heat extensions.

    Log-trapezoid quadrature over the TGrid plus exact power-law tail
    corrections at both ends (incomplete-gamma closed forms, valid for point
    masses).  The result is flagged when halving the node density moves the
    quadrature by more than ``rel_tol`` relative.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if mu.n_masses == 0:
        return RieszHeatResult(values=np.zeros(len(pts)), quad_error_est=0.0,
                               flagged=False, t_window=(0.0, 0.0))
    y = mu.points()
    dists = np.empty((len(pts), len(y)))
    for s, e, d2 in _kernels.pairwise_sq_dists(pts, y, 4096):
        dists[s:e] = np.sqrt(d2)
    positive = dists[dists > 0]
    if tgrid is None:
        r_lo = float(np.min(positive)) if len(positive) else mu.h
        r_hi = float(np.max(dists)) + mu.support_diameter() + mu.h
        tgrid = TGrid.build((r_lo / 8.0) ** 2, (8.0 * r_hi) ** 2, 32)
    a, d = cfg.alpha, cfg.d
    ga2 = _gamma(a / 2.0)
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
                           flagged=err > rel_tol,
                           t_window=(tgrid.t_min, tgrid.t_max))


# ---------------------------------------------------------------------------
# Lorentz norms
# ---------------------------------------------------------------------------

def lorentz_norm(field, p: float, q: float = 1.0, cell_volume: float | None = None) -> float:
    """L^{p,1} norm of a sampled field (exact sum over sorted cells)."""
    if p <= 1.0:
        raise ValueError("need p > 1")
    if q != 1.0:
        raise ValueError("only the second index q = 1 is implemented")
    if isinstance(field, SampledField):
        vals = field.values.ravel()
        vol = field.cell_volume
    else:
        vals = np.asarray(field, dtype=np.float64).ravel()
        if cell_volume is None:
            raise ValueError("cell_volume required for raw value arrays")
        vol = cell_volume
    v = np.abs(vals)
    v = v[v > 0]
    if len(v) == 0:
        return 0.0
    v = np.sort(v)[::-1]
    cum = vol * np.arange(1, len(v) + 1, dtype=np.float64)
    prev = np.concatenate([[0.0], cum[:-1]])
    return float(np.sum(v * p * (cum ** (1.0 / p) - prev ** (1.0 / p))))


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


def _adaptive_heat_grid(mu: GridMeasure, t: float):
    """Grid resolving scale sqrt(t) near the support (pad 8 sqrt(t)).

    Keeps the points of the bounding-box lattice within the pad of some
    mass: each mass tests the lattice box around its pad ball, so the work
    grows with the masses, not with the lattice.  Squared axis differences
    are added in axis order; a point is kept when ``sqrt(d2) <= pad``.
    """
    st = math.sqrt(t)
    spacing = max(mu.h / 2.0, st / 4.0)
    pad = 8.0 * st
    lo, hi = mu.bbox()
    axes = [np.arange(lo[a] - pad, hi[a] + pad + spacing, spacing) for a in range(mu.d)]
    y = mu.points()
    near = np.zeros([len(ax) for ax in axes], dtype=bool)
    # widened by a few ulps, so each box holds every point within the pad
    reach = pad * (1.0 + 1e-9) + 4.0 * np.spacing(float(np.max(np.abs([lo, hi]))) + pad)
    first = [np.searchsorted(ax, y[:, a] - reach) for a, ax in enumerate(axes)]
    width = [int(np.max(np.searchsorted(ax, y[:, a] + reach, side="right") - f, initial=0))
             for a, (ax, f) in enumerate(zip(axes, first))]
    step = max(1, 1_000_000 // max(1, math.prod(width)))
    for c in range(0, len(y), step):
        idx, d2 = [], 0.0
        for a, ax in enumerate(axes):
            shape = [-1] + [1] * mu.d
            shape[1 + a] = width[a]
            i = np.minimum(first[a][c:c + step, None] + np.arange(width[a]), len(ax) - 1)
            diff = ax[i] - y[c:c + step, a, None]
            d2 = d2 + (diff * diff).reshape(shape)
            idx.append(i.reshape(shape))
        hit = np.sqrt(d2) <= pad
        near[tuple(np.broadcast_to(i, hit.shape)[hit] for i in idx)] = True
    return np.stack([ax[i] for ax, i in zip(axes, np.nonzero(near))], axis=1), spacing


def heat_besov_functional(cand, alpha: float, nodes_per_decade: int = 16) -> BesovResult:
    """Quadrature of the t-integral of Lorentz norms of heat extensions.

    Exactly invariant under mass-preserving dilation of the candidate when
    p = d/(d-alpha) (every grid parameter scales with the measure, so the
    computed sums reproduce to rounding).  Both halves of the split at
    t = l(Q)^2 are reported; a divergent-looking integrand flags the result.
    """
    mu = cand.measure
    d = mu.d
    if not (0.0 < alpha < d):
        raise ValueError("alpha must lie in (0, d)")
    p = d / (d - alpha)
    tgrid = TGrid.for_measure(mu, nodes_per_decade=nodes_per_decade)
    y = mu.points()
    g = np.zeros(len(tgrid.nodes))
    for j, t in enumerate(tgrid.nodes):
        pts, spacing = _adaptive_heat_grid(mu, t)
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
