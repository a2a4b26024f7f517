"""Heat semigroup acting on grid measures, and suprema of weighted extensions.

The extension at time t is the Gaussian convolution
``(4 pi t)^{-d/2} sum_m w_m exp(-|x - y_m|^2 / 4t)``, summed over every
mass.  The grid sums and the golden-section refinement of the sup in t are
both ``_kernels.heat_values`` calls, whose docstring states the tail cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .measures import GridMeasure, lattice_points

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TGrid:
    """Geometric grid of heat times covering [t_min, t_max]."""

    t_min: float
    t_max: float
    nodes_per_decade: int
    nodes: np.ndarray

    @classmethod
    def build(cls, t_min: float, t_max: float, nodes_per_decade: int = 32) -> "TGrid":
        if not (0 < t_min < t_max):
            raise ValueError("need 0 < t_min < t_max")
        if nodes_per_decade < 1:
            raise ValueError("nodes_per_decade (--npd) must be at least 1")
        count = math.log10(t_max / t_min) * nodes_per_decade
        if not math.isfinite(count):
            raise ValueError(f"time window [{t_min}, {t_max}] spans too many decades")
        n = max(2, int(math.ceil(count)) + 1)
        return cls(t_min=float(t_min), t_max=float(t_max),
                   nodes_per_decade=int(nodes_per_decade),
                   nodes=np.geomspace(t_min, t_max, n))

    @classmethod
    def for_measure(cls, mu: GridMeasure, nodes_per_decade: int = 32,
                    reach: float = 0.0) -> "TGrid":
        """Default window (h/4)^2 .. (4 * (diam + reach))^2.

        ``reach`` extends the top of the window when far-field evaluation
        points matter (the sup in t is attained near t ~ |x|^2 out there).
        A degenerate support (single mass) falls back to diam = h.
        """
        span = max(mu.support_diameter(), mu.h) + reach
        try:
            t_max = (4.0 * span) ** 2
        except OverflowError:
            raise ValueError(f"time window too wide: (4 * {span})^2 overflows") from None
        return cls.build((mu.h / 4.0) ** 2, t_max, nodes_per_decade)


def heat_extension(mu: GridMeasure, t: float, points) -> np.ndarray:
    """e^{t Delta} mu at the given points, for a positive time t."""
    return _kernels.heat_values(points, mu.points(), mu.weights, np.array([t]))[:, 0]


@dataclass(frozen=True)
class SupField:
    """Per-point sup over t of t^{gamma/2} |e^{t Delta} mu| with argmax times."""

    values: np.ndarray
    t_at: np.ndarray


def _golden_refine(mu, pts, gamma, t_lo, t_hi):
    """Vectorized golden-section maximization of t^{g/2}|E(x,t)| per point,
    14 steps, each summing both probe times of every point in one
    ``heat_values`` call (a row of times per point, a column per probe)."""
    a = np.log(t_lo)
    b = np.log(t_hi)
    y = mu.points()

    def g(*logt):
        t = np.exp(np.stack(logt, axis=1))
        return (t ** (gamma / 2.0) * np.abs(_kernels.heat_values(pts, y, mu.weights, t))).T

    c = b - GOLDEN * (b - a)
    e = a + GOLDEN * (b - a)
    fc, fe = g(c, e)
    for _ in range(14):
        left = fc >= fe            # keep [a, e], drop (e, b]
        b = np.where(left, e, b)
        a = np.where(left, a, c)
        c = b - GOLDEN * (b - a)
        e = a + GOLDEN * (b - a)
        fc, fe = g(c, e)
    tm = np.exp(0.5 * (a + b))
    return tm, g(np.log(tm))[0]


def heat_sup_field(mu: GridMeasure, gamma: float, points, tgrid: TGrid,
                   refine: bool = True) -> SupField:
    """Grid max of t^{gamma/2}|e^{t Delta} mu| with one local refinement.

    The reported value is a lower bound for the true supremum; the grid
    resolution lives in ``tgrid``.
    """
    if not (0 <= gamma):
        raise ValueError("gamma must be nonnegative")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if mu.n_masses == 0:
        z = np.zeros(len(pts))
        return SupField(values=z, t_at=np.full(len(pts), tgrid.t_min))
    field = _kernels.heat_values(pts, mu.points(), mu.weights, tgrid.nodes)
    weighted = tgrid.nodes[None, :] ** (gamma / 2.0) * np.abs(field)
    j = np.argmax(weighted, axis=1)
    vals = weighted[np.arange(len(pts)), j]
    t_at = tgrid.nodes[j]
    if refine and len(tgrid.nodes) >= 3:
        lo = tgrid.nodes[np.maximum(j - 1, 0)]
        hi = tgrid.nodes[np.minimum(j + 1, len(tgrid.nodes) - 1)]
        t_ref, v_ref = _golden_refine(mu, pts, gamma, lo, hi)
        better = v_ref > vals
        vals = np.where(better, v_ref, vals)
        t_at = np.where(better, t_ref, t_at)
    return SupField(values=vals, t_at=t_at)


def mass_quadrature_grid(mu: GridMeasure, t: float):
    """Quadrature lattice for integrating heat extensions at time t.

    A lattice Riemann sum of a Gaussian is exact up to Poisson-summation
    aliasing ``2 exp(-4 pi^2 t / hq^2)``; spacing ``1.25 sqrt(t)`` keeps that
    near 1e-11, and a margin of 10 sqrt(t) keeps the truncated tail below
    ``erfc(5)`` per axis.
    """
    lo, hi = mu.bbox()
    st = math.sqrt(t)
    hq = 1.25 * st
    lo = lo - 10.0 * st
    hi = hi + 10.0 * st
    pts = lattice_points([np.arange(lo[a], hi[a] + hq, hq) for a in range(mu.d)])
    return pts, hq

def mass_conservation_residual(mu: GridMeasure, t: float) -> float:
    """|grid-sum of e^{t Delta} mu * hq^d  -  mu(R^d)|."""
    pts, hq = mass_quadrature_grid(mu, t)
    vals = heat_extension(mu, t, pts)
    return abs(float(np.sum(vals)) * hq ** mu.d - mu.total_mass())
