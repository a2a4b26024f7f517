"""Generation and certification of cancellative atoms with dimensional
normalization, and finite atomic decompositions.

An atom candidate is a grid measure ``a``, a cube Q, and an exponent beta.
Certification samples the four defining conditions: support in Q, vanishing
total mass on Q, the heat-extension bound
``sup_{x,t} t^{(d-beta)/2} |e^{t Delta} a(x)| <= l(Q)^{-beta}``, and total
variation at most one.  The sup is sampled on finite (x, t) grids recorded
in the certificate, so a PASS is relative to those grids (the sampled max
lower-bounds the true supremum).  Discrete surrogates only represent their
continuum targets above the grid resolution; the default time window starts
at (h/4)^2 and callers probing divergence pass deeper windows explicitly.
The Cantor and loop generators scale their atoms by the Frostman constant
of their measures over radii of two grid spacings and more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .heat import TGrid, heat_sup_field
from .io import Check
from .measures import (Cube, GridMeasure, LOG2_OVER_LOG3, cantor_frostman,
                       curve_measure, frostman_constant, lattice_points,
                       measure_sum, new_grid_measure, unit_cube)

# the default x-grid: coarse points over 4Q, and far points out to
# _FAR_REACH * l(Q), which also extends the default time window
_N_COARSE = 129
_N_FAR = 64
_FAR_REACH = 16.0
# a PASS allows the sampled heat-bound ratio to exceed 1 by _SUP_TOL and
# |a(Q)| to reach _CANCELLATION_TOL times the total variation
_SUP_TOL = 0.01
_CANCELLATION_TOL = 1e-10
# the generators scale their atoms to this fraction of the series bound
_SAFETY = 0.99


@dataclass(frozen=True)
class AtomCandidate:
    measure: GridMeasure
    cube: Cube
    beta: float

    @property
    def d(self) -> int:
        return self.measure.d

    @property
    def side(self) -> float:
        return self.cube.side


@dataclass(frozen=True)
class AtomCertificate:
    """The measured values of the four atom conditions, with their checks."""

    beta: float
    cube_corner: tuple
    cube_side: float
    support_overflow: float       # mass outside the closed cube
    cancellation: float           # |a(Q)|
    sup_ratio: float              # l(Q)^beta * sampled sup of t^{(d-b)/2}|E|
    total_variation: float
    sup_at_x: tuple
    sup_at_t: float
    small_t_exponent: float       # log-log slope of max_x value on low t
    small_t_residual: float
    n_points: int
    t_window: tuple
    nodes_per_decade: int

    @property
    def checks(self) -> tuple:
        """support, cancellation, heat_bound and variation, in that order."""
        tv = self.total_variation
        return (Check("support", self.support_overflow, "<=", 1e-12 * max(tv, 1.0)),
                Check("cancellation", self.cancellation, "<=",
                      _CANCELLATION_TOL * max(tv, 1e-300)),
                Check("heat_bound", self.sup_ratio, "<=", 1.0 + _SUP_TOL),
                Check("variation", tv, "<=", 1.0 + 1e-12))

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "cube_corner": list(self.cube_corner),
            "cube_side": self.cube_side,
            "sup_at": {"x": list(self.sup_at_x), "t": self.sup_at_t},
            "small_t": {"exponent": self.small_t_exponent,
                        "residual": self.small_t_residual},
            "sampling": {"n_points": self.n_points,
                         "t_window": list(self.t_window),
                         "nodes_per_decade": self.nodes_per_decade,
                         "rule": "default(support+midpoints+4Q+far)"},
        }


def frostman_series_value(c1: float, beta: float, d: int) -> float:
    """Direct sum of the dyadic-annuli series bounding the heat extension.

    ``sum_k (4 pi)^{-d/2} exp(-2^(2k-2)) * 2 c1 * 2^((k+1) beta)`` over all
    integers k (truncated where terms vanish in double precision); a value
    at most 1 certifies the heat-extension bound for a difference of two
    c1-Frostman pieces on the unit cube.
    """
    k = np.arange(-400, 40, dtype=np.float64)
    terms = (4.0 * math.pi) ** (-d / 2.0) * np.exp(-(2.0 ** (2 * k - 2))) \
        * 2.0 * c1 * 2.0 ** ((k + 1) * beta)
    return float(np.sum(terms))


# ---------------------------------------------------------------------------
# certification sampling rules
# ---------------------------------------------------------------------------

def _adjacent_midpoints(pts):
    if len(pts) <= 1:
        return pts
    mids = []
    for a in range(pts.shape[1]):
        order = np.argsort(pts[:, a], kind="stable")
        p = pts[order]
        mids.append(0.5 * (p[1:] + p[:-1]))
    return np.vstack(mids)


def certification_points(cand: AtomCandidate) -> np.ndarray:
    """Default x-grid: support points and midpoints, a coarse grid over 4Q,
    and ``_N_FAR`` far points log-spaced out to ``_FAR_REACH * l(Q)``."""
    mu = cand.measure
    pts = mu.points()
    parts = [pts, _adjacent_midpoints(pts)]
    big = cand.cube.scaled_about_center(4.0)
    d = cand.d
    if d == 1:
        n_side = _N_COARSE
        coarse = big.corner[None, :] + np.linspace(0, big.side, n_side)[:, None]
    else:
        n_side = max(9, int(round(_N_COARSE ** (1.0 / d))))
        coarse = lattice_points([np.linspace(big.corner[a], big.corner[a] + big.side, n_side)
                                 for a in range(d)])
    parts.append(coarse)
    center = cand.cube.center
    if d == 1:
        radii = np.geomspace(2.0 * cand.side, _FAR_REACH * cand.side, _N_FAR // 2)
        far = np.concatenate([center[0] + radii, center[0] - radii])[:, None]
    else:
        n_dirs = 8
        n_rad = max(2, _N_FAR // n_dirs)
        radii = np.geomspace(2.0 * cand.side, _FAR_REACH * cand.side, n_rad)
        angles = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        if d > 2:
            pad = np.zeros((n_dirs, d - 2))
            dirs = np.hstack([dirs, pad])
        far = center[None, :] + radii[:, None, None] * dirs[None, :, :]
        far = far.reshape(-1, d)
    parts.append(far)
    return np.unique(np.vstack(parts), axis=0)


def _small_t_fit(mu: GridMeasure, gamma: float, tgrid: TGrid):
    """Slope of log10 max_x t^{gamma/2}|E| over the lowest 1.5 time decades,
    sampled at the heaviest support points (where small-t peaks live)."""
    t_hi = tgrid.t_min * 10.0 ** 1.5
    tsel = tgrid.nodes[tgrid.nodes <= t_hi]
    if len(tsel) < 4:
        tsel = tgrid.nodes[:4]
    order = np.argsort(-np.abs(mu.weights))[:256]
    pts = mu.points()[order]
    vals = _kernels.heat_values(pts, mu.points(), mu.weights, tsel)
    curve = np.max(tsel[None, :] ** (gamma / 2.0) * np.abs(vals), axis=0, initial=0.0)
    good = curve > 0
    if np.sum(good) < 3:
        return 0.0, math.inf
    lx = np.log10(tsel[good])
    ly = np.log10(curve[good])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), resid


def check_beta_atom(cand: AtomCandidate, tgrid: TGrid | None = None) -> AtomCertificate:
    """Evaluate the four atom conditions on finite samples.

    Failures are reported in the certificate, never raised.  The sampled sup
    in condition (3) lower-bounds the true supremum; the certificate records
    the (x, t) sampling so the verdict is reproducible.
    """
    if not (0 < cand.beta <= cand.d):
        raise ValueError("beta must lie in (0, d]")
    mu = cand.measure
    tg = tgrid or TGrid.for_measure(mu, nodes_per_decade=16, reach=_FAR_REACH * cand.side)
    pts = certification_points(cand)
    tv = mu.total_variation()
    gamma = cand.d - cand.beta

    inside = cand.cube.contains_points(mu.points())
    overflow = float(np.sum(np.abs(mu.weights[~inside])))
    mass_q = float(np.sum(mu.weights[inside]))

    sup = heat_sup_field(mu, gamma, pts, tg, refine=True)
    i = int(np.argmax(sup.values))
    ratio = float(sup.values[i] * cand.side ** cand.beta)
    slope, resid = _small_t_fit(mu, gamma, tg)

    return AtomCertificate(
        beta=cand.beta,
        cube_corner=tuple(float(v) for v in cand.cube.corner),
        cube_side=float(cand.side),
        support_overflow=overflow,
        cancellation=abs(mass_q),
        sup_ratio=ratio,
        total_variation=tv,
        sup_at_x=tuple(float(v) for v in pts[i]),
        sup_at_t=float(sup.t_at[i]),
        small_t_exponent=slope,
        small_t_residual=resid,
        n_points=len(pts),
        t_window=(tg.t_min, tg.t_max),
        nodes_per_decade=tg.nodes_per_decade,
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def make_frostman_atom(depth: int = 8):
    """Difference of a Cantor Frostman measure on [0, 1/2] and its translate,
    a beta-atom for beta = log 2 / log 3.

    The mass c2 is chosen so that the measured Frostman constant of each
    piece meets the annuli series bound with the safety margin ``_SAFETY`` (and
    c2 <= 1/2 keeps the total variation at most one).  Returns the candidate
    on Q = [0, 1] and a build-info dict (c1, c2, series value).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    mu_unit, c_unit = cantor_frostman(depth)
    beta = LOG2_OVER_LOG3
    series_unit = frostman_series_value(1.0, beta, 1)
    c1_star = _SAFETY / series_unit
    c2 = min(0.5, c1_star / c_unit)
    half = mu_unit.scaled(c2, name=f"cantor_atom+(d{depth})")
    a = measure_sum([half, half.translated([0.5]).scaled(-1.0)],
                    name=f"cantor_atom(depth={depth})")
    cand = AtomCandidate(measure=a, cube=unit_cube(1), beta=beta)
    info = {
        "c1": c2 * c_unit,
        "c2": c2,
        "series_value": frostman_series_value(c2 * c_unit, beta, 1),
        "unit_frostman_constant": c_unit,
        "depth": depth,
    }
    return cand, info


def make_linf_atom(d: int = 1, resolution: int = 8):
    """Riemann-weight indicator difference: +1 on the lower half of the unit
    cube (first axis), -1 on the upper half; a d-atom after no rescaling.
    The grid has 2^resolution cells per axis, resolution >= 1."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    h = 2.0 ** (-resolution)
    n = 2 ** resolution
    idx = lattice_points([np.arange(n, dtype=np.int64)] * d)
    sign = np.where(idx[:, 0] < n // 2, 1.0, -1.0)
    w = sign * h ** d
    mu = new_grid_measure(d, h, np.full(d, 0.5 * h), idx, w, name="linf_atom")
    return AtomCandidate(measure=mu, cube=unit_cube(d), beta=float(d))


def make_loop_atom(polyline, component: int, h: float):
    """Component of a closed-curve vector measure, rescaled into a 1-atom.

    The polyline (closed, inside the unit cube) is discretized by
    ``curve_measure``; the scale is capped so the measured Frostman constant
    of the variation measure meets the series bound and the component's
    total variation is at most one.
    """
    vm = curve_measure(polyline, h)
    d = vm.d
    pts = np.atleast_2d(np.asarray(polyline, dtype=np.float64))
    if np.any(pts < -1e-12) or np.any(pts > 1 + 1e-12):
        raise ValueError("polyline must stay inside the unit cube")
    var = vm.variation_measure()
    c_var = frostman_constant(var, 1.0, 2.0 * h)
    series_unit = frostman_series_value(1.0, 1.0, d)
    s_frost = _SAFETY / (series_unit * c_var)
    comp = vm.components[component]
    tv = comp.total_variation()
    s = min(s_frost, 1.0 / tv if tv > 0 else math.inf)
    cand = AtomCandidate(measure=comp.scaled(s, name=f"loop_atom[{component}]"),
                         cube=unit_cube(d), beta=1.0)
    info = {"scale": s, "variation_frostman_constant": c_var,
            "series_value": frostman_series_value(s * c_var, 1.0, d),
            "component_tv": tv}
    return cand, info


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicDecomposition:
    """Finite combination sum_i lambda_i a_i of atoms of one beta, uncertified."""

    entries: tuple                # ((lam, AtomCandidate), ...)

    def __post_init__(self):
        if any(abs(cand.beta - self.beta) > 1e-12 for _, cand in self.entries):
            raise ValueError("mixed atom exponents in one decomposition")

    @property
    def beta(self) -> float:
        return self.entries[0][1].beta if self.entries else math.nan

    @property
    def budget(self) -> float:
        return float(sum(abs(lam) for lam, _ in self.entries))

