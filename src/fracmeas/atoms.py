"""Generation and certification of cancellative atoms with dimensional
normalization, and decomposition-based norm upper bounds.

An atom candidate is a grid measure ``a``, a cube Q, and an exponent beta.
Certification samples the four defining conditions: support in Q, vanishing
total mass on Q, the heat-extension bound
``sup_{x,t} t^{(d-beta)/2} |e^{t Delta} a(x)| <= l(Q)^{-beta}``, and total
variation at most one.  The sup is sampled on finite (x, t) grids recorded
in the certificate, so a PASS is relative to those grids (the sampled max
lower-bounds the true supremum).  Discrete surrogates only represent their
continuum targets above the grid resolution; the default time window starts
at (h/4)^2 and callers probing divergence pass deeper windows explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .heat import TGrid, heat_sup_field
from .maximal import _smoothstep
from .measures import (Cube, GridMeasure, LOG2_OVER_LOG3, cantor_frostman,
                       curve_measure, default_radius_grid, frostman_constant,
                       lattice_points, measure_sum, new_grid_measure, unit_cube)


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
    """Pass/fail plus numeric margins for the four atom conditions."""

    beta: float
    cube_corner: tuple
    cube_side: float
    passes: dict                  # {"support": bool, ...}
    support_overflow: float       # mass outside the closed cube
    cancellation: float           # |a(Q)|
    sup_ratio: float              # l(Q)^beta * sampled sup of t^{(d-b)/2}|E|
    total_variation: float
    sup_at_x: tuple
    sup_at_t: float
    small_t_exponent: float       # log-log slope of max_x value on low t
    small_t_residual: float
    sup_tol: float
    cancellation_tol: float
    n_points: int
    t_window: tuple
    nodes_per_decade: int
    sampling_rule: str
    extras: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())

    def to_dict(self) -> dict:
        out = {
            "beta": self.beta,
            "cube_corner": list(self.cube_corner),
            "cube_side": self.cube_side,
            "passes": dict(self.passes),
            "all_pass": self.all_pass,
            "margins": {
                "support_overflow": self.support_overflow,
                "cancellation": self.cancellation,
                "sup_ratio": self.sup_ratio,
                "total_variation": self.total_variation,
            },
            "sup_at": {"x": list(self.sup_at_x), "t": self.sup_at_t},
            "small_t": {"exponent": self.small_t_exponent,
                        "residual": self.small_t_residual},
            "tolerances": {"sup": self.sup_tol,
                           "cancellation": self.cancellation_tol},
            "sampling": {"n_points": self.n_points,
                         "t_window": list(self.t_window),
                         "nodes_per_decade": self.nodes_per_decade,
                         "rule": self.sampling_rule},
        }
        out.update({k: v for k, v in self.extras.items()})
        return out


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


def certification_points(cand: AtomCandidate, n_coarse: int = 129,
                         n_far: int = 64, far_reach: float = 16.0) -> np.ndarray:
    """Default x-grid: support points and midpoints, a coarse grid over 4Q,
    and ``n_far`` far points log-spaced out to ``far_reach * l(Q)``."""
    mu = cand.measure
    pts = mu.points()
    parts = [pts, _adjacent_midpoints(pts)]
    big = cand.cube.scaled_about_center(4.0)
    d = cand.d
    if d == 1:
        n_side = n_coarse
        coarse = big.corner[None, :] + np.linspace(0, big.side, n_side)[:, None]
    else:
        n_side = max(9, int(round(n_coarse ** (1.0 / d))))
        coarse = lattice_points([np.linspace(big.corner[a], big.corner[a] + big.side, n_side)
                                 for a in range(d)])
    parts.append(coarse)
    center = cand.cube.center
    if d == 1:
        radii = np.geomspace(2.0 * cand.side, far_reach * cand.side, n_far // 2)
        far = np.concatenate([center[0] + radii, center[0] - radii])[:, None]
    else:
        n_dirs = 8
        n_rad = max(2, n_far // n_dirs)
        radii = np.geomspace(2.0 * cand.side, far_reach * cand.side, n_rad)
        angles = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        if d > 2:
            pad = np.zeros((n_dirs, d - 2))
            dirs = np.hstack([dirs, pad])
        far = center[None, :] + radii[:, None, None] * dirs[None, :, :]
        far = far.reshape(-1, d)
    parts.append(far)
    return np.unique(np.vstack(parts), axis=0)


def certification_tgrid(cand: AtomCandidate, nodes_per_decade: int = 16,
                        far_reach: float = 16.0) -> TGrid:
    return TGrid.for_measure(cand.measure, nodes_per_decade=nodes_per_decade,
                             reach=far_reach * cand.side)


def _small_t_fit(mu: GridMeasure, gamma: float, tgrid: TGrid, decades: float = 1.5):
    """Slope of log10 max_x t^{gamma/2}|E| over the lowest time decades,
    sampled at the heaviest support points (where small-t peaks live)."""
    t_hi = tgrid.t_min * 10.0 ** decades
    tsel = tgrid.nodes[tgrid.nodes <= t_hi]
    if len(tsel) < 4:
        tsel = tgrid.nodes[:4]
    order = np.argsort(-np.abs(mu.weights))[:256]
    pts = mu.points()[order]
    vals = _kernels.heat_values(pts, mu.points(), mu.weights, tsel)
    curve = np.max(tsel[None, :] ** (gamma / 2.0) * np.abs(vals), axis=0)
    good = curve > 0
    if np.sum(good) < 3:
        return 0.0, math.inf
    lx = np.log10(tsel[good])
    ly = np.log10(curve[good])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), resid


def check_beta_atom(cand: AtomCandidate, tgrid: TGrid | None = None,
                    points=None, sup_tol: float = 0.01,
                    cancellation_tol: float = 1e-10,
                    sampling_rule: str | None = None) -> AtomCertificate:
    """Evaluate the four atom conditions on finite samples.

    Failures are reported in the certificate, never raised.  The sampled sup
    in condition (3) lower-bounds the true supremum; the certificate records
    the (x, t) sampling so the verdict is reproducible.
    """
    if not (0 < cand.beta <= cand.d):
        raise ValueError("beta must lie in (0, d]")
    mu = cand.measure
    tg = tgrid or certification_tgrid(cand)
    pts = certification_points(cand) if points is None else \
        np.atleast_2d(np.asarray(points, dtype=np.float64))
    rule = sampling_rule or ("default(support+midpoints+4Q+far)"
                             if points is None else "caller")
    tv = mu.total_variation()
    gamma = cand.d - cand.beta

    inside = cand.cube.contains_points(mu.points(), closed=True)
    overflow = float(np.sum(np.abs(mu.weights[~inside])))
    mass_q = float(np.sum(mu.weights[inside]))

    sup = heat_sup_field(mu, gamma, pts, tg, refine=True)
    i = int(np.argmax(sup.values))
    ratio = float(sup.values[i] * cand.side ** cand.beta)
    slope, resid = _small_t_fit(mu, gamma, tg)

    passes = {
        "support": overflow <= 1e-12 * max(tv, 1.0),
        "cancellation": abs(mass_q) <= cancellation_tol * max(tv, 1e-300),
        "heat_bound": ratio <= 1.0 + sup_tol,
        "variation": tv <= 1.0 + 1e-12,
    }
    return AtomCertificate(
        beta=cand.beta,
        cube_corner=tuple(float(v) for v in cand.cube.corner),
        cube_side=float(cand.side),
        passes=passes,
        support_overflow=overflow,
        cancellation=abs(mass_q),
        sup_ratio=ratio,
        total_variation=tv,
        sup_at_x=tuple(float(v) for v in pts[i]),
        sup_at_t=float(sup.t_at[i]),
        small_t_exponent=slope,
        small_t_residual=resid,
        sup_tol=sup_tol,
        cancellation_tol=cancellation_tol,
        n_points=len(pts),
        t_window=(tg.t_min, tg.t_max),
        nodes_per_decade=tg.nodes_per_decade,
        sampling_rule=rule,
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def make_frostman_atom(beta: float = LOG2_OVER_LOG3, depth: int = 8,
                       safety: float = 0.99):
    """Difference of a Cantor Frostman measure on [0, 1/2] and its translate.

    The mass c2 is chosen so that the measured Frostman constant of each
    piece meets the annuli series bound with the given safety margin (and
    c2 <= 1/2 keeps the total variation at most one).  Returns the candidate
    on Q = [0, 1] and a build-info dict (c1, c2, series value).
    """
    if abs(beta - LOG2_OVER_LOG3) > 1e-9:
        raise ValueError("the Cantor builder realizes beta = log2/log3 only")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    mu_unit, cert_unit = cantor_frostman(depth, 1.0)
    series_unit = frostman_series_value(1.0, beta, 1)
    c1_star = safety / series_unit
    c2 = min(0.5, c1_star / cert_unit.constant)
    half = mu_unit.scaled(c2, name=f"cantor_atom+(d{depth})")
    a = measure_sum([half, half.translated([0.5]).scaled(-1.0)],
                    name=f"cantor_atom(depth={depth})")
    cand = AtomCandidate(measure=a, cube=unit_cube(1), beta=beta)
    info = {
        "c1": c2 * cert_unit.constant,
        "c2": c2,
        "series_value": frostman_series_value(c2 * cert_unit.constant, beta, 1),
        "unit_frostman_constant": cert_unit.constant,
        "depth": depth,
    }
    return cand, info


def make_linf_atom(d: int = 1, resolution: int = 8):
    """Riemann-weight indicator difference: +1 on the lower half of the unit
    cube (first axis), -1 on the upper half; a d-atom after no rescaling."""
    h = 2.0 ** (-resolution)
    n = 2 ** resolution
    idx = lattice_points([np.arange(n, dtype=np.int64)] * d)
    sign = np.where(idx[:, 0] < n // 2, 1.0, -1.0)
    w = sign * h ** d
    mu = new_grid_measure(d, h, np.full(d, 0.5 * h), idx, w, name="linf_atom")
    return AtomCandidate(measure=mu, cube=unit_cube(d), beta=float(d))


def make_loop_atom(polyline, component: int, h: float,
                   safety: float = 0.99, scale: float | None = None):
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
    cert = frostman_constant(var, 1.0, default_radius_grid(var, r_min=2.0 * h))
    series_unit = frostman_series_value(1.0, 1.0, d)
    s_frost = safety / (series_unit * cert.constant)
    comp = vm.components[component]
    tv = comp.total_variation()
    s = min(s_frost, 1.0 / tv if tv > 0 else math.inf)
    if scale is not None:
        s = min(s, scale)
    cand = AtomCandidate(measure=comp.scaled(s, name=f"loop_atom[{component}]"),
                         cube=unit_cube(d), beta=1.0)
    info = {"scale": s, "variation_frostman_constant": cert.constant,
            "series_value": frostman_series_value(s * cert.constant, 1.0, d),
            "component_tv": tv}
    return cand, info


# ---------------------------------------------------------------------------
# derived checks
# ---------------------------------------------------------------------------

def downgrade_check(cand: AtomCandidate, alpha: float,
                    tgrid: TGrid | None = None, points=None,
                    sup_tol: float = 0.01) -> AtomCertificate:
    """Re-certify a beta-certified candidate at a smaller exponent alpha."""
    if not (0 < alpha < cand.beta):
        raise ValueError("need 0 < alpha < beta")
    down = AtomCandidate(measure=cand.measure, cube=cand.cube, beta=alpha)
    return check_beta_atom(down, tgrid=tgrid, points=points, sup_tol=sup_tol)


def normalize_to_standard(cand: AtomCandidate) -> AtomCandidate:
    """Mass-preserving dilation carrying Q onto [-1, 1]^d.

    The heat-bound margin (ratio times l(Q)^beta) is exactly invariant under
    this map, so re-certification reproduces the input margins up to
    quadrature rounding.
    """
    s = 2.0 / cand.side
    mu = cand.measure.dilated(s, cand.cube.center)
    std = Cube(corner=-np.ones(cand.d), side=2.0)
    return AtomCandidate(measure=mu, cube=std, beta=cand.beta)


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicDecomposition:
    """Finite combination sum_i lambda_i a_i of certified atoms (common beta)."""

    entries: tuple                # ((lam, AtomCandidate, AtomCertificate), ...)

    def __post_init__(self):
        if not self.entries:
            return
        beta = self.entries[0][1].beta
        for lam, cand, cert in self.entries:
            if abs(cand.beta - beta) > 1e-12:
                raise ValueError("mixed atom exponents in one decomposition")
            if cert is not None and not cert.all_pass:
                raise ValueError("decomposition contains a failing certificate")

    @property
    def beta(self) -> float:
        return self.entries[0][1].beta if self.entries else math.nan

    @property
    def budget(self) -> float:
        return float(sum(abs(lam) for lam, _, _ in self.entries))


def mollified_indicator_family(d: int, center, extent: float, count: int = 16):
    """Deterministic mollified plateaus at ~3 scales covering the region.

    Each phi is 1 inside radius 0.8 r, 0 outside r, with a smoothstep bridge.
    """
    center = np.asarray(center, dtype=np.float64)
    tests = []

    def plateau(c, r):
        def phi(x):
            dist = np.sqrt(np.sum((np.atleast_2d(x) - c[None, :]) ** 2, axis=1))
            return 1.0 - _smoothstep((dist - 0.8 * r) / (0.2 * r))
        return phi

    tests.append(plateau(center, 1.5 * extent))
    for k, n_side in ((2.0, 3), (4.0, 12)):
        r = 1.5 * extent / k
        if d == 1:
            offs = np.linspace(-extent, extent, n_side)[:, None]
        else:
            m = max(2, int(math.ceil(math.sqrt(n_side))))
            g = np.linspace(-extent, extent, m)
            offs = lattice_points([g] * d)[:n_side]
        for o in offs:
            tests.append(plateau(center + o, r))
        if len(tests) >= count:
            break
    return tests[:count]


def _pair(measure: GridMeasure, phi) -> float:
    if measure.n_masses == 0:
        return 0.0
    return float(np.sum(measure.weights * phi(measure.points())))


def atomic_norm_upper_bound(dec: AtomicDecomposition, target: GridMeasure,
                        n_tests: int = 16):
    """Coefficient budget of an explicit decomposition plus a weak-star
    residual proxy: max over a fixed mollified-indicator family of
    |<target - sum lambda_i a_i, phi>|.

    The budget is an upper bound for the atomic norm; the infimum over all
    decompositions is not computed (and reports must say so).
    """
    bound = dec.budget
    los, his = [target.bbox()[0]], [target.bbox()[1]]
    for _, cand, _ in dec.entries:
        lo, hi = cand.measure.bbox()
        los.append(lo)
        his.append(hi)
    lo = np.min(np.vstack(los), axis=0)
    hi = np.max(np.vstack(his), axis=0)
    center = 0.5 * (lo + hi)
    extent = max(float(np.max(hi - lo)) * 0.75, 1e-6)
    tests = mollified_indicator_family(target.d, center, extent, count=n_tests)
    residual = 0.0
    for phi in tests:
        val = _pair(target, phi)
        for lam, cand, _ in dec.entries:
            val -= lam * _pair(cand.measure, phi)
        residual = max(residual, abs(val))
    return bound, residual
