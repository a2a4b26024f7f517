"""Dyadic, truncated, grand, and anti-local fractional maximal functions;
smoothed frequency projectors; decay-exponent fitting.

Convention note: atoms are stated in heat time t (spatial scale sqrt(t)); the
grand maximal function here sups ``s^gamma |mu * Phi_s|`` over the dilation
parameter ``s = sqrt(t)`` for t in the supplied TGrid, and over the profile
family.  Every report produced from these fields carries that translation.
The supremum is taken over scales as well as profiles (the anti-local
variant restricts it to s > rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.interpolate import CubicSpline
from scipy.special import j0 as _j0

from . import _kernels
from .heat import TGrid
from .measures import DyadicLattice, GridMeasure, SampledField, _cube_sums, _match_rows


# ---------------------------------------------------------------------------
# smooth plateau symbols (Fourier side)
# ---------------------------------------------------------------------------

def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (6.0 * u ** 2 - 15.0 * u + 10.0)


def lowpass_symbol(r):
    """Radial symbol of the low-pass profile: 1 on r<=1/2, 0 on r>=1.

    The bridge is a C^2 quintic smoothstep, so the physical-space kernel has
    a clean r^-4 power tail that log-log fits can certify (an infinitely
    smooth bridge decays faster but visibly curved over any fit window).
    """
    r = np.abs(np.asarray(r, dtype=np.float64))
    return 1.0 - _smoothstep((r - 0.5) * 2.0)


def band_symbol(r):
    """Radial symbol equal to 1 on [1/4, 1], supported in [1/8, 2].

    The plateau covers the full support (1/4, 1) of the band difference
    ``lowpass(u) - lowpass(2u)``, which makes the composition identity
    band-then-tilde == band exact on the Fourier side.
    """
    r = np.abs(np.asarray(r, dtype=np.float64))
    up = _smoothstep((r - 0.125) * 8.0)
    down = 1.0 - _smoothstep(r - 1.0)
    return up * down


def _simpson_weights(n):
    if n % 2 == 0:
        raise ValueError("Simpson needs an odd node count")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


@lru_cache(maxsize=8)
def _radial_table(symbol_name: str, d: int):
    """Physical-space radial table of a Fourier-side plateau symbol.

    d=1 uses an FFT-evaluated cosine transform on a dense grid (table step
    1/256 out to radius 96, absolute accuracy ~1e-10); d=2 uses a direct
    Hankel (J0) quadrature on a lighter grid (step 1/64 out to radius 32).
    """
    symbol = {"low": lowpass_symbol, "band": band_symbol}[symbol_name]
    r_sup = 1.0 if symbol_name == "low" else 2.0
    if d == 1:
        dx = 1.0 / 256.0
        r_tab = 96.0
        n_fft = 2 ** 23
        dr = 1.0 / (n_fft * dx)
        i_sup = int(round(r_sup / dr))
        if i_sup % 2 == 1:
            i_sup += 1
        nodes = np.arange(i_sup + 1) * dr
        vec = np.zeros(n_fft)
        vec[: i_sup + 1] = _simpson_weights(i_sup + 1) * symbol(nodes) * dr
        spec = np.fft.rfft(vec)
        n_out = int(round(r_tab / dx)) + 1
        table = 2.0 * np.real(spec[:n_out])
        return np.arange(n_out) * dx, table
    if d == 2:
        dx = 1.0 / 64.0
        r_tab = 32.0
        n_quad = 8193
        nodes = np.linspace(0.0, r_sup, n_quad)
        wq = _simpson_weights(n_quad) * (r_sup / (n_quad - 1))
        fq = symbol(nodes) * nodes * wq
        radii = np.arange(int(round(r_tab / dx)) + 1) * dx
        table = np.empty(len(radii))
        chunk = 256
        for s in range(0, len(radii), chunk):
            e = min(len(radii), s + chunk)
            table[s:e] = 2.0 * np.pi * (_j0(2.0 * np.pi * np.outer(radii[s:e], nodes)) @ fq)
        return radii, table
    raise ValueError("radial tables implemented for d in {1, 2}")


# ---------------------------------------------------------------------------
# test profiles
# ---------------------------------------------------------------------------

def _sphere_area(d):
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _bump_mass(d, n=20001):
    """integral of exp(-1/(1-|x|^2)) over the unit ball in R^d."""
    r = np.linspace(0.0, 1.0, n)[:-1]
    vals = np.exp(-1.0 / (1.0 - r ** 2)) * r ** (d - 1)
    return _sphere_area(d) * np.trapezoid(vals, r)


@dataclass(frozen=True)
class Profile:
    """One radial test profile with a normalized seminorm budget."""

    name: str
    d: int
    kind: int                      # _kernels.KIND_*
    amp: float
    arg_scale: float
    support_radius: float
    table: np.ndarray | None
    table_dr: float
    seminorm_budget: float
    meta: dict = field(default_factory=dict)

    def values(self, r):
        """Profile value at radial distance r (linear table interpolation)."""
        r = np.abs(np.asarray(r, dtype=np.float64))
        if self.kind == _kernels.KIND_GAUSS:
            v = self.amp * np.exp(-0.25 * r ** 2)
            return np.where(r < self.support_radius, v, 0.0)
        if self.kind == _kernels.KIND_BUMP:
            z2 = (r * self.arg_scale) ** 2
            out = np.zeros_like(r)
            inside = z2 < 1.0
            out[inside] = self.amp * np.exp(-1.0 / (1.0 - z2[inside]))
            return out
        rmax = (len(self.table) - 1) * self.table_dr
        v = np.interp(np.minimum(r, rmax), np.arange(len(self.table)) * self.table_dr,
                      self.table)
        return np.where(r < self.support_radius, v, 0.0)

    def kernel_values(self, r):
        """High-accuracy values for building convolution kernels."""
        if self.kind != _kernels.KIND_TABLE:
            return self.values(r)
        grid = np.arange(len(self.table)) * self.table_dr
        spl = CubicSpline(grid, self.table)
        r = np.abs(np.asarray(r, dtype=np.float64))
        out = np.where(r <= grid[-1], spl(np.minimum(r, grid[-1])), 0.0)
        return out

    def hat(self, rho):
        """Fourier transform at radial frequency rho (convention e^{2 pi i x.xi})."""
        rho = np.abs(np.asarray(rho, dtype=np.float64))
        if self.name.startswith("gauss"):
            return self.amp * (4.0 * math.pi) ** (self.d / 2.0) * np.exp(-4.0 * math.pi ** 2 * rho ** 2)
        if self.name.startswith("xi_low"):
            return lowpass_symbol(rho) * self.meta.get("norm_factor", 1.0)
        if self.name.startswith("xi_band"):
            return band_symbol(rho) * self.meta.get("norm_factor", 1.0)
        # compactly supported bumps: direct radial quadrature
        n = 8193
        r = np.linspace(0.0, self.support_radius, n)
        w = _simpson_weights(n) * (self.support_radius / (n - 1))
        fr = self.values(r) * w
        if self.d == 1:
            return 2.0 * (np.cos(2.0 * np.pi * np.outer(rho, r)) @ fr)
        return 2.0 * np.pi * (_j0(2.0 * np.pi * np.outer(rho, r)) @ (fr * r))


def _axis_seminorm(profile_vals, dx, nu_der, nu_wt, x):
    """max over derivative orders <= nu_der of sup (1+|x|)^nu_wt |g^(j)|."""
    g = profile_vals.copy()
    budget = 0.0
    for _ in range(nu_der + 1):
        budget = max(budget, float(np.max((1.0 + np.abs(x)) ** nu_wt * np.abs(g))))
        g = np.gradient(g, dx)
    return budget


@lru_cache(maxsize=16)
def standard_family(d: int, normalize: bool = True, nu_der: int = 4, nu_wt: int = 4):
    """The five-profile concrete family standing in for the Schwartz class.

    gauss (heat kernel at t=1), the compactly supported mollifier bump, its
    4pi-rescaled copy whose Fourier transform is >= 1 on the unit ball, and
    the low-pass / band plateau profiles.  With ``normalize`` each profile is
    divided by its measured axis-section seminorm budget, so recorded budgets
    are 1; the raw budget stays in ``meta``.
    """
    profiles = []
    c_bump = 1.0 / _bump_mass(d)
    amp_psi = 2.0 * (4.0 * math.pi) ** d * c_bump
    specs = [
        ("gauss", _kernels.KIND_GAUSS, (4.0 * math.pi) ** (-d / 2.0), 1.0, 12.0, None, 1.0),
        ("rho", _kernels.KIND_BUMP, c_bump, 1.0, 1.0, None, 1.0),
        ("psi", _kernels.KIND_BUMP, amp_psi, 4.0 * math.pi, 1.0 / (4.0 * math.pi), None, 1.0),
    ]
    for sym in ("low", "band"):
        radii, table = _radial_table(sym, d)
        specs.append((f"xi_{sym}", _kernels.KIND_TABLE, 1.0, 1.0,
                      float(radii[-1]), table, float(radii[1] - radii[0])))
    for name, kind, amp, ascale, sup, table, dr in specs:
        prof = Profile(name=name, d=d, kind=kind, amp=amp, arg_scale=ascale,
                       support_radius=sup, table=table, table_dr=dr,
                       seminorm_budget=1.0, meta={})
        span = min(sup, 16.0)
        x = np.arange(-span, span + 1e-12, min(dr, 1.0 / 512.0) if table is not None else
                      min(span / 4096.0, 1.0 / 512.0))
        raw = _axis_seminorm(prof.values(np.abs(x)), float(x[1] - x[0]),
                             nu_der, nu_wt, x)
        factor = 1.0 / raw if (normalize and raw > 0) else 1.0
        meta = {"raw_seminorm": raw, "norm_factor": factor,
                "nu_der": nu_der, "nu_wt": nu_wt,
                "fourier_support": {"low": (0.0, 1.0), "band": (0.125, 2.0)}.get(
                    name[3:], None) if name.startswith("xi_") else None,
                "compact_support": kind != _kernels.KIND_GAUSS,
                "tail_power": 4 if table is not None else None}
        profiles.append(Profile(
            name=name, d=d, kind=kind, amp=amp * factor, arg_scale=ascale,
            support_radius=sup,
            table=None if table is None else table * factor, table_dr=dr,
            seminorm_budget=1.0 if normalize else raw, meta=meta))
    return TestFamily(profiles=tuple(profiles), d=d, nu_der=nu_der, nu_wt=nu_wt,
                      normalized=normalize)


@dataclass(frozen=True)
class TestFamily:
    profiles: tuple
    d: int
    nu_der: int
    nu_wt: int
    normalized: bool

    def __getitem__(self, name: str) -> Profile:
        for p in self.profiles:
            if p.name == name:
                return p
        raise KeyError(name)

    def subset(self, names) -> "TestFamily":
        return TestFamily(profiles=tuple(p for p in self.profiles if p.name in names),
                          d=self.d, nu_der=self.nu_der, nu_wt=self.nu_wt,
                          normalized=self.normalized)


# ---------------------------------------------------------------------------
# maximal fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaximalField:
    """Pointwise suprema with attainment metadata (profile name, scale)."""

    points: np.ndarray
    values: np.ndarray
    att_profile: np.ndarray      # profile name (or level, for dyadic variants)
    att_scale: np.ndarray        # dilation s (or cube side)
    gamma: float
    truncation: float | None = None
    convention: str = "dilation s = sqrt(heat t); sup over profiles and s"


def grand_maximal(mu: GridMeasure, family: TestFamily, gamma: float, points,
                  tgrid: TGrid, s_min: float | None = None) -> MaximalField:
    """sup over profiles and scales of s^gamma |mu * Phi_s(x)|."""
    if not (0 <= gamma):
        raise ValueError("gamma must be nonnegative")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    svals = np.sqrt(tgrid.nodes)
    if s_min is not None:
        svals = svals[svals > s_min]
        if len(svals) == 0:
            svals = np.array([s_min * (1.0 + 1e-9)])
    best = np.zeros(len(pts))
    best_p = np.full(len(pts), "", dtype=object)
    best_s = np.full(len(pts), svals[0])
    y = mu.points()
    w = mu.weights
    for prof in family.profiles:
        conv = _kernels.radial_conv_values(
            pts, y, w, svals, prof.kind, amp=prof.amp, arg_scale=prof.arg_scale,
            table=prof.table, table_dr=prof.table_dr,
            support_radius=prof.support_radius)
        weighted = svals[None, :] ** gamma * np.abs(conv)
        j = np.argmax(weighted, axis=1)
        vals = weighted[np.arange(len(pts)), j]
        better = vals > best
        best = np.where(better, vals, best)
        best_s = np.where(better, svals[j], best_s)
        best_p = np.where(better, prof.name, best_p)
    return MaximalField(points=pts, values=best, att_profile=best_p.astype(str),
                        att_scale=best_s, gamma=gamma,
                        truncation=s_min)


def anti_local_maximal(mu: GridMeasure, family: TestFamily, alpha: float,
                       rho: float, points, tgrid: TGrid) -> MaximalField:
    """Grand maximal restricted to dilation scales s > rho."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return grand_maximal(mu, family, alpha, points, tgrid, s_min=rho)


def dyadic_maximal(mu: GridMeasure, lattice: DyadicLattice, gamma: float,
                   points, k_min: int, k_max: int,
                   min_side: float | None = None) -> MaximalField:
    """sup over dyadic cubes containing x of |mu(Q)| / l(Q)^{d - gamma}.

    Levels run k_min..k_max; ``min_side`` drops levels with l(Q) < min_side
    (the truncated variant).  Attainment stores the optimal cube side.
    """
    if k_min > k_max:
        raise ValueError("k_min must not exceed k_max")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    d = lattice.d
    out = np.zeros(len(pts))
    att_side = np.zeros(len(pts))
    mass_pts = mu.points()
    for k in range(k_min, k_max + 1):
        side = lattice.side(k)
        if min_side is not None and side < min_side * (1 - 1e-12):
            continue
        uniq, sums = _cube_sums(lattice.index_of(mass_pts, k), mu.weights)
        # a sample point in an empty cube matches -1: the appended zero mass
        pos = _match_rows(uniq, lattice.index_of(pts, k))
        masses = np.append(sums, 0.0)[pos]
        vals = np.abs(masses) / side ** (d - gamma)
        better = vals > out
        out = np.where(better, vals, out)
        att_side = np.where(better, side, att_side)
    return MaximalField(points=pts, values=out,
                        att_profile=np.full(len(pts), "dyadic"),
                        att_scale=att_side, gamma=gamma,
                        truncation=min_side,
                        convention="dyadic cubes; attainment stores l(Q)")


def truncated_dyadic_maximal(mu: GridMeasure, lattice: DyadicLattice, gamma: float,
                             truncation: float, points, k_min: int, k_max: int) -> MaximalField:
    """Dyadic maximal over cubes with l(Q) >= truncation."""
    if truncation <= 0:
        raise ValueError("truncation length must be positive")
    return dyadic_maximal(mu, lattice, gamma, points, k_min, k_max,
                          min_side=truncation)


# ---------------------------------------------------------------------------
# smoothed frequency projectors
# ---------------------------------------------------------------------------

def _dense_from_measure(mu: GridMeasure):
    lo = mu.indices.min(axis=0)
    hi = mu.indices.max(axis=0)
    shape = tuple(hi - lo + 1)
    dense = np.zeros(shape)
    dense[tuple((mu.indices - lo).T)] = mu.weights
    origin = mu.origin + lo * mu.h
    return origin, dense


def _projector_kernel(profile: Profile, k: int, h: float, d: int):
    reach = profile.support_radius / 2.0 ** k
    n = int(math.ceil(reach / h))
    offs = np.arange(-n, n + 1) * h
    if d == 1:
        r = np.abs(offs) * 2.0 ** k
        return 2.0 ** k * profile.kernel_values(r)
    gx, gy = np.meshgrid(offs, offs, indexing="ij")
    r = np.sqrt(gx ** 2 + gy ** 2) * 2.0 ** k
    return 4.0 ** k * profile.kernel_values(r)


def _full_convolution(a, b):
    """Full linear convolution of two real d-arrays via zero-padded real FFTs.

    Axes where either input has length 1 are not transformed: broadcasting
    convolves them exactly.
    """
    shape = [m + n - 1 for m, n in zip(a.shape, b.shape)]
    axes = [i for i in range(a.ndim) if a.shape[i] != 1 and b.shape[i] != 1]
    if not axes:
        return a * b
    fshape = [next_fast_len(shape[i], real=True) for i in axes]
    spec = rfftn(a, fshape, axes=axes) * rfftn(b, fshape, axes=axes)
    return irfftn(spec, fshape, axes=axes)[tuple(slice(n) for n in shape)]


def _lowpass_raw(f, k: int, profile: Profile):
    """Convolution with the dilated low-pass profile; 'full' output grid."""
    if isinstance(f, GridMeasure):
        origin, dense, scale = *_dense_from_measure(f), 1.0
        h = f.h
    else:
        origin, dense, scale = f.origin, f.values, f.cell_volume
        h = f.spacing
    if 2.0 ** k > 1.0 / (2.0 * h) * (1 + 1e-12):
        raise ValueError(f"projector level {k} above the grid Nyquist 1/(2h)")
    ker = _projector_kernel(profile, k, h, f.d)
    vals = _full_convolution(dense, ker) * scale
    n = (ker.shape[0] - 1) // 2
    return SampledField(origin=origin - n * h, spacing=h, values=vals, k=k)


def lp_lowpass(f, k: int, family: TestFamily | None = None) -> SampledField:
    """Smoothed low-pass projector P_{<=k}: convolution with Xi_k."""
    fam = family or standard_family(f.d, normalize=False)
    return _lowpass_raw(f, k, fam["xi_low"])


def lp_band(f, k: int, family: TestFamily | None = None) -> SampledField:
    """Band projector P_k = P_{<=k} - P_{<=k-1} (exact telescoping by design)."""
    low_k = lp_lowpass(f, k, family)
    low_km1 = lp_lowpass(f, k - 1, family)
    return _field_sub(low_k, low_km1)


def _field_sub(a: SampledField, b: SampledField) -> SampledField:
    """a - b on the union grid (grids share spacing and alignment)."""
    if not math.isclose(a.spacing, b.spacing, rel_tol=1e-12):
        raise ValueError("mismatched grids")
    h = a.spacing
    off = np.rint((b.origin - a.origin) / h).astype(np.int64)
    lo = np.minimum(np.zeros_like(off), off)
    a_shape = np.array(a.values.shape)
    b_shape = np.array(b.values.shape)
    hi = np.maximum(a_shape, off + b_shape)
    out = np.zeros(tuple(hi - lo))
    sl_a = tuple(slice(-l, -l + s) for l, s in zip(lo, a_shape))
    sl_b = tuple(slice(o - l, o - l + s) for o, l, s in zip(off, lo, b_shape))
    out[sl_a] += a.values
    out[sl_b] -= b.values
    return SampledField(origin=a.origin + lo * h, spacing=h, values=out, k=a.k)


def lp_apply_tilde(g: SampledField, family: TestFamily | None = None) -> SampledField:
    """Apply the widened band profile at the field's own level k."""
    fam = family or standard_family(g.d, normalize=False)
    return _lowpass_raw(g, g.k, fam["xi_band"])


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    exponent: float
    residual: float
    r_lo: float
    r_hi: float
    n_bins: int
    defined: bool = True


def decay_fit(points, values, center, r_lo: float, r_hi: float,
              n_bins: int = 12) -> DecayFit:
    """Log-log least squares of per-shell max |value| against radius.

    Shell maxima ride the envelope of oscillatory tails.  The residual is the
    RMS of log10 residuals; an all-zero tail yields the undefined sentinel.
    """
    if n_bins < 8:
        raise ValueError("need at least 8 radial bins")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    center = np.asarray(center, dtype=np.float64)
    dist = np.sqrt(np.sum((pts - center[None, :]) ** 2, axis=1))
    vals = np.abs(np.asarray(values, dtype=np.float64).reshape(-1))
    edges = np.geomspace(r_lo, r_hi, n_bins + 1)
    rads, peaks = [], []
    for i in range(n_bins):
        sel = np.nonzero((dist >= edges[i]) & (dist < edges[i + 1]))[0]
        if len(sel) == 0:
            continue
        j = sel[np.argmax(vals[sel])]
        if vals[j] <= 0:
            continue
        # fit at the attaining radius, not the bin center: shell maxima ride
        # the envelope of oscillatory tails without placement bias
        rads.append(float(dist[j]))
        peaks.append(float(vals[j]))
    if len(rads) < 8:
        return DecayFit(exponent=math.nan, residual=math.inf, r_lo=r_lo,
                        r_hi=r_hi, n_bins=len(rads), defined=False)
    lx = np.log10(np.array(rads))
    ly = np.log10(np.array(peaks))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return DecayFit(exponent=float(slope), residual=resid, r_lo=r_lo, r_hi=r_hi,
                    n_bins=len(rads))
