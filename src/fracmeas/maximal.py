"""Dyadic and grand fractional maximal functions, with their truncated and
anti-local variants; smoothed frequency projectors.

Convention note: atoms are stated in heat time t (spatial scale sqrt(t)); the
grand maximal function here sups ``s^gamma |mu * Phi_s|`` over the dilation
parameter ``s = sqrt(t)`` for t in the supplied TGrid, and over the profile
family.  Every report produced from these fields carries that translation.
The supremum is taken over scales as well as profiles (the anti-local
variant restricts it to s > rho, the truncated dyadic one to cubes of side
at least the truncation length).

``scipy.fft`` and ``scipy.interpolate`` load on first use, inside
``_full_convolution`` and ``Profile.kernel_values``.  Only the frequency
projectors (``lp_lowpass``, ``lp_band``) reach them.
Imported with this module, they and what they pull in (``scipy.optimize``,
``scipy.linalg``, ``scipy.sparse``) would cost every process, ``fracmeas
verify`` included, about 0.3 s and 27 MB of start-up.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _gamma, _kernels
from .heat import TGrid
from .measures import DyadicLattice, GridMeasure, SampledField, _cube_sums, _match_rows


# table step per dimension; the radii of every table are arange(n) * step
_TABLE_STEP = {1: 1.0 / 256.0, 2: 1.0 / 64.0}
_TABLES_PATH = os.path.join(os.path.dirname(__file__), "radial_tables.npz")


@lru_cache(maxsize=8)
def _radial_table(symbol_name: str, d: int):
    """``(radii, table)`` of a plateau symbol, read from the package.

    ``radial_tables.npz`` holds the float64 tables of the Fourier-side
    plateau symbols, keyed ``"<symbol_name>_d<d>"``: reading one takes
    milliseconds, computing it up to a second (and, for d=1, about 200 MB).
    Their definition is ``quadrature_table`` in ``tests/fourier.py``; the
    tier-1 test ``test_maximal.py::test_shipped_tables_match_quadrature``
    checks the file against it bit for bit, and its failure message gives the
    command that rewrites the file.
    """
    if d not in _TABLE_STEP:
        raise ValueError("radial tables implemented for d in {1, 2}")
    with np.load(_TABLES_PATH) as tables:
        table = tables[f"{symbol_name}_d{d}"]
    return np.arange(len(table)) * _TABLE_STEP[d], table


# ---------------------------------------------------------------------------
# test profiles
# ---------------------------------------------------------------------------

def _sphere_area(d):
    # the module, not its function: ``gamma`` names the maximal order here
    return 2.0 * math.pi ** (d / 2.0) / _gamma.gamma(d / 2.0)


def _bump_mass(d):
    """integral of exp(-1/(1-|x|^2)) over the unit ball in R^d."""
    r = np.linspace(0.0, 1.0, 20001)[:-1]
    vals = np.exp(-1.0 / (1.0 - r ** 2)) * r ** (d - 1)
    return _sphere_area(d) * np.trapezoid(vals, r)


@dataclass(frozen=True)
class Profile:
    """One radial test profile, by its values in physical space.  ``values``
    is exactly 0.0 at every radius ``r >= support_radius``, where the radial
    convolution (``_kernels.radial_conv_values``) never evaluates it."""

    name: str
    d: int
    kind: str                      # "gauss", "bump" or "table"
    amp: float
    arg_scale: float
    support_radius: float
    table: np.ndarray | None
    table_dr: float

    def values(self, r):
        """Profile value at radial distance r (linear table interpolation).

        The table spacings are powers of two, so ``r / table_dr`` and its
        fractional part are exact: the value is bit for bit the piecewise
        linear interpolant through the table nodes.  Each formula runs on
        the whole array, with no boolean indexing, and keeps the bits of its
        pointwise form; every radius that is not below the support (NaN
        too) gives 0.0.  The Gaussian and the bump read such a radius as one
        inside (exp is slow where it underflows) and zero its value after.
        A 0-d input gives a 0-d result.
        """
        r = np.asarray(r, dtype=np.float64)
        shape = r.shape
        r = np.abs(r.reshape(-1))
        if self.kind == "gauss":
            outside = ~(r < self.support_radius)
            z = np.minimum(r, self.support_radius)
            np.square(z, out=z)
            z *= -0.25
            np.exp(z, out=z)
            z *= self.amp
            np.copyto(z, 0.0, where=outside)
            return z.reshape(shape)
        if self.kind == "bump":
            z2 = r * self.arg_scale
            np.square(z2, out=z2)
            outside = ~(z2 < 1.0)
            np.copyto(z2, 0.0, where=outside)
            np.subtract(1.0, z2, out=z2)
            np.divide(-1.0, z2, out=z2)
            np.exp(z2, out=z2)
            z2 *= self.amp
            np.copyto(z2, 0.0, where=outside)
            return z2.reshape(shape)
        idx = r / self.table_dr
        # clamp before the integer cast, so no radius can overflow int64;
        # fmin clamps a NaN too (its value is zeroed below)
        k = np.fmin(idx, len(self.table) - 2).astype(np.int64)
        idx -= k
        v = np.take(self.table, k, mode="clip")
        k += 1
        step = np.take(self.table, k, mode="clip")
        step -= v
        step *= idx
        v += step
        np.copyto(v, 0.0, where=~(r < self.support_radius))
        return v.reshape(shape)

    def kernel_values(self, r):
        """High-accuracy values for building convolution kernels.

        Only the projector kernels call this, so ``scipy.interpolate`` is
        imported here, on first use: a process that never projects (every
        ``fracmeas verify`` target) does not load it.  The projectors use
        only the plateau profiles, so the profile must be a table.
        """
        from scipy.interpolate import CubicSpline

        grid = np.arange(len(self.table)) * self.table_dr
        spl = CubicSpline(grid, self.table)
        r = np.abs(np.asarray(r, dtype=np.float64))
        out = np.where(r <= grid[-1], spl(np.minimum(r, grid[-1])), 0.0)
        return out


def _axis_seminorm(profile_vals, dx, nu_der, nu_wt, x):
    """max over derivative orders <= nu_der of sup (1+|x|)^nu_wt |g^(j)|."""
    g = profile_vals.copy()
    budget = 0.0
    for _ in range(nu_der + 1):
        budget = max(budget, float(np.max((1.0 + np.abs(x)) ** nu_wt * np.abs(g))))
        g = np.gradient(g, dx)
    return budget


# the seminorm budget: derivative orders up to _NU_DER, weight (1+|x|)^_NU_WT
_NU_DER = 4
_NU_WT = 4


@lru_cache(maxsize=16)
def standard_family(d: int, normalize: bool = True):
    """The five-profile concrete family standing in for the Schwartz class.

    gauss (heat kernel at t=1), the compactly supported mollifier bump, its
    4pi-rescaled copy whose Fourier transform is >= 1 on the unit ball, and
    the low-pass / band plateau profiles.  With ``normalize`` each profile is
    divided by its measured axis-section seminorm budget, so each has budget 1.
    """
    profiles = []
    c_bump = 1.0 / _bump_mass(d)
    amp_psi = 2.0 * (4.0 * math.pi) ** d * c_bump
    specs = [
        ("gauss", "gauss", (4.0 * math.pi) ** (-d / 2.0), 1.0, 12.0, None, 1.0),
        ("rho", "bump", c_bump, 1.0, 1.0, None, 1.0),
        ("psi", "bump", amp_psi, 4.0 * math.pi, 1.0 / (4.0 * math.pi), None, 1.0),
    ]
    for sym in ("low", "band"):
        radii, table = _radial_table(sym, d)
        specs.append((f"xi_{sym}", "table", 1.0, 1.0,
                      float(radii[-1]), table, float(radii[1] - radii[0])))
    for name, kind, amp, ascale, sup, table, dr in specs:
        prof = Profile(name=name, d=d, kind=kind, amp=amp, arg_scale=ascale,
                       support_radius=sup, table=table, table_dr=dr)
        span = min(sup, 16.0)
        x = np.arange(-span, span + 1e-12, min(dr, 1.0 / 512.0) if table is not None else
                      min(span / 4096.0, 1.0 / 512.0))
        raw = _axis_seminorm(prof.values(np.abs(x)), float(x[1] - x[0]),
                             _NU_DER, _NU_WT, x)
        factor = 1.0 / raw if (normalize and raw > 0) else 1.0
        profiles.append(Profile(
            name=name, d=d, kind=kind, amp=amp * factor, arg_scale=ascale,
            support_radius=sup,
            table=None if table is None else table * factor, table_dr=dr))
    return TestFamily(profiles=tuple(profiles), d=d)


@dataclass(frozen=True)
class TestFamily:
    profiles: tuple
    d: int

    def __getitem__(self, name: str) -> Profile:
        for p in self.profiles:
            if p.name == name:
                return p
        raise KeyError(name)


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
    convention: str = "dilation s = sqrt(heat t); sup over profiles and s"


def _check_gamma(gamma):
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma}")


def grand_maximal(mu: GridMeasure, family: TestFamily, gamma: float, points,
                  tgrid: TGrid, s_min: float | None = None) -> MaximalField:
    """sup over profiles and scales of s^gamma |mu * Phi_s(x)|.

    ``s_min`` keeps the scales s > s_min (the anti-local variant), or the
    scale just above it when no node of ``tgrid`` is above it.
    """
    _check_gamma(gamma)
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    svals = np.sqrt(tgrid.nodes)
    if s_min is not None:
        svals = svals[svals > s_min]
        if len(svals) == 0:
            svals = np.array([s_min * (1.0 + 1e-9)])
    with np.errstate(over="ignore"):
        weights = svals ** gamma
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"gamma {gamma}: s**gamma overflows at the scale s = "
                         f"{svals[np.argmin(np.isfinite(weights))]}")
    best = np.zeros(len(pts))
    best_p = np.full(len(pts), "", dtype=object)
    best_s = np.full(len(pts), svals[0])
    y = mu.points()
    w = mu.weights
    k = len(svals)
    conv = _kernels.radial_conv_values(pts, y, w, svals, family.profiles)
    for p, prof in enumerate(family.profiles):
        weighted = weights[None, :] * np.abs(conv[:, p * k:(p + 1) * k])
        j = np.argmax(weighted, axis=1)
        vals = weighted[np.arange(len(pts)), j]
        better = vals > best
        best = np.where(better, vals, best)
        best_s = np.where(better, svals[j], best_s)
        best_p = np.where(better, prof.name, best_p)
    return MaximalField(points=pts, values=best, att_profile=best_p.astype(str),
                        att_scale=best_s)


def dyadic_maximal(mu: GridMeasure, lattice: DyadicLattice, gamma: float,
                   points, k_min: int, k_max: int,
                   min_side: float | None = None) -> MaximalField:
    """sup over dyadic cubes containing x of |mu(Q)| / l(Q)^{d - gamma}.

    Levels run k_min..k_max; ``min_side`` drops levels with l(Q) < min_side
    (the truncated variant).  Attainment stores the optimal cube side.
    """
    _check_gamma(gamma)
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
        try:
            norm = side ** (d - gamma)
        except OverflowError:
            norm = math.inf
        if not 0.0 < norm < math.inf:
            raise ValueError(f"gamma {gamma}: l(Q)^(d - gamma) at level {k} is "
                             f"{norm}, not a positive finite float")
        uniq, sums = _cube_sums(lattice.index_of(mass_pts, k), mu.weights)
        # a sample point in an empty cube matches -1: the appended zero mass
        pos = _match_rows(uniq, lattice.index_of(pts, k))
        masses = np.append(sums, 0.0)[pos]
        vals = np.abs(masses) / norm
        better = vals > out
        out = np.where(better, vals, out)
        att_side = np.where(better, side, att_side)
    return MaximalField(points=pts, values=out,
                        att_profile=np.full(len(pts), "dyadic"),
                        att_scale=att_side,
                        convention="dyadic cubes; attainment stores l(Q)")


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


# most nodes a projector kernel may have (256 MB of float64); at k = 0 a
# depth-8 Cantor measure needs 5.0M and the d = 2 lattice of spacing 1/64 16.8M
_MAX_KERNEL_NODES = 2 ** 25


def _projector_kernel(profile: Profile, k: int, h: float, d: int):
    # the kernel has (2n + 1)^d nodes; its half-width n grows as 2^-k, so a
    # negative k is checked before anything is built (2.0 ** k underflows
    # below k = -1022, where n is past the cap anyway)
    n = math.inf if k < -1022 else profile.support_radius / 2.0 ** k / h
    if not n < _MAX_KERNEL_NODES or (2 * math.ceil(n) + 1) ** d > _MAX_KERNEL_NODES:
        raise ValueError(f"projector level k = {k} needs a kernel of more than "
                         f"{_MAX_KERNEL_NODES} nodes on this grid")
    n = math.ceil(n)
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
    convolves them exactly.  ``scipy.fft`` is imported here, on first use:
    the projectors are the only callers, and a process that never projects
    (every ``fracmeas verify`` target) does not load it.
    """
    shape = [m + n - 1 for m, n in zip(a.shape, b.shape)]
    axes = [i for i in range(a.ndim) if a.shape[i] != 1 and b.shape[i] != 1]
    if not axes:
        return a * b
    from scipy.fft import irfftn, next_fast_len, rfftn

    fshape = [next_fast_len(shape[i], real=True) for i in axes]
    spec = rfftn(a, fshape, axes=axes) * rfftn(b, fshape, axes=axes)
    return irfftn(spec, fshape, axes=axes)[tuple(slice(n) for n in shape)]


def _lowpass_raw(mu: GridMeasure, k: int, profile: Profile):
    """Convolution of a grid measure's masses with the dilated profile;
    'full' output grid."""
    origin, dense = _dense_from_measure(mu)
    h = mu.h
    # 2.0 ** k overflows above k = 1023, far above any grid's Nyquist level
    if k > 1023 or 2.0 ** k > 1.0 / (2.0 * h) * (1 + 1e-12):
        raise ValueError(f"projector level {k} above the grid Nyquist 1/(2h)")
    ker = _projector_kernel(profile, k, h, mu.d)
    vals = _full_convolution(dense, ker)
    n = (ker.shape[0] - 1) // 2
    return SampledField(origin=origin - n * h, spacing=h, values=vals)


def lp_lowpass(mu: GridMeasure, k: int) -> SampledField:
    """Smoothed low-pass projector P_{<=k}: convolution with Xi_k."""
    return _lowpass_raw(mu, k, standard_family(mu.d, normalize=False)["xi_low"])


def lp_band(mu: GridMeasure, k: int) -> SampledField:
    """Band projector P_k = P_{<=k} - P_{<=k-1} (exact telescoping by design)."""
    return _field_sub(lp_lowpass(mu, k), lp_lowpass(mu, k - 1))


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
    return SampledField(origin=a.origin + lo * h, spacing=h, values=out)

