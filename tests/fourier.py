"""The Fourier side of the maximal module's test profiles, for the tests.

The plateau profiles ``xi_low`` and ``xi_band`` are defined by their radial
symbols; ``quadrature_table`` turns a symbol into the physical-space table
that ``fracmeas/radial_tables.npz`` ships, and a tier-1 test checks the file
against it bit for bit.  ``bump_hat`` is the transform of the compactly
supported bumps, through which the tests check the family's defining
properties (rho-hat(0) = 1, psi-hat >= 1 on the unit ball).  No command
reads a symbol or a transform, so they live with the tests.  ``scipy.special``
(for J0) loads only in their d=2 branches.
"""

from __future__ import annotations

import numpy as np

from fracmeas.maximal import _TABLE_STEP


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


def simpson_weights(n):
    if n % 2 == 0:
        raise ValueError("Simpson needs an odd node count")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def quadrature_table(symbol_name: str, d: int):
    """Physical-space radial table of a Fourier-side plateau symbol.

    The definition of the tables that ``maximal._radial_table`` reads from
    the package.  d=1 uses an FFT-evaluated cosine transform on a dense grid
    (table step 1/256 out to radius 96, absolute accuracy ~1e-10); d=2 uses a
    direct Hankel (J0) quadrature on a lighter grid (step 1/64 out to radius
    32).  Both d=1 tables together take about 0.8 s and 200 MB of memory,
    both d=2 tables about 1.5 s.
    """
    symbol = {"low": lowpass_symbol, "band": band_symbol}[symbol_name]
    r_sup = 1.0 if symbol_name == "low" else 2.0
    if d == 1:
        dx = _TABLE_STEP[1]
        r_tab = 96.0
        n_fft = 2 ** 23
        dr = 1.0 / (n_fft * dx)
        i_sup = int(round(r_sup / dr))
        if i_sup % 2 == 1:
            i_sup += 1
        nodes = np.arange(i_sup + 1) * dr
        vec = np.zeros(n_fft)
        vec[: i_sup + 1] = simpson_weights(i_sup + 1) * symbol(nodes) * dr
        spec = np.fft.rfft(vec)
        n_out = int(round(r_tab / dx)) + 1
        table = 2.0 * np.real(spec[:n_out])
        return np.arange(n_out) * dx, table
    if d == 2:
        from scipy.special import j0

        dx = _TABLE_STEP[2]
        r_tab = 32.0
        n_quad = 8193
        nodes = np.linspace(0.0, r_sup, n_quad)
        wq = simpson_weights(n_quad) * (r_sup / (n_quad - 1))
        fq = symbol(nodes) * nodes * wq
        radii = np.arange(int(round(r_tab / dx)) + 1) * dx
        table = np.empty(len(radii))
        chunk = 256
        for s in range(0, len(radii), chunk):
            e = min(len(radii), s + chunk)
            table[s:e] = 2.0 * np.pi * np.einsum(
                "ij,j->i", j0(2.0 * np.pi * np.outer(radii[s:e], nodes)), fq)
        return radii, table
    raise ValueError("radial tables implemented for d in {1, 2}")


def bump_hat(profile, rho):
    """Fourier transform of a compactly supported bump profile at radial
    frequency rho (convention e^{2 pi i x.xi}), by direct radial quadrature."""
    rho = np.abs(np.asarray(rho, dtype=np.float64))
    n = 8193
    r = np.linspace(0.0, profile.support_radius, n)
    w = simpson_weights(n) * (profile.support_radius / (n - 1))
    fr = profile.values(r) * w
    if profile.d == 1:
        return 2.0 * np.einsum("ij,j->i", np.cos(2.0 * np.pi * np.outer(rho, r)), fr)
    from scipy.special import j0

    return 2.0 * np.pi * np.einsum("ij,j->i", j0(2.0 * np.pi * np.outer(rho, r)), fr * r)
