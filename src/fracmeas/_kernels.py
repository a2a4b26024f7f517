"""Hot numeric kernels: Gaussian heat sums and radial-profile convolutions.

Both are dense numpy sums over every (point, mass) pair, evaluated in row
blocks of the pairwise squared-distance table (``pairwise_sq_dists``).
"""

from __future__ import annotations

import numpy as np

# perfbench records both in every result and refuses to compare results
# whose values differ; numpy is the only backend.
BACKEND = "numpy"
HAVE_NUMBA = False

# Profile kinds understood by the radial convolution kernel.
KIND_GAUSS = 0
KIND_BUMP = 1
KIND_TABLE = 2

_EMPTY = np.zeros(2, dtype=np.float64)


def pairwise_sq_dists(x, y, rows: int):
    """Yield ``(start, stop, d2)`` with ``d2[i, j] = |x[start + i] - y[j]|^2``.

    ``x`` (n, d) is taken ``rows`` rows at a time, so a block's difference
    tensor holds ``rows * len(y) * d`` floats; the values do not depend on
    ``rows``.
    """
    for s in range(0, len(x), rows):
        e = min(len(x), s + rows)
        diff = x[s:e, None, :] - y[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        # free the difference tensor before the caller works on the block
        del diff
        yield s, e, d2


def _bump_profile(z2, amp):
    v = np.zeros_like(z2)
    inside = z2 < 1.0
    v[inside] = amp * np.exp(-1.0 / (1.0 - z2[inside]))
    return v


def heat_values(x, y, w, t):
    """Gaussian heat sums ``out[i,j] = (4 pi t_j)^{-d/2} sum_m w_m G(x_i - y_m; t_j)``.

    ``x``: (n, d) evaluation points; ``y``: (m, d) mass locations; ``w``: (m,)
    weights; ``t``: (nt,) strictly positive times.  The sum runs over every
    pair; exp underflow (below about e^-745) is the only tail cutoff.
    """
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(y, dtype=np.float64)))
    w = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
    t = np.ascontiguousarray(np.asarray(t, dtype=np.float64))
    if np.any(t <= 0):
        raise ValueError("heat times must be positive")
    out = np.zeros((x.shape[0], t.shape[0]))
    if y.shape[0] == 0 or x.shape[0] == 0:
        return out
    pref = (4.0 * np.pi * t) ** (-x.shape[1] / 2.0)
    inv4t = 1.0 / (4.0 * t)
    for s, e, d2 in pairwise_sq_dists(x, y, max(1, 4_000_000 // y.shape[0])):
        for j in range(t.shape[0]):
            out[s:e, j] = np.exp(-d2 * inv4t[j]) @ w
    out *= pref[None, :]
    return out


def radial_conv_values(x, y, w, s, kind, amp=1.0, arg_scale=1.0,
                       table=None, table_dr=1.0, support_radius=1.0):
    """Profile convolutions ``out[i,j] = s_j^{-d} sum_m w_m phi(|x_i-y_m|/s_j)``.

    ``kind`` selects the radial profile phi: ``KIND_GAUSS`` is
    ``amp*exp(-z^2/4)``, ``KIND_BUMP`` is ``amp*exp(-1/(1-(z*arg_scale)^2))``
    inside the unit ball of ``z*arg_scale``, ``KIND_TABLE`` interpolates a
    uniform radial table linearly.  ``support_radius`` bounds the support of
    phi in z; values beyond it are treated as zero.
    """
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(y, dtype=np.float64)))
    w = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
    s = np.ascontiguousarray(np.asarray(s, dtype=np.float64))
    if np.any(s <= 0):
        raise ValueError("dilation scales must be positive")
    table = _EMPTY if table is None else np.ascontiguousarray(table, dtype=np.float64)
    amp, arg_scale = float(amp), float(arg_scale)
    dr, rsup = float(table_dr), float(support_radius)
    out = np.zeros((x.shape[0], s.shape[0]))
    if y.shape[0] == 0 or x.shape[0] == 0:
        return out
    sd = s ** (-x.shape[1])
    for lo, hi, d2 in pairwise_sq_dists(x, y, max(1, 4_000_000 // y.shape[0])):
        r = np.sqrt(d2)
        for j in range(s.shape[0]):
            z = r / s[j]
            if kind == KIND_GAUSS:
                vals = amp * np.exp(-0.25 * z * z)
                vals[z >= rsup] = 0.0
            elif kind == KIND_BUMP:
                vals = _bump_profile((z * arg_scale) ** 2, amp)
            else:
                idx = z / dr
                k = np.minimum(idx.astype(np.int64), table.shape[0] - 2)
                frac = idx - k
                vals = table[k] + frac * (table[k + 1] - table[k])
                vals[z >= rsup] = 0.0
            out[lo:hi, j] = (vals @ w) * sd[j]
    return out
