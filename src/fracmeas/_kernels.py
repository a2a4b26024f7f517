"""Hot numeric kernels: Gaussian heat sums and radial-profile convolutions.

Both are dense numpy sums over every (point, mass) pair, evaluated in row
blocks of the pairwise squared-distance table (``pairwise_sq_dists``).  The
radial convolution takes its profile as a function of the scaled distance
(``maximal.Profile.values``), so each profile formula is written once.
"""

from __future__ import annotations

import numpy as np

# perfbench records both in every result and refuses to compare results
# whose values differ; numpy is the only backend.
BACKEND = "numpy"
HAVE_NUMBA = False


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


def radial_conv_values(x, y, w, s, phi):
    """Profile convolutions ``out[i,j] = s_j^{-d} sum_m w_m phi(|x_i-y_m|/s_j)``.

    ``phi`` maps an array of scaled distances ``z >= 0`` to the radial
    profile's values there, elementwise (``maximal.Profile.values``).
    """
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(y, dtype=np.float64)))
    w = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
    s = np.ascontiguousarray(np.asarray(s, dtype=np.float64))
    if np.any(s <= 0):
        raise ValueError("dilation scales must be positive")
    out = np.zeros((x.shape[0], s.shape[0]))
    if y.shape[0] == 0 or x.shape[0] == 0:
        return out
    sd = s ** (-x.shape[1])
    for lo, hi, d2 in pairwise_sq_dists(x, y, max(1, 4_000_000 // y.shape[0])):
        r = np.sqrt(d2)
        for j in range(s.shape[0]):
            z = r / s[j]
            vals = phi(z)
            out[lo:hi, j] = (vals @ w) * sd[j]
    return out
