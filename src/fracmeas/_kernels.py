"""Hot numeric kernels: Gaussian heat sums and radial-profile convolutions.

Both are dense numpy sums over every (point, mass) pair, evaluated in row
blocks of the pairwise squared-distance table (``pairwise_sq_dists``).  A
Gaussian term whose exponent lies below -746 is written as 0.0 and never
evaluated (``_gauss_terms``): exp returns exactly 0.0 there anyway.  The sums
stay dense, one matrix-vector product per fixed row block, because BLAS row
results depend on the block; so the results do not move by a bit.  The
radial convolution takes its profile as a function of the scaled distance
(``maximal.Profile.values``), so each profile formula is written once.
"""

from __future__ import annotations

import numpy as np

# perfbench records both in every result and refuses to compare results
# whose values differ; numpy is the only backend.
BACKEND = "numpy"
HAVE_NUMBA = False

# exp(a) is exactly 0.0 for every double a below about -745.13
EXP_FLOOR = -746.0


def pairwise_sq_dists(x, y, rows: int):
    """Yield ``(start, stop, d2)`` with ``d2[i, j] = |x[start + i] - y[j]|^2``.

    ``x`` (n, d) is taken ``rows`` rows at a time; the values do not depend
    on ``rows``.  The squared per-axis differences are added even axes first,
    then odd axes, then the two partial sums: the order in which numpy's
    ``einsum("ijk,ijk->ij")`` sums them for d <= 7, so for those dimensions
    the distances equal the einsum ones bit for bit.  A block holds at most
    three ``rows * len(y)`` arrays at a time.  ``heat_values`` writes 0.0 for
    the Gaussian terms whose exponent is below -746 and never evaluates them,
    but still sums each block densely: BLAS row results depend on the block,
    so callers keep their row counts fixed.
    """
    d = x.shape[1]
    for s in range(0, len(x), rows):
        e = min(len(x), s + rows)
        d2 = _axis_sq(x[s:e], y, 0)
        for a in range(2, d, 2):
            d2 += _axis_sq(x[s:e], y, a)
        if d > 1:
            odd = _axis_sq(x[s:e], y, 1)
            for a in range(3, d, 2):
                odd += _axis_sq(x[s:e], y, a)
            d2 += odd
            del odd
        yield s, e, d2


def _axis_sq(x, y, a):
    diff = np.subtract.outer(x[:, a], y[:, a])
    return np.multiply(diff, diff, out=diff)


def _gauss_terms(arg, out, keep):
    """Write the Gaussian terms ``exp(arg)`` into ``out`` and return it.

    exp is evaluated only where ``arg >= -746``; every term with an exponent
    below that is written as 0.0, which is what exp returns there (it
    underflows to 0.0 below about -745.13), so ``out`` equals ``np.exp(arg)``
    bit for bit.  Far pairs of a heat sum land there, and exp costs several
    times more on them than on the terms that count.  ``keep`` is a bool
    scratch array of the same shape.  Private, so that a tracer wrapping the
    public kernels counts this work in ``heat_values``.
    """
    np.less(arg, EXP_FLOOR, out=keep)
    np.logical_not(keep, out=keep)
    out.fill(0.0)
    return np.exp(arg, out=out, where=keep)


def heat_values(x, y, w, t):
    """Gaussian heat sums ``out[i,j] = (4 pi t_j)^{-d/2} sum_m w_m G(x_i - y_m; t_j)``.

    ``x``: (n, d) evaluation points; ``y``: (m, d) mass locations; ``w``: (m,)
    weights; ``t``: (nt,) strictly positive times.  A term whose exponent
    ``-|x_i - y_m|^2 / 4t_j`` lies below -746 is written as 0.0 and never
    evaluated (``_gauss_terms``); exp underflow is the only tail cutoff.  The
    sums stay dense, one ``block @ w`` product per row block of
    ``4_000_000 // m`` points, because BLAS row results depend on the block:
    other blocks, or sums over the nonzero terms only, would move last bits.
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
    neg_inv4t = -(1.0 / (4.0 * t))
    rows = max(1, 4_000_000 // y.shape[0])
    # the terms of a block are made a cache-sized piece at a time
    piece = max(1, 32_768 // y.shape[0])
    terms = np.empty((min(rows, x.shape[0]), y.shape[0]))
    arg, keep = np.empty((piece, y.shape[0])), np.empty((piece, y.shape[0]), dtype=bool)
    for s, e, d2 in pairwise_sq_dists(x, y, rows):
        for j in range(t.shape[0]):
            for c in range(0, e - s, piece):
                k = min(piece, e - s - c)
                np.multiply(d2[c:c + k], neg_inv4t[j], out=arg[:k])
                _gauss_terms(arg[:k], terms[c:c + k], keep[:k])
            out[s:e, j] = terms[:e - s] @ w
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
