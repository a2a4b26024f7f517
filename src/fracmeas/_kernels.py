"""Hot numeric kernels: Gaussian heat sums and radial-profile convolutions.

Both, and ``potential.riesz_kernel``, are dense numpy sums over every
(point, mass) pair, run by one driver, ``_pair_sums``, in fixed row blocks
of the pairwise squared distances (``pairwise_sq_dists``): BLAS row results
depend on the block, so fixed blocks keep every bit.  A Gaussian term whose
exponent lies below -746 is written as 0.0 and never evaluated
(``_gauss_terms``): exp returns exactly 0.0 there anyway.  The radial
convolution takes its profile as a function of the scaled distance
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
    three ``rows * len(y)`` arrays at a time.  ``_pair_sums`` sums each block
    densely: BLAS row results depend on the block, so callers keep their row
    counts fixed.
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


def _pair_sums(x, y, w, scale, block_terms):
    """Pair sums ``out[i, j] = scale(d)[j] sum_m w_m T_j(x_i, y_m)`` for
    (n, d) points ``x``, (m, d) masses ``y`` and (m,) weights ``w``.

    The generator ``block_terms(s, e, d2)`` yields the terms of each column
    in turn from the squared distances ``d2`` of points ``s:e``.  Blocks are
    fixed at ``4_000_000 // m`` rows, because BLAS row results depend on the
    block.  Terms and their inputs stay bound until the next column's are
    made: dropping them slowed the radial kernel (an allocator effect).
    """
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(y, dtype=np.float64)))
    w = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
    factors = scale(x.shape[1])
    if not np.all(np.isfinite(factors)):
        raise ValueError("time or scale too small: a kernel factor overflows")
    out = np.zeros((x.shape[0], len(factors)))
    if x.shape[0] and y.shape[0]:
        for s, e, d2 in pairwise_sq_dists(x, y, max(1, 4_000_000 // y.shape[0])):
            for j, terms in enumerate(block_terms(s, e, d2)):
                out[s:e, j] = terms @ w
    out *= factors
    return out


def heat_values(x, y, w, t):
    """Gaussian heat sums ``out[i,j] = (4 pi t_j)^{-d/2} sum_m w_m G(x_i - y_m; t_j)``.

    ``x``: (n, d) evaluation points; ``y``: (m, d) mass locations; ``w``: (m,)
    weights; ``t``: (nt,) positive times with finite ``1/4t`` and
    ``(4 pi t)^{-d/2}``.  A term whose exponent ``-|x_i - y_m|^2 / 4t_j``
    lies below -746 is written as 0.0 and never evaluated (``_gauss_terms``);
    exp underflow is the only tail cutoff.
    """
    t = np.ascontiguousarray(np.asarray(t, dtype=np.float64))
    if np.any(t <= 0):
        raise ValueError("heat times must be positive")
    neg_inv4t = -(1.0 / (4.0 * t))
    if not np.all(np.isfinite(neg_inv4t)):
        raise ValueError("heat time too small: 1/4t overflows")

    def gauss_columns(s, e, d2):
        terms = np.empty_like(d2)
        # the terms are made a cache-sized piece at a time
        arg = np.empty_like(d2[:max(1, 32_768 // d2.shape[1])])
        keep = np.empty(arg.shape, dtype=bool)
        for nt in neg_inv4t:
            for c in range(0, e - s, len(arg)):
                k = min(len(arg), e - s - c)
                np.multiply(d2[c:c + k], nt, out=arg[:k])
                _gauss_terms(arg[:k], terms[c:c + k], keep[:k])
            yield terms

    return _pair_sums(x, y, w, lambda d: (4.0 * np.pi * t) ** (-d / 2.0), gauss_columns)


def radial_conv_values(x, y, w, s, phi):
    """Profile convolutions ``out[i,j] = s_j^{-d} sum_m w_m phi(|x_i-y_m|/s_j)``.

    ``phi`` maps an array of scaled distances ``z >= 0`` to the radial
    profile's values there, elementwise (``maximal.Profile.values``), at
    positive scales ``s`` with finite ``s^{-d}``.
    """
    s = np.ascontiguousarray(np.asarray(s, dtype=np.float64))
    if np.any(s <= 0):
        raise ValueError("dilation scales must be positive")

    def profile_columns(lo, hi, d2):
        r = np.sqrt(d2)
        for sj in s:
            z = r / sj
            yield phi(z)

    return _pair_sums(x, y, w, lambda d: s ** (-d), profile_columns)
