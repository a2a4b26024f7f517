"""Hot numeric kernels: Gaussian heat sums and radial-profile convolutions.

Both, and ``potential.riesz_kernel``, are numpy sums over (point, mass)
pairs, run by one driver, ``_pair_sums``, in fixed row blocks of the
pairwise squared distances (``pairwise_sq_dists``): BLAS row results depend
on the block, so fixed blocks keep every bit.  A caller that needs only some
points (``rows``) gets only those evaluated: their terms are written at their
own positions in a zero-filled buffer of the full block, and the block's
matrix-vector product runs as in the dense sum, so each wanted row is the
dense one bit for bit.  A Gaussian term whose exponent lies below -746 is
written as 0.0 and never evaluated (``_gauss_terms``): exp returns exactly
0.0 there anyway.  The radial convolution takes its profile as a function
of the scaled distance (``maximal.Profile.values``), so each profile
formula is written once.
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
    on ``rows`` (``_sq_dists``).  ``_pair_sums`` sums each block densely:
    BLAS row results depend on the block, so callers keep their row counts
    fixed.
    """
    for s in range(0, len(x), rows):
        e = min(len(x), s + rows)
        yield s, e, _sq_dists(x[s:e], y)


def _sq_dists(x, y):
    """``d2[i, j] = |x[i] - y[j]|^2``, each entry from its own two rows only.

    The squared per-axis differences are added even axes first, then odd
    axes, then the two partial sums: the order in which numpy's
    ``einsum("ijk,ijk->ij")`` sums them for d <= 7, so for those dimensions
    the distances equal the einsum ones bit for bit.  At most three
    ``len(x) * len(y)`` arrays are held at a time.
    """
    d = x.shape[1]
    d2 = _axis_sq(x, y, 0)
    for a in range(2, d, 2):
        d2 += _axis_sq(x, y, a)
    if d > 1:
        odd = _axis_sq(x, y, 1)
        for a in range(3, d, 2):
            odd += _axis_sq(x, y, a)
        d2 += odd
    return d2


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


def _pair_sums(x, y, w, scale, block_terms, rows=None):
    """Pair sums ``out[i, j] = scale(d)[j] sum_m w_m T_j(x_i, y_m)`` for
    (n, d) points ``x``, (m, d) masses ``y`` and (m,) weights ``w``.

    The generator ``block_terms(d2)`` yields the terms of each column in
    turn from the squared distances ``d2`` of a block's rows.  Blocks are
    fixed at ``4_000_000 // m`` rows of ``x``, because BLAS row results
    depend on the block.  ``rows``, strictly increasing indices into ``x``,
    asks for those points only: ``out`` then has one row per index, and
    blocks without a wanted row are skipped.  In the others only the wanted
    rows get distances and terms; the terms are written at the rows' own
    positions in a zero-filled buffer of the full block, whose product with
    ``w`` is the dense one, so every wanted row equals the dense row bit for
    bit (a product over the wanted rows alone moves the last bits of many
    of them).  Terms and their inputs stay bound until the next column's
    are made: dropping them slowed the radial kernel (an allocator effect).
    """
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(y, dtype=np.float64)))
    w = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
    n, m = x.shape[0], y.shape[0]
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if len(rows) and (rows[0] < 0 or rows[-1] >= n or np.any(np.diff(rows) <= 0)):
            raise ValueError("rows must be strictly increasing indices of the points")
    with np.errstate(over="ignore", divide="ignore"):
        factors = scale(x.shape[1])
    if not np.all(np.isfinite(factors)):
        raise ValueError("time or scale too small: a kernel factor overflows")
    out = np.zeros((n if rows is None else len(rows), len(factors)))
    if n and m:
        step = max(1, 4_000_000 // m)
        for s in range(0, n, step):
            e = min(n, s + step)
            if rows is None:
                a, b, pick = s, e, slice(s, e)
            else:
                a, b = np.searchsorted(rows, [s, e])
                if a == b:
                    continue
                pick = rows[a:b]
                local = pick - s
                buf = np.zeros((e - s, m))
            d2 = _sq_dists(x[pick], y)
            for j, terms in enumerate(block_terms(d2)):
                if rows is None:
                    out[a:b, j] = terms @ w
                else:
                    buf[local] = terms
                    out[a:b, j] = (buf @ w)[local]
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
    with np.errstate(over="ignore", divide="ignore"):
        neg_inv4t = -(1.0 / (4.0 * t))
    if not np.all(np.isfinite(neg_inv4t)):
        raise ValueError("heat time too small: 1/4t overflows")

    def gauss_columns(d2):
        terms = np.empty_like(d2)
        # the terms are made a cache-sized piece at a time
        arg = np.empty_like(d2[:max(1, 32_768 // d2.shape[1])])
        keep = np.empty(arg.shape, dtype=bool)
        for nt in neg_inv4t:
            for c in range(0, len(d2), len(arg)):
                k = min(len(arg), len(d2) - c)
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

    def profile_columns(d2):
        r = np.sqrt(d2)
        for sj in s:
            z = r / sj
            yield phi(z)

    return _pair_sums(x, y, w, lambda d: s ** (-d), profile_columns)
