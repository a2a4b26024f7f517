"""Hot numeric kernels: Gaussian heat sums and radial-profile convolutions.

Every sum over masses in the package is a numpy sum over (point, mass)
pairs run by one driver, ``_pair_sums``, to which these two kernels,
``potential.riesz_kernel`` and ``riesz_cells`` and the incomplete-gamma tails
of ``potential.riesz_heat`` supply only their terms.  Every heat sum is a
``heat_values`` call, with times per column or per (row, column); its
docstring states its one tail cutoff.  The driver takes the pairwise squared
distances in the row blocks of ``pairwise_sq_dists``, whose size one rule
sets (``_block_rows``): the most rows whose terms fit in ``BLOCK_TERMS``, so
a block's arrays stay in cache.  Each column of a block is summed row by row
in numpy's own loop (``np.einsum("ij,j->i")``, never BLAS), over all the
block's rows or over a window of them, every term of the other rows 0.0.
The sums are row-local: a row's sum depends on its own terms only, not on
the block, the window or the other points it is summed with, and not on the
BLAS kernel numpy loads; a row outside its window is +0.0, as a sum of its
0.0 terms gives.  The radial convolution takes a family's profiles
(``maximal.Profile``, each formula written once), evaluates each only inside
its support, and gathers and sums each (profile, scale) column over the rows
from the first to the last that some mass reaches.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# perfbench records both in every result and refuses to compare results
# whose values differ; numpy is the only backend.
BACKEND = "numpy"
HAVE_NUMBA = False

# log(DBL_MIN), about -708.40: exp(a) >= DBL_MIN for every double a at or above
# it, and below it exp is subnormal (and costs numpy several times more) or 0.0
EXP_FLOOR = math.log(sys.float_info.min)
# the radial window's relative reach past a support radius: r / s rounds by less
SUPPORT_MARGIN = 2.0 ** -40
# most terms of a pair block (256 KB of float64 per array), unless one row holds more
BLOCK_TERMS = 2 ** 15
# einsum sums a lone row in runs of its iterator buffer (np.getbufsize()), a row
# among others in one run: summing runs of this many masses gives both the same bits
EINSUM_RUN = 8192


def _block_rows(m: int) -> int:
    """Rows of a pair block over ``m`` masses: the most with ``rows * m <=
    BLOCK_TERMS``, or one where one row holds more."""
    return max(1, BLOCK_TERMS // m)


def pairwise_sq_dists(x, y):
    """Yield ``(start, stop, d2)``, ``d2[i, j] = |x[start + i] - y[j]|^2``,
    over blocks of ``_block_rows(len(y))`` rows of ``x`` (``_sq_dists``)."""
    rows = _block_rows(len(y))
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

    exp is evaluated only where ``arg >= EXP_FLOOR``; every term with an
    exponent below it is written as 0.0, where exp would give a subnormal
    term (below DBL_MIN) or 0.0.  Far pairs of a heat sum land there, and
    exp costs several times more on them than on the terms that count.  So
    every nonzero term is at least DBL_MIN, and each term is ``np.exp(arg)``
    or differs from it by less than DBL_MIN.  Where no exponent lies below
    the floor (a NaN is not below it) the block takes plain exp, with no
    mask: the same bits.  ``keep`` is a bool scratch array of the same
    shape.  Private, so that a tracer wrapping the public kernels counts
    this work in ``heat_values``.
    """
    np.less(arg, EXP_FLOOR, out=keep)
    if not keep.any():
        return np.exp(arg, out=out)
    np.logical_not(keep, out=keep)
    out.fill(0.0)
    return np.exp(arg, out=out, where=keep)


def _pair_sums(x, y, w, scale, block_terms):
    """Pair sums ``out[i, j] = f[i, j] sum_m w_m T_j(x_i, y_m)`` for (n, d)
    points ``x``, (m, d) masses ``y`` and (m,) weights ``w``, with factors
    ``f = scale(d)``: one per column, or one per (point, column).

    The generator ``block_terms(d2, rows)`` yields, for each column in turn,
    the terms of a block from its squared distances ``d2`` (its rows of
    ``x``: the slice ``rows``) as ``(start, terms)``: the terms of block rows
    ``start .. start + len(terms)``, any row window.  Every term of the
    block's other rows must be 0.0: their sums stay +0.0.  A column whose
    terms are all 0.0 may be None.  The blocks are those of
    ``pairwise_sq_dists``.  Each row is summed on its own (see the module
    docstring), so a row's sum has the same bits in any block, window or
    subset of the points.
    """
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(y, dtype=np.float64)))
    w = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
    n, m = x.shape[0], y.shape[0]
    with np.errstate(over="ignore", divide="ignore"):
        factors = scale(x.shape[1])
    if not np.all(np.isfinite(factors)):
        raise ValueError("time or scale too small: a kernel factor overflows")
    out = np.zeros((n, factors.shape[-1]))
    if n and m:
        for s, e, d2 in pairwise_sq_dists(x, y):
            for j, window in enumerate(block_terms(d2, slice(s, e))):
                if window is None:
                    continue
                start, terms = window
                sums = out[s + start:s + start + len(terms), j]
                for c in range(0, m, EINSUM_RUN):
                    sums += np.einsum("ij,j->i", terms[:, c:c + EINSUM_RUN],
                                      w[c:c + EINSUM_RUN])
    out *= factors
    return out


def heat_values(x, y, w, t):
    """Gaussian heat sums ``out[i, j] = (4 pi t)^{-d/2} sum_m w_m
    exp(-|x_i - y_m|^2 / 4t)`` at the time ``t = t[j]``, or ``t = t[i, j]``.

    ``x``: (n, d) evaluation points; ``y``: (m, d) mass locations; ``w``: (m,)
    weights; ``t``: positive times with finite ``1/4t`` and ``(4 pi t)^{-d/2}``,
    either (nt,), one set for every point, or (n, nt), a row of times per
    point.  Each row is summed on its own, so row i of the (n, nt) form has
    the bits of ``heat_values(x[i:i+1], y, w, t[i])``.  A term whose exponent
    lies below ``EXP_FLOOR`` = log(DBL_MIN), about -708.40, is written as 0.0
    and never evaluated (``_gauss_terms``): exp is subnormal or 0.0 there, and
    slow.  So each value lies within ``(4 pi t)^{-d/2} sum_m |w_m| DBL_MIN`` of
    the sum over every term; that floor is the only tail cutoff.
    """
    t = np.ascontiguousarray(np.asarray(t, dtype=np.float64))
    if t.ndim == 2 and len(t) != len(x):
        raise ValueError("per-point heat times need one row per point")
    if np.any(t <= 0):
        raise ValueError("heat times must be positive")
    with np.errstate(over="ignore", divide="ignore"):
        neg_inv4t = -(1.0 / (4.0 * t))
    if not np.all(np.isfinite(neg_inv4t)):
        raise ValueError("heat time too small: 1/4t overflows")

    def gauss_columns(d2, rows):
        # a column's -1/4t: one for the block, or one per row of it
        arg, terms = np.empty_like(d2), np.empty_like(d2)
        keep = np.empty(d2.shape, dtype=bool)
        for nt in neg_inv4t if t.ndim == 1 else neg_inv4t[rows].T[:, :, None]:
            yield 0, _gauss_terms(np.multiply(d2, nt, out=arg), terms, keep)

    return _pair_sums(x, y, w, lambda d: (4.0 * np.pi * t) ** (-d / 2.0), gauss_columns)


def radial_conv_values(x, y, w, s, profiles):
    """Profile convolutions ``out[i, p*len(s)+j] = s_j^{-d} sum_m w_m
    phi_p(|x_i-y_m|/s_j)``, one column per (profile, scale), profile-major.

    Each profile's ``values`` is ``phi_p`` on an array of scaled distances
    ``z``, elementwise, and exactly 0.0 at ``z >= support_radius``; scales
    ``s`` are positive with finite ``s^{-d}``.  A block's distances are
    sorted once for every profile (``np.unique``).  Per (profile, scale) the
    profile runs on the distinct distances below ``support_radius * (1 +
    SUPPORT_MARGIN) * s_j`` only: any other scales to the radius or past it
    however r / s_j rounds, so writing its 0.0 keeps every bit of the terms.
    A column with no distance in reach is all 0.0 and left to the driver.
    A row whose nearest distance is out of a column's reach has only 0.0
    terms, so a column gathers the terms of the rows from the first to the
    last in reach only, found from the running minima of the rows' nearest
    distances, and hands the driver that row window.
    """
    s = np.ascontiguousarray(np.asarray(s, dtype=np.float64))
    if np.any(s <= 0):
        raise ValueError("dilation scales must be positive")

    def profile_columns(d2, _):
        r, inv = np.unique(np.sqrt(d2), return_inverse=True)
        inv = inv.reshape(d2.shape)
        # each row's nearest distance, as an index into r, and its running
        # minima from the first row down (negated: ascending) and from the last up
        near = inv.min(axis=1)
        from_first = -np.minimum.accumulate(near)
        from_last = np.minimum.accumulate(near[::-1])[::-1]
        terms = np.empty_like(d2)
        v = np.zeros_like(r)
        filled = 0
        for prof in profiles:
            reach = np.searchsorted(r, prof.support_radius * (1.0 + SUPPORT_MARGIN) * s)
            for sj, k in zip(s, reach.tolist()):
                if not k:
                    yield None
                    continue
                v[:k] = prof.values(r[:k] / sj)
                # a shorter reach than the last column's (scales come in any
                # order, and each profile starts anew): zero the stale tail
                v[k:filled] = 0.0
                filled = k
                # the first and the last row with a distance in reach (r[0] is
                # some row's nearest, so there is one)
                lo = np.searchsorted(from_first, -k, "right")
                hi = np.searchsorted(from_last, k, "left")
                # inv holds np.unique's indices, always in range: "clip"
                # changes no value and skips the per-index bounds check
                np.take(v, inv[lo:hi], out=terms[lo:hi], mode="clip")
                yield lo, terms[lo:hi]

    return _pair_sums(x, y, w, lambda d: np.tile(s ** (-d), len(profiles)),
                      profile_columns)
