"""Log-log decay-exponent fits of sampled tails, for the tail tests.

The fits check the power-law decay of band-projected atoms, of the grand
maximal field and of Riesz potentials (ACCEPT-10 among them); no command
reports an exponent, so the fit lives with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
