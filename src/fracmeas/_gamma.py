"""Gamma function for positive arguments, bit for bit as ``scipy.special.gamma``.

A line-for-line port of the Cephes ``Gamma`` that scipy's ``gamma`` runs
for real arguments: recurrence into [2, 3) and a rational approximation
there, ``z / ((1 + Euler gamma x) x)`` below 1e-9, Stirling's formula above
33, and inf from ``MAXGAM`` on.  Every step is the same IEEE double
operation in the same order, and ``exp`` and ``pow`` are the C library's,
so the result carries scipy's last bits.  ``math.gamma`` does not: it
differs from scipy's at most arguments.

The package needs Gamma at a handful of points per run (Riesz and ball
volume constants); importing ``scipy.special`` for them costs about 0.16 s
and 26 MB, which is why this module exists.
"""

from __future__ import annotations

import math

_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3,
      1.04213797561761569935e-2, 4.76367800457137231464e-2,
      2.07448227648435975150e-1, 4.94214826801497100753e-1,
      9.99999999999999996796e-1)
_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4,
      -4.45641913851797240494e-3, 1.18139785222060435552e-2,
      3.58236398605498653373e-2, -2.34591795718243348568e-1,
      7.14304917030273074085e-2, 1.00000000000000000320e0)
# Stirling's series, valid for 33 <= x <= 172
_STIR = (7.87311395793093628397e-4, -2.29549961613378126380e-4,
         -2.68132617805781232825e-3, 3.47222221605458667310e-3,
         8.33333333333482257126e-2)
_MAXGAM = 171.624376956302725
_MAXSTIR = 143.01608
_SQTPI = 2.50662827463100050242e0


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _stirf(x: float) -> float:
    if x >= _MAXGAM:
        return math.inf
    w = 1.0 / x
    w = 1.0 + w * _polevl(w, _STIR)
    y = math.exp(x)
    if x > _MAXSTIR:
        # split the power so that it does not overflow
        v = math.pow(x, 0.5 * x - 0.25)
        y = v * (v / y)
    else:
        y = math.pow(x, x - 0.5) / y
    return _SQTPI * y * w


def gamma(x: float) -> float:
    """Gamma(x) for x > 0, as ``float(scipy.special.gamma(x))``; nan and
    inf pass through, and x <= 0 raises ``ValueError``."""
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"gamma needs a positive argument, got {x}")
    if x > 33.0:
        return _stirf(x)
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _P) / _polevl(x, _Q)
