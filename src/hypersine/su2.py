"""The countable hypergroup with stride-two convolution

    d[k] * d[n] = sum over l = |k-n|, |k-n|+2, .., k+n of
                  (l+1) / ((k+1)(n+1)) * d[l]

and its hyperbolic exponential family

    phi(n, lam) = sinh((n+1) lam) / ((n+1) sinh(lam)),   phi(n, 0) = 1.

The lambda-derivative of phi is a phi(.,lam)-sine function; for lam = 0 the
sine functions of the exponential m == 1 are the additive multiples of
n (n+2).  Residuals are reported relative because phi grows like
exp(n lam) / (n + 1).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import dual
from .core import (Hypergroup, TabulatedFunction, _cabs, _cmul, _reject,
                   _scan)

SMALL_SINH_TOL = 1e-6   # below this |sinh lam| the series evaluation is used


class Su2Hypergroup(Hypergroup):
    """Hypergroup on the nonnegative integers with the weighted stride-two
    convolution above; element 0 is the identity."""

    identity = 0
    commutative = True

    def convolve_many(self, ks, ns):
        """Weight (l + 1) / ((k + 1)(n + 1)) on l = |k - n|, .., k + n in
        steps of two; a row has min(k, n) + 1 entries, padded with |k - n|."""
        _reject((ks < 0) | (ns < 0), "elements must be >= 0", ks, ns)
        low = np.minimum(ks, ns)[:, None]
        j = np.arange(int(low.max()) + 1)
        support = np.abs(ks - ns)[:, None] + 2 * j * (j <= low)
        return support, np.where(j <= low, (support + 1) / (
            (ks + 1) * (ns + 1))[:, None], 0.0)


def phi(n, lam):
    """phi(n, lam); lam may be complex or a DualScalar.

    Near zeros of sinh (|sinh lam| < 1e-6) the quotient is replaced by the
    even series in mu = lam - i k pi through degree six, exact up to
    O((n mu)^8); the shift contributes a sign (-1)^(k n).
    """
    if n < 0:
        raise ValueError(f"element must be >= 0, got {n}")
    s = dual.sinh(lam)
    if abs(dual.value_of(s)) >= SMALL_SINH_TOL:
        return dual.sinh((n + 1) * lam) / ((n + 1) * s)
    k = round(dual.value_of(lam).imag / math.pi)
    mu = lam - complex(0.0, k * math.pi)
    sign = -1.0 if (k * n) % 2 else 1.0
    big = (n + 1) * mu
    num = 1.0 + big * big * (1.0 / 6.0 + big * big * (1.0 / 120.0 + big * big / 5040.0))
    small = mu * mu
    den = 1.0 + small * (1.0 / 6.0 + small * (1.0 / 120.0 + small / 5040.0))
    return sign * num / den


def dphi(n, lam):
    """Derivative of phi(n, .) at lam, computed with dual numbers."""
    return dual.deriv_of(phi(n, dual.DualScalar(lam, 1.0)))


def phi_values(n_max, lam):
    """Array of phi(n, lam) for n = 0..n_max."""
    lam = complex(lam)
    if abs(cmath.sinh(lam)) >= SMALL_SINH_TOL:
        ns = np.arange(n_max + 1)
        return np.sinh((ns + 1) * lam) / ((ns + 1) * cmath.sinh(lam))
    return np.array([phi(n, lam) for n in range(n_max + 1)])


def dphi_values(n_max, lam):
    """Array of the lambda-derivatives of phi for n = 0..n_max."""
    return np.array([dphi(n, lam) for n in range(n_max + 1)])


def phi_fn(n_max, lam):
    return TabulatedFunction(phi_values(n_max, lam))


def dphi_fn(n_max, lam):
    return TabulatedFunction(dphi_values(n_max, lam))


def additive_fn(c):
    """The additive functions n -> c n (n+2), at one element or an array;
    the sine functions for m == 1 (the lam = 0 member of the family)."""
    def f(n):
        return c * n * (n + 2)
    return f


def sine_fn(n_max, lam):
    """A non-zero phi(., lam)-sine function for n = 0..n_max: dphi, except
    where it vanishes identically (|sinh lam| < SMALL_SINH_TOL, lam near
    i k pi); there (-1)^(k n) n (n+2), the additive n (n+2) at lam = 0."""
    lam = complex(lam)
    if abs(cmath.sinh(lam)) >= SMALL_SINH_TOL:
        return dphi_fn(n_max, lam)
    k = round(lam.imag / math.pi)
    ns = np.arange(n_max + 1)
    return TabulatedFunction((-1.0) ** (k * ns) * ns * (ns + 2))


def recurrence_residual(f, m, n_max):
    """Residual of the three-point recurrence characterizing sine functions:

        (n+3) f(n+2) - 2 (n+2) cosh(lam) f(n+1) + (n+1) f(n)
            = 2 f(1) (n+2) m(n+1),

    for n = 0..n_max-2, together with its substituted form in
    g(n) = (n+1) f(n).  cosh(lam) is read off as m(1).  The witness is the
    n attaining the worst residual; relative scaling uses all four terms.
    f and m are called on one element at a time.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    ch, f1 = m(1), f(1)
    fv = np.array([f(n) for n in range(n_max + 1)])
    mv = np.array([m(n) for n in range(n_max + 1)])
    g = np.arange(1, n_max + 2) * fv
    n = np.arange(n_max - 1)
    t_up = (n + 3) * fv[2:]
    t_mid = _cmul(2 * (n + 2) * ch, fv[1:-1])
    t_dn = (n + 1) * fv[:-2]
    rhs = _cmul(2 * f1 * (n + 2), mv[1:-1])
    with np.errstate(all="ignore"):
        r1 = _cabs(t_up - t_mid + t_dn - rhs)
        r2 = _cabs(g[2:] - _cmul(2 * ch, g[1:-1]) + g[:-2] - rhs)
        err = np.maximum(r1, r2)
        scale = 1.0 + _cabs(t_up) + _cabs(t_mid) + _cabs(t_dn) + _cabs(rhs)
        return _scan(err, err / scale, range(n_max - 1))


def propagate_sine(lam, f1, n_max):
    """Forward solve of the recurrence above from f(0) = 0, f(1) = f1.

    For lam != 0 the result must coincide with (f1 / sinh lam) * dphi(., lam),
    since the derivative of phi(1, .) is sinh; this propagation is the
    independent route used to certify that claim.
    """
    lam = complex(lam)
    ch = cmath.cosh(lam)
    out = np.zeros(n_max + 1, dtype=complex)
    if n_max >= 1:
        out[1] = f1
    mvals = phi_values(n_max, lam)
    for n in range(n_max - 1):
        out[n + 2] = (2 * (n + 2) * ch * out[n + 1] - (n + 1) * out[n]
                      + 2 * f1 * (n + 2) * mvals[n + 1]) / (n + 3)
    return out
