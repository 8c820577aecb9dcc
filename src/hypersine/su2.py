"""The countable hypergroup with stride-two convolution

    d[k] * d[n] = sum over l = |k-n|, |k-n|+2, .., k+n of
                  (l+1) / ((k+1)(n+1)) * d[l]

and its hyperbolic exponential family

    phi(n, lam) = sinh((n+1) lam) / ((n+1) sinh(lam)),   phi(n, 0) = 1.

Its lambda-derivative, a phi(.,lam)-sine function, has the closed form

    dphi(n, lam) = (cosh((n+1) lam) - phi(n, lam) cosh(lam)) / sinh(lam).

For lam = 0 the sine functions of the exponential m == 1 are the additive
multiples of n (n+2).  Residuals are reported relative because phi grows
like exp(n lam) / (n + 1).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import (Hypergroup, TabulatedFunction, _cmul, _reject, _residual,
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


def _phi_dphi(n, lam):
    """(phi(n, lam), dphi(n, lam)): arrays at an integer array n, complex
    numbers at one element.  Near the zeros i k pi of sinh
    (|sinh lam| < SMALL_SINH_TOL) both come from the even series in
    mu = lam - i k pi through degree six, exact up to O((n mu)^8); the shift
    contributes a sign (-1)^(k n)."""
    ns = np.atleast_1d(n)
    if (ns < 0).any():
        raise ValueError(f"element must be >= 0, got {ns.min()}")
    lam = complex(lam)
    s, n1 = cmath.sinh(lam), ns + 1
    if abs(s) >= SMALL_SINH_TOL:
        p = np.sinh(n1 * lam) / (n1 * s)
        d = (np.cosh(n1 * lam) - p * cmath.cosh(lam)) / s
    else:
        k = round(lam.imag / math.pi)
        mu = lam - complex(0.0, k * math.pi)
        sign = np.where((k * ns) % 2, -1.0, 1.0)
        big = n1 * mu
        bb, mm = big * big, mu * mu
        num = 1.0 + bb * (1.0 / 6.0 + bb * (1.0 / 120.0 + bb / 5040.0))
        dnum = n1 * big * (1.0 / 3.0 + bb * (1.0 / 30.0 + bb / 840.0))
        den = 1.0 + mm * (1.0 / 6.0 + mm * (1.0 / 120.0 + mm / 5040.0))
        dden = mu * (1.0 / 3.0 + mm * (1.0 / 30.0 + mm / 840.0))
        p = sign * num / den
        d = sign * (dnum * den - num * dden) / (den * den)
    return (complex(p[0]), complex(d[0])) if np.ndim(n) == 0 else (p, d)


def phi(n, lam):
    """phi(n, lam) at one element or at an integer array of elements."""
    return _phi_dphi(n, lam)[0]


def dphi(n, lam):
    """The lambda-derivative of phi(n, .) at lam, taking n as phi does."""
    return _phi_dphi(n, lam)[1]


def phi_fn(n_max, lam):
    return TabulatedFunction(phi(np.arange(n_max + 1), lam))


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
    lam, ns = complex(lam), np.arange(n_max + 1)
    if abs(cmath.sinh(lam)) >= SMALL_SINH_TOL:
        return TabulatedFunction(dphi(ns, lam))
    k = round(lam.imag / math.pi)
    return TabulatedFunction((-1.0) ** (k * ns) * ns * (ns + 2))


def recurrence_residual(f, m, n_max):
    """Residual of the three-point recurrence characterizing sine functions,
    in the propagation form that ``propagate_sine`` solves:

        (n+3) f(n+2) = 2 (n+2) cosh(lam) f(n+1) - (n+1) f(n)
                       + 2 f(1) (n+2) m(n+1),

    for n = 0..n_max-2, relative to 1 + the magnitudes of the three
    right-hand terms (``core._residual``).  cosh(lam) is read off as m(1).
    The witness is the n attaining the largest absolute residual.  f and m
    are called once, on the array of elements 0..n_max; a constant they
    return is broadcast.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    ns = np.arange(n_max + 1)
    fv, mv = (np.broadcast_to(fn(ns), ns.shape) for fn in (f, m))
    ch, f1 = mv[1], fv[1]
    n = np.arange(n_max - 1)
    terms = [_cmul(2 * (n + 2) * ch, fv[1:-1]), -(n + 1) * fv[:-2],
             _cmul(2 * f1 * (n + 2), mv[1:-1])]
    return _scan(*_residual((n + 3) * fv[2:], terms), range(n_max - 1))


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
    mvals = phi(np.arange(n_max + 1), lam)
    for n in range(n_max - 1):
        out[n + 2] = (2 * (n + 2) * ch * out[n + 1] - (n + 1) * out[n]
                      + 2 * f1 * (n + 2) * mvals[n + 1]) / (n + 3)
    return out
