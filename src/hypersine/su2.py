"""The countable hypergroup with stride-two convolution

    d[k] * d[n] = sum over l = |k-n|, |k-n|+2, .., k+n of
                  (l+1) / ((k+1)(n+1)) * d[l]

and its hyperbolic exponential family

    phi(n, lam) = sinh((n+1) lam) / ((n+1) sinh(lam)),   phi(n, 0) = 1.

It is the polynomial hypergroup of U_n(x) / (n+1) at x = cosh lam, U_n the
Chebyshev polynomials of the second kind, so phi and its lambda-derivative
dphi(n, lam) = sinh(lam) U_n'(cosh lam) / (n+1) are read off the recurrence
x U_m = (U_(m+1) + U_(m-1)) / 2 by ``polyhg._p_and_dp``.  Every multiple of
U_n'(cosh lam) / (n+1) is a phi(., lam)-sine function; at lam = 0 these are
the additive multiples of n (n+2).  Residuals are reported relative because
phi grows like exp(n lam) / (n + 1).
"""

from __future__ import annotations

import cmath

import numpy as np

from .core import (Hypergroup, TabulatedFunction, _cmul, _finite, _propagate,
                   _reject)
from .polyhg import _p_and_dp

# below this |sinh lam| (lam near i k pi) dphi is close to 0, so sine_fn
# scales U_n' by 3 cosh lam instead: the sine rows never check a function
# that is almost zero, where they would pass vacuously
SMALL_SINH_TOL = 1e-6


class Su2Hypergroup(Hypergroup):
    """Hypergroup on the nonnegative integers with the weighted stride-two
    convolution above; element 0 is the identity."""

    identity = 0
    commutative = True
    _mirror_rows = True   # |k - n| and (k + 1)(n + 1) read both alike

    def convolve_many(self, ks, ns):
        """Weight (l + 1) / ((k + 1)(n + 1)) on l = |k - n|, .., k + n in
        steps of two; a row has min(k, n) + 1 entries, padded with |k - n|."""
        _reject((ks < 0) | (ns < 0), "elements must be >= 0", ks, ns)
        low = np.minimum(ks, ns)[:, None]
        j = np.arange(int(low.max()) + 1)
        inside = j <= low
        support = np.abs(ks - ns)[:, None] + 2 * j * inside
        # in place; positive weights times 1 or 0 are the weight or +0.0
        weights = support + 1.0
        weights /= ((ks + 1) * (ns + 1))[:, None]
        weights *= inside
        return support, weights


def _hyperbolic(fn, lam):
    """cmath's cosh or sinh at lam; OverflowError naming lam where it leaves
    the float range, as ``_finite`` names it for the table."""
    try:
        return fn(lam)
    except OverflowError:
        raise OverflowError(
            f"su2 table overflows at lambda = {lam!r}") from None


def _scaled(n, lam, scale=None):
    """U_n(x) / (n+1), or scale U_n'(x) / (n+1), at x = cosh lam for one
    element or an integer array; U_n and U_n' are exact integers at x = +-1.
    Each part is divided by n + 1 apart: numpy's complex-by-real division is
    not correctly rounded, and its scalar and array loops disagree."""
    ns = np.atleast_1d(n)
    if (ns < 0).any():
        raise ValueError(f"element must be >= 0, got {ns.min()}")
    top = int(ns.max(initial=0))
    u, du = _p_and_dp(np.array([[0.5] * top, [0.0] * top, [0.5] * top]),
                      _hyperbolic(cmath.cosh, lam))
    with np.errstate(over="ignore", invalid="ignore"):
        z = _finite(u[ns] if scale is None else _cmul(scale, du[ns]),
                    "su2 table", lam)
    out = np.empty(z.shape, dtype=complex)
    out.real, out.imag = z.real / (ns + 1), z.imag / (ns + 1)
    return complex(out[0]) if np.ndim(n) == 0 else out


def phi(n, lam):
    """phi(n, lam) at one element or at an integer array of elements."""
    return _scaled(n, lam)


def dphi(n, lam):
    """The lambda-derivative of phi(n, .) at lam, taking n as phi does."""
    return _scaled(n, lam, _hyperbolic(cmath.sinh, lam))


def phi_fn(n_max, lam):
    return TabulatedFunction(phi(np.arange(n_max + 1), lam))


def additive_fn(c):
    """The additive functions n -> c n (n+2), at one element or an array;
    the sine functions for m == 1 (the lam = 0 member of the family)."""
    def f(n):
        return c * n * (n + 2)
    return f


def _sine_scale(lam):
    """f(1) of ``sine_fn``: sinh lam or, where |sinh lam| < SMALL_SINH_TOL,
    3 cosh lam, which makes f (-1)^(k n) n (n+2) at lam = i k pi."""
    s = _hyperbolic(cmath.sinh, lam)
    return s if abs(s) >= SMALL_SINH_TOL else 3 * cmath.cosh(lam)


def sine_fn(n_max, lam):
    """A non-zero phi(., lam)-sine function on 0..n_max: ``_sine_scale(lam)``
    times U_n'(cosh lam) / (n+1), dphi where the scale is sinh lam."""
    # + 0.0 turns f(0) = scale * 0 into 0 where it is -0 (Re scale < 0)
    return TabulatedFunction(
        _scaled(np.arange(n_max + 1), lam, _sine_scale(lam)) + 0.0)


def propagate_sine(lam, f1, n_max):
    """The phi(., lam)-sine function on 0..n_max with f(0) = 0, f(1) = f1,
    propagated from f(1) by ``core._propagate``.

    For lam != 0 the result must coincide with (f1 / sinh lam) * dphi(., lam),
    since the derivative of phi(1, .) is sinh; this propagation is the
    independent route used to certify that claim.
    """
    return _propagate(Su2Hypergroup(), [phi_fn(n_max, lam)], [f1],
                      n_max)[0]
