"""Double cosets of the real affine group by its two-element sign subgroup.

Group elements are pairs (x, u) with x != 0, multiplying as
(x, u) (y, v) = (x y, x v + u) with identity (1, 0) and inverse
(1/x, -u/x).  The subgroup K = {(1, 0), (-1, 0)} is not normal:
(x, u)(-1, 0)(x, u)^(-1) = (-1, 2u).  The double coset of (x, u) is the four
point set {(+-x, +-u)}, represented canonically by (|x|, |u|), and

    f[(x,u) * (y,v)] = ( f(x y, x v + u) + f(-x y, -x v + u) ) / 2

defines a (non-commutative) hypergroup structure on the cosets.  Its
exponentials are |x|^lam and its sine functions are c |x|^lam ln|x|; the
candidate factor cosh(alpha u) fails the exponential equation for every
alpha != 0, which ``falsify_dalembert_alpha`` demonstrates numerically.
"""

from __future__ import annotations

import cmath
import math

from . import dual
from .core import FiniteMeasure, Hypergroup, _scan, sine_residual


def group_mul(p, q):
    """(x, u) (y, v) = (x y, x v + u)."""
    x, u = p
    y, v = q
    if x == 0 or y == 0:
        raise ValueError("group elements need nonzero first coordinate")
    return (x * y, x * v + u)


def group_inv(p):
    """Inverse (1/x, -u/x)."""
    x, u = p
    if x == 0:
        raise ValueError("group elements need nonzero first coordinate")
    return (1.0 / x, -u / x)


def coset_of(p):
    """Canonical representative (|x|, |u|) of the double coset of p."""
    x, u = p
    if x == 0:
        raise ValueError("group elements need nonzero first coordinate")
    return (abs(x), abs(u))


def coset_apply(f, p, q):
    """Average of f over the convolution of the cosets of p and q; f takes
    canonical representatives."""
    x, u = p
    y, v = q
    a = coset_of((x * y, x * v + u))
    b = coset_of((-x * y, -x * v + u))
    return 0.5 * f(a) + 0.5 * f(b)


class CosetHypergroup(Hypergroup):
    """The double-coset hypergroup; elements are canonical pairs."""

    identity = (1.0, 0.0)
    commutative = False

    def convolve(self, p, q):
        x, u = p
        y, v = q
        if x <= 0 or y <= 0 or u < 0 or v < 0:
            raise ValueError(
                f"elements must be canonical pairs, got {p!r}, {q!r}")
        a = coset_of((x * y, x * v + u))
        b = coset_of((-x * y, -x * v + u))
        if a == b:
            return FiniteMeasure(((a, 1.0),))
        return FiniteMeasure(((a, 0.5), (b, 0.5)))

    def involution(self, p):
        return coset_of(group_inv(p))


def coset_exponential(lam):
    """Exponential (ax, au) -> ax^lam on canonical pairs, via exp(lam ln ax)
    so that lam may be complex or dual."""
    def m(p):
        ax, _ = p
        return dual.exp(lam * math.log(ax))
    return m


def coset_sine(c, lam):
    """Sine function (ax, au) -> c ax^lam ln(ax) for the exponential at lam."""
    def f(p):
        ax, _ = p
        lg = math.log(ax)
        return c * cmath.exp(complex(lam) * lg) * lg
    return f


def verify_compat(f_raw, samples):
    """True if a function on raw group elements is constant on double cosets,
    i.e. agrees on all four sign combinations (x, u), (-x, u), (x, -u),
    (-x, -u).  Functions built from canonical representatives pass by
    construction."""
    for x, u in samples:
        ref = f_raw((x, u))
        for p in ((-x, u), (x, -u), (-x, -u)):
            if f_raw(p) != ref:
                return False
    return True


def falsify_dalembert_alpha(lam, alpha, samples):
    """Residual of the coset exponential equation

        m(x y, x v + u) + m(x y, x v - u) = 2 m(x, u) m(y, v)

    for the candidate m(x, u) = |x|^lam cosh(alpha u).  Any alpha != 0 is
    refuted by a strictly positive residual; alpha = 0 is the genuine
    exponential and is rejected as input."""
    if alpha == 0:
        raise ValueError("alpha = 0 is the exponential itself; nothing to refute")
    lam = complex(lam)

    def m(x, u):
        return cmath.exp(lam * math.log(abs(x))) * cmath.cosh(alpha * u)

    def gen():
        for x, u, y, v in samples:
            lhs = m(x * y, x * v + u) + m(x * y, x * v - u)
            rhs = 2.0 * m(x, u) * m(y, v)
            err = abs(lhs - rhs)
            yield err, err / (1.0 + abs(rhs)), (x, u, y, v)
    return _scan(gen())


def falsify_square_term(lam, a, pairs):
    """Sine residual of the candidate contaminated by a square-norm term,

        f(x, u) = |x|^lam ln|x| + a u^2 |x|^lam ,

    over pairs of canonical elements.  For a != 0 the residual is strictly
    positive (forcing a = 0 in the classification); a = 0 is rejected."""
    if a == 0:
        raise ValueError("a = 0 is the genuine sine function; nothing to refute")
    lam = complex(lam)

    def f(p):
        ax, au = p
        lg = math.log(ax)
        return cmath.exp(lam * lg) * (lg + a * au * au)
    return sine_residual(CosetHypergroup(), f, coset_exponential(lam), pairs)


def square_norm_check(samples):
    """Residual of the square-norm equation
    g(u+v) + g(u-v) = 2 g(u) + 2 g(v) for g(u) = u^2 over (u, v) samples;
    algebraically zero, so the residual is pure rounding."""
    def g(u):
        return u * u

    def gen():
        for u, v in samples:
            lhs = g(u + v) + g(u - v)
            rhs = 2.0 * g(u) + 2.0 * g(v)
            err = abs(lhs - rhs)
            yield err, err / (1.0 + abs(rhs)), (u, v)
    return _scan(gen())


def group_sine_check(lam, pairs):
    """On the group itself every sine function for m = |x|^lam is
    (additive) * m with the additive function a(x, u) = ln|x|.  Checks both
    the additivity of a and the sine equation for f = a m over pairs of raw
    group elements; witnesses are tagged ('additive'|'sine', p, q)."""
    lam = complex(lam)

    def m(p):
        return cmath.exp(lam * math.log(abs(p[0])))

    def a(p):
        return math.log(abs(p[0]))

    def gen():
        for p, q in pairs:
            pq = group_mul(p, q)
            err = abs(a(pq) - a(p) - a(q))
            yield err, err / (1.0 + abs(a(p)) + abs(a(q))), ("additive", p, q)
            lhs = a(pq) * m(pq)
            t1 = a(p) * m(p) * m(q)
            t2 = a(q) * m(q) * m(p)
            err = abs(lhs - t1 - t2)
            yield err, err / (1.0 + abs(t1) + abs(t2)), ("sine", p, q)
    return _scan(gen())


def conjugate_by(p, k):
    """p k p^(-1); with k = (-1, 0) this returns (-1, 2u), witnessing that
    the sign subgroup is not normal."""
    return group_mul(group_mul(p, k), group_inv(p))
