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

import numpy as np

from .core import (Hypergroup, _cmul, _errors, _finite, _interleaved,
                   _reject, _residual, _scan, sine_residual)


def group_mul(p, q):
    """(x, u) (y, v) = (x y, x v + u); coordinates may be arrays."""
    x, u = p
    y, v = q
    if np.any(x == 0) or np.any(y == 0):
        raise ValueError("group elements need nonzero first coordinate")
    return (x * y, x * v + u)


def group_inv(p):
    """Inverse (1/x, -u/x)."""
    x, u = p
    if np.any(x == 0):
        raise ValueError("group elements need nonzero first coordinate")
    return (1.0 / x, -u / x)


def coset_of(p):
    """Canonical representative (|x|, |u|) of the double coset of p."""
    x, u = p
    if x == 0:
        raise ValueError("group elements need nonzero first coordinate")
    return (abs(x), abs(u))


class CosetHypergroup(Hypergroup):
    """The double-coset hypergroup; elements are canonical pairs."""

    identity = (1.0, 0.0)
    commutative = False

    def convolve_many(self, ps, qs):
        """Weight 1/2 on the cosets of (x y, x v + u) and (-x y, -x v + u)."""
        x, u = ps
        y, v = qs
        _reject((x <= 0) | (y <= 0) | (u < 0) | (v < 0),
                "elements must be canonical pairs", ps, qs)
        ax = np.abs(x * y)
        support = (np.column_stack([ax, ax]),
                   np.column_stack([np.abs(x * v + u), np.abs(-x * v + u)]))
        return support, np.full((len(ax), 2), 0.5)

    def involution(self, p):
        return coset_of(group_inv(p))


def _power(lam, ax):
    """ax^lam = exp(lam ln ax) for ax > 0, by the complex exp (as cmath's:
    numpy's real exp rounds differently); OverflowError naming lam where it
    leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(np.exp(complex(lam) * np.log(ax)), "coset closed form",
                       lam)


def coset_exponential(lam):
    """Exponential (ax, au) -> ax^lam on canonical pairs or on a batch of
    them; lam may be complex."""
    return lambda p: _power(lam, p[0])


def coset_sine(c, lam):
    """Sine function (ax, au) -> c ax^lam ln(ax) for the exponential at lam;
    the product may overflow where ax^lam does not."""
    def f(p):
        ax, _ = p
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(_cmul(c, _power(lam, ax)) * np.log(ax),
                           "coset closed form", lam)
    return f


def falsify_dalembert_alpha(lam, alpha, samples):
    """Residual of the coset exponential equation

        m(x y, x v + u) + m(x y, x v - u) = 2 m(x, u) m(y, v)

    for the candidate m(x, u) = |x|^lam cosh(alpha u).  Any alpha != 0 is
    refuted by a strictly positive residual; alpha = 0 is the genuine
    exponential and is rejected as input."""
    if alpha == 0:
        raise ValueError("alpha = 0 is the exponential itself; nothing to refute")
    x, u, y, v = (np.array(c, dtype=float) for c in zip(*samples))

    def m(x, u):
        return _cmul(_power(lam, np.abs(x)), np.cosh(alpha * u + 0j))

    lhs = m(x * y, x * v + u) + m(x * y, x * v - u)
    rhs = _cmul(2.0 * m(x, u), m(y, v))
    return _scan(*_residual(lhs, [rhs]), samples)


def falsify_square_term(lam, a, pairs):
    """Sine residual of the candidate contaminated by a square-norm term,

        f(x, u) = |x|^lam ln|x| + a u^2 |x|^lam ,

    over pairs of canonical elements.  For a != 0 the residual is strictly
    positive (forcing a = 0 in the classification); a = 0 is rejected."""
    if a == 0:
        raise ValueError("a = 0 is the genuine sine function; nothing to refute")

    def f(p):
        ax, au = p
        return _cmul(_power(lam, ax), np.log(ax) + a * au * au)
    return sine_residual(CosetHypergroup(), f, coset_exponential(lam), pairs)


def square_norm_check(samples):
    """Residual of the square-norm equation
    g(u+v) + g(u-v) = 2 g(u) + 2 g(v) for g(u) = u^2 over (u, v) samples;
    algebraically zero, so the residual is pure rounding."""
    u, v = (np.array(c, dtype=float) for c in zip(*samples))
    lhs = (u + v) * (u + v) + (u - v) * (u - v)
    rhs = 2.0 * (u * u) + 2.0 * (v * v)
    return _scan(*_residual(lhs, [rhs]), samples)


class _Group(Hypergroup):
    """The affine group on raw elements: p * q is the point mass at p q."""

    commutative = False

    def convolve_many(self, ps, qs):
        support = tuple(c[:, None] for c in group_mul(ps, qs))
        return support, np.ones((len(support[0]), 1))


def group_sine_check(lam, pairs):
    """On the group itself every sine function for m = |x|^lam is
    (additive) * m with the additive function a(x, u) = ln|x|.  Checks, by
    ``_errors`` on ``_Group``, the additivity of a (the sine equation for
    m = 1) and the sine equation for f = a m over pairs of raw group
    elements; witnesses are tagged ('additive'|'sine', p, q)."""
    def a(p):
        return np.log(np.abs(p[0]))

    def m(p):
        return _power(lam, np.abs(p[0]))
    errors = _errors(_Group(), [(a, lambda p: 1.0),
                                (lambda p: a(p) * m(p), m)], pairs)
    return _interleaved(errors, pairs, ("additive", "sine"))


def conjugate_by(p, k):
    """p k p^(-1); with k = (-1, 0) this returns (-1, 2u), witnessing that
    the sign subgroup is not normal."""
    return group_mul(group_mul(p, k), group_inv(p))
