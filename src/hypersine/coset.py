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
                   _real, _reject, _residual, _scan, sine_residual)


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
        support = (np.abs(x * y)[:, None],   # both points' |xy|, broadcast
                   np.column_stack([np.abs(x * v + u), np.abs(-x * v + u)]))
        return support, np.full((len(x), 2), 0.5)

    def involution(self, p):
        return coset_of(group_inv(p))


def _log(p):
    """ln |x| of an element (x, u) or of a batch of them."""
    return np.log(np.abs(p[0]))


def _formed(of, *parts):
    """p -> of(*[part(p) for part in parts]), with ``form`` (of, *parts):
    ``core._errors`` forms its values from the parts' values."""
    def fn(p):
        return of(*[part(p) for part in parts])
    fn.form = (of, *parts)
    return fn


@np.errstate(over="ignore", invalid="ignore")
def _power(lam, log_ax):
    """ax^lam = exp(lam ln ax) from log_ax = ln ax, by the complex exp (as
    cmath's: numpy's real exp rounds differently), real at a real lam;
    OverflowError naming lam where it leaves the float range."""
    return _finite(_real(np.exp(complex(lam) * log_ax), lam),
                   "coset closed form", lam)


def coset_exponential(lam):
    """Exponential (ax, au) -> ax^lam on canonical pairs or on a batch of
    them; lam may be complex."""
    return _formed(lambda log_ax: _power(lam, log_ax), _log)


def coset_sine(c, lam):
    """Sine function (ax, au) -> c ax^lam ln(ax) for the exponential at lam,
    float at a real lam and c; it may overflow where ax^lam does not.  Its
    form reads its own exponential, ``form[1]``, and ln ax."""
    def sine(m, log_ax):
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(_real(_cmul(c, m) * log_ax, lam, c),
                           "coset closed form", lam)
    return _formed(sine, coset_exponential(lam), _log)


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
        return _cmul(_power(lam, _log((x, u))), np.cosh(alpha * u + 0j))

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
    m = coset_exponential(lam)   # f = m (ln|x| + a u^2), formed from m
    return sine_residual(CosetHypergroup(), _formed(
        lambda m, log_ax, au: _cmul(m, log_ax + a * au * au),
        m, _log, lambda p: p[1]), m, pairs)


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
    f = coset_sine(1.0, lam)   # a m, formed from a = ln|x| and m
    errors = _errors(_Group(), [(_log, lambda p: 1.0), (f, f.form[1])], pairs)
    return _interleaved(errors, pairs, ("additive", "sine"))


def conjugate_by(p, k):
    """p k p^(-1); with k = (-1, 0) this returns (-1, 2u), witnessing that
    the sign subgroup is not normal."""
    return group_mul(group_mul(p, k), group_inv(p))
