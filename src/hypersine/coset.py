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

from .core import (Hypergroup, _cmul, _pair_batch, _reject, _residual, _scan,
                   sine_residual)


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


def coset_exponential(lam):
    """Exponential (ax, au) -> ax^lam = exp(lam ln ax) on canonical pairs or
    on a batch of them; lam may be complex."""
    def m(p):
        ax, _ = p
        # the complex exp, as cmath's: numpy's real exp rounds differently
        return np.exp(lam * np.log(ax) + 0j)
    return m


def coset_sine(c, lam):
    """Sine function (ax, au) -> c ax^lam ln(ax) for the exponential at lam."""
    def f(p):
        ax, _ = p
        lg = np.log(ax)
        return _cmul(c, np.exp(complex(lam) * lg)) * lg
    return f


def falsify_dalembert_alpha(lam, alpha, samples):
    """Residual of the coset exponential equation

        m(x y, x v + u) + m(x y, x v - u) = 2 m(x, u) m(y, v)

    for the candidate m(x, u) = |x|^lam cosh(alpha u).  Any alpha != 0 is
    refuted by a strictly positive residual; alpha = 0 is the genuine
    exponential and is rejected as input."""
    if alpha == 0:
        raise ValueError("alpha = 0 is the exponential itself; nothing to refute")
    lam = complex(lam)
    x, u, y, v = (np.array(c, dtype=float) for c in zip(*samples))

    def m(x, u):
        return _cmul(np.exp(lam * np.log(np.abs(x))), np.cosh(alpha * u + 0j))

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
    lam = complex(lam)

    def f(p):
        ax, au = p
        lg = np.log(ax)
        return _cmul(np.exp(lam * lg), lg + a * au * au)
    return sine_residual(CosetHypergroup(), f, coset_exponential(lam), pairs)


def square_norm_check(samples):
    """Residual of the square-norm equation
    g(u+v) + g(u-v) = 2 g(u) + 2 g(v) for g(u) = u^2 over (u, v) samples;
    algebraically zero, so the residual is pure rounding."""
    u, v = (np.array(c, dtype=float) for c in zip(*samples))
    lhs = (u + v) * (u + v) + (u - v) * (u - v)
    rhs = 2.0 * (u * u) + 2.0 * (v * v)
    return _scan(*_residual(lhs, [rhs]), samples)


def group_sine_check(lam, pairs):
    """On the group itself every sine function for m = |x|^lam is
    (additive) * m with the additive function a(x, u) = ln|x|.  Checks both
    the additivity of a and the sine equation for f = a m over pairs of raw
    group elements; witnesses are tagged ('additive'|'sine', p, q)."""
    lam = complex(lam)
    p, q = _pair_batch(pairs)
    a_p, a_q, a_pq = (np.log(np.abs(x)) for x in (p[0], q[0], p[0] * q[0]))
    m_p, m_q, m_pq = (np.exp(lam * a) for a in (a_p, a_q, a_pq))
    add_err, add_rel = _residual(a_pq, [a_p, a_q])
    sine_err, sine_rel = _residual(
        a_pq * m_pq, [_cmul(a_p * m_p, m_q), _cmul(a_q * m_q, m_p)])
    witnesses = [(tag, p_, q_) for p_, q_ in pairs
                 for tag in ("additive", "sine")]
    return _scan(np.column_stack([add_err, sine_err]).ravel(),
                 np.column_stack([add_rel, sine_rel]).ravel(), witnesses)


def conjugate_by(p, k):
    """p k p^(-1); with k = (-1, 0) this returns (-1, 2u), witnessing that
    the sign subgroup is not normal."""
    return group_mul(group_mul(p, k), group_inv(p))
