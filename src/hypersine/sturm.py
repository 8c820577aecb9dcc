"""Sturm-Liouville equations on the half line and their exponential families.

The exponential family solves

    u'' + (A'/A) u' = lam u,       u(0) = 1, u'(0) = 0,

and the sine candidates solve the inhomogeneous companion

    f'' + (A'/A) f' = lam f + c u,  f(0) = f'(0) = 0,

whose c = 1 solution is the lambda-derivative of the family.  A'/A may have
a s/x singularity at the origin (power weights A = x^s).  One pass serves
``solve_phi``, ``solve_sine`` and ``dlambda_phi``: a fixed-step classical
fourth-order method over (u, u', f, f'), launched from ``_hyp0f1`` through
x^4 on [0, x_start] with x_start = max(10 h, 1e-3).  The equations are
linear, so each RK4 step is a fixed matrix [[P, 0], [c Q, P]]: the step
matrices of the whole grid are built at once with array arithmetic, then one
short loop applies them in order.  Accuracy is checked against closed forms,
not against a second integration: cosh(sqrt(lam) x) and x sinh(sqrt(lam) x)
/ (2 sqrt(lam)) for A == 1, and for A = x^s the whole series ``_hyp0f1``,
phi = 0F1(; alpha + 1; lam x^2 / 4) and f.

For A == 1 the family is cosh(sqrt(lam) x) and the point convolution
d[x] * d[y] = (d[x+y] + d[|x-y|]) / 2 makes the half line a hypergroup;
``cosh_hypergroup_check`` certifies both functional equations there.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (Hypergroup, _errors, _finite, _interleaved, _reject,
                   _residual)


class SturmLiouvilleFunction(NamedTuple):
    """Weight data: the logarithmic derivative A'/A and the coefficient s of
    its s/x singularity at the origin (0 for a weight smooth and positive
    at 0).

    ``ratio`` is called on an array of points x > 0 and returns A'/A at
    each of them: an array of the same shape, or a scalar that broadcasts
    against it (the constant weight returns 0.0)."""

    ratio: Callable[[np.ndarray], np.ndarray]
    origin_exponent: float
    name: str = ""


def power_family(alpha):
    """Weight A(x) = x^(2 alpha + 1), so A'/A = (2 alpha + 1)/x.

    Requires alpha >= -1/2; alpha = 1/2 gives the family
    sinh(sqrt(lam) x) / (sqrt(lam) x).
    """
    if not alpha >= -0.5:   # NaN fails too
        raise ValueError(f"alpha must be >= -1/2, got {alpha!r}")
    s = 2.0 * alpha + 1.0
    return SturmLiouvilleFunction(
        ratio=lambda x: s / x, origin_exponent=s, name=f"power(alpha={alpha:g})")


def constant_family():
    """Constant weight A == 1; the exponential family is cosh(sqrt(lam) x)."""
    return SturmLiouvilleFunction(
        ratio=lambda x: 0.0, origin_exponent=0.0, name="constant")


class OdeSolution(NamedTuple):
    """Solution tabulated on a uniform grid.

    ``ode_residual`` is the worst relative central-difference error of the
    equation on interior nodes (see ``ode_defect``); ``forcing`` holds the
    exponential values of the same pass, used on the right-hand side.
    """

    grid: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    lam: complex
    c: complex
    ode_residual: float
    forcing: Optional[np.ndarray] = None


# a huge real lam makes inf * 0 here; _integrate reports the non-finite table
@np.errstate(all="ignore")
def _hyp0f1(s, lam, c, x, terms=None):
    """(phi, phi', f, f') at the points x for the power weight x^s, s = 2 alpha
    + 1 >= 0: phi = 0F1(; alpha + 1; lam x^2 / 4) = sum_k a_k x^(2k), a_k =
    a_(k-1) lam / (2k (s + 2k - 1)), and f = c d/dlam phi.  The sum ends at
    k = ``terms`` (the RK4 launch takes 2), else once k |a_k| max(x^2)^k is
    below 1e-17 of the sum so far: rounding level unless lam x^2 cancels."""
    x2 = x * x
    big = float(np.max(x2, initial=0.0))
    a, num, den, size, total, phi, f = 1.0, c, 1.0, 1.0, 0.0, [], []
    for k in itertools.count(1) if terms is None else range(1, terms + 1):
        step = 2 * k * (s + (2 * k - 1))
        a, den = a * lam / step, den * step
        phi.append(a)
        f.append(k * num / den)   # c k lam^(k-1) / (product of the steps)
        num, size = num * lam, size * abs(lam) * big / step   # |a_k| big^k
        total += k * size
        if terms is None and not k * size > 1e-17 * total:   # NaN stops
            break

    def horner(co):   # sum_k co[k - 1] x^(2k - 2)
        return functools.reduce(lambda acc, b: b + acc * x2, co[::-1])

    dphi, df = ([2 * k * t for k, t in enumerate(co, 1)] for co in (phi, f))
    return (1.0 + x2 * horner(phi), x * horner(dphi), x2 * horner(f),
            x * horner(df))


def _grid(x_max, h):
    if h <= 0 or x_max <= 0:
        raise ValueError(f"x_max and h must be positive, got {x_max}, {h}")
    steps = int(round(x_max / h))
    if steps < 20:
        raise ValueError(f"grid too coarse: {steps} steps on [0, {x_max}]")
    return np.arange(steps + 1) * h, steps


def _launch_index(x_max, h, steps):
    return min(steps, max(1, math.ceil(max(10.0 * h, 1e-3) / h - 1e-9)))


@np.errstate(all="ignore")
def _step_columns(ratio, lam, c, xs, h):
    """Columns e1 and e2 of the RK4 step matrices, minus the identity, over
    (phi, phi', f, f') for the steps starting at ``xs``, one array per
    entry: the classical stages run on the basis vectors, vectorised over
    the steps, with A'/A sampled at x, x + h/2 and x + h.  The system is
    block lower-triangular, so a step matrix is I + [[D, 0], [c Q, D]] and
    these two columns hold every entry: D00, D10, cQ00, cQ10, then D01,
    D11, cQ01, cQ11.  Leaving out the identity lets a step add an O(h)
    increment to the state, so rounding stays relative to the increment."""

    def rhs(r, s):
        return (s[1], lam * s[0] - r * s[1],
                s[3], lam * s[2] + c * s[0] - r * s[3])

    r0, rh, r1 = ratio(xs), ratio(xs + h / 2.0), ratio(xs + h)
    one, zero = np.ones(len(xs)), np.zeros(len(xs))
    entries = []
    for e in ((one, zero, zero, zero), (zero, one, zero, zero)):
        k1 = rhs(r0, e)
        k2 = rhs(rh, tuple(s + (h / 2.0) * k for s, k in zip(e, k1)))
        k3 = rhs(rh, tuple(s + (h / 2.0) * k for s, k in zip(e, k2)))
        k4 = rhs(r1, tuple(s + h * k for s, k in zip(e, k3)))
        entries += [(h / 6.0) * (a + 2.0 * b + 2.0 * g + d)
                    for a, b, g, d in zip(k1, k2, k3, k4)]
    return entries


def _integrate(family, lam, c, x_max, h):
    """The one integration pass: a series launch, then classical RK4 over
    (phi, phi', f, f') with the exponential feeding the forcing c * phi, so
    no interpolation is needed at half steps.  The step matrices of the
    whole grid are built first (``_step_columns``), then one loop applies
    them in order.  With c == 0 every cQ entry is 0, so f stays exactly 0.
    When lam and c are both real the pass runs in floats: a complex
    operation on zero imaginary parts rounds its real part exactly as the
    float operation does, so only the sign of a zero can differ.
    Returns the grid and the four tabulated components, complex."""
    lam, c = complex(lam), complex(c)
    if lam.imag == 0 and c.imag == 0:
        lam, c = lam.real, c.real
    grid, steps = _grid(x_max, h)
    k0 = _launch_index(x_max, h, steps)
    launch = _hyp0f1(family.origin_exponent, lam, c, grid[:k0 + 1], 2)
    xs = grid[k0] + np.arange(steps - k0) * h
    entries = zip(*(e.tolist() for e in _step_columns(family.ratio, lam, c,
                                                       xs, h)))
    (u, v, fu, fv), out = [t[-1].item() for t in launch], []
    for a, p, ga, gp, b, q, gb, gq in entries:
        u, v, fu, fv = (u + (a * u + b * v), v + (p * u + q * v),
                        fu + (a * fu + b * fv + ga * u + gb * v),
                        fv + (p * fu + q * fv + gp * u + gq * v))
        out.extend((u, v, fu, fv))
    rest = np.array(out, dtype=complex).reshape(-1, 4).T
    return (grid, *(_finite(np.concatenate(pair), "sturm solution", lam)
                    for pair in zip(launch, rest)))


def solve_phi(family, lam, x_max=5.0, h=1e-3):
    """Exponential family member at lam, tabulated on [0, x_max]."""
    lam = complex(lam)
    grid, phi, dphi, _, _ = _integrate(family, lam, 0.0, x_max, h)
    return OdeSolution(grid, phi, dphi, lam, 0.0,
                       ode_residual(grid, phi, family.ratio, lam))


def solve_sine(family, lam, c, x_max=5.0, h=1e-3):
    """Solution of the inhomogeneous companion equation with forcing c * phi;
    ``forcing`` holds phi from the same pass."""
    lam, c = complex(lam), complex(c)
    grid, phi, _, f, df = _integrate(family, lam, c, x_max, h)
    return OdeSolution(grid, f, df, lam, c,
                       ode_residual(grid, f, family.ratio, lam, c, phi),
                       forcing=phi)


def dlambda_phi(family, lam, x_max=5.0, h=1e-3):
    """Lambda-derivative of the exponential family: the c = 1 companion."""
    return solve_sine(family, lam, 1.0, x_max=x_max, h=h)


@np.errstate(all="ignore")   # a table near the float range overflows here
def ode_defect(grid, values, ratio, lam, c=0.0, forcing=None):
    """``core._residual`` (err, rel) of u'' = lam u - (A'/A) u' + c forcing
    on the interior nodes, u'' and u' by central differences: rel is err
    over 1 + |lam u| + |(A'/A) u'| + |c forcing|."""
    h = grid[1] - grid[0]
    u = values
    upp = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    up = (u[2:] - u[:-2]) / (2.0 * h)
    forced = 0.0 if forcing is None else c * forcing[1:-1]
    return _residual(upp, [lam * u[1:-1], -ratio(grid[1:-1]) * up, forced])


def ode_residual(grid, values, ratio, lam, c=0.0, forcing=None):
    """Worst relative error rel of ``ode_defect`` on the interior nodes."""
    return float(ode_defect(grid, values, ratio, lam, c, forcing)[1].max())


def line_phi(x, lam):
    """Closed form cosh(sqrt(lam) x) for the constant weight, at a point or
    an array of points; even in the square root, so branch-independent."""
    return np.cosh(cmath.sqrt(lam) * np.asarray(x))


def line_dphi(x, lam):
    """Closed form of the lambda-derivative x sinh(sqrt(lam) x)/(2 sqrt(lam)),
    at a point or an array of points, with the series ``_hyp0f1`` near
    lam = 0, where the quotient degenerates."""
    x, w = np.asarray(x), cmath.sqrt(lam)
    if abs(w) < 1e-4:
        return _hyp0f1(0.0, lam, 1.0, x)[2]
    return x * np.sinh(w * x) / (2.0 * w)


class CoshLineHypergroup(Hypergroup):
    """Half line with d[x] * d[y] = (d[x+y] + d[|x-y|]) / 2; identity 0."""

    identity = 0.0
    commutative = True

    def convolve_many(self, xs, ys):
        _reject((xs < 0) | (ys < 0), "elements must be >= 0", xs, ys)
        support = np.column_stack([xs + ys, np.abs(xs - ys)])
        return support, np.full(support.shape, 0.5)


def cosh_hypergroup_check(lam, pairs):
    """Residuals of both functional equations on the cosh hypergroup:
    the exponential equation for m = cosh(sqrt(lam) .) and the sine equation
    for its lambda-derivative.  Witnesses are tagged ('exp'|'sine', x, y),
    the two equations alternating pair by pair."""
    m, f = (functools.partial(g, lam=lam) for g in (line_phi, line_dphi))
    return _interleaved(_errors(CoshLineHypergroup(), [(None, m), (f, m)],
                                pairs), pairs, ("exp", "sine"))
