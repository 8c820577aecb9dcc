"""Sturm-Liouville equations on the half line and their exponential families.

The exponential family solves

    u'' + (A'/A) u' = lam u,       u(0) = 1, u'(0) = 0,

and the sine candidates solve the inhomogeneous companion

    f'' + (A'/A) f' = lam f + c u,  f(0) = f'(0) = 0,

whose c = 1 solution is the lambda-derivative of the family.  A'/A may have
a s/x singularity at the origin (power weights A = x^s).  One pass serves
``solve_phi``, ``solve_sine`` and ``dlambda_phi``: a fixed-step classical
fourth-order method over (u, u', f, f'), launched from a short power series
on [0, x_start] with x_start = max(10 h, 1e-3).  Its accuracy is checked
against closed forms, not against a second integration: cosh(sqrt(lam) x)
and x sinh(sqrt(lam) x) / (2 sqrt(lam)) for A == 1, and the identity
d/dlam phi_alpha = x^2 / (4 (alpha + 1)) phi_(alpha + 1) for A = x^(2 alpha + 1).

For A == 1 the family is cosh(sqrt(lam) x) and the point convolution
d[x] * d[y] = (d[x+y] + d[|x-y|]) / 2 makes the half line a hypergroup;
``cosh_hypergroup_check`` certifies both functional equations there.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Hypergroup, _errors, _pair_batch, _reject, _scan

OVERFLOW_LIMIT = 1e12


@dataclass(frozen=True)
class SturmLiouvilleFunction:
    """Weight data: the logarithmic derivative A'/A and the coefficient s of
    its s/x singularity at the origin (0 for a weight smooth and positive
    at 0)."""

    ratio: Callable[[float], float]
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


@dataclass(frozen=True)
class OdeSolution:
    """Solution tabulated on a uniform grid.

    ``ode_residual`` is the worst scaled central-difference defect of the
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


def _series_phi(s, lam, x):
    """Series launch for the exponential: 1 + b2 x^2 + b4 x^4 and its
    derivative; valid for A'/A = s/x near 0 (exact for the power weights)."""
    b2 = lam / (2.0 * (s + 1.0))
    b4 = lam * b2 / (4.0 * (s + 3.0))
    x2 = x * x
    u = 1.0 + x2 * (b2 + b4 * x2)
    du = x * (2.0 * b2 + 4.0 * b4 * x2)
    return u, du


def _series_sine(s, lam, c, x):
    """Series launch for the inhomogeneous companion: g2 x^2 + g4 x^4."""
    g2 = c / (2.0 * (s + 1.0))
    g4 = lam * c / (4.0 * (s + 3.0) * (s + 1.0))
    x2 = x * x
    u = x2 * (g2 + g4 * x2)
    du = x * (2.0 * g2 + 4.0 * g4 * x2)
    return u, du


def _grid(x_max, h):
    if h <= 0 or x_max <= 0:
        raise ValueError(f"x_max and h must be positive, got {x_max}, {h}")
    steps = int(round(x_max / h))
    if steps < 20:
        raise ValueError(f"grid too coarse: {steps} steps on [0, {x_max}]")
    return np.arange(steps + 1) * h, steps


def _check_overflow(state):
    for v in state:
        if abs(v) > OVERFLOW_LIMIT:
            raise OverflowError(
                f"solution magnitude exceeded {OVERFLOW_LIMIT:g}; "
                "reduce x_max or Re sqrt(lam)")


def _rk4(rhs, x0, state, h, n_steps, record):
    """Classical fourth-order steps; ``record(i, state)`` is called after
    step i (1-based from the launch node)."""
    x = x0
    for i in range(1, n_steps + 1):
        k1 = rhs(x, state)
        k2 = rhs(x + h / 2.0, _axpy(state, k1, h / 2.0))
        k3 = rhs(x + h / 2.0, _axpy(state, k2, h / 2.0))
        k4 = rhs(x + h, _axpy(state, k3, h))
        state = tuple(
            s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4))
        x = x0 + i * h
        _check_overflow(state)
        record(i, state)
    return state


def _axpy(state, k, scale):
    return tuple(s + scale * v for s, v in zip(state, k))


def _launch_index(x_max, h, steps):
    x_start = max(10.0 * h, 1e-3)
    k0 = min(steps, max(1, math.ceil(x_start / h - 1e-9)))
    return k0


def _integrate(family, lam, c, x_max, h):
    """The one integration pass: a series launch, then classical RK4 over
    (phi, phi', f, f') with the exponential feeding the forcing c * phi, so
    no interpolation is needed at half steps.  Returns the grid and the four
    tabulated components."""
    lam = complex(lam)
    c = complex(c)
    grid, steps = _grid(x_max, h)
    s = family.origin_exponent
    ratio = family.ratio
    phi_v = [0j] * (steps + 1)
    phi_d = [0j] * (steps + 1)
    f_v = [0j] * (steps + 1)
    f_d = [0j] * (steps + 1)
    k0 = _launch_index(x_max, h, steps)
    for i in range(k0 + 1):
        phi_v[i], phi_d[i] = _series_phi(s, lam, grid[i])
        f_v[i], f_d[i] = _series_sine(s, lam, c, grid[i])

    def rhs(x, state):
        pu, pv, fu, fv = state
        r = ratio(x)
        return (pv, lam * pu - r * pv, fv, lam * fu + c * pu - r * fv)

    def record(i, state):
        phi_v[k0 + i], phi_d[k0 + i], f_v[k0 + i], f_d[k0 + i] = state

    _rk4(rhs, grid[k0], (phi_v[k0], phi_d[k0], f_v[k0], f_d[k0]), h,
         steps - k0, record)
    return (grid, np.array(phi_v), np.array(phi_d), np.array(f_v),
            np.array(f_d))


def solve_phi(family, lam, x_max=5.0, h=1e-3):
    """Exponential family member at lam, tabulated on [0, x_max]."""
    lam = complex(lam)
    grid, phi, dphi, _, _ = _integrate(family, lam, 0.0, x_max, h)
    return OdeSolution(grid, phi, dphi, lam, 0.0,
                       ode_residual(grid, phi, family.ratio, lam))


def solve_sine(family, lam, c, x_max=5.0, h=1e-3):
    """Solution of the inhomogeneous companion equation with forcing c * phi;
    ``forcing`` holds phi from the same pass."""
    lam = complex(lam)
    c = complex(c)
    grid, phi, _, f, df = _integrate(family, lam, c, x_max, h)
    return OdeSolution(grid, f, df, lam, c,
                       ode_residual(grid, f, family.ratio, lam, c, phi),
                       forcing=phi)


def dlambda_phi(family, lam, x_max=5.0, h=1e-3):
    """Lambda-derivative of the exponential family: the c = 1 companion."""
    return solve_sine(family, lam, 1.0, x_max=x_max, h=h)


def ode_defect(grid, values, ratio, lam, c=0.0, forcing=None):
    """Central-difference defect u'' + (A'/A) u' - lam u - c forcing of the
    equation on the interior nodes, and the scale
    1 + |lam u| + |(A'/A) u'| (+ |c forcing|) it is measured against."""
    h = grid[1] - grid[0]
    u = values
    upp = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    up = (u[2:] - u[:-2]) / (2.0 * h)
    rvals = np.array([ratio(x) for x in grid[1:-1]])
    res = upp + rvals * up - lam * u[1:-1]
    scale = 1.0 + np.abs(lam * u[1:-1]) + np.abs(rvals * up)
    if forcing is not None and c != 0:
        res = res - c * forcing[1:-1]
        scale = scale + np.abs(c * forcing[1:-1])
    return res, scale


def ode_residual(grid, values, ratio, lam, c=0.0, forcing=None):
    """Worst scaled defect max |defect| / scale on the interior nodes."""
    res, scale = ode_defect(grid, values, ratio, lam, c, forcing)
    return float(np.max(np.abs(res) / scale))


def line_phi(x, lam):
    """Closed form cosh(sqrt(lam) x) for the constant weight, at a point or
    an array of points; even in the square root, so branch-independent."""
    return np.cosh(cmath.sqrt(lam) * np.asarray(x))


def line_dphi(x, lam):
    """Closed form of the lambda-derivative x sinh(sqrt(lam) x)/(2 sqrt(lam)),
    at a point or an array of points, with the series used near lam = 0
    where the quotient degenerates."""
    x = np.asarray(x)
    w = cmath.sqrt(lam)
    if abs(w) < 1e-4:
        x2 = x * x
        return x2 / 2.0 * (1.0 + lam * x2 / 6.0 + lam * lam * x2 * x2 / 120.0 * 1.0)
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
    hg, xs_ys = CoshLineHypergroup(), _pair_batch(pairs)
    m, f = (functools.partial(g, lam=lam) for g in (line_phi, line_dphi))
    exp_err, exp_rel = _errors(hg, None, m, *xs_ys)
    sine_err, sine_rel = _errors(hg, f, m, *xs_ys)
    witnesses = [(tag, x, y) for x, y in pairs for tag in ("exp", "sine")]
    return _scan(np.column_stack([exp_err, sine_err]).ravel(),
                 np.column_stack([exp_rel, sine_rel]).ravel(), witnesses)
