"""Products of polynomial hypergroups in several variables.

Elements are tuples of degrees, convolution acts coordinatewise, and the
exponentials are Q_x(lam) = prod_j P_(x_j)(lam_j).  Every sine function for
the exponential at lam is a combination sum_j c_j dQ_x/dlam_j; the
coefficients are read off the degree-one elements (the unit tuples) and the
claim is certified by checking elements of bounded total degree.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .core import Hypergroup, TheoremViolationError, _certify, _cmul, _real
from .polyhg import PolynomialHypergroup, _finite_p_and_dp


class DegenerateParameterError(ValueError):
    """A singular fit system.  No fit raises it: the system of
    ``fit_coefficients`` is diag(1/a_0) at every lambda, never singular."""


class ProductPolyHypergroup(Hypergroup):
    """Finite product of polynomial hypergroups, elements are degree tuples."""

    weight_tol = PolynomialHypergroup.weight_tol   # its factors' rule

    def __init__(self, factors):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("at least one factor recurrence is required")
        self._hgs = tuple(PolynomialHypergroup(rec) for rec in self.factors)
        self.dimension = len(self.factors)
        self.identity = (0,) * self.dimension

    def _check_element(self, x):
        if len(x) != self.dimension:
            raise ValueError(
                f"element {x!r} has {len(x)} coordinates, expected "
                f"{self.dimension}")

    def convolve_many(self, xs, ys):
        """Outer product of the factor rows, the last factor fastest."""
        self._check_element(xs)
        self._check_element(ys)
        parts = [hg.convolve_many(a, b) for hg, a, b in zip(self._hgs, xs, ys)]
        count = len(parts[0][1])
        support, weights = (), np.ones((count, 1))
        for sup, w in parts:
            width = weights.shape[1]
            weights = (weights[:, :, None] * w[:, None, :]).reshape(count, -1)
            support = tuple(np.repeat(s, w.shape[1], axis=1)
                            for s in support) + (np.tile(sup, (1, width)),)
        return support, weights

    def _factor_values(self, x, lam):
        """Per factor, (P, P') at its coordinate of x (an element or a batch),
        float at a real lam; OverflowError naming the factor's lambda where
        they leave the float range."""
        self._check_element(x)
        if len(lam) != self.dimension:
            raise ValueError(
                f"lambda {lam!r} has {len(lam)} coordinates, expected "
                f"{self.dimension}")
        out = []
        for rec, xj, lj in zip(self.factors, x, lam):
            xj = np.asarray(xj)
            if xj.min() < 0:
                raise ValueError(f"degree must be >= 0, got {xj.min()}")
            p, dp = _finite_p_and_dp(rec, int(xj.max()), lj)
            out.append((_real(p[xj], *lam), _real(dp[xj], *lam)))
        return out

    def q_eval(self, x, lam):
        """Q_x(lam) = prod_j P_(x_j)(lam_j)."""
        return _product([p for p, _ in self._factor_values(x, lam)])

    def q_grad(self, x, lam):
        """Gradient of Q_x in lam: the product rule over each factor's P, P'."""
        factors = self._factor_values(x, lam)
        return tuple(_product([dp if i == j else p
                               for i, (p, dp) in enumerate(factors)])
                     for j in range(self.dimension))

    def exp_fn(self, lam):
        """The exponential x -> Q_x(lam), at one element or a batch."""
        return lambda x: self.q_eval(x, lam)

    def multi_sine(self, c, lam):
        """The sine function x -> sum_j c_j dQ_x/dlam_j for the exponential
        at lam, at one element or a batch, float at a real lam and c."""
        if len(c) != self.dimension:
            raise ValueError(
                f"coefficients {c!r} have {len(c)} entries, expected "
                f"{self.dimension}")
        c = tuple(c)

        def f(x):
            total = 0
            for cj, gj in zip(c, self.q_grad(x, lam)):
                total = total + _cmul(cj, gj)
            return _real(total, *lam, *c)
        return f

    def unit_elements(self):
        eye = np.eye(self.dimension, dtype=int)
        return [tuple(int(v) for v in row) for row in eye]

    def fit_coefficients(self, f, lam, n_max=None, rtol=1e-9):
        """Coefficients c with f = sum_j c_j dQ/dlam_j, from the values of f
        at the unit tuples; f is called on batches, as by ``sine_residual``,
        and its result is broadcast to the batch.

        Q_(e_i) = P_1(lam_i) = (lam_i - b_0)/a_0 of factor i, so f(e_i) =
        c_i / a_0 at every lam and c_j = a_0 f(e_j).  Given ``n_max``, the
        fitted combination is checked against f on all elements of total
        degree <= n_max (``core._certify``, NaN fails); without it, a value
        of f at a unit tuple that is not finite raises TheoremViolationError
        naming the tuple.
        """
        units = tuple(np.array(self.unit_elements()).T)
        vec = np.broadcast_to(f(units), self.dimension).astype(complex)
        with np.errstate(invalid="ignore"):   # NaN reaches the checks below
            c = np.array([float(rec.a(0)) for rec in self.factors]) * vec
        if n_max is not None and n_max >= 0:   # no element below degree 0
            elements = list(elements_of_total_degree(self.dimension, n_max))
            batch = tuple(np.array(elements).T)
            if error := _certify(self.multi_sine(tuple(c), lam)(batch),
                                 np.broadcast_to(f(batch), len(elements)),
                                 rtol, elements, "fit mismatch"):
                raise error
        elif not np.isfinite(vec).all():   # nothing certified the values
            i = int(np.argmax(~np.isfinite(vec)))
            raise TheoremViolationError(
                f"f is not finite at {self.unit_elements()[i]!r}: {vec[i]}")
        return c


def _product(values):
    """Left-to-right product from 1, 1.0 if all are real, as math.prod."""
    return functools.reduce(_cmul, values, 1.0 if all(
        map(np.isrealobj, values)) else 1 + 0j)


def elements_of_total_degree(d, max_total):
    """All degree tuples of length d with coordinate sum <= max_total, by
    total degree and lexicographically within one total."""
    for total in range(max_total + 1):
        for x in itertools.product(range(total + 1), repeat=d):
            if sum(x) == total:
                yield x
