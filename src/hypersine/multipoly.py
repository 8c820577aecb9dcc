"""Products of polynomial hypergroups in several variables.

Elements are tuples of degrees, convolution acts coordinatewise, and the
exponentials are Q_x(lam) = prod_j P_(x_j)(lam_j).  Every sine function for
the exponential at lam is a combination sum_j c_j dQ_x/dlam_j; the
coefficients are read off the degree-one elements (the unit tuples) and the
claim is certified by checking elements of bounded total degree.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import FiniteMeasure, Hypergroup, TheoremViolationError
from .polyhg import PolynomialHypergroup, eval_P, eval_P_with_derivative


class DegenerateParameterError(ValueError):
    """The fit system at this lambda is singular."""


class ProductPolyHypergroup(Hypergroup):
    """Finite product of polynomial hypergroups, elements are degree tuples."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("at least one factor recurrence is required")
        self._hgs = tuple(PolynomialHypergroup(rec) for rec in self.factors)
        self.dimension = len(self.factors)
        self.identity = (0,) * self.dimension
        self.commutative = True

    def _check_element(self, x):
        if len(x) != self.dimension:
            raise ValueError(
                f"element {x!r} has {len(x)} coordinates, expected "
                f"{self.dimension}")

    def convolve(self, x, y):
        self._check_element(x)
        self._check_element(y)
        parts = [hg.convolve(a, b)
                 for hg, a, b in zip(self._hgs, x, y)]
        pairs = []
        for combo in itertools.product(*(p.items() for p in parts)):
            el = tuple(e for e, _ in combo)
            w = 1.0
            for _, wi in combo:
                w *= wi
            pairs.append((el, w))
        return FiniteMeasure(pairs)

    def q_eval(self, x, lam):
        """Q_x(lam) = prod_j P_(x_j)(lam_j)."""
        self._check_element(x)
        self._check_lambda(lam)
        return math.prod(eval_P(rec, xi, li)
                         for rec, xi, li in zip(self.factors, x, lam))

    def q_grad(self, x, lam):
        """Gradient of Q_x in lam: the product rule over each factor's P, P'."""
        self._check_element(x)
        self._check_lambda(lam)
        factors = [eval_P_with_derivative(rec, xi, li)
                   for rec, xi, li in zip(self.factors, x, lam)]
        return tuple(math.prod(dp if i == j else p
                               for i, (p, dp) in enumerate(factors))
                     for j in range(self.dimension))

    def _check_lambda(self, lam):
        if len(lam) != self.dimension:
            raise ValueError(
                f"lambda {lam!r} has {len(lam)} coordinates, expected "
                f"{self.dimension}")

    def exp_fn(self, lam):
        return lambda x: complex(self.q_eval(x, lam))

    def multi_sine(self, c, lam):
        """The sine function x -> sum_j c_j dQ_x/dlam_j for the exponential
        at lam."""
        if len(c) != self.dimension:
            raise ValueError(
                f"coefficients {c!r} have {len(c)} entries, expected "
                f"{self.dimension}")
        c = tuple(c)

        def f(x):
            g = self.q_grad(x, lam)
            return sum(cj * gj for cj, gj in zip(c, g))
        return f

    def unit_elements(self):
        eye = np.eye(self.dimension, dtype=int)
        return [tuple(int(v) for v in row) for row in eye]

    def fit_coefficients(self, f, lam, n_max=None, rtol=1e-9):
        """Coefficients c with f = sum_j c_j dQ/dlam_j, from the values of f
        at the unit tuples.

        The d-by-d system has matrix M[i][j] = dQ_(e_i)/dlam_j; a singular
        matrix raises DegenerateParameterError.  When ``n_max`` is given the
        fitted combination is checked against f on every element of total
        degree <= n_max, raising TheoremViolationError on mismatch.
        """
        units = self.unit_elements()
        mat = np.array([self.q_grad(e, lam) for e in units], dtype=complex)
        vec = np.array([f(e) for e in units], dtype=complex)
        sing = np.linalg.svd(mat, compute_uv=False)
        if sing[-1] <= len(mat) * np.finfo(float).eps * sing[0]:
            raise DegenerateParameterError(
                f"fit system singular at lambda = {lam!r}")
        c = np.linalg.solve(mat, vec)
        if n_max is not None:
            combo = self.multi_sine(tuple(c), lam)
            for x in elements_of_total_degree(self.dimension, n_max):
                got = combo(x)
                want = f(x)
                if abs(got - want) > rtol * (1.0 + abs(want)):
                    raise TheoremViolationError(
                        f"fit mismatch at {x}: combination {got}, "
                        f"function {want}")
        return c


def elements_of_total_degree(d, max_total):
    """All degree tuples of length d with coordinate sum <= max_total."""
    for total in range(max_total + 1):
        for cuts in itertools.combinations(range(total + d - 1), d - 1):
            prev = -1
            parts = []
            for cut in cuts:
                parts.append(cut - prev - 1)
                prev = cut
            parts.append(total + d - 2 - prev)
            yield tuple(parts)
