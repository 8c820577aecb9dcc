"""Forward-mode dual-number scalars and elementary functions accepting them.

Evaluating a parameterized formula with ``DualScalar(lam, 1.0)`` in place of
``lam`` yields the value together with the first derivative in ``lam``; apart
from rounding there is no truncation error.  They are kept for user
formulas: no family in this package computes with them.  The package's
own derivatives are cross-checked against ``central_difference`` over
the family table ``suites._FAMILIES`` by ``suites.dual_vs_fd_report``.
"""

from __future__ import annotations

import cmath


class DualScalar:
    """value + eps*deriv with eps**2 == 0, over the complex field."""

    __slots__ = ("value", "deriv")

    def __init__(self, value, deriv=0.0):
        self.value = complex(value)
        self.deriv = complex(deriv)

    @staticmethod
    def _coerce(other):
        if isinstance(other, DualScalar):
            return other
        try:
            return DualScalar(complex(other))
        except (TypeError, ValueError):
            return None

    def __repr__(self):
        return f"DualScalar({self.value!r}, {self.deriv!r})"

    def __eq__(self, other):
        if isinstance(other, DualScalar):
            return self.value == other.value and self.deriv == other.deriv
        try:
            return self.value == complex(other) and self.deriv == 0
        except (TypeError, ValueError):
            return NotImplemented

    __hash__ = None

    def __neg__(self):
        return DualScalar(-self.value, -self.deriv)

    def __pos__(self):
        return self

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualScalar(self.value + o.value, self.deriv + o.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualScalar(self.value - o.value, self.deriv - o.deriv)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualScalar(o.value - self.value, o.deriv - self.deriv)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualScalar(self.value * o.value,
                          self.value * o.deriv + self.deriv * o.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        v = self.value / o.value
        return DualScalar(v, (self.deriv - v * o.deriv) / o.value)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, n):
        if isinstance(n, DualScalar):
            return exp(n * log(self))
        try:
            n = complex(n)
        except (TypeError, ValueError):
            return NotImplemented
        if n == 0:
            return DualScalar(1.0, 0.0)
        v = self.value ** n
        return DualScalar(v, n * self.value ** (n - 1) * self.deriv)


def value_of(z):
    """Underlying complex value of a scalar that may or may not be dual."""
    return z.value if isinstance(z, DualScalar) else complex(z)


def deriv_of(z):
    """Derivative part of a scalar; zero for non-dual input."""
    return z.deriv if isinstance(z, DualScalar) else 0j


def exp(z):
    if isinstance(z, DualScalar):
        v = cmath.exp(z.value)
        return DualScalar(v, v * z.deriv)
    return cmath.exp(z)


def log(z):
    if isinstance(z, DualScalar):
        return DualScalar(cmath.log(z.value), z.deriv / z.value)
    return cmath.log(z)


def sqrt(z):
    if isinstance(z, DualScalar):
        v = cmath.sqrt(z.value)
        return DualScalar(v, z.deriv / (2.0 * v))
    return cmath.sqrt(z)


def sinh(z):
    if isinstance(z, DualScalar):
        return DualScalar(cmath.sinh(z.value), cmath.cosh(z.value) * z.deriv)
    return cmath.sinh(z)


def cosh(z):
    if isinstance(z, DualScalar):
        return DualScalar(cmath.cosh(z.value), cmath.sinh(z.value) * z.deriv)
    return cmath.cosh(z)


def derivative(f, lam):
    """First derivative of ``f`` at ``lam`` by dual-number evaluation."""
    return deriv_of(f(DualScalar(lam, 1.0)))


def central_difference(f, lam, h=1e-5):
    """Symmetric difference quotient; independent check for dual derivatives."""
    return (f(lam + h) - f(lam - h)) / (2.0 * h)
