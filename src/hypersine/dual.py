"""Forward-mode dual-number scalars and elementary functions accepting them.

Evaluating a parameterized formula with ``DualScalar(lam, 1.0)`` in place of
``lam`` yields the value together with the first derivative in ``lam``; apart
from rounding there is no truncation error.  They are kept for user
formulas: no family in this package computes with them.  The package's
own derivatives are cross-checked against ``central_difference`` over
the family table ``suites._FAMILIES`` by ``suites.dual_vs_fd_report``.

Each binary operator is one rule on two duals behind one operand rule,
``_operator``; each elementary function is one derivative rule behind one
chain rule, ``_chain``.
"""

from __future__ import annotations

import cmath


def _operator(rule):
    """The binary method ``rule(self, o)``, o the other operand as a
    ``DualScalar``; NotImplemented if ``complex`` cannot take that operand."""
    def method(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else rule(self, o)
    return method


def _quotient(a, b):
    v = a.value / b.value
    return DualScalar(v, (a.deriv - v * b.deriv) / b.value)


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

    __eq__ = _operator(lambda a, b: a.value == b.value and a.deriv == b.deriv)
    __hash__ = None

    def __neg__(self):
        return DualScalar(-self.value, -self.deriv)

    def __pos__(self):
        return self

    __add__ = __radd__ = _operator(
        lambda a, b: DualScalar(a.value + b.value, a.deriv + b.deriv))
    __sub__ = _operator(
        lambda a, b: DualScalar(a.value - b.value, a.deriv - b.deriv))
    __rsub__ = _operator(
        lambda a, b: DualScalar(b.value - a.value, b.deriv - a.deriv))
    __mul__ = __rmul__ = _operator(lambda a, b: DualScalar(
        a.value * b.value, a.value * b.deriv + a.deriv * b.value))
    __truediv__ = _operator(_quotient)
    __rtruediv__ = _operator(lambda a, b: _quotient(b, a))

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


def _chain(f, rule):
    """``f`` on plain scalars; on a dual z = x + eps d, the dual with value
    v = f(x) and derivative ``rule(x, v, d)``, that is f'(x) d."""
    def function(z):
        if isinstance(z, DualScalar):
            v = f(z.value)
            return DualScalar(v, rule(z.value, v, z.deriv))
        return f(z)
    function.__name__ = function.__qualname__ = f.__name__
    return function


exp = _chain(cmath.exp, lambda x, v, d: v * d)
log = _chain(cmath.log, lambda x, v, d: d / x)
sqrt = _chain(cmath.sqrt, lambda x, v, d: d / (2.0 * v))
sinh = _chain(cmath.sinh, lambda x, v, d: cmath.cosh(x) * d)
cosh = _chain(cmath.cosh, lambda x, v, d: cmath.sinh(x) * d)


def derivative(f, lam):
    """First derivative of ``f`` at ``lam`` by dual-number evaluation."""
    return deriv_of(f(DualScalar(lam, 1.0)))


def central_difference(f, lam, h=1e-5):
    """Symmetric difference quotient; independent check for dual derivatives."""
    return (f(lam + h) - f(lam - h)) / (2.0 * h)
