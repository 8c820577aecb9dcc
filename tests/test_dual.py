import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hypersine.dual import (DualScalar, central_difference, cosh, derivative,
                            deriv_of, exp, log, sinh, sqrt, value_of)


def test_arithmetic_against_hand_derivatives():
    x = DualScalar(1.5, 1.0)
    y = x * x + 3.0 * x - 2.0
    assert value_of(y) == 1.5 * 1.5 + 3.0 * 1.5 - 2.0
    assert deriv_of(y) == 2.0 * 1.5 + 3.0

    q = (x * x - 1.0) / (x + 2.0)
    # quotient rule at 1.5
    num = (2 * 1.5) * (1.5 + 2) - (1.5 ** 2 - 1)
    assert abs(deriv_of(q) - num / (1.5 + 2) ** 2) < 1e-15


def test_chain_rule_through_elementary_functions():
    lam = 0.7
    f = lambda t: exp(sinh(t) * t) + cosh(t) / (1.0 + t)
    d = derivative(f, lam)
    fd = central_difference(f, lam)
    assert abs(d - fd) / (1.0 + abs(fd)) < 1e-9


def test_complex_arguments():
    lam = 0.3 + 0.4j
    d = derivative(lambda t: sinh(t) * sinh(t), lam)
    assert abs(d - 2.0 * cmath.sinh(lam) * cmath.cosh(lam)) < 1e-12


def test_pow_with_integer_and_dual_exponent():
    x = DualScalar(2.0, 1.0)
    assert deriv_of(x ** 3) == pytest.approx(12.0)
    # x^x has derivative x^x (ln x + 1)
    d = deriv_of(x ** x)
    assert abs(d - 4.0 * (math.log(2.0) + 1.0)) < 1e-12


def test_sqrt_and_log():
    x = DualScalar(4.0, 1.0)
    assert deriv_of(sqrt(x)) == pytest.approx(0.25)
    assert deriv_of(log(x)) == pytest.approx(0.25)
    assert value_of(sqrt(4.0)) == pytest.approx(2.0)


def test_fraction_coefficients_mix_with_duals():
    x = DualScalar(0.5, 1.0)
    y = Fraction(1, 2) * x + Fraction(3, 4)
    assert value_of(y) == 1.0
    assert deriv_of(y) == 0.5


def test_equality_is_on_both_components():
    assert DualScalar(1.0, 2.0) == DualScalar(1.0, 2.0)
    assert DualScalar(1.0, 2.0) != DualScalar(1.0, 3.0)
    with pytest.raises(TypeError):
        hash(DualScalar(1.0, 0.0))


coef = st.floats(min_value=-3, max_value=3, allow_nan=False)


@given(a=coef, b=coef, c=coef, t=st.floats(min_value=-2, max_value=2))
def test_product_rule_on_random_quadratics(a, b, c, t):
    p = lambda z: a * z * z + b * z + c
    q = lambda z: (z + 2.5) * (z - 0.5)
    d = derivative(lambda z: p(z) * q(z), t)
    want = (2 * a * t + b) * q(t) + p(t) * (2 * t + 2.0)
    assert abs(d - want) <= 1e-9 * (1.0 + abs(want))


@given(t=st.floats(min_value=0.05, max_value=3.0))
def test_dual_matches_central_difference_generic(t):
    f = lambda z: cosh(z) * exp(-z) + z * z * z
    d = derivative(f, t)
    fd = central_difference(f, t)
    assert abs(d - fd) <= 1e-6 * (1.0 + abs(fd))


def test_reflected_and_unary_operators():
    d = DualScalar(4.0, 2.0)
    assert 1 - d == DualScalar(-3.0, -2.0)
    assert 2 / d == DualScalar(0.5, -0.25)
    assert +d is d
    assert d ** 0 == DualScalar(1.0, 0.0)
    assert not d == 4 and DualScalar(2.0) == 2
    with pytest.raises(TypeError, match="unsupported operand type"):
        d + "x"
    assert log(1j) == cmath.log(1j)


# ------------------------------------------- every rule, bit for bit
# Each rule is written out in the operation order of its method, with the
# method's own operand first (``p + d`` runs ``d.__radd__``, which is
# ``__add__``).  A partner p enters as the dual complex(p) + eps 0j.

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
operand = st.one_of(st.builds(complex, finite, st.just(0.0)),
                    st.builds(complex, finite, finite))
duals = st.builds(DualScalar, operand, operand)
partners = st.one_of(st.integers(-5, 5), finite, operand,
                     st.fractions(min_value=-5, max_value=5,
                                  max_denominator=9))


def _outcome(thunk):
    """repr of (value, deriv), or the name of the exception raised."""
    try:
        z = thunk()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__
    return repr((z.value, z.deriv)) if isinstance(z, DualScalar) else repr(z)


def _same(got, want):
    assert _outcome(got) == _outcome(want)


def _sum(a, b):
    return DualScalar(a.value + b.value, a.deriv + b.deriv)


def _difference(a, b):
    return DualScalar(a.value - b.value, a.deriv - b.deriv)


def _product(a, b):
    return DualScalar(a.value * b.value, a.value * b.deriv + a.deriv * b.value)


def _quotient(a, b):
    v = a.value / b.value
    return DualScalar(v, (a.deriv - v * b.deriv) / b.value)


@given(a=duals, b=duals, p=partners)
def test_binary_rules_bit_for_bit(a, b, p):
    q = DualScalar(complex(p), 0j)
    for op, rule in ((lambda x, y: x + y, _sum),
                     (lambda x, y: x - y, _difference),
                     (lambda x, y: x * y, _product),
                     (lambda x, y: x / y, _quotient)):
        _same(lambda: op(a, b), lambda: rule(a, b))
        _same(lambda: op(a, p), lambda: rule(a, q))
    _same(lambda: p + a, lambda: _sum(a, q))
    _same(lambda: p - a, lambda: _difference(q, a))
    _same(lambda: p * a, lambda: _product(a, q))
    _same(lambda: p / a, lambda: _quotient(q, a))
    assert (a == b) is (a.value == b.value and a.deriv == b.deriv)
    assert (a == p) is (a.value == complex(p) and a.deriv == 0)


@given(a=duals, b=duals, n=st.sampled_from(
    [2, 3, -1, 0.5, -1.5, 3 + 1j, 1j, Fraction(1, 2), 0, 0.0, 0j]))
def test_power_rules_bit_for_bit(a, b, n):
    def power():
        m = complex(n)
        if m == 0:
            return DualScalar(1.0, 0.0)
        return DualScalar(a.value ** m,
                          m * a.value ** (m - 1) * a.deriv)

    def dual_power(a, b):   # a ** b = exp(b * log a), each by its chain rule
        lv = cmath.log(a.value)
        lg = DualScalar(lv, a.deriv / a.value)
        e = cmath.exp(b.value * lg.value)
        return DualScalar(e, e * (b.value * lg.deriv + b.deriv * lg.value))

    _same(lambda: a ** n, power)
    _same(lambda: a ** b, lambda: dual_power(a, b))
    _same(lambda: a ** a, lambda: dual_power(a, a))   # the x ** x path


@given(a=duals, x=operand)
def test_chain_rules_bit_for_bit(a, x):
    rules = ((exp, cmath.exp, lambda v: v * a.deriv),
             (log, cmath.log, lambda v: a.deriv / a.value),
             (sqrt, cmath.sqrt, lambda v: a.deriv / (2.0 * v)),
             (sinh, cmath.sinh, lambda v: cmath.cosh(a.value) * a.deriv),
             (cosh, cmath.cosh, lambda v: cmath.sinh(a.value) * a.deriv))
    for fn, f, rule in rules:
        _same(lambda: fn(a),
              lambda: (lambda v: DualScalar(v, rule(v)))(f(a.value)))
        _same(lambda: fn(x), lambda: f(x))   # a plain scalar passes through


@pytest.mark.parametrize("bad", ["x", None, object()])
def test_operands_that_are_not_numbers(bad):
    d = DualScalar(1, 2)
    for op in (lambda: d + bad, lambda: bad + d, lambda: d - bad,
               lambda: bad - d, lambda: d * bad, lambda: bad * d,
               lambda: d / bad, lambda: bad / d, lambda: d ** bad):
        with pytest.raises(TypeError):
            op()
    assert not d == bad and d != bad


def test_repr():
    assert repr(DualScalar(1, 2)) == "DualScalar((1+0j), (2+0j))"
