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
