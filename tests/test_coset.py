import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypersine.coset import (CosetHypergroup, conjugate_by,
                             coset_exponential, coset_of, coset_sine,
                             falsify_dalembert_alpha, falsify_square_term,
                             group_inv, group_mul, group_sine_check,
                             square_norm_check)
from hypersine.core import (exp_residual, integrate, power_identity_check,
                            sine_residual)

# dyadic rationals make every group operation exact in floating point
dyadic = st.integers(min_value=-64, max_value=64).map(lambda n: n / 8.0)
dyadic_x = dyadic.filter(lambda v: v != 0.0)


@given(x=dyadic_x, u=dyadic, y=dyadic_x, v=dyadic, z=dyadic_x, w=dyadic)
def test_group_axioms_exact_on_dyadics(x, u, y, v, z, w):
    p, q, r = (x, u), (y, v), (z, w)
    assert group_mul(group_mul(p, q), r) == group_mul(p, group_mul(q, r))
    assert group_mul(p, (1.0, 0.0)) == p
    assert group_mul((1.0, 0.0), p) == p


# p_i = (x_i, i - 2), q_i = (x_{i+1}, 2i), r_i = (x_{i+2}, i) over the
# dyadics x = 0.5, -2, 4, -0.25, 8, 1 (indices mod 6): q's u reaches 10,
# outside the strategy's +-8
@pytest.mark.parametrize("i", range(6))
def test_group_associativity_exact_on_fixed_dyadic_triples(i):
    x = [0.5, -2.0, 4.0, -0.25, 8.0, 1.0]
    p, q = (x[i], i - 2.0), (x[(i + 1) % 6], 2.0 * i)
    r = (x[(i + 2) % 6], float(i))
    assert group_mul(group_mul(p, q), r) == group_mul(p, group_mul(q, r))


pow2 = st.tuples(st.integers(min_value=-5, max_value=5),
                 st.booleans()).map(lambda t: (-1.0 if t[1] else 1.0) * 2.0 ** t[0])


@given(x=pow2, u=dyadic)
def test_group_inverse_exact_on_powers_of_two(x, u):
    p = (x, u)
    assert group_mul(p, group_inv(p)) == (1.0, 0.0)
    assert group_mul(group_inv(p), p) == (1.0, 0.0)


def test_group_mul_worked_example():
    assert group_mul((2.0, 3.0), (0.5, -1.0)) == (1.0, 1.0)
    with pytest.raises(ValueError):
        group_mul((0.0, 1.0), (1.0, 0.0))


def test_group_is_not_commutative():
    p, q = (2.0, 1.0), (3.0, 5.0)
    assert group_mul(p, q) != group_mul(q, p)


def test_stabilizer_is_not_normal():
    # conjugating the order-two element lands outside the subgroup
    assert conjugate_by((3.0, 5.0), (-1.0, 0.0)) == (-1.0, 10.0)
    assert conjugate_by((1.0, 0.25), (-1.0, 0.0)) == (-1.0, 0.5)
    for i, x in enumerate([0.5, -2.0, 4.0, -0.25, 8.0, 1.0]):
        u = i - 2.0
        assert conjugate_by((x, u), (-1.0, 0.0)) == (-1.0, 2.0 * u)


def test_coset_of_canonicalizes():
    assert coset_of((-2.0, -3.0)) == (2.0, 3.0)
    assert coset_of((2.0, 3.0)) == (2.0, 3.0)


def test_coset_convolution_averages_two_representatives():
    f = lambda p: p[1]
    # (2,3)(5,7) = (10, 17); the K-average adds (2,3)(-5,-7) = (-10, -11)
    got = integrate(f, CosetHypergroup().convolve((2.0, 3.0), (5.0, 7.0)))
    assert got == pytest.approx(0.5 * abs(2 * 7 + 3) + 0.5 * abs(-2 * 7 + 3))


def test_convolve_requires_canonical_pairs():
    hg = CosetHypergroup()
    with pytest.raises(ValueError):
        hg.convolve((-1.0, 2.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        hg.convolve((1.0, -2.0), (1.0, 0.0))
    mu = hg.convolve((2.0, 1.0), (3.0, 1.0))
    assert mu.weight((6.0, 3.0)) == pytest.approx(0.5)
    assert mu.weight((6.0, 1.0)) == pytest.approx(0.5)


def test_exponential_and_sine_residuals():
    hg = CosetHypergroup()
    pairs = [((2.0, 1.0), (3.0, 0.5)), ((0.5, 2.0), (4.0, 0.0)),
             ((1.5, 0.25), (1.5, 0.25))]
    for lam in (0.0, 1.0, 0.5 + 0.5j):
        m = coset_exponential(lam)
        f = coset_sine(2.0, lam)
        assert exp_residual(hg, m, pairs).max_rel <= 1e-14
        assert sine_residual(hg, f, m, pairs).max_rel <= 1e-13


def test_power_identity_holds_on_the_non_commutative_cosets():
    rep = power_identity_check(CosetHypergroup(), coset_sine(1, 0.7),
                               coset_exponential(0.7), (2.0, 1.5),
                               (0.5, 3.0), 6)
    assert rep.samples == 6 and rep.max_rel <= 1e-14


def test_sine_values_are_c_m_log():
    f = coset_sine(2.0, 1.5)
    x = 3.0
    assert f((x, 7.0)) == pytest.approx(2.0 * x ** 1.5 * math.log(x))



def test_sine_product_overflowing_past_a_finite_power_is_named():
    # 100^154 is about 1e308, still finite; times ln 100 it is not
    point = (np.array([100.0]), np.array([0.0]))
    assert np.isfinite(coset_exponential(154)(point)).all()
    with pytest.raises(OverflowError,
                       match=r"^coset closed form overflows at lambda = 154$"):
        coset_sine(1.0, 154)(point)


def test_falsify_dalembert_recorded_sample():
    rep = falsify_dalembert_alpha(0.0, 1.0, [(2.0, 1.0, 1.0, 1.0)])
    want = abs(math.cosh(3.0) + math.cosh(1.0) - 2.0 * math.cosh(1.0) ** 2)
    assert rep.max_abs == pytest.approx(want, rel=1e-14)
    assert rep.max_abs > 0.1


def test_falsify_dalembert_rejects_zero_alpha():
    with pytest.raises(ValueError):
        falsify_dalembert_alpha(1.0, 0.0, [(2.0, 1.0, 1.0, 1.0)])


def test_falsify_square_term_recorded_pair():
    rep = falsify_square_term(1.0, 1.0, [((2.0, 1.0), (3.0, 1.0))])
    # lhs averages 6(ln 6 + 9) and 6(ln 6 + 1); rhs is 6 ln 6 + 12
    assert rep.max_abs == pytest.approx(18.0, rel=1e-12)
    assert rep.max_abs > 0.5
    with pytest.raises(ValueError):
        falsify_square_term(1.0, 0.0, [((2.0, 1.0), (3.0, 1.0))])


def test_square_norm_identity_holds_for_squares():
    uv = [(1.5, 2.25), (-3.0, 0.5), (7.0, -7.0)]
    rep = square_norm_check(uv)
    assert rep.max_abs <= 1e-12


def test_group_sine_check_for_log_times_power():
    pairs = [((2.0, 1.0), (3.0, -2.0)), ((-0.5, 4.0), (1.25, 0.0))]
    rep = group_sine_check(0.75, pairs)
    assert rep.max_rel <= 1e-14


def test_group_sine_check_rejects_a_zero_first_coordinate():
    # (0, 3) is no group element: no NaN report, no warning
    with pytest.raises(ValueError, match="nonzero first coordinate"):
        group_sine_check(1.0, [((2.0, 1.0), (0.0, 3.0))])


def test_involution_inverts():
    hg = CosetHypergroup()
    p = (2.0, 3.0)
    q = hg.involution(p)
    assert q == (0.5, 1.5)
    # the identity coset appears in p * involution(p)
    mu = hg.convolve(p, q)
    assert mu.weight((1.0, 0.0)) == pytest.approx(0.5)
