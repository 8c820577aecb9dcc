import itertools
import math

import numpy as np
import pytest

from hypersine.core import TheoremViolationError, convolve_power, integrate
from hypersine.multipoly import ProductPolyHypergroup, elements_of_total_degree
from hypersine.polyhg import (chebyshev_recurrence, legendre_recurrence,
                              linearize, recurrence_from_lists)


@pytest.fixture
def cheb_leg():
    return ProductPolyHypergroup([chebyshev_recurrence(),
                                  legendre_recurrence()])


def test_convolution_is_tensor_product_of_factors(cheb_leg):
    mu = cheb_leg.convolve((2, 1), (3, 1))
    a = linearize(chebyshev_recurrence(), 2, 3)
    b = linearize(legendre_recurrence(), 1, 1)
    expected = {}
    for (ea, wa), (eb, wb) in itertools.product(a.items(), b.items()):
        expected[(ea, eb)] = wa * wb
    assert set(mu.support) == set(expected)
    for el, w in expected.items():
        assert mu.weight(el) == pytest.approx(w, abs=1e-14)


def test_q_is_multiplicative_under_convolution(cheb_leg):
    lam = (0.6, 0.8)
    m = cheb_leg.exp_fn(lam)
    for x, y in (((1, 2), (3, 1)), ((0, 4), (2, 2))):
        mu = cheb_leg.convolve(x, y)
        assert integrate(m, mu) == pytest.approx(m(x) * m(y), rel=1e-12)


def test_q_eval_worked_value(cheb_leg):
    # T_2(0.5) * P_1(0.5) = (-0.5) * 0.5
    assert cheb_leg.q_eval((2, 1), (0.5, 0.5)) == pytest.approx(-0.25)


def test_q_grad_matches_finite_differences(cheb_leg):
    lam = (0.4, 0.9)
    x = (3, 2)
    grad = cheb_leg.q_grad(x, lam)
    h = 1e-6
    for j in range(2):
        lp = list(lam)
        lm = list(lam)
        lp[j] += h
        lm[j] -= h
        fd = (cheb_leg.q_eval(x, tuple(lp))
              - cheb_leg.q_eval(x, tuple(lm))) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-8, abs=1e-8)


def test_multi_sine_satisfies_sine_equation(cheb_leg):
    lam = (0.6, 0.8)
    c = (1.5, -2.0)
    m = cheb_leg.exp_fn(lam)
    f = cheb_leg.multi_sine(c, lam)
    worst = 0.0
    for x in elements_of_total_degree(2, 6):
        for y in ((1, 0), (0, 1), (2, 3)):
            mu = cheb_leg.convolve(x, y)
            lhs = integrate(f, mu)
            rhs = f(x) * m(y) + f(y) * m(x)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    assert worst <= 1e-12


@pytest.mark.parametrize("factors, lam, c", [
    pytest.param("CL", (0.6, 0.8), (1.5, -2.0), id="d=2"),
    pytest.param("CCL", (0.6, 1.1, 0.8), (1.0, 0.5, -0.75), id="d=3")])
def test_fit_recovers_coefficients(factors, lam, c):
    # Chebyshev (C) and Legendre (L) factors
    recs = {"C": chebyshev_recurrence(), "L": legendre_recurrence()}
    hg = ProductPolyHypergroup([recs[k] for k in factors])
    got = hg.fit_coefficients(hg.multi_sine(c, lam), lam, n_max=6, rtol=1e-9)
    assert np.abs(got - np.array(c, dtype=complex)).max() <= 1e-9


def test_fit_reads_the_coefficients_off_the_unit_tuples(monkeypatch):
    # Jacobi(1, 0) normalized to P_n(1) = 1 has a_0 = 4/3, b_0 = -1/3: the
    # fit system is diag(3/4, 1, 3/4) at every lambda, and nothing solves it
    ns = range(9)
    a = [(n + 2) ** 2 / ((n + 1) * (2 * n + 3)) for n in ns]
    c = [n * n / ((2 * n + 1) * (n + 1)) for n in ns]
    jacobi = recurrence_from_lists(a, [1 - x - y for x, y in zip(a, c)], c)
    hg = ProductPolyHypergroup([jacobi, legendre_recurrence(), jacobi])

    def refuse(*args, **kwargs):
        raise AssertionError("fit_coefficients solved a system")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for lam in ((0.3, 0.5, -7.0), (0.5 + 0.2j, 0.3, 0.5 - 0.2j)):
        want = (1.5, -2.0, 0.25)
        got = hg.fit_coefficients(hg.multi_sine(want, lam), lam, n_max=4)
        assert np.abs(got - np.array(want)).max() <= 1e-12
    # no fit raises it, but the package still exports it
    from hypersine import DegenerateParameterError
    assert issubclass(DegenerateParameterError, ValueError)


def test_fit_rejects_non_sine(cheb_leg):
    lam = (0.6, 0.8)
    bad = lambda x: x[0] ** 2 + x[1]
    with pytest.raises(TheoremViolationError):
        cheb_leg.fit_coefficients(bad, lam, n_max=5)


def _at(x, el):
    return (x[0] == el[0]) & (x[1] == el[1])


def test_fit_rejects_nan_values(cheb_leg):
    lam = (0.6, 0.8)
    f = cheb_leg.multi_sine((1.5, -2.0), lam)
    nan_at_23 = lambda x: np.where(_at(x, (2, 3)), np.nan, f(x))
    with pytest.raises(TheoremViolationError, match=r"at \(2, 3\)"):
        cheb_leg.fit_coefficients(nan_at_23, lam, n_max=5)
    # a constant is broadcast to the batch: NaN everywhere fails at the
    # identity, the first element, and zero is the zero sine function
    with pytest.raises(TheoremViolationError, match=r"at \(0, 0\)"):
        cheb_leg.fit_coefficients(lambda x: np.nan, lam, n_max=5)
    assert not cheb_leg.fit_coefficients(lambda x: 0.0, lam, n_max=5).any()


def test_fit_names_the_worst_element(cheb_leg):
    lam, rtol = (0.6, 0.8), 1e-9
    f = cheb_leg.multi_sine((1.5, -2.0), lam)

    def off(x, by_32, by_14):
        scale = rtol * (1.0 + np.abs(f(x)))
        return f(x) + scale * (by_32 * _at(x, (3, 2)) + by_14 * _at(x, (1, 4)))

    # (1, 4) comes first among the elements of total degree 5, (3, 2) is worse
    with pytest.raises(TheoremViolationError, match=r"at \(3, 2\)"):
        cheb_leg.fit_coefficients(lambda x: off(x, 3.0, 2.0), lam, n_max=5,
                                  rtol=rtol)
    got = cheb_leg.fit_coefficients(lambda x: off(x, 1.0 / 3.0, 0.0), lam,
                                    n_max=5, rtol=rtol)
    assert np.allclose(got, [1.5, -2.0], atol=1e-11)


def test_uncertified_fit_rejects_non_finite_unit_values(cheb_leg):
    lam = (0.6, 0.8)
    f = cheb_leg.multi_sine((1.5, -2.0), lam)
    with pytest.raises(TheoremViolationError, match=r"at \(1, 0\)"):
        cheb_leg.fit_coefficients(lambda x: np.nan, lam)
    inf_at_01 = lambda x: np.where(_at(x, (0, 1)), np.inf, f(x))
    for n_max in (None, -1):
        with pytest.raises(TheoremViolationError, match=r"at \(0, 1\)"):
            cheb_leg.fit_coefficients(inf_at_01, lam, n_max=n_max)
    assert np.allclose(cheb_leg.fit_coefficients(f, lam), [1.5, -2.0],
                       atol=1e-12)


def test_three_factor_product():
    hg = ProductPolyHypergroup([chebyshev_recurrence(),
                                chebyshev_recurrence(),
                                legendre_recurrence()])
    lam = (0.3, 0.9, 0.5)
    c = (1.0, 0.5, -0.75)
    m = hg.exp_fn(lam)
    f = hg.multi_sine(c, lam)
    x, y = (1, 2, 0), (0, 1, 3)
    mu = hg.convolve(x, y)
    assert integrate(m, mu) == pytest.approx(m(x) * m(y), rel=1e-12)
    lhs = integrate(f, mu)
    assert lhs == pytest.approx(f(x) * m(y) + f(y) * m(x),
                                rel=1e-11, abs=1e-11)
    got = hg.fit_coefficients(f, lam, n_max=4)
    assert np.allclose(got, np.array(c, dtype=complex), atol=1e-10)


def test_identity_and_units(cheb_leg):
    assert cheb_leg.identity == (0, 0)
    assert cheb_leg.unit_elements() == [(1, 0), (0, 1)]
    assert math.isclose(cheb_leg.convolve((0, 0), (2, 3)).weight((2, 3)), 1.0)


def test_elements_of_total_degree_counts():
    elems = list(elements_of_total_degree(2, 4))
    assert len(elems) == 15  # C(4 + 2, 2)
    assert (0, 0) in elems and (4, 0) in elems and (2, 2) in elems
    assert len(set(elems)) == len(elems)
    elems3 = list(elements_of_total_degree(3, 3))
    assert len(elems3) == 20  # C(3 + 3, 3)


def test_product_power_measure(cheb_leg):
    mu = convolve_power(cheb_leg, (1, 1), 2)
    nu = cheb_leg.convolve((1, 1), (1, 1))
    assert mu.allclose(nu, tol=1e-14)


def test_malformed_product_input_is_rejected_by_name():
    with pytest.raises(ValueError,
                       match="^at least one factor recurrence is required$"):
        ProductPolyHypergroup([])
    hg = ProductPolyHypergroup([chebyshev_recurrence(), legendre_recurrence()])
    lam = (0.5, 0.5)
    for call, message in [
            (lambda: hg.q_eval((1,), lam),
             r"^element \(1,\) has 1 coordinates, expected 2$"),
            (lambda: hg.q_eval((1, 1), (0.5,)),
             r"^lambda \(0\.5,\) has 1 coordinates, expected 2$"),
            (lambda: hg.multi_sine((1.0,), lam),
             r"^coefficients \(1\.0,\) have 1 entries, expected 2$"),
            (lambda: hg.multi_sine((1.0, 1.0), lam)((1, 2, 3)),
             r"^element \(1, 2, 3\) has 3 coordinates, expected 2$"),
            (lambda: hg.q_eval((2, -1), lam),
             r"^degree must be >= 0, got -1$")]:
        with pytest.raises(ValueError, match=message):
            call()
