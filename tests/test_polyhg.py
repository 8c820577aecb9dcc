import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypersine.core import (NotHypergroupError, TheoremViolationError,
                            sine_residual)
from hypersine.polyhg import (PolynomialHypergroup, ThreeTermRecurrence,
                              chebyshev_recurrence, eval_P,
                              eval_P_with_derivative, exp_fn, exp_values,
                              legendre_recurrence, linearize,
                              reconstruct_sine, recurrence_from_file,
                              recurrence_from_lists, sine_fn, sine_values)


def test_chebyshev_closed_form():
    rec = chebyshev_recurrence()
    for t in (0.2, 1.0, 2.5):
        lam = math.cos(t)
        for n in range(12):
            assert eval_P(rec, n, lam) == pytest.approx(math.cos(n * t),
                                                        abs=1e-12)


def test_chebyshev_derivative_closed_form():
    rec = chebyshev_recurrence()
    t = 0.8
    lam = math.cos(t)
    for n in range(1, 12):
        want = n * math.sin(n * t) / math.sin(t)
        _, dv = eval_P_with_derivative(rec, n, lam)
        assert dv == pytest.approx(want, rel=1e-11)


def test_against_numpy_chebyshev_and_legendre():
    cheb, leg = chebyshev_recurrence(), legendre_recurrence()
    lam = 0.37
    for n in range(16):
        coeffs = [0.0] * n + [1.0]
        assert eval_P(cheb, n, lam) == pytest.approx(
            np.polynomial.chebyshev.chebval(lam, coeffs), rel=1e-12)
        assert eval_P(leg, n, lam) == pytest.approx(
            np.polynomial.legendre.legval(lam, coeffs), rel=1e-12)
        dcheb = np.polynomial.chebyshev.chebder(coeffs)
        _, dv = eval_P_with_derivative(cheb, n, lam)
        assert dv == pytest.approx(
            float(np.polynomial.chebyshev.chebval(lam, dcheb)) if n else 0.0,
            abs=1e-11)


def test_chebyshev_product_to_sum_linearization():
    rec = chebyshev_recurrence()
    for n in range(1, 8):
        for k in range(1, 8):
            mu = linearize(rec, n, k)
            if n == k:
                assert mu.weight(0) == pytest.approx(0.5)
                assert mu.weight(2 * n) == pytest.approx(0.5)
            else:
                assert mu.weight(abs(n - k)) == pytest.approx(0.5)
                assert mu.weight(n + k) == pytest.approx(0.5)


def test_legendre_linearization_against_quadrature():
    # c_l = (2l+1)/2 * integral of P_n P_k P_l over [-1, 1]
    rec = legendre_recurrence()
    nodes, weights = np.polynomial.legendre.leggauss(40)
    for n, k in ((1, 1), (2, 3), (4, 4), (5, 2)):
        mu = linearize(rec, n, k)
        for l in range(n + k + 1):
            pn = np.polynomial.legendre.legval(nodes, [0.0] * n + [1.0])
            pk = np.polynomial.legendre.legval(nodes, [0.0] * k + [1.0])
            pl = np.polynomial.legendre.legval(nodes, [0.0] * l + [1.0])
            want = (2 * l + 1) / 2.0 * float(np.sum(weights * pn * pk * pl))
            assert mu.weight(l) == pytest.approx(want, abs=1e-12)


def test_exact_linearization_matches_float_path():
    rec = legendre_recurrence()
    for n, k in ((2, 2), (3, 5), (6, 4)):
        exact = linearize(rec, n, k, exact=True)
        approx = linearize(rec, n, k)
        assert exact.allclose(approx, tol=1e-12)
        # the rational weights sum to one before the float conversion
        assert abs(sum(exact.weights) - 1.0) <= 1e-14


def test_spec_worked_linearizations():
    cheb, leg = chebyshev_recurrence(), legendre_recurrence()
    mu = linearize(cheb, 2, 3)
    assert mu.weight(1) == pytest.approx(0.5)
    assert mu.weight(5) == pytest.approx(0.5)
    nu = linearize(leg, 1, 1)
    assert nu.weight(0) == pytest.approx(1.0 / 3.0)
    assert nu.weight(2) == pytest.approx(2.0 / 3.0)


@given(n=st.integers(min_value=0, max_value=14),
       k=st.integers(min_value=0, max_value=14))
@settings(max_examples=40)
def test_legendre_weights_are_probabilities(n, k):
    mu = linearize(legendre_recurrence(), n, k)
    assert all(w >= 0 for w in mu.weights)
    assert abs(sum(mu.weights) - 1.0) <= 1e-10
    assert all(abs(l - (n - k)) % 2 == 0 for l in mu.support)


def test_recurrence_validation():
    with pytest.raises(NotHypergroupError):
        recurrence_from_lists([0.5, 0.5], [0.2, 0.0], [0.0, 0.3],
                              name="bad-a0")
    with pytest.raises(NotHypergroupError):
        recurrence_from_lists([1.0, 0.5], [0.0, 0.7], [0.0, 0.1],
                              name="bad-sum")
    # a list is checked to its end, not only to degree 64
    a, b, c = [1.0] + [0.5] * 80, [0.0] * 81, [0.0] + [0.5] * 80
    b[70] = 0.1
    with pytest.raises(NotHypergroupError, match="a_70 "):
        recurrence_from_lists(a, b, c, name="bad-sum-at-70")


def test_recurrence_file_round_trip(tmp_path):
    path = tmp_path / "rec.json"
    path.write_text(
        '{"name": "jacobi-ish", "a": [1.0, 0.6, 0.55],'
        ' "b": [0.0, 0.0, 0.0], "c": [0.0, 0.4, 0.45]}')
    rec = recurrence_from_file(path)
    assert rec.name == "jacobi-ish"
    assert eval_P(rec, 1, 1.0) == pytest.approx(1.0)
    hg = PolynomialHypergroup(rec)
    mu = hg.convolve(1, 1)
    assert abs(sum(mu.weights) - 1.0) <= 1e-12


def test_recurrence_file_rejects_garbage(tmp_path):
    path = tmp_path / "rec.json"
    path.write_text('{"name": "x", "a": [1.0]}')
    with pytest.raises(ValueError):
        recurrence_from_file(path)


def test_normalization_at_one():
    for rec in (chebyshev_recurrence(), legendre_recurrence()):
        vals = exp_values(rec, 20, 1.0)
        assert np.allclose(vals, 1.0, atol=1e-12)


def test_sine_values_match_derivative_route():
    # independent reference: numpy's derivative of the basis polynomial
    leg, cheb = np.polynomial.legendre, np.polynomial.chebyshev
    families = ((legendre_recurrence(), leg.legder, leg.legval),
                (chebyshev_recurrence(), cheb.chebder, cheb.chebval))
    for rec, der, val in families:
        for lam in (0.45, -0.8, 0.3 + 0.4j):
            vals = sine_values(rec, 10, lam, c=2.0)
            for n in range(11):
                want = 2.0 * val(lam, der([0.0] * n + [1.0]))
                assert vals[n] == pytest.approx(want, rel=1e-12, abs=1e-12)


def _ultraspherical(alpha, top):
    """Jacobi(alpha, alpha) recurrence normalized to P_n(1) = 1, degrees
    0..top.  a_0 = 1 also at alpha = -1/2, where the formula reads 0/0."""
    a = [1.0] + [(n + 2 * alpha + 1) / (2 * n + 2 * alpha + 1)
                 for n in range(1, top + 1)]
    c = [0.0] + [n / (2 * n + 2 * alpha + 1) for n in range(1, top + 1)]
    return recurrence_from_lists(a, [0.0] * (top + 1), c,
                                 name=f"ultraspherical({alpha!r})")


# Gasper (Canad. J. Math. 22, 1970): linearization is nonnegative for
# alpha >= -1/2, so every draw defines a hypergroup.
@given(alpha=st.floats(min_value=-0.5, max_value=2.0),
       n_max=st.integers(min_value=1, max_value=9),
       re=st.floats(min_value=-1.0, max_value=1.0),
       im=st.floats(min_value=-0.3, max_value=0.3))
@settings(max_examples=40)
def test_ultraspherical_table_and_sines(alpha, n_max, re, im):
    rec = _ultraspherical(alpha, 2 * n_max)
    hg = PolynomialHypergroup(rec)
    hg.build_table(n_max)
    assert hg.table.shape == (n_max + 1, n_max + 1, 2 * n_max + 1)
    for m, k in itertools.combinations_with_replacement(range(n_max + 1), 2):
        mu = hg.convolve(m, k)
        assert mu.items() == linearize(rec, m, k).items()
        assert hg.convolve(k, m).items() == mu.items()
        assert mu.allclose(linearize(rec, m, k, exact=True), tol=1e-12)
        assert min(mu.weights) >= 0.0
        assert abs(sum(mu.weights) - 1.0) <= 1e-12
    lam = complex(re, im)
    m = exp_fn(rec, lam, n_max=2 * n_max)
    f = sine_fn(rec, 1.0, lam, n_max=2 * n_max)
    pairs = [(n, k) for n in range(n_max + 1) for k in range(n_max + 1)]
    assert sine_residual(hg, f, m, pairs).max_rel <= 1e-9


def test_lone_convolution_grows_only_the_rows_it_reads():
    # one row of degree 0 against degrees up to 160, not a 161 x 161 block
    rec = legendre_recurrence()
    hg = PolynomialHypergroup(rec)
    assert hg.convolve(0, 160).items() == ((160, 1.0),)
    assert hg.table.nbytes <= 1_000_000
    # growing the rows keeps the columns already built
    assert hg.convolve(5, 3).allclose(linearize(rec, 3, 5, exact=True),
                                      tol=1e-12)
    assert hg.table.shape[:2] == (4, 161)


def test_build_table_names_the_negative_pair():
    # valid coefficients, but b_1 < b_0 puts weight (b_1 - b_0) / a_0 = -1
    # on P_1 in P_1 * P_1
    rec = recurrence_from_lists([0.5, 0.5, 0.5], [0.5, 0.0, 0.0],
                                [0.0, 0.5, 0.5], name="skewed")
    with pytest.raises(NotHypergroupError, match=r"at \(1, 1\)"):
        linearize(rec, 1, 1)
    with pytest.raises(NotHypergroupError, match=r"-1 at \(1, 1\)"):
        PolynomialHypergroup(rec).build_table(1)
    with pytest.raises(NotHypergroupError, match=r"-1 at \(1, 1\)"):
        reconstruct_sine(rec, 0.5, 1.0, 2)


def test_reconstruct_sine_additive_case():
    # lam = 1 makes m identically one and sines additive
    rec = chebyshev_recurrence()
    f = reconstruct_sine(rec, 1.0, 1.0, 12)
    for n in range(13):
        assert f(n) == pytest.approx(float(n * n), rel=1e-12, abs=1e-12)


def test_reconstruct_sine_raises_when_tolerance_is_impossible():
    rec = legendre_recurrence()
    with pytest.raises(TheoremViolationError):
        reconstruct_sine(rec, 0.6, 1.0, 40, rtol=1e-18)
    # at lam = 1e200 the propagation overflows to NaN, which must not pass
    with np.errstate(all="ignore"), pytest.raises(TheoremViolationError,
                                                  match="nan"):
        reconstruct_sine(chebyshev_recurrence(), 1e200, 1.0, 8)


def test_convolution_is_commutative_and_normalized():
    hg = PolynomialHypergroup(legendre_recurrence())
    a = hg.convolve(3, 5)
    b = hg.convolve(5, 3)
    assert a.allclose(b, tol=1e-12)


def test_max_order_guard():
    rec = ThreeTermRecurrence(
        a=lambda n: Fraction(1) if n == 0 else Fraction(1, 2),
        b=lambda n: Fraction(0),
        c=lambda n: Fraction(0) if n == 0 else Fraction(1, 2),
        name="trunc", max_order=5)
    with pytest.raises(ValueError):
        eval_P(rec, 9, 0.3)
