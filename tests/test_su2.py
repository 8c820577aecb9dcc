import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hypersine import dual, su2
from hypersine.core import exp_residual, sine_residual


def _phi_mp(n, lam):
    """High-precision reference: sinh((n+1) lam) / ((n+1) sinh lam)."""
    with mp.workdps(50):
        z = mp.mpc(lam)
        if z == 0:
            return complex(1.0)
        val = mp.sinh((n + 1) * z) / ((n + 1) * mp.sinh(z))
        return complex(val)


def test_convolution_weights_closed_form():
    hg = su2.Su2Hypergroup()
    for k, n in ((1, 1), (2, 5), (4, 4), (3, 8)):
        mu = hg.convolve(k, n)
        lo, hi = abs(k - n), k + n
        expected = {l: (l + 1) / ((k + 1) * (n + 1))
                    for l in range(lo, hi + 1, 2)}
        assert set(mu.support) == set(expected)
        for l, w in expected.items():
            assert mu.weight(l) == pytest.approx(w, abs=1e-15)


def test_unit_square_is_exact():
    mu = su2.Su2Hypergroup().convolve(1, 1)
    assert mu.weight(0) == 0.25
    assert mu.weight(2) == 0.75


def test_phi_against_high_precision():
    for lam in (0.5, 0.3 + 0.7j, 2.0, -1.2):
        for n in (0, 1, 2, 7, 15):
            got = su2.phi(n, lam)
            want = _phi_mp(n, lam)
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_phi_near_zero_uses_stable_branch():
    for lam in (1e-7, 1e-9, -1e-8, 1e-7 + 1e-8j):
        for n in (1, 4, 9):
            got = su2.phi(n, lam)
            want = _phi_mp(n, lam)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))
    assert su2.phi(6, 0.0) == pytest.approx(1.0)


def test_phi_near_multiples_of_i_pi():
    # sinh vanishes at i k pi; the fold keeps the ratio finite
    for k in (1, 2):
        base = 1j * math.pi * k
        assert su2.phi(3, base) == pytest.approx((-1.0) ** (k * 3))
        for eps in (1e-8, -1e-7, 1e-8j):
            lam = base + eps
            got = su2.phi(5, lam)
            want = _phi_mp(5, lam)
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_dphi_against_mpmath_derivative():
    for lam in (0.4, 1.1, 0.2 + 0.3j):
        for n in (1, 3, 8):
            got = su2.dphi(n, lam)
            with mp.workdps(40):
                want = complex(mp.diff(
                    lambda t: mp.sinh((n + 1) * t) / ((n + 1) * mp.sinh(t)),
                    mp.mpc(lam)))
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_dphi_at_one_equals_sinh():
    lam = 0.5
    assert su2.dphi(1, lam) == pytest.approx(math.sinh(lam), rel=1e-13)


def test_exp_and_sine_residuals():
    hg = su2.Su2Hypergroup()
    lam = 0.5 + 0.2j
    pairs = [(n, k) for n in range(21) for k in range(21)]
    m = su2.phi_fn(50, lam)
    f = su2.sine_fn(50, lam)
    rep = exp_residual(hg, m, pairs)
    assert rep.max_rel <= 1e-12
    rep = sine_residual(hg, f, m, pairs)
    assert rep.max_rel <= 1e-12


def test_additive_family_is_sine_for_constant_exponential():
    hg = su2.Su2Hypergroup()
    f = su2.additive_fn(0.5)
    pairs = [(n, k) for n in range(31) for k in range(31)]
    rep = sine_residual(hg, f, lambda n: 1.0, pairs)
    assert rep.max_abs <= 1e-10
    assert f(5) == pytest.approx(0.5 * 35.0)


def test_recurrence_residual_small_for_true_sine():
    lam = 0.7
    f = su2.sine_fn(40, lam)
    m = su2.phi_fn(40, lam)
    rep = su2.recurrence_residual(f, m, 30)
    assert rep.max_rel <= 1e-13


def test_recurrence_residual_flags_wrong_function():
    lam = 0.7
    m = su2.phi_fn(40, lam)
    wrong = lambda n: n * 1.0
    rep = su2.recurrence_residual(wrong, m, 30)
    assert rep.max_rel > 1e-3


def test_propagation_matches_derivative_route():
    lam = 0.8
    f1 = 2.5
    got = su2.propagate_sine(lam, f1, 30)
    scale = f1 / cmath.sinh(complex(lam))
    want = scale * su2.dphi(np.arange(31), lam)
    assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12


def test_propagation_needs_enough_terms():
    with pytest.raises(ValueError):
        su2.recurrence_residual(su2.additive_fn(1.0), lambda n: 1.0, 1)


def _dphi_dual(n, lam):
    """The dual-number route: derivative of the sinh quotient."""
    return dual.derivative(
        lambda t: dual.sinh((n + 1) * t) / ((n + 1) * dual.sinh(t)), lam)


def _dphi_mp(n, lam):
    with mp.workdps(50):
        return complex(mp.diff(
            lambda t: mp.sinh((n + 1) * t) / ((n + 1) * mp.sinh(t)),
            mp.mpc(lam)))


_ELEMENTS = np.arange(81)


@given(re=st.floats(-3.0, 3.0), im=st.floats(-10.0, 10.0),
       n=st.integers(0, 80))
@settings(max_examples=60)
def test_closed_form_dphi_matches_dual_numbers(re, im, n):
    lam = complex(re, im)
    assume(abs(lam - 1j * math.pi * round(im / math.pi)) >= 1e-2)
    got = su2.dphi(_ELEMENTS, lam)
    ref = np.array([_dphi_dual(int(m), lam) for m in _ELEMENTS])
    assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))
    # one element is the matching entry of the array call, bit for bit
    assert su2.dphi(n, lam) == got[n]
    assert su2.phi(n, lam) == su2.phi(_ELEMENTS, lam)[n]


@given(k=st.sampled_from([0, 1, 2]), r=st.floats(1e-8, 1e-7),
       angle=st.floats(0.0, 2.0 * math.pi), n=st.integers(0, 80))
@settings(max_examples=40)
def test_series_dphi_near_zeros_of_sinh_matches_mpmath(k, r, angle, n):
    lam = 1j * math.pi * k + r * complex(math.cos(angle), math.sin(angle))
    want = _dphi_mp(n, lam)
    got = su2.dphi(n, lam)
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))
    assert got == su2.dphi(_ELEMENTS, lam)[n]


def test_negative_elements_are_rejected():
    for n in (-1, np.array([0, 3, -2])):
        for fn in (su2.phi, su2.dphi):
            with pytest.raises(ValueError, match="must be >= 0"):
                fn(n, 0.3)
