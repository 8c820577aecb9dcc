import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hypersine import su2
from hypersine.core import (TabulatedFunction, _propagate, exp_residual,
                            sine_residual)
from hypersine.polyhg import (PolynomialHypergroup, exp_fn,
                              legendre_recurrence, reconstruct_sine,
                              recurrence_from_lists, sine_fn)
from hypersine.suites import SuiteConfig, run_suite


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
    assert len(mu) == 2


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


def test_sine_residual_flags_wrong_function_at_degree_one():
    lam = 0.7
    m = su2.phi_fn(40, lam)
    wrong = lambda n: n * 1.0
    pairs = [(n, 1) for n in range(1, 30)]
    rep = sine_residual(su2.Su2Hypergroup(), wrong, m, pairs)
    assert rep.max_rel > 1e-3


def test_propagation_matches_derivative_route():
    lam = 0.8
    f1 = 2.5
    got = su2.propagate_sine(lam, f1, 30)
    scale = f1 / cmath.sinh(complex(lam))
    want = scale * su2.dphi(np.arange(31), lam)
    assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12


def test_batched_propagation_rows_equal_lone_calls():
    # one convolution serves every draw; each row is still the lone result,
    # bit for bit
    n_max, lams = 30, [0.3, 0.5 + 0.2j, 1.0, -0.7 + 0.1j, 0.0]
    f1s = [1.5 - 0.5j, 2.0, -0.25 + 1j, 0.75 + 0.3j, 1j]
    rows = _propagate(su2.Su2Hypergroup(),
                      [su2.phi_fn(n_max, lam) for lam in lams], f1s, n_max)
    assert rows.shape == (len(lams), n_max + 1)
    for row, lam, f1 in zip(rows, lams, f1s):
        assert row.tobytes() == su2.propagate_sine(lam, f1, n_max).tobytes()
    rec = legendre_recurrence()
    rows = _propagate(PolynomialHypergroup(rec),
                      [exp_fn(rec, lam, n_max) for lam in lams], f1s, n_max)
    for row, lam, f1 in zip(rows, lams, f1s):
        lone = reconstruct_sine(rec, lam, f1, n_max).values.tobytes()
        assert row.tobytes() == lone


def test_propagation_needs_enough_terms():
    for n_max in (0, -2):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            _propagate(su2.Su2Hypergroup(), [su2.phi_fn(4, 0.5)], [1.0],
                       n_max)
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            su2.propagate_sine(0.5, 1.0, n_max)


def _dphi_mp(n, lam):
    with mp.workdps(50):
        return complex(mp.diff(
            lambda t: mp.sinh((n + 1) * t) / ((n + 1) * mp.sinh(t)),
            mp.mpc(lam)))


_ELEMENTS = np.arange(81)


def _dphi_closed_mp(ns, lam):
    """50-digit reference from the closed form of the derivative,
    (cosh((n+1) lam) - phi(n, lam) cosh lam) / sinh lam."""
    with mp.workdps(50):
        z = mp.mpc(lam)
        s, c = mp.sinh(z), mp.cosh(z)
        return np.array([complex(
            (mp.cosh(n1 * z) - mp.sinh(n1 * z) / (n1 * s) * c) / s)
            for n1 in (int(n) + 1 for n in ns)])


@given(re=st.floats(-3.0, 3.0), im=st.floats(-10.0, 10.0),
       n=st.integers(0, 80))
@settings(max_examples=60)
def test_dphi_matches_high_precision_closed_form(re, im, n):
    lam = complex(re, im)
    assume(abs(lam - 1j * math.pi * round(im / math.pi)) >= 1e-2)
    got = su2.dphi(_ELEMENTS, lam)
    ref = _dphi_closed_mp(_ELEMENTS, lam)
    assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))
    # one element is the matching entry of the array call, bit for bit
    assert su2.dphi(n, lam) == got[n]
    assert su2.phi(n, lam) == su2.phi(_ELEMENTS, lam)[n]


@given(k=st.sampled_from([0, 1, 2]), r=st.floats(1e-8, 1e-7),
       angle=st.floats(0.0, 2.0 * math.pi), n=st.integers(0, 80))
@settings(max_examples=40)
def test_dphi_near_zeros_of_sinh_matches_mpmath(k, r, angle, n):
    lam = 1j * math.pi * k + r * complex(math.cos(angle), math.sin(angle))
    want = _dphi_mp(n, lam)
    got = su2.dphi(n, lam)
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))
    assert got == su2.dphi(_ELEMENTS, lam)[n]


def test_phi_is_exact_at_zeros_of_sinh():
    # U_n(1) = n + 1 and U_n(-1) = (-1)^n (n + 1) are exact integers
    ns = np.arange(81)
    for lam, want in ((0.0, 1.0), (1j * math.pi, (-1.0) ** ns),
                      (2j * math.pi, 1.0)):
        assert (su2.phi(ns, lam) == want).all()


@given(k=st.sampled_from([0, 1, 2]), r=st.floats(1e-9, 1e-1),
       angle=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=25)
def test_su2_suite_passes_near_zeros_of_sinh(k, r, angle):
    # every row checks a true identity there, so none may fail, however
    # close lam comes to a zero of sinh
    lam = 1j * math.pi * k + r * complex(math.cos(angle), math.sin(angle))
    rep = run_suite("su2", SuiteConfig(lambdas=(lam,), n_max=40))
    assert [c.name for c in rep.checks if not c.passed] == []


def test_propagation_rows_catch_a_scaled_sine_fn(monkeypatch):
    # the sine equation is linear in f, so doubling sine_fn keeps every sine
    # row passing; only the propagation rows compare with the closed form
    sine_fn = su2.sine_fn
    monkeypatch.setattr(su2, "sine_fn", lambda n_max, lam: TabulatedFunction(
        2 * sine_fn(n_max, lam).values))
    rep = run_suite("su2", SuiteConfig(n_max=10))
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed == [c.name for c in rep.checks
                      if c.name.startswith("su2:propagation:")]
    assert len(failed) == 3


def test_negative_elements_are_rejected():
    for n in (-1, np.array([0, 3, -2])):
        for fn in (su2.phi, su2.dphi):
            with pytest.raises(ValueError, match="must be >= 0"):
                fn(n, 0.3)


def _u_recurrence(order):
    """U_n(x) / (n + 1) up to degree ``order``: a_0 = 1,
    a_n = (n+2)/(2n+2), b_n = 0, c_n = n/(2n+2)."""
    ns = np.arange(order + 1)
    a = (ns + 2) / (2 * ns + 2)
    a[0] = 1.0
    return recurrence_from_lists(a, 0.0 * ns, ns / (2 * ns + 2), name="u")


def _rel(got, want):
    return np.max(np.abs(got - want) / (1.0 + np.abs(want)))


def _dense(support, weights, width):
    """Each row of a convolve_many batch as weights on 0..width - 1."""
    out = np.zeros((len(weights), width))
    np.add.at(out, (np.arange(len(weights))[:, None], support), weights)
    return out


def test_su2_weights_are_the_linearization_of_u():
    # two independent codes: the closed-form stride-two weights against the
    # linearization of U_n / (n + 1), one batch of all (n, k) each
    ph, hg = PolynomialHypergroup(_u_recurrence(80)), su2.Su2Hypergroup()
    ns, ks = np.divmod(np.arange(41 * 41), 41)
    got, want = (_dense(*g.convolve_many(ns, ks), 81) for g in (ph, hg))
    bad = np.argwhere(np.abs(got - want) > 1e-15)
    assert not len(bad), (ns[bad[0, 0]], ks[bad[0, 0]], bad[0, 1])


def _su2_reference(ks, ns):
    """The stride-two weights as np.where once wrote them: a division of
    the integer support + 1, then 0.0 in the padding slots."""
    low = np.minimum(ks, ns)[:, None]
    j = np.arange(int(low.max()) + 1)
    support = np.abs(ks - ns)[:, None] + 2 * j * (j <= low)
    return support, np.where(j <= low, (support + 1) / (
        (ks + 1) * (ns + 1))[:, None], 0.0)


def test_su2_kernel_equals_the_where_formula_with_a_smaller_peak():
    # the su2:weight-sums bands: 13 consecutive k, k <= n <= 100
    hg = su2.Su2Hypergroup()
    ks, ns = np.triu_indices(101)
    edges = [*np.searchsorted(ks, range(0, 101, 13)), len(ks)]
    for lo, hi in zip(edges, edges[1:]):
        tracemalloc.start()
        try:
            support, weights = hg.convolve_many(ks[lo:hi], ns[lo:hi])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want_support, want_weights = _su2_reference(ks[lo:hi], ns[lo:hi])
        assert support.dtype == want_support.dtype
        np.testing.assert_array_equal(support, want_support)
        assert weights.dtype == want_weights.dtype
        # bit for bit: a -0.0 padding weight would differ here
        np.testing.assert_array_equal(weights.view(np.int64),
                                      want_weights.view(np.int64))
        assert peak <= 1.75 * (support.nbytes + weights.nbytes), (lo, peak)


def test_su2_convolution_of_float_elements():
    mu = su2.Su2Hypergroup().convolve(1.0, 2.0)
    assert mu.support == (1.0, 3.0)
    assert mu.weights == (2 / 6, 4 / 6)


@pytest.mark.parametrize("lam", [0.3, 0.5 + 0.2j, 1.0, 1j * math.pi,
                                 2e-6 + 1j * math.pi])
def test_su2_functions_are_u_at_cosh(lam):
    # phi(n, lam) = P_n(cosh lam), dphi by the chain rule
    # d/dlam P_n(cosh lam) = sinh(lam) P_n'(cosh lam), and the propagation
    # from f(1) agrees on both hypergroups
    n_max, x = 40, cmath.cosh(lam)
    rec, ns = _u_recurrence(n_max), np.arange(n_max + 1)
    assert _rel(exp_fn(rec, x, n_max).values, su2.phi(ns, lam)) <= 1e-12
    assert _rel(cmath.sinh(lam) * sine_fn(rec, 1.0, x, n_max).values,
                su2.dphi(ns, lam)) <= 1e-12
    f1 = 1.3 - 0.4j
    got = _propagate(PolynomialHypergroup(rec), [exp_fn(rec, x, n_max)], [f1],
                     n_max)[0]
    want = su2.propagate_sine(lam, f1, n_max)
    assert _rel(got, want) <= 1e-12
