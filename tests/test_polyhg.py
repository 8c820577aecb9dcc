import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypersine.core import (NotHypergroupError, TheoremViolationError,
                            sine_residual)
from hypersine.polyhg import (PolynomialHypergroup, ThreeTermRecurrence,
                              _linearize_block, _linearize_step,
                              chebyshev_recurrence, eval_P,
                              eval_P_with_derivative, exp_fn,
                              legendre_recurrence, linearize,
                              reconstruct_sine, recurrence_from_file,
                              recurrence_from_lists, sine_fn)
from recurrences import ultraspherical_coefficients, ultraspherical_lists


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


def test_exact_linearization_returns_the_floats_of_the_fraction_row():
    rec = _rational_ultraspherical(Fraction(1, 3))
    coeffs = np.array([[Fraction(f(i)) for i in range(12)]
                       for f in (rec.a, rec.b, rec.c)], dtype=object)
    pairs = ((0, 0), (1, 4), (3, 3), (2, 6), (5, 6))
    lo, hi = (np.array(v) for v in zip(*pairs))
    for (n, k), row in zip(pairs, _linearize_block(coeffs, lo, hi)):
        got = linearize(rec, n, k, exact=True)
        assert got.items() == tuple((l, float(w)) for l, w in enumerate(row)
                                    if w)
        assert all(type(w) is float for w in got.weights)
        # and rounded: past P_0 * P_0 some weight is not the rational one
        assert any(Fraction(w) != row[l] for l, w in got.items()) or n == 0


def _rational_ultraspherical(alpha):
    """x P_n = (n + 2 alpha + 1) P_(n+1) + n P_(n-1), over 2n + 2 alpha + 1."""
    a, c = ultraspherical_coefficients(alpha)
    return ThreeTermRecurrence(a=a, b=lambda n: Fraction(0), c=c,
                               name="ultraspherical")


def _fraction_P(rec, x, top):
    """P_0(x)..P_top(x) in rational arithmetic, top >= 1."""
    a, b, c = ([Fraction(f(i)) for i in range(top)]
               for f in (rec.a, rec.b, rec.c))
    p = [Fraction(1), (x - b[0]) / a[0]]
    for m in range(1, top):
        p.append(((x - b[m]) * p[m] - c[m] * p[m - 1]) / a[m])
    return p


@pytest.mark.parametrize("rec", [
    chebyshev_recurrence(), legendre_recurrence(),
    _rational_ultraspherical(Fraction(1, 3))], ids=lambda rec: rec.name)
def test_exact_linearization_proved_by_evaluation(rec):
    # both sides of P_n P_k = sum_l w_l P_l have degree n + k, so equality
    # at n + k + 1 distinct points proves the weights; the points and P are
    # exact, and P comes from the recurrence, not from the reduction
    top = 8
    coeffs = np.array([[Fraction(f(i)) for i in range(2 * top)]
                       for f in (rec.a, rec.b, rec.c)], dtype=object)
    xs = [Fraction(j, 5) - 2 for j in range(2 * top + 1)]
    ps = [_fraction_P(rec, x, 2 * top) for x in xs]
    pairs = list(itertools.combinations_with_replacement(range(top + 1), 2))
    # one block from k_min = 0 and one from k_min = 3, which drops columns
    for block in (pairs, [(n, k) for n, k in pairs if k >= 3]):
        lo, hi = (np.array(v) for v in zip(*block))
        for n, k, row in zip(lo.tolist(), hi.tolist(),
                             _linearize_block(coeffs, lo, hi)):
            for p in ps:
                assert p[n] * p[k] == sum(w * p[l] for l, w in enumerate(row))
            assert min(row) >= 0
            assert linearize(rec, n, k, exact=True).items() == tuple(
                (l, float(w)) for l, w in enumerate(row) if w)


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


def test_built_in_recurrence_converts_each_coefficient_once():
    calls = []
    base = legendre_recurrence()

    def counted(name, f):
        def g(n):
            calls.append((name, n))
            return f(n)
        return g

    rec = ThreeTermRecurrence(*(counted(k, getattr(base, k)) for k in "abc"),
                              name="legendre")
    assert sorted(calls) == [(k, n) for k in "abc" for n in range(65)]
    calls.clear()
    table = rec._float_coeffs(20)
    assert calls == []
    np.testing.assert_array_equal(table, [[float(f(n)) for n in range(20)]
                                          for f in (base.a, base.b, base.c)])


def test_recurrence_rejects_lists_of_unequal_length():
    # not cut to the shortest list: that would drop 36 a's and 36 c's
    with pytest.raises(ValueError, match="got 41, 5, 41"):
        recurrence_from_lists([1.0] + [0.5] * 40, [0.0] * 5,
                              [0.0] + [0.5] * 40)


@pytest.mark.parametrize("coeff, n", [("a", 0), ("b", 1), ("c", 60)])
def test_recurrence_rejects_nan_coefficients(coeff, n):
    lists = {"a": [1.0] + [0.5] * 80, "b": [0.0] * 81,
             "c": [0.0] + [0.5] * 80}
    lists[coeff][n] = math.nan
    with pytest.raises(NotHypergroupError, match=f"_{n} "):
        recurrence_from_lists(lists["a"], lists["b"], lists["c"])


@pytest.mark.parametrize("a70, b70", [(0.5, 0.1), (-0.5, 1.0)])
def test_callable_recurrence_is_checked_at_every_degree_read(a70, b70):
    # chebyshev but for degree 70, above the 0..64 checked at construction:
    # a_70 + b_70 + c_70 = 1.1, or a_70 < 0 with the sum still 1
    cheb = chebyshev_recurrence()
    rec = ThreeTermRecurrence(lambda n: a70 if n == 70 else cheb.a(n),
                              lambda n: b70 if n == 70 else cheb.b(n),
                              cheb.c, name="bent")
    for call in (lambda: exp_fn(rec, 0.5),
                 lambda: sine_fn(rec, 1.0, 0.5, 100),
                 lambda: eval_P(rec, 100, 0.5),
                 lambda: PolynomialHypergroup(rec).convolve_many(
                     np.array([40]), np.array([40])),
                 lambda: linearize(rec, 40, 40, exact=True)):
        with pytest.raises(NotHypergroupError, match="a_70 "):
            call()


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
        vals = exp_fn(rec, 1.0, 20).values
        assert np.allclose(vals, 1.0, atol=1e-12)


def test_sine_values_match_derivative_route():
    # independent reference: numpy's derivative of the basis polynomial
    leg, cheb = np.polynomial.legendre, np.polynomial.chebyshev
    families = ((legendre_recurrence(), leg.legder, leg.legval),
                (chebyshev_recurrence(), cheb.chebder, cheb.chebval))
    for rec, der, val in families:
        for lam in (0.45, -0.8, 0.3 + 0.4j):
            vals = sine_fn(rec, 2.0, lam, 10).values
            for n in range(11):
                want = 2.0 * val(lam, der([0.0] * n + [1.0]))
                assert vals[n] == pytest.approx(want, rel=1e-12, abs=1e-12)


def _ultraspherical(alpha, top):
    """The ultraspherical recurrence on degrees 0..top."""
    return recurrence_from_lists(*ultraspherical_lists(alpha, top),
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
    state = dict(vars(hg))
    assert hg.convolve(0, 160).items() == ((160, 1.0),)
    assert hg.convolve(5, 3).allclose(linearize(rec, 3, 5, exact=True),
                                      tol=1e-12)
    assert vars(hg) == state   # nothing is kept between calls


def test_lone_square_convolution_reduces_one_column():
    # one column k = 120 over the rows m = 0..120; a 121 x 121 block of
    # columns would take 60 MB
    tracemalloc.start()
    try:
        mu = linearize(legendre_recurrence(), 120, 120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000
    assert mu.support == tuple(range(0, 241, 2))
    assert abs(sum(mu.weights) - 1.0) <= 1e-12


def _batch_recurrence(family):
    """Ultraspherical(alpha) to degree 24 for a float alpha, else the
    named built-in."""
    if isinstance(family, float):
        return _ultraspherical(family, 24)
    return {"chebyshev": chebyshev_recurrence,
            "legendre": legendre_recurrence}[family]()


# k_min > 0 whenever every pair has both degrees positive; repeated pairs
# and single pairs are drawn as well
@given(family=st.one_of(st.floats(min_value=-0.5, max_value=2.0),
                        st.sampled_from(["chebyshev", "legendre"])),
       pairs=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                      min_size=1, max_size=12).flatmap(
           lambda ps: st.lists(st.sampled_from(ps), min_size=1,
                               max_size=2 * len(ps))))
@settings(max_examples=60, deadline=None)
@example(family="legendre", pairs=[(3, 5), (5, 3), (2, 7), (3, 5)])
@example(family=0.7, pairs=[(12, 9)])
def test_batch_rows_match_lone_pairs(family, pairs):
    rec = _batch_recurrence(family)
    hg = PolynomialHypergroup(rec)
    ns, ks = (np.array(col) for col in zip(*pairs))
    support, weights = hg.convolve_many(ns, ks)
    for i, (n, k) in enumerate(pairs):
        one_s, one_w = hg.convolve_many(np.array([n]), np.array([k]))
        width = one_w.shape[1]
        assert weights[i, :width].tobytes() == one_w[0].tobytes()
        assert not weights[i, width:].any()
        assert support[i, :width].tolist() == one_s[0].tolist()
        exact = linearize(rec, n, k, exact=True)
        got = {l: w for l, w in zip(support[i].tolist(), weights[i].tolist())
               if w != 0}
        assert all(abs(got.get(l, 0.0) - w) <= 1e-12 for l, w in exact)
        assert all(exact.weight(l) != 0 for l in got)


def _linearize_block_by_mask(coeffs, lo, hi):
    """``_linearize_block`` scattering step m's rows by the mask lo == m,
    as it did before the pairs were grouped by lo."""
    m_max, k_min, k_max = int(lo.max()), int(hi.min()), int(hi.max())
    dtype = coeffs.dtype
    rows = np.zeros((len(lo), m_max + k_max + 1), dtype)
    cur = np.eye(k_max - k_min + 1, k_max + 1, k_min, dtype)
    prev = np.zeros((len(cur), k_max), dtype)
    for m in range(m_max + 1):
        if m:
            drop = int(m > k_min)
            cur, prev = _linearize_step(cur[drop:], prev[drop:], m - 1,
                                        *coeffs)
        at = lo == m
        rows[at, :cur.shape[1]] = cur[hi[at] - (k_max + 1 - len(cur))]
    return rows


@given(family=st.one_of(st.floats(min_value=-0.5, max_value=2.0),
                        st.sampled_from(["chebyshev", "legendre"])),
       pairs=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                      min_size=1, max_size=12).flatmap(
           lambda ps: st.lists(st.sampled_from(ps), min_size=1,
                               max_size=2 * len(ps))))
@settings(max_examples=80, deadline=None)
@example(family="chebyshev", pairs=[(4, 7), (2, 2), (4, 7), (7, 4), (0, 0)])
@example(family=0.7, pairs=[(5, 5)])
@example(family="legendre", pairs=[(12, 9)])
def test_rows_grouped_by_lo_equal_rows_scattered_by_mask(family, pairs):
    rec = _batch_recurrence(family)
    ns, ks = (np.array(col) for col in zip(*pairs))
    lo, hi = np.minimum(ns, ks), np.maximum(ns, ks)
    coeffs = rec._float_coeffs(int(lo.max()) + int(hi.max()))
    assert (_linearize_block(coeffs, lo, hi).tobytes()
            == _linearize_block_by_mask(coeffs, lo, hi).tobytes())


def test_convolve_names_the_negative_pair():
    # valid coefficients, but b_1 < b_0 puts weight (b_1 - b_0) / a_0 = -1
    # on P_1 in P_1 * P_1
    rec = recurrence_from_lists([0.5, 0.5, 0.5], [0.5, 0.0, 0.0],
                                [0.0, 0.5, 0.5], name="skewed")
    with pytest.raises(NotHypergroupError, match=r"at \(1, 1\)"):
        linearize(rec, 1, 1)
    with pytest.raises(NotHypergroupError, match=r"at \(1, 1\)"):
        linearize(rec, 1, 1, exact=True)
    with pytest.raises(NotHypergroupError, match=r"-1 at \(1, 1\)"):
        PolynomialHypergroup(rec).convolve(1, 1)
    with pytest.raises(NotHypergroupError, match=r"-1 at \(1, 1\)"):
        reconstruct_sine(rec, 0.5, 1.0, 2)


def test_exact_linearization_decides_a_weight_within_the_float_rule():
    # ultraspherical at alpha = -1/2 - 1e-11: the exact weight of P_2 in
    # P_2 * P_2 is about -1.3e-11, above the float rule's -1e-10, so only
    # the exact sign decision rejects the pair
    rec = recurrence_from_lists(*ultraspherical_lists(-0.5 - 1e-11, 16),
                                name="ultraspherical(-1/2 - 1e-11)")
    with pytest.raises(NotHypergroupError,
                       match=r"^negative linearization coefficient at "
                             r"\(2, 2\)$"):
        linearize(rec, 2, 2, exact=True)


def test_first_negative_weight_is_named_in_reduction_order():
    # P_1 P_k >= 0 since b_k >= b_0, so the first negative weight is at m = 2
    # (one, at k = 4); for k <= 7 the rows m = 3, 4, 5 hold 5, 4 and 3 more.
    # The error names the first (m, k) in the order m, then k, of the rows
    # the batch reduces (k >= k_min)
    a = [1.0, 0.66, 0.17, 0.1, 0.2, 0.5, 0.21, 0.34, 0.15, 0.38, 0.21, 0.28]
    b = [0.0, 0.18, 0.02, 0.52, 0.28, 0.43, 0.53, 0.43, 0.55, 0.24, 0.48, 0.27]
    c = [0.0] + [1.0 - bn - an for an, bn in zip(a[1:], b[1:])]
    hg = PolynomialHypergroup(recurrence_from_lists(a, b, c))
    for ns, ks, want in [
            (range(6), range(6), "-0.1 at (2, 4)"),
            (range(4), range(3, 6), "-0.1 at (2, 4)"),   # k_min = 3
            ([5, 1], [1, 5], "-0.1 at (2, 4)"),
            ([2], [4], "-0.1 at (2, 4)"),
            ([3], [3], "-1.38856 at (3, 3)"),
            (range(5), range(5, 8), "-0.74459 at (3, 5)")]:   # k_min = 5
        pairs = np.array([(n, k) for n in ns for k in ks]).T
        with pytest.raises(NotHypergroupError) as exc:
            hg.convolve_many(*pairs)
        assert str(exc.value) == f"negative linearization coefficient {want}"


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
    # at lam = 1e200 the table of P leaves the float range before any
    # propagation; a NaN value of f(1) propagates and must not pass
    with pytest.raises(OverflowError, match="lambda = 1e\\+200"):
        reconstruct_sine(chebyshev_recurrence(), 1e200, 1.0, 8)
    with np.errstate(all="ignore"), pytest.raises(TheoremViolationError,
                                                  match="nan"):
        reconstruct_sine(chebyshev_recurrence(), 0.6, math.nan, 8)


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


def test_cancelled_weights_leave_the_support():
    # a_n, b_n, c_n = 1/2, 1/5, 3/10 for n >= 1 and b_0 = 0: P_2 P_2 has no
    # P_2 term, but the float reduction leaves -1.1e-16 there; weights
    # within DROP_COEFF_TOL of 0 are zero, so every support is the exact one
    rec = recurrence_from_lists([1.0] + [0.5] * 12, [0.0] + [0.2] * 12,
                                [0.0] + [0.3] * 12)
    assert 2 not in linearize(rec, 2, 2, exact=True).support
    pairs = list(itertools.product(range(7), repeat=2))
    support, weights = PolynomialHypergroup(rec).convolve_many(
        *(np.array(c) for c in zip(*pairs)))
    for (n, k), row_s, row_w in zip(pairs, support, weights):
        exact = linearize(rec, n, k, exact=True)
        assert row_s[row_w != 0].tolist() == list(exact.support), (n, k)


def test_a_negative_degree_is_rejected_by_name():
    rec = chebyshev_recurrence()
    with pytest.raises(ValueError, match=r"^degree must be >= 0, got -1$"):
        eval_P(rec, -1, 0.5)
    with pytest.raises(ValueError,
                       match=r"^degrees must be >= 0, got -1, 2$"):
        linearize(rec, -1, 2)
