import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypersine import coset
from hypersine.coset import (CosetHypergroup, conjugate_by,
                             coset_exponential, coset_of, coset_sine,
                             falsify_dalembert_alpha, falsify_square_term,
                             group_inv, group_mul, group_sine_check,
                             square_norm_check)
from hypersine.core import (PairBatch, _cmul, _errors, _real, convolve_power,
                            exp_residual, integrate, power_identity_check,
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


def _coset_pairs(count, seed):
    """count canonical pairs as a PairBatch: x, y log-uniform on [e^-2,
    e^2], u, v uniform on [0, 5]."""
    rng = np.random.default_rng(seed)
    xs, ys = np.exp(rng.uniform(-2.0, 2.0, (2, count)))
    us, vs = rng.uniform(0.0, 5.0, (2, count))
    return PairBatch((xs, us), (ys, vs))


def _direct(fn):
    """fn without its form: _errors calls it on each point set."""
    return lambda p: fn(p)


LAMBDAS = [0.7, -0.8, complex(-0.5, -0.0), 0.5 + 0.4j]


@pytest.mark.parametrize("lam", LAMBDAS)
def test_errors_take_the_power_once_per_distinct_point(monkeypatch, lam):
    # P pairs have P distinct points |xy| and P each in xs and ys; calling
    # each function at each [P, 2] support and point set took 8P
    sizes = _counting(monkeypatch, "_power")
    f = coset_sine(2.0, lam)
    _errors(CosetHypergroup(), [(None, f.form[1]), (f, f.form[1])],
            _coset_pairs(50, 1))
    assert sum(sizes) == 3 * 50


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("c", [1.0, 2 - 1j, 1 + 0j])
def test_formed_closed_forms_keep_every_error_bit(lam, c):
    pairs, hg = _coset_pairs(300, 2), CosetHypergroup()
    f = coset_sine(c, lam)
    m = f.form[1]
    got = _errors(hg, [(None, m), (f, m)], pairs)
    want = _errors(hg, [(None, _direct(m)), (_direct(f), _direct(m))], pairs)
    for got_pair, want_pair in zip(got, want):
        for a, b in zip(got_pair, want_pair):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # a direct call keeps its values: c |x|^lam ln|x| by the complex exp
    log_ax = np.log(pairs.xs[0])
    want_f = _real(_cmul(c, _real(np.exp(complex(lam) * log_ax), lam))
                   * log_ax, lam, c)
    assert f(pairs.xs).tobytes() == want_f.tobytes()


def _counting(monkeypatch, name):
    """The sizes of the arguments of each call of coset.<name> from now."""
    sizes, fn = [], getattr(coset, name)

    def counted(*args):
        sizes.append(np.size(args[-1][0] if name == "_log" else args[-1]))
        return fn(*args)
    monkeypatch.setattr(coset, name, counted)
    return sizes


def test_checks_share_ln_and_the_power_within_their_errors_call(monkeypatch):
    # 200 pairs: the group check takes ln|x| at the 600 points of each of
    # its two equations and the power once at 600; the square-term
    # candidate m (ln|x| + a u^2) shares both with m
    logs, powers = (_counting(monkeypatch, n) for n in ("_log", "_power"))
    pairs = _coset_pairs(200, 4)
    raw = PairBatch((-pairs.xs[0], pairs.xs[1]), pairs.ys)
    group_sine_check(1 + 1j, raw)
    assert (len(logs), sum(logs), len(powers), sum(powers)) == (6, 1200, 3, 600)
    logs.clear(), powers.clear()
    falsify_square_term(0.7, 0.25, pairs)
    assert (len(logs), sum(logs), len(powers), sum(powers)) == (3, 600, 3, 600)


def test_errors_name_the_sine_overflow_where_the_power_is_finite():
    # |xy| = 100: 100^154 is finite, times ln 100 it is not
    pairs, hg = [((10.0, 0.0), (10.0, 0.0))], CosetHypergroup()
    f = coset_sine(1.0, 154)
    [(err, _)] = _errors(hg, [(None, f.form[1])], pairs)
    assert np.isfinite(err).all()
    with pytest.raises(OverflowError) as direct:
        f((np.array([100.0]), np.array([0.0])))
    with pytest.raises(OverflowError) as formed:
        _errors(hg, [(None, f.form[1]), (f, f.form[1])], pairs)
    assert (str(formed.value) == str(direct.value)
            == "coset closed form overflows at lambda = 154")


def test_no_value_outlives_an_errors_call():
    pairs, hg = _coset_pairs(100, 3), CosetHypergroup()
    f = coset_sine(2 - 1j, 0.5 + 0.4j)
    equations = [(None, f.form[1]), (f, f.form[1])]
    before = _errors(hg, equations, pairs)
    for c in (*pairs.xs, *pairs.ys):   # the same arrays, edited in place
        c *= 1.5
    fresh = PairBatch(*(tuple(c.copy() for c in batch)
                        for batch in (pairs.xs, pairs.ys)))
    got, want = _errors(hg, equations, pairs), _errors(hg, equations, fresh)
    for (err, rel), (want_err, want_rel), (old_err, _) in zip(got, want,
                                                             before):
        assert err.tobytes() == want_err.tobytes()
        assert rel.tobytes() == want_rel.tobytes()
        assert err.tobytes() != old_err.tobytes()


def test_coset_measures_and_powers_read_the_broadcast_support():
    hg = CosetHypergroup()
    assert hg.convolve((2.0, 1.5), (0.5, 3.0)).items() == (
        ((1.0, 7.5), 0.5), ((1.0, 4.5), 0.5))
    assert hg.convolve((2.0, 0.0), (0.5, 0.0)).items() == (((1.0, 0.0), 1.0),)
    mu = convolve_power(hg, (2.0, 1.5), 4)
    assert len(mu) == 8 and all(w == 0.125 for w in mu.weights)
    assert sorted(mu.support)[:3] == [(16.0, 1.5), (16.0, 4.5), (16.0, 7.5)]
    # the values of the parent's [P, 2] support, bit for bit
    for c, lam, want in ((1, 0.7, (1.1102230246251565e-16,
                                   5.4140987275109775e-17, 2)),
                         (2 - 1j, 0.5 + 0.4j, (7.021666937153402e-16,
                                               2.406383581053837e-16, 6))):
        rep = power_identity_check(hg, coset_sine(c, lam),
                                   coset_exponential(lam), (2.0, 1.5),
                                   (0.5, 3.0), 6)
        assert (rep.max_abs, rep.max_rel, rep.witness) == want


def test_a_zero_first_coordinate_is_no_group_element():
    for fn in (group_inv, coset_of):
        with pytest.raises(ValueError, match="^group elements need nonzero "
                                             "first coordinate$"):
            fn((0.0, 1.0))
