"""The batched residual kernel against a pair-at-a-time reference.

exp_residual and sine_residual convolve whole pair sets at once; the
reference integrates against one FiniteMeasure per pair, as
integrate(f, hg.convolve(x, y)).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypersine import su2
from hypersine.core import (EvaluationError, FiniteHypergroup,
                            TabulatedFunction, _residual, exp_residual,
                            integrate, sine_residual, two_point_hypergroup)
from hypersine.coset import CosetHypergroup
from hypersine.multipoly import ProductPolyHypergroup
from hypersine.polyhg import (PolynomialHypergroup, chebyshev_recurrence,
                              legendre_recurrence, recurrence_from_lists,
                              sine_fn)


def _reference(hg, f, m, pairs):
    """Worst (abs, rel) of the sine equation (of the exponential equation
    when f is None), one measure per pair."""
    worst_abs, worst_rel = 0.0, 0.0
    for x, y in pairs:
        mu = hg.convolve(x, y)
        if f is None:
            rhs = complex(m(x)) * complex(m(y))
            err = abs(integrate(m, mu) - rhs)
            rel = err / (1.0 + abs(rhs))
        else:
            t1 = complex(f(x)) * complex(m(y))
            t2 = complex(f(y)) * complex(m(x))
            err = abs(integrate(f, mu) - t1 - t2)
            rel = err / (1.0 + abs(t1) + abs(t2))
        worst_abs, worst_rel = max(worst_abs, err), max(worst_rel, rel)
    return worst_abs, worst_rel


def _assert_matches_reference(hg, f, m, pairs):
    for got, want in ((exp_residual(hg, m, pairs),
                       _reference(hg, None, m, pairs)),
                      (sine_residual(hg, f, m, pairs),
                       _reference(hg, f, m, pairs))):
        assert got.samples == len(pairs)
        assert got.max_abs == pytest.approx(want[0], rel=1e-13, abs=1e-300)
        assert got.max_rel == pytest.approx(want[1], rel=1e-13, abs=1e-300)
        assert got.witness in pairs


@given(data=st.data(), size=st.integers(min_value=1, max_value=5),
       count=st.integers(min_value=0, max_value=3), is_complex=st.booleans())
@settings(max_examples=200)
def test_residual_matches_a_scalar_loop(data, size, count, is_complex):
    # NaN and inf included: the kernel must neither warn nor round
    # differently from subtracting the terms one sample at a time
    value = st.complex_numbers() if is_complex else st.floats()
    lhs, *terms = (np.array(data.draw(st.lists(value, min_size=size,
                                                 max_size=size)))
                   for _ in range(count + 1))
    err, rel = _residual(lhs, terms)

    def size_of(z):   # Python's complex abs; inf where it overflows
        try:
            return abs(complex(z))
        except OverflowError:
            return math.inf

    want_err, want_rel = [], []
    for i in range(size):
        diff = lhs[i].item()
        for t in terms:
            diff = diff - t[i].item()
        want_err.append(size_of(diff))
        want_rel.append(size_of(diff) / sum(
            (size_of(t[i].item()) for t in terms), 1.0))
    np.testing.assert_array_equal(err, want_err)
    np.testing.assert_array_equal(rel, want_rel)


def _tabulated(rng, size):
    return TabulatedFunction(rng.normal(size=size) + 1j * rng.normal(size=size))


def _orbit_hypergroup(n, unit):
    """Orbits of Z/n under multiplication by the powers of ``unit``:
    each row averages group-algebra rows, d[a] * d[b] = mean over h of
    d[orbit(a + h b)]."""
    group = [1]
    while (group[-1] * unit) % n != 1:
        group.append((group[-1] * unit) % n)
    reps, orbit = [], {}
    for a in range(n):
        if a not in orbit:
            for h in group:
                orbit[(h * a) % n] = len(reps)
            reps.append(a)
    counts = np.zeros((len(reps),) * 3)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            for h in group:
                counts[i, j, orbit[(a + h * b) % n]] += 1
    return FiniteHypergroup(counts / len(group))


finite_hypergroups = st.one_of(
    st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)).map(
        lambda t: FiniteHypergroup(np.einsum(
            "abc,def->adbecf", two_point_hypergroup(t[0]).tensor,
            two_point_hypergroup(t[1]).tensor).reshape(4, 4, 4))),
    st.sampled_from([(5, 4), (7, 6), (7, 2), (8, 3), (9, 2), (9, 8)]).map(
        lambda nu: _orbit_hypergroup(*nu)),
)


@given(hg=finite_hypergroups, seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30)
def test_finite_hypergroups_match_reference(hg, seed):
    rng = np.random.default_rng(seed)
    f, m = _tabulated(rng, hg.size), _tabulated(rng, hg.size)
    _assert_matches_reference(hg, f, m, hg.all_pairs())


@given(alpha=st.floats(min_value=-0.5, max_value=2.0),
       n_max=st.integers(min_value=1, max_value=8),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30)
def test_ultraspherical_tables_match_reference(alpha, n_max, seed):
    # Gasper (Canad. J. Math. 22, 1970): nonnegative for alpha >= -1/2
    top = 2 * n_max
    a = [1.0] + [(n + 2 * alpha + 1) / (2 * n + 2 * alpha + 1)
                 for n in range(1, top + 1)]
    c = [0.0] + [n / (2 * n + 2 * alpha + 1) for n in range(1, top + 1)]
    hg = PolynomialHypergroup(recurrence_from_lists(a, [0.0] * (top + 1), c))
    rng = np.random.default_rng(seed)
    f, m = _tabulated(rng, top + 1), _tabulated(rng, top + 1)
    pairs = list(itertools.product(range(n_max + 1), repeat=2))
    _assert_matches_reference(hg, f, m, pairs)


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 40))
@settings(max_examples=30)
def test_su2_pairs_match_reference(seed, count):
    rng = np.random.default_rng(seed)
    pairs = [tuple(int(v) for v in rng.integers(0, 15, size=2))
             for _ in range(count)]
    f, m = _tabulated(rng, 31), _tabulated(rng, 31)
    _assert_matches_reference(su2.Su2Hypergroup(), f, m, pairs)


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 40))
@settings(max_examples=30)
def test_coset_pairs_match_reference(seed, count):
    rng = np.random.default_rng(seed)
    pts = [(float(x), float(u)) for x, u in zip(
        np.exp(rng.uniform(-2.0, 2.0, 2 * count)),
        rng.uniform(0.0, 5.0, 2 * count))]
    pairs = list(zip(pts[:count], pts[count:]))
    a, b = rng.normal(size=2)

    def f(p):
        return np.cos(a * p[0]) + 1j * np.sin(b * p[1])

    def m(p):
        return np.exp(1j * b * p[0]) * (1.0 + p[1] * p[1])

    _assert_matches_reference(CosetHypergroup(), f, m, pairs)


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 30))
@settings(max_examples=20)
def test_product_pairs_match_reference(seed, count):
    rng = np.random.default_rng(seed)
    pairs = [tuple(tuple(int(v) for v in rng.integers(0, 7, size=2))
                   for _ in range(2)) for _ in range(count)]
    fa, ma = (rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
              for _ in range(2))
    hg = ProductPolyHypergroup([chebyshev_recurrence(), legendre_recurrence()])
    _assert_matches_reference(hg, lambda p: fa[p[0], p[1]],
                              lambda p: ma[p[0], p[1]], pairs)


def _tie():
    # (1, 0) and (0, 1) both have |f(1) - f(0) m(1) - f(1) m(0)| = 3 exactly
    hg = two_point_hypergroup(0.3)
    rep = sine_residual(hg, TabulatedFunction([1.0, 2.0]),
                        TabulatedFunction([1.0, 3.0]),
                        [(0, 0), (1, 0), (0, 1)])
    assert rep.max_abs == 3.0 and rep.witness == (1, 0)


def _nan():
    hg = two_point_hypergroup(0.3)
    rep = sine_residual(hg, TabulatedFunction([1.0, 1.0]),
                        TabulatedFunction([1.0, math.nan]),
                        [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert rep.witness == (1, 0)
    assert math.isnan(rep.max_abs) and not rep.within(1.0)


def _padding():
    # Legendre P_1 P_2 has two terms and P_2 P_3 three, so the (1, 2) row
    # carries one padding slot; degree 0 is in neither support
    rec = legendre_recurrence()
    f = sine_fn(rec, 1.0, 0.4, n_max=8)
    f.values[0] = math.inf
    m = TabulatedFunction(np.ones(9))
    rep = sine_residual(PolynomialHypergroup(rec), f, m, [(1, 2), (2, 3)])
    assert math.isfinite(rep.max_abs) and rep.samples == 2


def _out_of_range():
    # P_1 P_2 charges degree 3, one past the tabulated range
    f = TabulatedFunction(np.ones(3))
    with pytest.raises(EvaluationError, match="3"):
        exp_residual(PolynomialHypergroup(legendre_recurrence()), f,
                     [(1, 2)])


@pytest.mark.parametrize("case", [_tie, _nan, _padding, _out_of_range],
                         ids=["tie-first-index", "nan-first-witness",
                              "non-finite-padding", "out-of-range"])
def test_kernel_edge_cases(case):
    case()
