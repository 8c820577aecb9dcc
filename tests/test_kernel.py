"""The batched residual kernel against a pair-at-a-time reference.

exp_residual and sine_residual convolve whole pair sets at once; the
reference integrates against one FiniteMeasure per pair, as
integrate(f, hg.convolve(x, y)).
"""

import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypersine import core, su2
from hypersine.core import (EvaluationError, FiniteHypergroup, FiniteMeasure,
                            PairBatch, TabulatedFunction, _cmul, _compact,
                            _errors, _integrate_many, _pair_batch, _residual,
                            _scan, exp_residual, integrate,
                            s3_conjugacy_hypergroup, sine_residual,
                            two_point_hypergroup)
from hypersine.coset import (CosetHypergroup, coset_exponential, coset_sine,
                             group_sine_check)
from hypersine.multipoly import ProductPolyHypergroup
from hypersine.polyhg import (PolynomialHypergroup, chebyshev_recurrence,
                              legendre_recurrence, recurrence_from_lists,
                              sine_fn)
from hypersine.sturm import cosh_hypergroup_check, line_dphi, line_phi


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
            # CPython's abs leaves errno alone for a NaN, so a NaN raises
            # too after an overflow elsewhere (here: _residual's hypot)
            return math.nan if cmath.isnan(z) else math.inf

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


def _same_bits(got, want):
    """Equal bit for bit, signed zeros included; NaNs match any NaN."""
    for a, b in ((np.real(got), np.real(want)), (np.imag(got), np.imag(want))):
        nan = np.isnan(a)
        assert (nan == np.isnan(b)).all()
        assert (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all()


@given(width=st.integers(min_value=1, max_value=160),
       is_complex=st.booleans(), blocks=st.floats(min_value=0.0,
                                                  max_value=2.5),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_integrate_many_adds_each_row_as_integrate(width, is_complex, blocks,
                                                   seed):
    # rows of up to 2.5 x 64 KiB of values, and up to 160 slots (a polyone
    # row at --n-max 128 has 129); special values everywhere, and NaN or inf
    # at zero weights, which must add nothing
    rng = np.random.default_rng(seed)
    itemsize = 16 if is_complex else 8
    count = 1 + int(blocks * max((1 << 16) // (width * itemsize), 1))
    weights = rng.uniform(-1.0, 2.0, (count, width))
    weights[rng.random(weights.shape) < 0.3] = 0.0
    weights[rng.random(weights.shape) < 0.05] = -0.0
    values = rng.normal(size=(count, width)) * 10.0 ** rng.integers(
        -300, 300, (count, width))
    if is_complex:
        values = values + 1j * rng.normal(size=(count, width))
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan])
    spots = rng.random(values.shape) < 0.1
    values[spots] = rng.choice(special, int(spots.sum()))
    values[(weights == 0) & (rng.random(values.shape) < 0.5)] = math.nan
    values[(weights == 0) & (rng.random(values.shape) < 0.2)] = -math.inf
    flat = values.ravel()
    support = np.arange(flat.size).reshape(count, width)

    def f(el):
        return flat[el]

    with np.errstate(all="ignore"):
        got = _integrate_many(f, support, weights)
        want = [integrate(f, [(el, w) for el, w in zip(row_s.tolist(),
                                                       row_w.tolist())
                              if w != 0])
                for row_s, row_w in zip(support, weights)]
    assert got.shape == (count,) and got.dtype == values.dtype
    _same_bits(got, np.array(want, dtype=values.dtype))


def test_integrate_many_gives_a_row_the_same_bits_in_any_batch():
    # inf - inf meets a NaN term: numpy's add and multiply sign the NaN by
    # its place in the batch (a vector body or a scalar tail)
    f = TabulatedFunction(np.array([math.inf, -math.inf, math.nan], complex))
    bits = set()
    with np.errstate(all="ignore"):
        for count in range(1, 20):
            got = _integrate_many(f, np.tile([0, 1, 2], (count, 1)),
                                  np.tile([0.5, 0.25, 0.25], (count, 1)))
            bits |= {row.tobytes() for row in got}
    assert len(bits) == 1


def test_integrate_many_keeps_no_batch_sized_temporary():
    # the poly-deep batch: ultraspherical alpha = 0.7, n, k <= 32; f's own
    # values (1089 x 33 complex) take 574,992 B of the peak; the sum adds
    # at most 64 KiB (a finiteness mask, the sums and a column of
    # products), not a product per slot of every row
    top, alpha = 64, 0.7
    rec = recurrence_from_lists(
        [1.0] + [(n + 2 * alpha + 1) / (2 * n + 2 * alpha + 1)
                 for n in range(1, top + 1)], [0.0] * (top + 1),
        [0.0] + [n / (2 * n + 2 * alpha + 1) for n in range(1, top + 1)])
    pairs = [(n, k) for n in range(33) for k in range(33)]
    support, weights = PolynomialHypergroup(rec).convolve_many(
        *_pair_batch(pairs))
    assert weights.shape == (1089, 33)
    f = sine_fn(rec, 1.0, 0.5 + 0.2j, n_max=top)
    tracemalloc.start()
    try:
        _integrate_many(f, support, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= weights.size * 16 + (1 << 16), peak


def _coset_batch(seed, count):
    """count canonical coset pairs as a PairBatch and as a tuple list."""
    rng = np.random.default_rng(seed)
    xs, ys = np.exp(rng.uniform(-2.0, 2.0, (2, count)))
    us, vs = rng.uniform(0.0, 5.0, (2, count))
    return PairBatch((xs, us), (ys, vs)), list(zip(
        zip(xs.tolist(), us.tolist()), zip(ys.tolist(), vs.tolist())))


def _grid_batch(n_max):
    """The pairs (n, k), n, k <= n_max, as a PairBatch and as a list."""
    ns, ks = np.divmod(np.arange((n_max + 1) ** 2), n_max + 1)
    return PairBatch(ns, ks), list(itertools.product(range(n_max + 1),
                                                     repeat=2))


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 40),
       lam=st.sampled_from([0.0, -0.8, 1.5, complex(1.28, -0.57)]))
@settings(max_examples=30)
def test_pair_batch_reports_equal_tuple_list_reports(seed, count, lam):
    batch, pairs = _coset_batch(seed, count)
    assert len(batch) == count
    assert [batch[i] for i in range(count)] == pairs
    hg, f, m = CosetHypergroup(), coset_sine(1.0, lam), coset_exponential(lam)
    for check in (lambda p: exp_residual(hg, m, p),
                  lambda p: sine_residual(hg, f, m, p)):
        got = check(batch)
        assert got == check(pairs)
        assert {type(c) for el in got.witness for c in el} == {float}


@pytest.mark.parametrize("n_max", [0, 3, 10])
def test_integer_pair_batch_reports_equal_tuple_list_reports(n_max):
    batch, pairs = _grid_batch(n_max)
    hg = su2.Su2Hypergroup()
    f, m = su2.sine_fn(2 * n_max, 0.4 + 0.3j), su2.phi_fn(2 * n_max, 0.7)
    for got, want in ((exp_residual(hg, m, batch), exp_residual(hg, m, pairs)),
                      (sine_residual(hg, f, m, batch),
                       sine_residual(hg, f, m, pairs))):
        assert got == want and {type(el) for el in got.witness} == {int}


def test_errors_evaluate_each_exponential_once_per_run_of_equations():
    batch, pairs = _grid_batch(6)
    calls = []

    def counting(name, fn):
        def wrapped(n):
            if n is batch.xs or n is batch.ys:   # the points, not a support
                calls.append((name, "xs" if n is batch.xs else "ys"))
            return fn(n)
        return wrapped

    m1, m2 = (counting(name, su2.phi_fn(12, lam))
              for name, lam in (("m1", 0.3), ("m2", 0.5 + 0.2j)))
    f1, f2 = (su2.sine_fn(12, lam) for lam in (0.3, 0.5 + 0.2j))
    equations = [(None, m1), (f1, m1), (None, m2), (f2, m2), (f2, m2),
                 (f1, m1)]
    hg = su2.Su2Hypergroup()
    got = _errors(hg, equations, batch)
    # an exp row and its sine rows share m; m1 comes back after m2, and
    # only the current m's values are held
    assert calls == [("m1", "xs"), ("m1", "ys"), ("m2", "xs"), ("m2", "ys"),
                     ("m1", "ys"), ("m1", "xs")]
    for (err, rel), eq in zip(got, equations):
        [(want_err, want_rel)] = _errors(hg, [eq], pairs)
        assert np.array_equal(err, want_err) and np.array_equal(rel, want_rel)


def test_function_undefined_on_the_support_raises_evaluation_error():
    batch, _ = _grid_batch(3)
    hg, m = su2.Su2Hypergroup(), su2.phi_fn(6, 0.3)
    short = TabulatedFunction(np.ones(4))   # the points 0..3, no support
    with pytest.raises(EvaluationError, match="undefined"):
        exp_residual(hg, short, batch)
    with pytest.raises(EvaluationError, match="undefined"):
        _errors(hg, [(None, m), (short, m)], batch)
    # the integral comes first: undefined on the points too, it still
    # names the support
    with pytest.raises(EvaluationError, match="undefined"):
        sine_residual(hg, TabulatedFunction([0.0]), m, batch)


def test_empty_pair_batch_is_rejected():
    with pytest.raises(ValueError, match="empty sample set"):
        exp_residual(su2.Su2Hypergroup(), su2.phi_fn(2, 0.3),
                     PairBatch(np.arange(0), np.arange(0)))


@given(rows=st.integers(1, 12).flatmap(lambda width: st.lists(
    st.lists(st.sampled_from([0.0, -0.0, 0.25, -1.5, 2.0, math.nan]),
             min_size=width, max_size=width), min_size=1, max_size=8)))
def test_compact_lists_each_rows_entries_in_column_order(rows):
    rows = np.array(rows)
    cols, weights = _compact(rows)
    width = max(max(np.count_nonzero(rows, axis=1)), 1)
    assert cols.shape == weights.shape == (len(rows), width)
    assert cols.dtype == np.intp
    for row, c, w in zip(rows, cols, weights):
        [nonzero] = np.nonzero(row)
        pad = width - len(nonzero)
        assert c.tolist() == nonzero.tolist() + [0] * pad
        np.testing.assert_array_equal(w, np.concatenate([row[nonzero],
                                                         np.zeros(pad)]))
        assert not np.signbit(w[len(nonzero):]).any()


def _scan_reference(errs, rels, witnesses):
    """A two-pass scan, the reference for ``core._scan``'s single
    isfinite pass."""
    count = len(witnesses)
    if count == 0:
        raise ValueError("empty sample set")
    errs = np.broadcast_to(np.asarray(errs, dtype=float), (count,))
    rels = np.broadcast_to(np.asarray(rels, dtype=float), (count,))
    bad = ~np.isfinite(errs)
    i = int(np.argmax(bad)) if bad.any() else int(np.argmax(errs))
    max_rel = rels[i] if bad.any() else rels.max()
    return float(errs[i]), float(max_rel), witnesses[i], count


special_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, -math.inf, math.nan]),
    st.floats())


@given(count=st.integers(1, 8), data=st.data())
@settings(max_examples=300)
def test_scan_matches_the_two_pass_scan(count, data):
    # ties and repeats come from the sampled values; the witness is the
    # first maximum, or the first non-finite error with its own rel
    errs = data.draw(st.one_of(special_floats, st.lists(
        special_floats, min_size=count, max_size=count)))
    rels = data.draw(st.one_of(special_floats, st.lists(
        special_floats, min_size=count, max_size=count)))
    witnesses = [(i, -i) for i in range(count)]
    got = _scan(errs, rels, witnesses)
    want = _scan_reference(errs, rels, witnesses)
    _same_bits(np.array(got[:2]), np.array(want[:2]))
    assert got[2:] == want[2:]


def test_scan_rejects_an_empty_sample_set():
    with pytest.raises(ValueError, match="empty sample set"):
        _scan([], [], [])


@given(a=st.lists(st.builds(complex, special_floats, special_floats),
                  min_size=1, max_size=4),
       b=st.lists(st.builds(complex, special_floats, special_floats),
                  min_size=1, max_size=4))
@settings(max_examples=300)
def test_cmul_rounds_as_python_complex_products(a, b):
    # an [len(a), 1] by [len(b)] batch broadcasts to every pair once
    with np.errstate(all="ignore"):
        got = _cmul(np.array(a)[:, None], np.array(b))
        zero_d = _cmul(np.array(a[0]), np.complex128(b[0]))
        row = _cmul(np.array(a[0]), np.array(b))
    assert isinstance(zero_d, np.complex128)
    _same_bits(np.atleast_1d(zero_d), np.array([a[0] * b[0]]))
    _same_bits(row, np.array([a[0] * y for y in b]))
    _same_bits(got, np.array([[x * y for y in b] for x in a]))


def test_cmul_of_a_real_factor_is_numpys_product():
    a, b = np.array([1.5, -0.0]), np.array([2 - 1j, 3 + 0j])
    np.testing.assert_array_equal(_cmul(a, b), a * b)
    assert _cmul(np.float64(2.0), np.array(3.0)) == 6.0


class _PerBatchRows:
    """A finite hypergroup whose convolve_many compacts each batch's own
    rows, padded to that batch's widest row."""

    def __init__(self, hg):
        self.hg = hg

    def convolve_many(self, xs, ys):
        return _compact(self.hg.tensor[xs, ys])


def _product_of_two_points(s, t):
    return FiniteHypergroup(np.einsum(
        "abc,def->adbecf", two_point_hypergroup(s).tensor,
        two_point_hypergroup(t).tensor).reshape(4, 4, 4))


value_parts = st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0, math.inf,
                               -math.inf, math.nan])


@given(hg=st.sampled_from([two_point_hypergroup(1.0), s3_conjugacy_hypergroup(),
                           _product_of_two_points(0.5, 0.25)]),
       data=st.data())
@settings(max_examples=60)
def test_finite_rows_padded_tensor_wide_give_the_same_errors(hg, data):
    # the product's rows hold 1, 2 and 4 weights, so a batch of narrow rows
    # gets padding slots that a per-batch compaction leaves out; f and m
    # may be non-finite at element 0, where every padding slot points
    values = st.lists(st.builds(complex, value_parts, value_parts),
                      min_size=hg.size, max_size=hg.size)
    f, m = (TabulatedFunction(np.array(data.draw(values))) for _ in "fm")
    pairs = data.draw(st.lists(st.sampled_from(hg.all_pairs()), min_size=1))
    equations = [(None, m), (f, m), (m, f)]
    for got, want in zip(_errors(hg, equations, pairs),
                         _errors(_PerBatchRows(hg), equations, pairs)):
        for g, w in zip(got, want):
            _same_bits(g, w)


def test_finite_convolve_many_compacts_no_rows_after_construction(
        monkeypatch):
    hg = _product_of_two_points(0.5, 0.25)

    def refuse(rows):
        raise AssertionError("_compact called")

    monkeypatch.setattr(core, "_compact", refuse)
    support, weights = hg.convolve_many(*_pair_batch(hg.all_pairs()))
    assert weights.shape == (16, 4)
    assert hg.convolve(3, 3).allclose(FiniteMeasure(
        [(0, 0.125), (1, 0.375), (2, 0.125), (3, 0.375)]))


def _ultraspherical_hypergroup(alpha, top=24):
    """The ultraspherical polynomial hypergroup (see
    ``test_ultraspherical_tables_match_reference``) on degrees 0..top."""
    a = [1.0] + [(n + 2 * alpha + 1) / (2 * n + 2 * alpha + 1)
                 for n in range(1, top + 1)]
    c = [0.0] + [n / (2 * n + 2 * alpha + 1) for n in range(1, top + 1)]
    return PolynomialHypergroup(recurrence_from_lists(a, [0.0] * (top + 1), c))


# (hypergroup, largest element of a pair): the families declaring
# _mirror_rows, each built anew so an instance may switch it off
mirror_families = st.one_of(
    st.sampled_from([chebyshev_recurrence, legendre_recurrence]).map(
        lambda rec: (PolynomialHypergroup(rec()), 12)),
    st.floats(-0.5, 2.0).map(lambda alpha: (_ultraspherical_hypergroup(alpha),
                                            12)),
    st.just(None).map(lambda _: (su2.Su2Hypergroup(), 100)),
)
special_values = st.sampled_from(
    [0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, complex(math.inf, 1.0),
     complex(0.0, math.nan)])


def _mirrored_pairs(data, top):
    """A pair list holding duplicates and mirrors of its drawn pairs, in a
    drawn order."""
    el = st.integers(0, top)
    pairs = data.draw(st.lists(st.tuples(el, el), min_size=1, max_size=30))
    more = data.draw(st.lists(st.sampled_from(pairs), max_size=30))
    return data.draw(st.permutations(
        pairs + [(y, x) for x, y in more] + more[::2]))


def _values(data, rng, size):
    """A complex table of size entries: normal draws, all zero (every
    sine residual ties at 0), or either with special values in places."""
    values = (np.zeros(size, complex) if data.draw(st.booleans())
              else rng.normal(size=size) + 1j * rng.normal(size=size))
    for i, v in data.draw(st.lists(st.tuples(st.integers(0, size - 1),
                                             special_values), max_size=4)):
        values[i] = v
    return TabulatedFunction(values)


@given(family=mirror_families, data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80)
def test_mirrored_pairs_share_the_integral_and_nothing_else(family, data,
                                                            seed):
    # errors and relative errors equal those of the per-pair path bit for
    # bit, NaN included; the right-hand terms of a pair and its mirror
    # round differently, so a shared residual fails here
    hg, top = family
    rng = np.random.default_rng(seed)
    pairs = _mirrored_pairs(data, top)
    f, m, m2 = (_values(data, rng, 2 * top + 1) for _ in "fmn")
    equations = [(None, m), (f, m), (m2, m), (f, m2)]
    rows, convolve_many = [], hg.convolve_many

    def recording(xs, ys):
        rows.append(list(zip(xs.tolist(), ys.tolist())))
        return convolve_many(xs, ys)
    hg.convolve_many = recording
    got = _errors(hg, equations, pairs)
    hg._mirror_rows = False
    want = _errors(hg, equations, pairs)
    # the first of each unordered pair, then every pair
    assert [len(r) for r in rows] == [len({tuple(sorted(p)) for p in pairs}),
                                      len(pairs)]
    assert rows[0] == [p for i, p in enumerate(pairs)
                       if sorted(p) not in map(sorted, pairs[:i])]
    for (err, rel), (want_err, want_rel) in zip(got, want):
        assert err.tobytes() == want_err.tobytes()
        assert rel.tobytes() == want_rel.tobytes()


@given(family=mirror_families, data=st.data())
@settings(max_examples=40)
def test_mirror_rows_are_equal_bit_for_bit(family, data):
    hg, top = family
    xs, ys = _pair_batch(_mirrored_pairs(data, top))
    for a, b in zip(hg.convolve_many(xs, ys), hg.convolve_many(ys, xs)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(family=mirror_families, data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_shared_path_raises_the_per_pair_errors(family, data, seed):
    # a negative element is convolved as given and named as the first bad
    # pair; a table too short names the same support element either way
    hg, top = family
    rng = np.random.default_rng(seed)
    pairs = _mirrored_pairs(data, top)
    negative = data.draw(st.booleans())
    if negative:
        i = data.draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], -data.draw(st.integers(1, 5)))
    f = _values(data, rng, data.draw(st.integers(1, 2 * top + 1)))
    m = _values(data, rng, 2 * top + 1)
    messages = []
    for shared in (True, False):
        hg._mirror_rows = shared
        try:
            _errors(hg, [(None, m), (f, m)], pairs)
            messages.append(None)
        except (ValueError, EvaluationError) as exc:
            messages.append((type(exc), str(exc)))
    assert messages[0] == messages[1]
    if negative:
        x, y = next(p for p in pairs if min(p) < 0)
        what = "elements" if isinstance(hg, su2.Su2Hypergroup) else "degrees"
        assert messages[0] == (ValueError,
                               f"{what} must be >= 0, got {x!r}, {y!r}")


def _group_reference(lam, pairs):
    """(err, rel) of additivity and of the sine equation on the affine
    group, from a = ln|x| and m = exp(lam a) at p, q and p q."""
    lam = complex(lam)
    (x, _), (y, _) = _pair_batch(pairs)
    a_p, a_q, a_pq = (np.log(np.abs(v)) for v in (x, y, x * y))
    m_p, m_q, m_pq = (np.exp(lam * a) for a in (a_p, a_q, a_pq))
    return [_residual(a_pq, [a_p, a_q]),
            _residual(a_pq * m_pq, [_cmul(a_p * m_p, m_q),
                                    _cmul(a_q * m_q, m_p)])]


def _cosh_reference(lam, pairs):
    """(err, rel) of the exponential and the sine equation on the cosh
    line, integrating over d[x+y] and d[|x-y|] with weight 1/2 each."""
    x, y = _pair_batch(pairs)
    m, f = (lambda v: line_phi(v, lam)), (lambda v: line_dphi(v, lam))

    def integral(g):
        return 0.5 * g(x + y) + 0.5 * g(np.abs(x - y))
    return [_residual(integral(m), [_cmul(m(x), m(y))]),
            _residual(integral(f), [_cmul(f(x), m(y)), _cmul(f(y), m(x))])]


group_elements = st.tuples(
    st.floats(-5.0, 5.0).map(math.exp), st.booleans(),
    st.floats(-10.0, 10.0)).map(lambda t: (-t[0] if t[1] else t[0], t[2]))
lambdas = st.one_of(st.sampled_from([0.75, -1.3, 0.0]), st.builds(
    complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))


@given(data=st.data(), lam=lambdas)
@settings(max_examples=60)
def test_interleaved_checks_equal_their_reference_bit_for_bit(data, lam):
    # each pair's two equations in turn; raw group pairs with negative x,
    # which no suite draws
    group_pairs = data.draw(st.lists(st.tuples(group_elements, group_elements),
                                     min_size=1, max_size=20))
    point = st.floats(0.0, 5.0)
    line_pairs = data.draw(st.lists(st.tuples(point, point), min_size=1,
                                    max_size=20))
    for check, reference, pairs, tags in (
            (group_sine_check, _group_reference, group_pairs,
             ("additive", "sine")),
            (cosh_hypergroup_check, _cosh_reference, line_pairs,
             ("exp", "sine"))):
        columns = reference(lam, pairs)
        errs, rels = ([col[k][i] for i in range(len(pairs)) for col in columns]
                      for k in (0, 1))
        got = check(lam, pairs)
        want = _scan(np.array(errs), np.array(rels),
                     [(tag, *pair) for pair in pairs for tag in tags])
        assert all(np.isfinite([want.max_abs, want.max_rel]))
        for value in ("max_abs", "max_rel"):
            assert (np.float64(getattr(got, value)).tobytes()
                    == np.float64(getattr(want, value)).tobytes())
        assert (got.witness, got.samples) == (want.witness, want.samples)
