import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypersine.core import (DEFAULT_SUPPORT_CAP, EvaluationError,
                            FiniteHypergroup, FiniteMeasure, Hypergroup, NotHypergroupError,
                            SupportCapError, TabulatedFunction, _powers,
                            _propagate, _uniforms, compact_vanishing_check,
                            convolve_power, dump_finite_hypergroup,
                            exp_residual, exponentials, integrate,
                            load_finite_hypergroup, mix,
                            power_identity_check, s3_conjugacy_hypergroup,
                            sine_residual, sine_space, two_point_hypergroup)
from hypersine.coset import CosetHypergroup
from hypersine.polyhg import (PolynomialHypergroup, chebyshev_recurrence,
                              legendre_recurrence)
from test_kernel import finite_hypergroups


def test_point_mass_and_merge():
    mu = FiniteMeasure([(0, 0.25), (1, 0.5), (0, 0.25)])
    assert len(mu) == 2
    assert mu.weight(0) == 0.5
    assert FiniteMeasure.point(3).weight(3) == 1.0


def test_measure_rejects_bad_weights():
    with pytest.raises(NotHypergroupError):
        FiniteMeasure([(0, 0.7), (1, 0.7)])
    with pytest.raises(NotHypergroupError):
        FiniteMeasure([(0, 1.2), (1, -0.2)])
    # tiny negative noise below tolerance is allowed through
    mu = FiniteMeasure([(0, 1.0 + 1e-15), (1, -1e-15)])
    assert abs(mu.weight(1)) <= 1e-14


@pytest.mark.parametrize("normalized", [True, False])
def test_nan_weight_is_rejected(normalized):
    for pairs in ([(0, math.nan), (1, 1.0)], [(0, math.nan)]):
        with pytest.raises(NotHypergroupError, match="nan at element 0"):
            FiniteMeasure(pairs, normalized=normalized)
    with pytest.raises(NotHypergroupError, match="nan at element 0"):
        mix([(math.nan, FiniteMeasure.point(0))], normalized=normalized)


class _NanHypergroup(Hypergroup):
    """x * y = d_(x+y) with weight NaN on every pair but (0, 0)."""

    def convolve_many(self, xs, ys):
        return ((xs + ys)[:, None],
                np.where((xs + ys) == 0, 1.0, math.nan)[:, None])


def test_nan_convolution_weight_is_rejected():
    hg = _NanHypergroup()
    with pytest.raises(NotHypergroupError, match="nan at element 2"):
        hg.convolve(1, 1)
    with pytest.raises(NotHypergroupError, match="nan at element 2"):
        convolve_power(hg, 1, 2)


def test_integrate_reports_offending_element():
    mu = FiniteMeasure([(0, 0.5), (5, 0.5)])
    f = TabulatedFunction([1.0, 2.0])
    with pytest.raises(EvaluationError) as err:
        integrate(f, mu)
    assert "5" in str(err.value)
    # a non-integer element is not truncated to a tabulated one
    g = TabulatedFunction([1.0, 2.0, 3.0])
    for el, name in ((1.7, "1.7"), (-0.5, "-0.5"), (np.array([0.9, 2.2]),
                                                    "0.9"),
                     (math.nan, "nan"), (np.array([1.0, math.nan]), "nan")):
        with pytest.raises(IndexError, match=f"element {name} outside"):
            g(el)
    assert g(np.array([0.0, 2.0])).tolist() == [1.0, 3.0] and g(1.0) == 2.0
    with pytest.raises(EvaluationError, match="1.5"):
        integrate(g, FiniteMeasure([(1.5, 1.0)]))


def test_mix():
    a = FiniteMeasure.point(0)
    b = FiniteMeasure.point(1)
    mu = mix([(0.25, a), (0.75, b)])
    assert mu.weight(0) == 0.25 and mu.weight(1) == 0.75


@given(theta=st.floats(min_value=0.01, max_value=1.0))
def test_two_point_weights_always_normalized(theta):
    hg = two_point_hypergroup(theta)
    for x in hg.elements():
        for y in hg.elements():
            mu = hg.convolve(x, y)
            assert abs(sum(mu.weights) - 1.0) <= 1e-12
            assert all(w >= 0 for w in mu.weights)


def test_two_point_rejects_out_of_range_theta():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            two_point_hypergroup(bad)


def test_two_point_exponentials_are_known_pair():
    hg = two_point_hypergroup(0.3)
    ms = exponentials(hg)
    assert len(ms) == 2
    got = sorted(tuple(round(v.real, 12) for v in m) for m in ms)
    assert got == [(1.0, -0.3), (1.0, 1.0)]


def test_exp_residual_exact_on_two_point():
    theta = 0.25
    hg = two_point_hypergroup(theta)
    rep = exp_residual(hg, TabulatedFunction([1.0, -theta]), hg.all_pairs())
    assert rep.max_abs <= 4 * np.finfo(float).eps


def test_sine_residual_detects_non_sine():
    hg = two_point_hypergroup(0.3)
    f = TabulatedFunction([0.0, 1.0])
    m = TabulatedFunction([1.0, -0.3])
    rep = sine_residual(hg, f, m, hg.all_pairs())
    # the worst pair is (1, 1): f(1*1) - 2 f(1) m(1) = 0.7 + 0.6 = 1.3
    assert rep.max_abs == pytest.approx(1.3)
    assert rep.witness == (1, 1)


def _nullspace_by_elimination(rows, tol=1e-9):
    """Gauss-Jordan nullspace, kept independent of the SVD route."""
    a = [list(map(complex, r)) for r in rows]
    n_rows, n_cols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        piv, best = None, tol
        for i in range(r, n_rows):
            if abs(a[i][c]) > best:
                piv, best = i, abs(a[i][c])
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        scale = a[r][c]
        a[r] = [v / scale for v in a[r]]
        for i in range(n_rows):
            if i != r and abs(a[i][c]) > 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0.0] * n_cols
        vec[fc] = 1.0
        for i, pc in enumerate(pivots):
            vec[pc] = -a[i][fc]
        basis.append(vec)
    return basis


def _sine_system_rows(hg, m_vals):
    rows = []
    n = hg.size
    for x in range(n):
        for y in range(n):
            mu = hg.convolve(x, y)
            row = [0j] * n
            for el, w in mu.items():
                row[el] += w
            row[x] -= m_vals[y]
            row[y] -= m_vals[x]
            rows.append(row)
    return rows


@pytest.mark.parametrize("theta", [0.1, 0.25, 0.5, 0.9])
def test_sine_space_dimension_matches_elimination(theta):
    hg = two_point_hypergroup(theta)
    for m in ([1.0, 1.0], [1.0, -theta]):
        basis = sine_space(hg, m)
        oracle = _nullspace_by_elimination(_sine_system_rows(hg, m))
        assert len(basis) == len(oracle) == 0


def test_s3_exponentials_and_sine_spaces():
    hg = s3_conjugacy_hypergroup()
    ms = exponentials(hg)
    vals = sorted(tuple(round(v.real, 10) for v in m) for m in ms)
    assert vals == [(1.0, -1.0, 1.0), (1.0, 0.0, -0.5), (1.0, 1.0, 1.0)]
    for m in ms:
        basis = sine_space(hg, m)
        oracle = _nullspace_by_elimination(_sine_system_rows(hg, list(m)))
        assert len(basis) == len(oracle) == 0
        assert compact_vanishing_check(hg, TabulatedFunction(list(m)), basis)


def test_an_empty_sine_space_convolves_only_for_its_exponential_check(
        monkeypatch):
    # an empty basis leaves the basis check no equation, so no convolution
    hg, calls = s3_conjugacy_hypergroup(), []
    convolve_many = hg.convolve_many
    monkeypatch.setattr(hg, "convolve_many", lambda xs, ys: (
        calls.append(len(xs)), convolve_many(xs, ys))[1])
    assert sine_space(hg, [1.0, 1.0, 1.0]) == []
    assert calls == [9]


def test_sine_space_rejects_non_exponential():
    hg = two_point_hypergroup(0.3)
    with pytest.raises(ValueError):
        sine_space(hg, [1.0, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sine_space_rejects_non_finite_m(bad):
    with pytest.raises(ValueError, match="not an exponential"):
        sine_space(two_point_hypergroup(0.3), [1.0, bad])


def test_sine_space_on_group_algebra_has_additive_solutions():
    # Z/n as a hypergroup: convolution is group addition, so its
    # exponentials are the n characters, and an m-sine function is m times
    # an additive function, which vanishes on a finite group (torsion):
    # every sine space has dimension 0.
    from hypersine.core import FiniteHypergroup
    for n in (3, 24):
        tensor = np.zeros((n, n, n))
        for i in range(n):
            tensor[i, range(n), (i + np.arange(n)) % n] = 1.0
        hg = FiniteHypergroup(tensor, name=f"z{n}")
        ms = exponentials(hg)
        chars = np.exp(2j * np.pi * np.outer(range(n), range(n)) / n)
        assert len(ms) == n
        assert all(np.abs(chars - m).max(axis=1).min() < 1e-9 for m in ms)
        assert all(sine_space(hg, m) == [] for m in ms)
        assert not _nullspace_by_elimination(_sine_system_rows(hg, [1.0] * n))


def test_finite_hypergroup_validation():
    from hypersine.core import FiniteHypergroup
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = 1.0
    bad[0, 1, 1] = 1.0
    bad[1, 0, 1] = 1.0
    bad[1, 1, 0] = 0.6  # row sums to 0.6 only
    with pytest.raises(NotHypergroupError):
        FiniteHypergroup(bad)
    with pytest.raises(NotHypergroupError,
                       match=r"tensor shape \(2, 2, 3\) is not \(N, N, N\)"):
        FiniteHypergroup(np.full((2, 2, 3), 1.0 / 3.0))
    with pytest.raises(NotHypergroupError,
                       match=r"tensor shape \(0, 0, 0\) is not \(N, N, N\), "
                             r"N >= 1"):
        FiniteHypergroup(np.zeros((0, 0, 0)))
    # probability rows, but the identity times itself is (1/2, 1/2)
    spread = [[[0.5, 0.5], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]
    with pytest.raises(NotHypergroupError,
                       match="identity rows are not exact point masses"):
        FiniteHypergroup(spread)


def test_finite_hypergroup_checks_associativity_and_involution():
    from hypersine.core import FiniteHypergroup
    # valid except (1*1)*2 != 1*(1*2)
    non_assoc = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]],
                 [[0, 0, 1], [0, 1, 0], [0.5, 0.5, 0]]]
    with pytest.raises(NotHypergroupError, match="associative"):
        FiniteHypergroup(non_assoc)
    # i*j = d[max(i, j)]: associative, but 1 and 2 have no inverse
    no_inverse = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            no_inverse[i, j, max(i, j)] = 1.0
    with pytest.raises(NotHypergroupError, match="inverses"):
        FiniteHypergroup(no_inverse)


def test_finite_hypergroup_rejects_inverses_that_are_no_involution():
    # x * 2 charges the identity with 0.25 and x * 1 does not: each of 1
    # and 2 has the one inverse 2, so 1 -> 2 -> 2.  At tol 0.2 the
    # associativity defect 0.297 passes (<= 3 tol) and 0 counts as no weight
    tensor = np.zeros((3, 3, 3))
    tensor[0], tensor[:, 0] = np.eye(3), np.eye(3)
    tensor[1:, 1] = [0.0, 0.5, 0.5]
    tensor[1:, 2] = [0.25, 0.375, 0.375]
    with pytest.raises(NotHypergroupError,
                       match="^inverse map is not an involution$"):
        FiniteHypergroup(tensor, tol=0.2)


def _cyclic(n):
    """Z/n: i * j is the point mass at i + j mod n."""
    return FiniteHypergroup(np.eye(n)[np.add.outer(range(n), range(n)) % n],
                            name=f"z{n}")


@given(hg=st.one_of(finite_hypergroups,
                    st.sampled_from([3, 5]).map(_cyclic)))
@settings(max_examples=30)
def test_involution_is_the_inverse_the_validator_finds(hg):
    # the orbit hypergroups (7, 2) and (8, 3) swap 1 and 2, 1 and 4
    for x in hg.elements():
        inv = hg.involution(x)
        assert hg.involution(inv) == x
        assert [y for y in hg.elements() if hg.convolve(x, y).weight(0)
                > hg.weight_tol] == [inv]


def test_involution_of_z3_is_negation():
    hg = _cyclic(3)
    assert [hg.involution(x) for x in hg.elements()] == [0, 2, 1]
    assert hg.convolve(1, hg.involution(1)).items() == ((0, 1.0),)
    with pytest.raises(KeyError):
        hg.involution(-1)


def test_exponentials_of_the_one_element_hypergroup():
    [m] = exponentials(FiniteHypergroup([[[1.0]]]))
    assert m.tolist() == [1.0]


def test_power_identity_check_needs_a_power():
    hg = two_point_hypergroup(0.5)
    m = TabulatedFunction([1.0, -0.5])
    with pytest.raises(ValueError, match="^n_max must be >= 1, got 0$"):
        power_identity_check(hg, m, m, 0, 1, 0)


def test_tensor_is_a_read_only_copy():
    from hypersine.core import FiniteHypergroup
    caller = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.5, 0.5]]])
    hg = FiniteHypergroup(caller)
    # an edit would leave the validated tensor: one exponential, not two
    with pytest.raises(ValueError):
        hg.tensor[1, 1] = [0.25, 0.75]
    caller[1, 1] = [0.25, 0.75]   # the caller's array stays its own
    assert hg.tensor[1, 1].tolist() == [0.5, 0.5]
    assert len(exponentials(hg)) == 2


def test_exponentials_of_product_hypergroup():
    # on D(1/4) x D(1/4) every generator row has repeated eigenvalues
    from hypersine.core import FiniteHypergroup
    d = two_point_hypergroup(0.25).tensor
    hg = FiniteHypergroup(np.einsum("abc,def->adbecf", d, d).reshape(4, 4, 4))
    ms = exponentials(hg)
    expected = [[1, 1, 1, 1], [1, 1, -0.25, -0.25],
                [1, -0.25, 1, -0.25], [1, -0.25, -0.25, 0.0625]]
    assert sorted(np.round(np.real(m), 12).tolist() for m in ms) == \
        sorted(expected)
    for m in ms:
        assert exp_residual(hg, TabulatedFunction(m),
                            hg.all_pairs()).max_abs <= 1e-12


def test_convolve_power_and_identity():
    hg = two_point_hypergroup(0.5)
    mu = convolve_power(hg, 1, 3)
    assert abs(sum(mu.weights) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        convolve_power(hg, 1, 0)


def test_convolution_powers_respect_support_cap():
    hg = two_point_hypergroup(0.5)
    zero = TabulatedFunction([0.0, 0.0])
    m = TabulatedFunction([1.0, -0.5])
    with pytest.raises(SupportCapError):
        convolve_power(hg, 1, 2, cap=1)
    with pytest.raises(SupportCapError):
        power_identity_check(hg, zero, m, 0, 1, 2, cap=1)


@pytest.mark.parametrize("hg, x, y", [
    (CosetHypergroup(), (2.0, 1.5), (0.5, 3.0)),
    (PolynomialHypergroup(legendre_recurrence()), 3, 2)])
def test_power_chain_is_x_times_the_power_of_y(hg, x, y):
    *_, chain = _powers(hg, x, y, 3, DEFAULT_SUPPORT_CAP)
    cube = convolve_power(hg, y, 3)
    assert chain.allclose(mix((w, hg.convolve(x, el)) for el, w in cube),
                          tol=1e-12)
    if not hg.commutative:   # x stays on the left: y^3 * x is another measure
        right = mix((w, hg.convolve(el, x)) for el, w in cube)
        assert integrate(lambda el: el[1], chain) != pytest.approx(
            integrate(lambda el: el[1], right))


@pytest.mark.parametrize("hg, x, y, sizes", [
    (two_point_hypergroup(0.25), 0, 1, [1, 1, 2, 2, 2, 2, 2, 2]),
    (PolynomialHypergroup(chebyshev_recurrence()), 1, 2, list(range(1, 9)))])
def test_power_identity_convolves_each_power_once(hg, x, y, sizes,
                                                  monkeypatch):
    # one convolve_many call per power n = 1..8, over the support of
    # x * y^(n-1), and no pair-at-a-time convolution; 14 and 36 pairs in
    # all (the two-point case is the compact suite's power-refutation row,
    # the Chebyshev case the inputs of acceptance criterion 4)
    seen, convolve_many = [], hg.convolve_many
    monkeypatch.setattr(hg, "convolve_many", lambda xs, ys: seen.append(
        len(xs)) or convolve_many(xs, ys))
    monkeypatch.setattr(hg, "convolve", lambda *args: pytest.fail(
        f"convolve{args} called"))
    power_identity_check(hg, lambda el: 0.0, lambda el: 1.0, x, y, 8)
    assert seen == sizes


def test_non_finite_residual_fails_with_first_witness():
    hg = two_point_hypergroup(0.25)
    m = TabulatedFunction([1.0, math.nan])
    rep = exp_residual(hg, m, hg.all_pairs())
    assert not math.isfinite(rep.max_abs)
    assert not math.isfinite(rep.max_rel)
    assert not rep.within(1e-9) and not rep.within(1e-9, relative=True)
    assert rep.witness == (0, 1)
    assert rep.samples == 4


def test_power_identity_for_zero_sine_function():
    theta = 0.25
    hg = two_point_hypergroup(theta)
    f = TabulatedFunction([0.0, 0.0])
    m = TabulatedFunction([1.0, -theta])
    rep = power_identity_check(hg, f, m, 0, 1, 8)
    assert rep.max_abs <= 1e-12


def test_spec_file_round_trip(tmp_path):
    hg = s3_conjugacy_hypergroup()
    path = tmp_path / "s3.json"
    dump_finite_hypergroup(hg, path)
    back = load_finite_hypergroup(path)
    assert back.size == 3
    assert np.allclose(back.tensor, hg.tensor)


def test_spec_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"size": 2, "tensor": [[[1.0, 0.0]]]}))
    with pytest.raises(ValueError):
        load_finite_hypergroup(path)


def test_propagation_from_f1_alone_makes_no_convolution_call():
    class NoConvolution(Hypergroup):
        def convolve_many(self, xs, ys):
            raise AssertionError("convolve_many called")
    f = _propagate(NoConvolution(), [lambda n: np.ones(len(n))], [2.5 - 1j],
                   1)
    assert f.tolist() == [[0j, 2.5 - 1j]]


@given(seed=st.integers(0, 2 ** 64), count=st.integers(1, 4000),
       low=st.floats(-10.0, 10.0), width=st.floats(0.0, 20.0))
@settings(max_examples=40)
def test_uniforms_are_the_random_stream(seed, count, low, width):
    rng, ref = random.Random(seed), random.Random(seed)
    got = _uniforms(rng, count, low, low + width)
    want = low + (low + width - low) * np.array(
        [ref.random() for _ in range(count)])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng.getstate() == ref.getstate()
