"""One weight rule per hypergroup: every path that turns a hypergroup's
convolutions into measures judges them at its ``weight_tol``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypersine import core, coset, suites
from hypersine.core import (NotHypergroupError, FiniteHypergroup,
                            FiniteMeasure, TabulatedFunction, WEIGHT_TOL,
                            convolve_power, exp_residual, power_identity_check,
                            s3_conjugacy_hypergroup, two_point_hypergroup)
from hypersine.multipoly import ProductPolyHypergroup
from hypersine.polyhg import (NEGATIVE_COEFF_TOL, PolynomialHypergroup,
                              chebyshev_recurrence, linearize,
                              recurrence_from_lists)
from hypersine.sturm import CoshLineHypergroup
from recurrences import ultraspherical_lists
from test_kernel import finite_hypergroups


def near_half():
    """Ultraspherical at alpha = -1/2 - 1e-11 on degrees 0..16: the weight
    of 2 in 2 * 2 is about -1.33e-11, inside the float rule's -1e-10."""
    return recurrence_from_lists(*ultraspherical_lists(-0.5 - 1e-11, 16),
                                 name="ultraspherical(-1/2 - 1e-11)")


def near_one_tensor():
    """The two-point tensor at theta = 1 + 5e-11: weight -5e-11 at 1 * 1."""
    theta = 1 + 5e-11
    return [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [theta, 1.0 - theta]]]


def _bits(mu):
    return [(el, np.float64(w).tobytes()) for el, w in mu.items()]


def test_polynomial_convolve_and_powers_read_one_rule():
    rec = near_half()
    hg = PolynomialHypergroup(rec)
    mu = hg.convolve(2, 2)
    assert mu.support == (0, 2, 4)
    assert -1.34e-11 < mu.weight(2) < -1.33e-11
    assert _bits(convolve_power(hg, 2, 2)) == _bits(mu)
    assert _bits(linearize(rec, 2, 2)) == _bits(mu)
    assert hg.weight_tol == NEGATIVE_COEFF_TOL


def test_finite_hypergroup_keeps_the_tolerance_it_was_checked_at():
    hg = FiniteHypergroup(near_one_tensor(), tol=1e-10)
    assert hg.weight_tol == 1e-10
    m, f = TabulatedFunction([1.0, -1 - 5e-11]), TabulatedFunction([0.0, 1.0])
    assert exp_residual(hg, m, hg.all_pairs()).max_abs == 0.0
    assert hg.convolve(1, 1).support == (0, 1)
    report = power_identity_check(hg, f, m, 0, 1, 3)
    assert (report.samples, report.witness) == (3, 3)


def test_a_default_finite_hypergroup_rejects_the_near_one_tensor():
    with pytest.raises(NotHypergroupError,
                       match=r"^convolution \[1\]\[1\]: weight -5\.0\d*e-11 "
                             r"at element 1 is not >= -1e-12$"):
        FiniteHypergroup(near_one_tensor())


def z5_row_off():
    """Z/5 with the weight of 2 in 1 * 1 at 1 + 3e-12: the row's sum is off
    1 by more than tol times its one weight, by less than tol times 5."""
    tensor = np.eye(5)[np.add.outer(range(5), range(5)) % 5]
    tensor[1, 1, 2] = 1 + 3e-12
    return tensor


def test_a_finite_hypergroup_judges_each_row_as_convolve_does():
    message = "weights sum to 1.000000000003, expected 1"
    with pytest.raises(NotHypergroupError, match=f"^{message}$"):
        FiniteMeasure([(2, 1 + 3e-12)])
    with pytest.raises(NotHypergroupError,
                       match=rf"^convolution \[1\]\[1\]: {message}$"):
        FiniteHypergroup(z5_row_off())


@given(data=st.data(), hg=finite_hypergroups)
@settings(max_examples=100)
def test_every_convolution_of_an_accepted_tensor_returns(data, hg):
    # one weight of a row moves by delta; some draws fall between tol times
    # the row's number of weights and tol N, where the row sum once passed
    n, tol = hg.size, hg.weight_tol
    tensor = hg.tensor.copy()
    i, j = (data.draw(st.integers(1, n - 1)) for _ in range(2))
    l = data.draw(st.sampled_from(np.flatnonzero(tensor[i, j]).tolist()))
    tensor[i, j, l] += data.draw(st.floats(-2.0 * n, 2.0 * n)) * tol
    try:
        moved = FiniteHypergroup(tensor)
    except NotHypergroupError:
        return
    for x, y in moved.all_pairs():
        moved.convolve(x, y)


def test_product_convolve_reads_its_factors_rule():
    hg = ProductPolyHypergroup([near_half(), chebyshev_recurrence()])
    assert hg.weight_tol == PolynomialHypergroup.weight_tol
    assert exp_residual(hg, hg.exp_fn((0.5, 0.5)),
                        [((2, 0), (2, 0))]).max_abs == 0.0
    mu = hg.convolve((2, 0), (2, 0))
    assert mu.support == ((0, 0), (2, 0), (4, 0))
    assert mu.weight((2, 0)) < 0


# every hypergroup the package builds, with two of its elements
HYPERGROUPS = {
    **{name: (lambda name=name: suites._FAMILIES[name]().hg)
       for name in suites._FAMILIES},
    "two-point": lambda: two_point_hypergroup(0.5),
    "s3": s3_conjugacy_hypergroup,
    "cosh-line": CoshLineHypergroup,
    "affine-group": coset._Group,
}
ELEMENTS = {
    "chebyshev": (2, 3), "legendre": (2, 3), "su2": (1, 2),
    "product": ((1, 0), (1, 1)), "coset": ((2.0, 1.0), (3.0, 1.0)),
    "two-point": (1, 1), "s3": (1, 2), "cosh-line": (1.0, 2.5),
    "affine-group": ((2.0, 1.0), (3.0, -1.0)),
}
DEFAULT_RULE = {"chebyshev": NEGATIVE_COEFF_TOL, "legendre": NEGATIVE_COEFF_TOL,
                "product": NEGATIVE_COEFF_TOL}


@pytest.mark.parametrize("name", HYPERGROUPS)
def test_every_measure_path_judges_at_the_hypergroups_weight_tol(
        name, monkeypatch):
    # a point mass is built at the default; every convolution measure is
    # built at the hypergroup's weight_tol, passed explicitly
    hg, (x, y) = HYPERGROUPS[name](), ELEMENTS[name]
    assert hg.weight_tol == DEFAULT_RULE.get(name, WEIGHT_TOL)
    seen = []

    class Spy(core.FiniteMeasure):
        __slots__ = ()

        def __init__(self, pairs, tol=None, normalized=True):
            seen.append(tol)
            super().__init__(pairs, WEIGHT_TOL if tol is None else tol,
                             normalized)
    monkeypatch.setattr(core, "FiniteMeasure", Spy)
    for call in (lambda: hg.convolve(x, y),
                 lambda: convolve_power(hg, y, 3),
                 lambda: power_identity_check(hg, lambda el: 0.0,
                                              lambda el: 1.0, x, y, 2)):
        seen.clear()
        call()
        assert {tol for tol in seen if tol is not None} == {hg.weight_tol}
