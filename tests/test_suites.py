import cmath
import json
import math

import numpy as np
import pytest

from hypersine import coset, su2
from hypersine.core import (ResidualReport, TabulatedFunction,
                            power_identity_check, two_point_hypergroup)
from hypersine.suites import (SuiteConfig, SUITE_NAMES, _coset_samples, _row,
                              dual_vs_fd_report, jsonable, run_suite)

ROW_KEYS = {"suite", "max_abs", "max_rel", "witness", "samples", "pass"}


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(tol=0.0)
    with pytest.raises(ValueError):
        SuiteConfig(samples=0)
    with pytest.raises(ValueError):
        SuiteConfig(h=-1.0)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_report_rows_have_documented_shape():
    rep = run_suite("compact", SuiteConfig())
    doc = json.loads(rep.to_json())
    assert set(doc) == {"suite", "pass", "wall_time", "checks"}
    assert doc["pass"] is True
    for row in doc["checks"]:
        assert set(row) == ROW_KEYS
        assert isinstance(row["pass"], bool)
        assert isinstance(row["samples"], int)
        assert isinstance(row["max_abs"], (int, float))


def test_csv_report_has_same_columns():
    rep = run_suite("compact", SuiteConfig())
    lines = rep.to_csv().splitlines()
    assert lines[0] == "suite,max_abs,max_rel,witness,samples,pass"
    assert len(lines) == len(rep.checks) + 1


def test_compact_suite_reports_zero_dimensions():
    rep = run_suite("compact", SuiteConfig(thetas=(0.25,)))
    dims = [c for c in rep.checks if "sine-dim" in c.name]
    assert dims and all(c.passed for c in dims)
    assert all(c.witness == 0 for c in dims)


@pytest.mark.parametrize("value, passes", [
    (1e-3, {"abs": True, "rel": True, "above": False}),
    (2e-3, {"abs": False, "rel": False, "above": True}),
    (math.nan, {"abs": False, "rel": False, "above": False}),
    (math.inf, {"abs": False, "rel": False, "above": False}),
])
@pytest.mark.parametrize("rule", ["abs", "rel", "above"])
def test_row_rules_at_the_tolerance_and_at_non_finite_values(value, passes,
                                                             rule):
    check = _row("x", ResidualReport(value, value, None, 1), 1e-3, rule)
    assert check.passed is passes[rule]
    assert (check.tol, check.rule) == (1e-3, rule)
    assert set(check.row()) == ROW_KEYS


def test_compact_power_refutation_rows_fail_the_identity():
    thetas = (0.1, 0.25, 0.5, 0.9)
    rows = [c for c in run_suite("compact", SuiteConfig(thetas=thetas)).checks
            if c.name.endswith(":power-refutation")]
    assert [c.name for c in rows] == [
        f"compact:theta={t:g}:power-refutation" for t in thetas]
    for theta, c in zip(thetas, rows):
        assert c.passed and c.rule == "above" and c.max_abs >= 1.0 + theta
    # the zero function satisfies the identity, so the rule rejects it
    hg = two_point_hypergroup(0.5)
    rep = power_identity_check(hg, TabulatedFunction([0.0, 0.0]),
                               TabulatedFunction([1.0, -0.5]), 0, 1, 8)
    assert not _row("zero", rep, 0.5, "above").passed


def test_sturm_suite_respects_overridden_grid():
    cfg = SuiteConfig(x_max=1.0, h=2e-3, lambdas=(1.0,))
    rep = run_suite("sturm", cfg)
    assert rep.passed


def test_sturm_sine_rows_fail_on_a_coarse_grid():
    # at h = 1e-2 the RK4 error in the derivative exceeds the 1e-5 tolerance
    cfg = SuiteConfig(x_max=5.0, h=1e-2, lambdas=(2.0,), alpha=-0.5)
    rows = {c.name: c for c in run_suite("sturm", cfg).checks}
    assert not rows["sturm:const:sine-closed-form:lam=2"].passed
    assert rows["sturm:const:sine-closed-form:lam=2"].max_abs > 1e-4
    # the witness is the grid point x = i h of the worst error
    x = rows["sturm:const:sine-closed-form:lam=2"].witness
    assert 0.0 <= x <= 5.0 and x == round(x / 1e-2) * 1e-2
    assert not rows["sturm:power(alpha=-0.5):sine-vs-phi(alpha+1):lam=1"].passed


def test_seed_changes_sampled_witnesses():
    a = run_suite("coset", SuiteConfig(seed=1, samples=50))
    b = run_suite("coset", SuiteConfig(seed=2, samples=50))
    rows_a = [c.row() for c in a.checks]
    rows_b = [c.row() for c in b.checks]
    assert rows_a != rows_b
    assert a.passed and b.passed


def test_all_runs_every_suite():
    rep = run_suite("all", SuiteConfig(samples=50))
    prefixes = {c.name.split(":")[0] for c in rep.checks}
    assert prefixes == set(SUITE_NAMES)
    assert rep.passed


def test_jsonable_handles_composites():
    assert jsonable((1, 2.5, 1 + 2j)) == [1, 2.5, repr(1 + 2j)]
    assert jsonable(None) is None
    assert json.dumps(jsonable({"x": 1})) is not None


def test_dual_vs_fd_cross_check():
    rep = dual_vs_fd_report()
    assert rep.max_rel <= 1e-6


def test_su2_propagation_row_reports_the_largest_absolute_error():
    # max_abs and the witness come from the worst absolute error, which at
    # lam = 1 is not where the relative error is worst
    rep = run_suite("su2", SuiteConfig(seed=11, lambdas=(1.0,)))
    row = {c.name: c for c in rep.checks}["su2:propagation:lam=1"]
    rng = np.random.default_rng(11)
    f1 = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    prop = su2.propagate_sine(1.0, f1, 40)
    want = f1 / cmath.sinh(1.0) * su2.sine_fn(80, 1.0).values[:41]
    err = np.abs(prop - want)
    assert row.max_abs == pytest.approx(err.max(), rel=1e-15)
    assert row.witness == int(np.argmax(err))
    assert row.max_rel == pytest.approx((err / (1.0 + np.abs(want))).max(),
                                        rel=1e-15)


def test_coset_associativity_row_reports_the_absolute_coordinate_error():
    rep = run_suite("coset", SuiteConfig(seed=3, samples=100))
    row = {c.name: c for c in rep.checks}["coset:associativity-float"]
    rng = np.random.default_rng(3)
    xs, us = _coset_samples(rng, 100)
    ys, vs = _coset_samples(rng, 100)
    p, q, r = (xs, us), (ys, vs), (xs * 0.5 + 1.0, vs - us)
    lhs = coset.group_mul(coset.group_mul(p, q), r)
    rhs = coset.group_mul(p, coset.group_mul(q, r))
    err = np.maximum(*(np.abs(a - b) for a, b in zip(lhs, rhs)))
    assert (row.max_abs, row.witness, row.samples) == (
        err.max(), int(np.argmax(err)), 100)
    assert row.rule == "rel" and row.passed
