import json

import pytest

from hypersine.suites import (SuiteConfig, SUITE_NAMES, dual_vs_fd_report,
                              jsonable, run_suite)

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
