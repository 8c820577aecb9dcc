import cmath
import csv
import io
import itertools
import json
import math
import random
import re

import numpy as np
import pytest

from hypersine import coset, polyhg, sturm, su2
from hypersine.core import (NotHypergroupError, ResidualReport,
                            TabulatedFunction, TheoremViolationError,
                            exp_residual, power_identity_check,
                            sine_residual, two_point_hypergroup)
from hypersine.sturm import constant_family, solve_phi
from hypersine.suites import (_FAMILIES, CheckResult, SuiteConfig,
                              SuiteReport, SUITE_NAMES, _Eq, _coset_samples,
                              _equations, _fact, _judge, _row,
                              dual_vs_fd_report, run_suite)
from recurrences import in_gasper_region, jacobi_spec

ROW_KEYS = {"suite", "max_abs", "max_rel", "witness", "samples", "pass"}


def test_config_validation():
    with pytest.raises(TypeError, match="tol"):   # each claim pins its own
        SuiteConfig(tol=0.0)
    with pytest.raises(ValueError):
        SuiteConfig(samples=0)
    with pytest.raises(ValueError):
        SuiteConfig(h=-1.0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SuiteConfig(seed=-1)
    with pytest.raises(TypeError, match="bogus"):
        SuiteConfig(bogus=1)


def test_report_records_are_immutable_tuples():
    rep = ResidualReport(0.5, 0.25, ("x", 1), 3)
    sol = solve_phi(constant_family(), 1.0, x_max=0.5, h=1e-2)
    for record, name in ((rep, "max_abs"), (sol, "lam")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    assert rep == (0.5, 0.25, ("x", 1), 3) and len(sol) == 7


# Tuple values get explicit ids: pytest would number them by list position,
# so a case added or dropped before them would rename them.
@pytest.mark.parametrize("name, value", [
    pytest.param("lambdas", (0.3, complex(0.5, math.nan)),
                 id="lambdas-value1"),
    ("x_max", math.inf), ("h", math.nan),
    pytest.param("thetas", (0.1, math.inf), id="thetas-value4"),
    ("alpha", math.nan), ("n_max", -1)])
def test_config_rejects_non_finite_values_and_negative_n_max(name, value):
    with pytest.raises(ValueError, match=name):
        SuiteConfig(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("n_max", 2.5), ("samples", 2.5), ("seed", 1.5), ("seed", np.float64(2)),
    ("samples", "7")])
def test_config_rejects_a_non_integer_count_by_name(name, value):
    with pytest.raises(ValueError,
                       match=re.escape(f"{name} must be an integer, got "
                                       f"{value!r}")):
        SuiteConfig(**{name: value})


def test_config_takes_numpy_integers_and_holds_tuples():
    cfg = SuiteConfig(seed=np.int64(3), n_max=np.uint8(4),
                      samples=np.int32(5), lambdas=[0.5], thetas=[0.25])
    assert [(type(v), v) for v in (cfg.seed, cfg.n_max, cfg.samples)] == [
        (int, 3), (int, 4), (int, 5)]
    assert (cfg.lambdas, cfg.thetas) == ((0.5,), (0.25,))
    plain = SuiteConfig(seed=3, samples=5)
    numpy = SuiteConfig(seed=np.int64(3), samples=np.int64(5))
    assert ([c.row() for c in run_suite("coset", numpy).checks]
            == [c.row() for c in run_suite("coset", plain).checks])


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


def test_compact_sine_dim_rows_fail_on_a_non_trivial_basis(monkeypatch):
    from hypersine import suites
    monkeypatch.setattr(suites, "sine_space",
                        lambda hg, m: [TabulatedFunction([0.0, 1.0])])
    rep = run_suite("compact", SuiteConfig(thetas=(0.25,)))
    dims = [c for c in rep.checks if ":sine-dim-" in c.name]
    assert len(dims) == 5 and not rep.passed
    assert all(not c.passed and c.witness == 1 for c in dims)


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


def test_sinsev_rows_check_the_seeded_pairs():
    rep = run_suite("sinsev", SuiteConfig(samples=5))
    assert [c.name for c in rep.checks] == [
        f"sinsev:d={d}:{kind}" for d in (2, 3) for kind in ("exp", "sine")]
    assert all(c.passed and c.samples == 5 for c in rep.checks)


def test_sturm_suite_respects_overridden_grid():
    cfg = SuiteConfig(x_max=1.0, h=2e-3, lambdas=(1.0,))
    rep = run_suite("sturm", cfg)
    assert rep.passed


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sturm_tables_are_cut_only_at_the_float_range():
    # |phi| ~ 4e11 on [0, 5] at lambda 30: accurate, and every row passes
    assert run_suite("sturm", SuiteConfig(lambdas=(30.0,))).passed
    # |phi| ~ 1e305 at lambda 19800: the tables stay finite, and both
    # closed-form rows fail on their real RK4 error, not on an overflow
    rows = {c.name: c for c in run_suite(
        "sturm", SuiteConfig(lambdas=(19800.0,))).checks}
    assert len(rows) == 7
    for what in ("phi", "sine-closed-form"):
        row = rows[f"sturm:const:{what}:lam=19800"]
        assert not row.passed and row.witness == 5.0
        assert math.isfinite(row.max_abs) and 1e-3 < row.max_rel < 1.0
    assert all(row.passed for name, row in rows.items()
               if ":lam=19800" not in name)


@pytest.mark.parametrize("h", [2e-5, 5e-5, 1e-4, 1e-3])
def test_sturm_suite_passes_on_fine_grids(h):
    # each row is a closed form or a cosh check, so a fine grid is only
    # more accurate: no finite-difference rounding floor can fail it
    rep = run_suite("sturm", SuiteConfig(x_max=0.35, h=h))
    assert len(rep.checks) == 13 and rep.passed
    assert not any("ode-residual-bound" in c.name for c in rep.checks)


_STURM_CLOSED_FORM_ROWS = [
    f"sturm:{tag}:{what}:lam={lam}" for tag, lam in
    (("const", "2"), ("power(alpha=-0.5)", "1"))
    for what in ("phi", "sine-closed-form")]


def _sturm_closed_form_rows(**cfg):
    """The closed-form rows of the sturm suite at lambda 2 and alpha -1/2
    on [0, 5], name -> passed, and whether every other row passed."""
    checks = run_suite("sturm", SuiteConfig(lambdas=(2.0,), alpha=-0.5,
                                            **cfg)).checks
    rows = {c.name: c.passed for c in checks}
    return ({name: rows.pop(name) for name in _STURM_CLOSED_FORM_ROWS},
            all(rows.values()))


def test_sturm_sine_rows_fail_on_a_coarse_grid():
    # at h = 1e-2 the RK4 error exceeds the 1e-8 relative tolerance
    cfg = SuiteConfig(x_max=5.0, h=1e-2, lambdas=(2.0,), alpha=-0.5)
    rows = {c.name: c for c in run_suite("sturm", cfg).checks}
    assert not rows["sturm:const:sine-closed-form:lam=2"].passed
    assert rows["sturm:const:sine-closed-form:lam=2"].max_abs > 1e-4
    # the witness is the grid point x = i h of the worst error
    x = rows["sturm:const:sine-closed-form:lam=2"].witness
    assert 0.0 <= x <= 5.0 and x == round(x / 1e-2) * 1e-2
    assert not rows["sturm:power(alpha=-0.5):sine-closed-form:lam=1"].passed
    assert not any(rows[name].passed for name in _STURM_CLOSED_FORM_ROWS)


def test_sturm_closed_form_rows_pass_at_the_default_grid():
    rows, rest = _sturm_closed_form_rows()
    assert all(rows.values()) and rest


def test_sturm_closed_form_rows_fail_for_a_shifted_reference(monkeypatch):
    # each reference evaluated at alpha + 0.01: the series at s + 0.02, and
    # for the constant weight (alpha = -1/2) the series at s = 0.02
    hyp0f1 = sturm._hyp0f1

    def shifted(s, lam, c, x, terms=None):   # the RK4 launch stays exact
        return hyp0f1(s + (0.02 if terms is None else 0.0), lam, c, x, terms)

    monkeypatch.setattr(sturm, "_hyp0f1", shifted)
    monkeypatch.setattr(sturm, "line_phi",
                        lambda x, lam: hyp0f1(0.02, lam, 1.0, x)[0])
    monkeypatch.setattr(sturm, "line_dphi",
                        lambda x, lam: hyp0f1(0.02, lam, 1.0, x)[2])
    rows, _ = _sturm_closed_form_rows()
    assert not any(rows.values())


def test_sturm_closed_form_rows_fail_for_an_rk4_stage_mutant(monkeypatch):
    # stage k1 scaled by 1 + 1e-6: on e1 it is (0, lam, 0, c) and on e2
    # (1, -A'/A, 0, 0), and the step adds h / 6 of it
    step_columns = sturm._step_columns

    def mutant(ratio, lam, c, xs, h):
        entries = step_columns(ratio, lam, c, xs, h)
        k1 = [0.0, lam, 0.0, c, 1.0, -ratio(xs), 0.0, 0.0]
        return [e + 1e-6 * (h / 6.0) * k for e, k in zip(entries, k1)]

    monkeypatch.setattr(sturm, "_step_columns", mutant)
    rows, _ = _sturm_closed_form_rows()
    assert not any(rows.values())


def test_sturm_suite_makes_one_rk4_pass_per_closed_form(monkeypatch):
    # n_lambda constant-weight passes and one power-weight pass, each with
    # c = 1; no exponential is solved on its own and no c = 0 pass is made
    integrate, passes = sturm._integrate, []

    def counted(*args):
        passes.append(args[1:3])
        return integrate(*args)

    def no_solve_phi(*args, **kwargs):
        raise AssertionError("solve_phi called")

    monkeypatch.setattr(sturm, "_integrate", counted)
    monkeypatch.setattr(sturm, "solve_phi", no_solve_phi)
    lambdas = (0.5, 2.0, 1.0 + 0.5j)
    assert run_suite("sturm", SuiteConfig(lambdas=lambdas)).passed
    assert len(passes) == len(lambdas) + 1
    assert all(c == 1.0 for _, c in passes)


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


def _holds_numpy_scalar(value):
    if isinstance(value, (tuple, list)):
        return any(map(_holds_numpy_scalar, value))
    return isinstance(value, np.generic)


@pytest.mark.parametrize("size", [{}, dict(n_max=10, samples=3, x_max=0.3,
                                           h=2e-3)])
def test_witnesses_are_plain_python_numbers(size):
    # a FAIL line prints the witness: 2.456, not np.float64(2.456)
    rep = run_suite("all", SuiteConfig(seed=11, **size))
    assert [c.name for c in rep.checks if _holds_numpy_scalar(c.witness)] == []


def test_sturm_rows_compute_no_ode_residual(monkeypatch):
    # the rows read the tables of the one pass; the central-difference
    # diagnostic of OdeSolution is for library callers
    def unread(*args, **kwargs):
        raise AssertionError("ODE residual computed")
    for name in ("ode_defect", "ode_residual"):
        monkeypatch.setattr(sturm, name, unread)
    rep = run_suite("sturm", SuiteConfig(x_max=0.3, h=2e-3))
    assert rep.passed and len(rep.checks) == 13


def test_reports_write_a_complex_witness_as_its_repr_and_nothing_else():
    def report(witness):
        return SuiteReport("compact", [CheckResult(
            "row", 0.0, 0.0, witness, 1, True, 0.0, "abs")])

    written = [1, 2.5, "(1+2j)", [3, -0.0]]
    rep = report((1, 2.5, 1 + 2j, (3, -0.0)))
    doc = json.loads(rep.to_json())
    doc["checks"][0]["witness"] = written
    assert rep.to_json() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert next(itertools.islice(csv.reader(io.StringIO(rep.to_csv())), 1,
                                 None))[3] == json.dumps(written)
    # a numpy integer is no witness: it fails, as json itself fails
    for write in (report((np.int64(1),)).to_json,
                  report((np.int64(1),)).to_csv):
        with pytest.raises(TypeError, match="int64"):
            write()


def test_dual_vs_fd_cross_check():
    rep = dual_vs_fd_report()
    assert rep.max_rel <= 1e-6
    # pinned bit for bit: its sturm rows run real-lambda solves, whose
    # float pass must give the complex pass's values exactly
    assert rep == (5.503798661266046e-08, 2.031627247154816e-09,
                   ("su2", 9, "0.4"), 24)


def test_su2_propagation_row_reports_the_largest_absolute_error():
    # max_abs and the witness come from the worst absolute error, which at
    # lam = 1 is not where the relative error is worst
    rep = run_suite("su2", SuiteConfig(seed=11, lambdas=(1.0,)))
    row = {c.name: c for c in rep.checks}["su2:propagation:lam=1"]
    rng = random.Random(11)
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
    rng = random.Random(3)
    xs, us = _coset_samples(rng, 100)
    ys, vs = _coset_samples(rng, 100)
    p, q, r = (xs, us), (ys, vs), (xs * 0.5 + 1.0, vs - us)
    lhs = coset.group_mul(coset.group_mul(p, q), r)
    rhs = coset.group_mul(p, coset.group_mul(q, r))
    err = np.maximum(*(np.abs(a - b) for a, b in zip(lhs, rhs)))
    assert (row.max_abs, row.witness, row.samples) == (
        err.max(), int(np.argmax(err)), 100)
    assert row.rule == "rel" and row.passed


def _convolution_batches(monkeypatch, cls):
    """Batch lengths of every cls.convolve_many call, in call order."""
    lengths, original = [], cls.convolve_many

    def counting(self, xs, ys):
        lengths.append(len(xs[0] if isinstance(xs, tuple) else xs))
        return original(self, xs, ys)
    monkeypatch.setattr(cls, "convolve_many", counting)
    return lengths


def test_each_equation_pair_set_is_convolved_once(monkeypatch):
    from hypersine.polyhg import PolynomialHypergroup
    poly = _convolution_batches(monkeypatch, PolynomialHypergroup)
    run_suite("polyone", SuiteConfig(n_max=6, lambdas=(0.3, 0.7, 0.5 + 0.5j)))
    # per recurrence: one batch for all 10 reconstruct draws (the rows
    # n * 1, n = 1..5), and one for all lambdas and equations, holding the
    # 28 unordered pairs of the 49 on the grid (a mirror shares its row);
    # the equation batches run once every claim of the suite is made
    assert sorted(poly) == [5, 5, 28, 28]
    pairs = _convolution_batches(monkeypatch, coset.CosetHypergroup)
    run_suite("coset", SuiteConfig(samples=300))
    assert pairs.count(300) == 1
    # the weight-sums bands of 13 k have 55 to 1,235 pairs; the grid at
    # n_max 10 has 121 pairs, 66 of them unordered
    grid = _convolution_batches(monkeypatch, su2.Su2Hypergroup)
    run_suite("su2", SuiteConfig(n_max=10))
    assert grid.count(66) == 1
    assert len(grid) < 20   # not one weight-sums batch per k


def test_su2_weight_sums_row_adds_each_measure_as_a_lone_batch():
    # a zero-weight padding slot adds +0.0 to a positive sum, so banding
    # the k keeps every sum of the one-batch-per-k reference
    hg = su2.Su2Hypergroup()
    upper = [(k, n) for k in range(101) for n in range(k, 101)]
    sums = np.concatenate([np.cumsum(hg.convolve_many(
        np.full(101 - k, k), np.arange(k, 101))[1], axis=1)[:, -1]
        for k in range(101)])
    err = np.abs(sums - 1.0)
    row = next(c for c in run_suite("su2", SuiteConfig(n_max=2)).checks
               if c.name == "su2:weight-sums")
    assert (row.max_abs, row.witness, row.samples) == (
        err.max(), upper[int(np.argmax(err))], len(upper))
    assert type(row.witness[0]) is int


def test_coset_suite_hands_no_long_tuple_list_to_the_batcher(monkeypatch):
    from hypersine import core
    lists, batches, real = [], [], core._pair_batch

    def recording(pairs):
        (batches if isinstance(pairs, core.PairBatch) else lists).append(
            len(pairs))
        return real(pairs)
    monkeypatch.setattr(core, "_pair_batch", recording)
    run_suite("coset", SuiteConfig(samples=4000))
    assert max(lists) <= 200
    assert batches.count(4000) == 1   # every equation row, one convolution


def _polyone_draws(seed):
    """The polyone suite's ten (lam, f1) draws per built-in recurrence,
    chebyshev's then legendre's, in the suite's order."""
    rng = random.Random(seed)
    return [[(complex(rng.uniform(-1.25, 1.25), rng.uniform(-0.5, 0.5)),
              complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
             for _ in range(10)] for _ in range(2)]


def _scaled_propagation(monkeypatch, scale):
    """Patch the suite's and reconstruct_sine's propagation: the row of
    each draw is multiplied by scale(f1), the same in a batch and alone."""
    real = polyhg._propagate

    def scaled(hg, ms, f1s, n_max):
        f = real(hg, ms, f1s, n_max)
        return f * np.array([scale(f1) for f1 in f1s])[:, None]
    for module in ("suites", "polyhg"):
        monkeypatch.setattr(f"hypersine.{module}._propagate", scaled)


def test_reconstruct_row_fails_a_perturbed_draw_at_its_lam_f1_and_degree(
        monkeypatch):
    n_max, draws = 6, _polyone_draws(3)
    bad = [d[3][1] for d in draws]   # the fourth draw of each recurrence
    exact = {rec.name: [polyhg.reconstruct_sine(rec, *d, n_max).values
                        for d in ds] for rec, ds in zip(
        (polyhg.chebyshev_recurrence(), polyhg.legendre_recurrence()), draws)}
    _scaled_propagation(monkeypatch, lambda f1: 1 + 1e-6 * (f1 in bad))
    rows = {c.name: c for c in run_suite(
        "polyone", SuiteConfig(seed=3, n_max=n_max, lambdas=(0.3,))).checks}
    for (name, values), ds in zip(exact.items(), draws):
        row = rows[f"polyone:{name}:reconstruct"]
        assert not row.passed and (row.tol, row.rule) == (1e-9, "rel")
        assert row.samples == 10 * (n_max + 1)
        lam, f1, n = row.witness
        # the worst value is the perturbed draw's largest, which
        # reconstruct_sine(rec, lam, f1, n_max) reproduces unperturbed
        assert (lam, f1) == ds[3]
        assert n == int(np.argmax(np.abs(values[3])))
        assert row.max_abs == pytest.approx(1e-6 * abs(values[3][n]),
                                            rel=1e-6)
        assert row.max_rel > 1e-9


def test_reconstruct_row_passes_exactly_when_every_draw_reconstructs(
        monkeypatch):
    # a relative error near |f1|^2 / 5 * 1e-9 puts the draws with |f1|
    # near sqrt(5) at the tolerance: some rows pass and some fail
    _scaled_propagation(monkeypatch, lambda f1: 1 + 2e-10 * abs(f1) ** 2)
    verdicts = []
    for seed in range(6):
        rows = {c.name: c.passed for c in run_suite(
            "polyone", SuiteConfig(seed=seed, n_max=8, lambdas=(0.3,))).checks}
        for rec, draws in zip((polyhg.chebyshev_recurrence(),
                               polyhg.legendre_recurrence()),
                              _polyone_draws(seed)):
            verdicts.append(all(map(_reconstructs, [rec] * 10, draws)))
            assert rows[f"polyone:{rec.name}:reconstruct"] == verdicts[-1]
    assert set(verdicts) == {True, False}


def _reconstructs(rec, draw):
    try:
        polyhg.reconstruct_sine(rec, *draw, 8, rtol=1e-9)
    except TheoremViolationError:
        return False
    return True


def test_su2_propagation_rows_keep_their_values():
    # each lambda's propagation solves its own recurrence, summed as a lone
    # 1-D dot product; a product over several draws at once (row @ F) sums
    # in another order and moves these values
    want = {
        "su2:propagation:lam=0.3": (9.599853366654507e-10,
                                    1.1903050412435208e-15),
        "su2:propagation:lam=0.5+0.2j": (1.0990553447357282e-06,
                                         1.7077106535870844e-15),
        "su2:propagation:lam=1": (28.844410203711913, 9.603235365285722e-16),
    }
    got = {c.name: (c.max_abs, c.max_rel, c.witness, c.samples)
           for c in run_suite("su2", SuiteConfig(seed=4)).checks
           if c.name.startswith("su2:propagation")}
    assert got == {name: (*vals, 40, 41) for name, vals in want.items()}


@pytest.mark.parametrize("name", list(_FAMILIES))
def test_each_table_family_satisfies_its_equations(name):
    # at the default lambda, on the pairs of the default tabulate elements
    fam = _FAMILIES[name]()
    lam = fam.lams[0] if len(fam.lams) == 1 else fam.lams
    f, m = fam.pair(1.5, lam, 2 * fam.n_max)
    xs = list(fam.elements(fam.n_max))
    assert max(abs(f(x)) for x in xs) > 0.1   # not the zero function
    rows = _judge(_equations(fam.hg, [(x, y) for x in xs for y in xs], name,
                             "", f, m, 1e-9, 1e-9))
    assert [row.name for row in rows] == [f"{name}:exp", f"{name}:sine"]
    assert all(row.passed and row.max_rel <= 1e-9 for row in rows), rows


@pytest.mark.parametrize("alpha, beta, negative", [
    (1, 0, None), (2, 0.5, None), (0.5, -0.5, None), (3, 1, None),
    (0.3, 0.2, None), (-0.2, 0.3, "-0.304878 at (1, 1)"),
    (0, 0.5, "-0.222222 at (1, 1)"), (-0.7, -0.8, "-0.574359 at (2, 2)")])
def test_polyone_on_jacobi_recurrences_follows_gaspers_region(
        alpha, beta, negative, tmp_path):
    # b_n != 0: every degree in |n - k|..n + k of P_n P_k carries a weight.
    # Inside Gasper's region every row passes; outside it the suite names
    # the first negative weight
    assert in_gasper_region(alpha, beta) == (negative is None)
    spec = jacobi_spec(alpha, beta, 64, f"jacobi({alpha}, {beta})")
    assert spec["b"][0] != 0   # (beta - alpha) / (alpha + beta + 2)
    path = tmp_path / "jacobi.json"
    path.write_text(json.dumps(spec))
    cfg = SuiteConfig(rec_file=str(path), n_max=16)
    if negative is None:
        rep = run_suite("polyone", cfg)
        assert len(rep.checks) == 12 and rep.passed, rep.checks
    else:
        with pytest.raises(NotHypergroupError, match=re.escape(
                f"negative linearization coefficient {negative}")):
            run_suite("polyone", cfg)


def test_row_names_tell_close_parameters_apart_and_read_back():
    lams = (0.1234567, 0.1234568, 0.3 + 1j / 3)
    names = [c.name for c in run_suite("polyone", SuiteConfig(
        n_max=4, lambdas=lams)).checks if c.name.startswith(
            "polyone:chebyshev:exp:")]
    assert [complex(n.split("lam=")[1]) for n in names] == list(lams)
    thetas = (0.1234567, 0.1234568)
    tags = {c.name.split(":")[1] for c in run_suite(
        "compact", SuiteConfig(thetas=thetas)).checks
        if c.name.startswith("compact:theta=")}
    assert sorted(float(t.split("=")[1]) for t in tags) == list(thetas)
    names = {c.name for c in run_suite("sturm", SuiteConfig(
        alpha=1 / 3, lambdas=(1.0,), x_max=0.5, h=1e-2)).checks}
    assert "sturm:power(alpha=0.3333333333333333):phi:lam=1" in names
    # the default names keep the short g format
    assert "polyone:chebyshev:exp:lam=0.5+0.5j" in {
        c.name for c in run_suite("polyone", SuiteConfig(n_max=2)).checks}


def test_judge_keeps_claim_order_and_checks_each_pair_set_once(monkeypatch):
    from hypersine import suites
    calls, real = [], suites._errors

    def counting(hg, equations, pairs):
        calls.append((len(equations), len(pairs)))
        return real(hg, equations, pairs)
    monkeypatch.setattr(suites, "_errors", counting)
    hg = two_point_hypergroup(0.5)
    f, m = TabulatedFunction([0.0, 1.0]), TabulatedFunction([1.0, -0.5])
    pairs, diagonal = hg.all_pairs(), [(0, 0), (1, 1)]
    # equation claims on two pair sets, interleaved with reports as in su2
    claims = [("a", 1e-12, "rel", _Eq(hg, pairs, None, m)),
              ("b", 0.0, "abs", _fact(True)),
              ("c", 1e-12, "abs", _Eq(hg, diagonal, None, m)),
              ("d", 0.5, "above", _Eq(hg, pairs, f, m)),
              ("e", 0.5, "above", ResidualReport(1.0, 1.0, "w", 3))]
    rows = _judge(iter(claims))
    assert calls == [(2, len(pairs)), (1, 2)]
    assert rows == [
        _row("a", exp_residual(hg, m, pairs), 1e-12, "rel"),
        _row("b", _fact(True), 0.0, "abs"),
        _row("c", exp_residual(hg, m, diagonal), 1e-12, "abs"),
        _row("d", sine_residual(hg, f, m, pairs), 0.5, "above"),
        _row("e", ResidualReport(1.0, 1.0, "w", 3), 0.5, "above")]
    assert [r.passed for r in rows] == [True, True, True, True, True]


def test_su2_rows_interleave_propagation_with_the_equation_batch():
    lams = (0.3, 1.0)
    names = [c.name for c in run_suite("su2", SuiteConfig(
        n_max=4, lambdas=lams)).checks]
    assert names == ["su2:weight-sums"] + [
        f"su2:{kind}:lam={lam:g}" for lam in lams
        for kind in ("exp", "sine", "propagation")] + ["su2:additive"]
