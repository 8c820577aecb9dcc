"""Named verification suites and deterministic report serialization.

Each suite runs a fixed list of checks at pinned tolerances and returns a
SuiteReport.  Every row is built by ``_row`` from a core.ResidualReport, a
tolerance and a pass rule: ``abs``, ``rel`` or the refutation ``above``.
Serialized reports contain one row per check with the columns (suite,
max_abs, max_rel, witness, samples, pass), without the tolerance and rule;
given the same configuration and seed the JSON output is byte identical
apart from the wall_time field.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import coset, su2
from .core import (ResidualReport, TabulatedFunction, _residual, _scan,
                   compact_vanishing_check, exp_residual, exponentials,
                   integrate, power_identity_check, s3_conjugacy_hypergroup,
                   sine_residual, sine_space, two_point_hypergroup)
from .dual import central_difference
from .multipoly import ProductPolyHypergroup
from .polyhg import (PolynomialHypergroup, TheoremViolationError,
                     chebyshev_recurrence, eval_P, eval_P_with_derivative,
                     exp_fn, exp_values, legendre_recurrence, reconstruct_sine,
                     recurrence_from_file, sine_fn, sine_values)
from . import sturm as sturm_mod

SUITE_NAMES = ("compact", "polyone", "su2", "sinsev", "sturm", "coset")


@dataclass
class SuiteConfig:
    seed: int = 0
    tol: float = 1e-9            # probability-weight verification tolerance
    lambdas: tuple = ()          # per-suite defaults when empty
    n_max: int = 0               # per-suite default when 0
    x_max: float = 5.0
    h: float = 1e-3
    thetas: tuple = (0.1, 0.25, 0.5, 0.9)
    alpha: float = 0.5
    samples: int = 1000
    rec_file: str = ""

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.samples < 1:
            raise ValueError(f"sample count must be >= 1, got {self.samples}")
        if self.h <= 0 or self.x_max <= 0:
            raise ValueError("x_max and h must be positive")


@dataclass
class CheckResult:
    name: str
    max_abs: float
    max_rel: float
    witness: object
    samples: int
    passed: bool
    tol: float       # applied by _row; not serialized
    rule: str        # "abs", "rel" or "above"; not serialized

    def row(self):
        return {
            "suite": self.name,
            "max_abs": float(self.max_abs),
            "max_rel": float(self.max_rel),
            "witness": jsonable(self.witness),
            "samples": int(self.samples),
            "pass": bool(self.passed),
        }


@dataclass
class SuiteReport:
    suite: str
    checks: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        doc = {
            "suite": self.suite,
            "pass": self.passed,
            "wall_time": self.wall_time,
            "checks": [c.row() for c in self.checks],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "max_abs", "max_rel", "witness",
                         "samples", "pass"])
        for c in self.checks:
            row = c.row()
            writer.writerow([
                row["suite"], repr(row["max_abs"]), repr(row["max_rel"]),
                json.dumps(row["witness"], sort_keys=True), row["samples"],
                row["pass"],
            ])
        return buf.getvalue()


def jsonable(obj):
    """Witnesses contain ints, floats, complex numbers, and tuples; map them
    to JSON-stable values."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return repr(complex(obj))
    if isinstance(obj, (tuple, list)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return repr(obj)


def _fmt_lam(lam):
    lam = complex(lam)
    if lam.imag == 0:
        return f"{lam.real:g}"
    return f"{lam.real:g}{lam.imag:+g}j"


def _row(name, report, tol, rule):
    """The row ``name`` for ``report`` judged by ``rule`` at ``tol``: ``abs``
    and ``rel`` pass when max_abs or max_rel <= tol (ResidualReport.within);
    ``above`` (a refutation) passes when max_abs is finite and > tol.  A
    yes/no fact (``_fact``) is judged ``abs`` at tol 0."""
    if rule == "above":
        ok = math.isfinite(report.max_abs) and report.max_abs > tol
    else:
        ok = report.within(tol, relative={"abs": False, "rel": True}[rule])
    return CheckResult(name, report.max_abs, report.max_rel, report.witness,
                       report.samples, bool(ok), tol, rule)


def _fact(ok, samples=1, witness=None):
    """A yes/no fact as a report: 0.0 when it holds, 1.0 when not."""
    return ResidualReport(0.0 if ok else 1.0, 0.0 if ok else 1.0, witness,
                          samples)


def _equation_checks(head, tail, hg, f, m, pairs, exp_tol, sine_tol):
    """Relative residual rows head:exp<tail> and head:sine<tail>."""
    return [_row(f"{head}:exp{tail}", exp_residual(hg, m, pairs), exp_tol,
                 "rel"),
            _row(f"{head}:sine{tail}", sine_residual(hg, f, m, pairs),
                 sine_tol, "rel")]


def _sine_space_checks(tag, label, hg, m, tol):
    """tag:sine-dim-label (the m-sine space is trivial), tag:vanishing-label."""
    basis = sine_space(hg, m, exp_tol=tol)
    vanishes = compact_vanishing_check(hg, TabulatedFunction(m), basis)
    return [_row(f"{tag}:sine-dim-{label}",
                 _fact(len(basis) == 0, hg.size ** 2, len(basis)), 0.0, "abs"),
            _row(f"{tag}:vanishing-{label}", _fact(vanishes, hg.size), 0.0,
                 "abs")]


def _pairs_grid(n_max):
    return [(n, k) for n in range(n_max + 1) for k in range(n_max + 1)]


# ---------------------------------------------------------------- compact

def run_compact(cfg):
    checks = []
    for theta in cfg.thetas:
        tag = f"compact:theta={theta:g}"
        hg = two_point_hypergroup(theta)
        m1 = TabulatedFunction([1.0, -theta])
        rep = exp_residual(hg, m1, hg.all_pairs())
        checks.append(_row(f"{tag}:exp", rep, 4 * np.finfo(float).eps, "abs"))
        for label, m in (("m0", [1.0, 1.0]), ("m1", [1.0, -theta])):
            checks += _sine_space_checks(tag, label, hg, m, cfg.tol)
        # f = [0, 1] is no m1-sine: at n = 2 the residual is 1 + theta
        rep = power_identity_check(hg, TabulatedFunction([0.0, 1.0]), m1, 0,
                                   1, 8)
        checks.append(_row(f"{tag}:power-refutation", rep, 0.5, "above"))
    rec = chebyshev_recurrence()
    ph = PolynomialHypergroup(rec)
    lam = 0.9
    f = sine_fn(rec, 1.0, lam, n_max=64)
    m = exp_fn(rec, lam, n_max=64)
    rep = power_identity_check(ph, f, m, 1, 2, 8)
    checks.append(_row("compact:chebyshev:power-identity", rep, 1e-10, "abs"))
    s3 = s3_conjugacy_hypergroup()
    exps = exponentials(s3, tol=cfg.tol)
    checks.append(_row("compact:s3:exponential-count",
                       _fact(len(exps) == 3, s3.size ** 2, len(exps)), 0.0,
                       "abs"))
    for i, m in enumerate(exps):
        checks += _sine_space_checks("compact:s3", f"m{i}", s3, m, cfg.tol)
    return checks


# ---------------------------------------------------------------- polyone

def _polyone_recs(cfg):
    if cfg.rec_file:
        return [recurrence_from_file(cfg.rec_file)]
    return [chebyshev_recurrence(), legendre_recurrence()]


def run_polyone(cfg):
    checks = []
    lambdas = cfg.lambdas or (0.3, 0.7, 1.0, 1.5, 0.5 + 0.5j)
    n_max = cfg.n_max or 64
    rng = np.random.default_rng(cfg.seed)
    pairs = _pairs_grid(n_max)
    for rec in _polyone_recs(cfg):
        name = rec.name or "custom"
        ph = PolynomialHypergroup(rec)
        ph.build_table(n_max)
        for lam in lambdas:
            m = exp_fn(rec, lam, n_max=2 * n_max)
            f = sine_fn(rec, 1.0, lam, n_max=2 * n_max)
            checks += _equation_checks(f"polyone:{name}",
                                       f":lam={_fmt_lam(lam)}", ph, f, m,
                                       pairs, 1e-9, 1e-9)
        ok, worst, draws = True, None, 10
        for _ in range(draws):
            lam = complex(rng.uniform(-1.25, 1.25), rng.uniform(-0.5, 0.5))
            f1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                reconstruct_sine(rec, lam, f1, n_max, rtol=1e-9)
            except TheoremViolationError as exc:
                ok, worst = False, str(exc)
        checks.append(_row(f"polyone:{name}:reconstruct",
                           _fact(ok, draws, worst), 0.0, "abs"))
        sines = sine_values(rec, 5, 0.3)
        prods = sine_values(rec, 5, 1.0) * exp_values(rec, 5, 0.3)
        sv = np.linalg.svd(np.column_stack([sines, prods]),
                           compute_uv=False)
        ratio = float(sv[1] / sv[0])
        checks.append(_row(f"polyone:{name}:derivative-not-multiplicative",
                           ResidualReport(ratio, ratio, None, 6), 1e-6,
                           "above"))
    return checks


# ---------------------------------------------------------------- su2

def run_su2(cfg):
    checks = []
    lambdas = cfg.lambdas or (0.3, 0.5 + 0.2j, 1.0)
    n_max = cfg.n_max or 40
    hg = su2.Su2Hypergroup()
    upper = [(k, n) for k in range(101) for n in range(k, 101)]
    # one batch per k keeps the padding small (a row has k + 1 weights);
    # sum() over the columns adds left to right, as over one measure
    sums = np.concatenate([sum(hg.convolve_many(
        np.full(101 - k, k), np.arange(k, 101))[1].T) for k in range(101)])
    checks.append(_row("su2:weight-sums", _scan(*_residual(sums - 1.0, []),
                                                upper), 1e-12, "abs"))
    mu = hg.convolve(1, 1)
    ok = mu.weight(0) == 0.25 and mu.weight(2) == 0.75 and len(mu) == 2
    checks.append(_row("su2:unit-square", _fact(ok, witness=mu.items()), 0.0,
                       "abs"))
    pairs = _pairs_grid(n_max)
    rng = np.random.default_rng(cfg.seed)
    for lam in lambdas:
        m = su2.phi_fn(2 * n_max, lam)
        f = su2.sine_fn(2 * n_max, lam)
        checks += _equation_checks("su2", f":lam={_fmt_lam(lam)}", hg, f, m,
                                   pairs, 1e-9, 1e-9)
        rep = su2.recurrence_residual(f, m, n_max)
        checks.append(_row(f"su2:recurrence:lam={_fmt_lam(lam)}", rep, 1e-9,
                           "rel"))
        f1 = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        prop = su2.propagate_sine(lam, f1, n_max)
        # f(1) = dphi(1, lam) = sinh lam, except at lam = i k pi (su2.sine_fn)
        sinh = cmath.sinh(complex(lam))
        f_at_1 = sinh if abs(sinh) >= su2.SMALL_SINH_TOL else f(1)
        want = (f1 / f_at_1) * f.values[:n_max + 1]
        rep = _scan(*_residual(prop, [want]), range(n_max + 1))
        checks.append(_row(f"su2:propagation:lam={_fmt_lam(lam)}", rep, 1e-8,
                           "rel"))
    f_add = su2.additive_fn(1.0)
    rep = sine_residual(hg, f_add, lambda n: 1.0, pairs)
    checks.append(_row("su2:additive", rep, 1e-10, "abs"))
    return checks


# ---------------------------------------------------------------- sinsev

def _product_cases(cfg):
    cheb, leg = chebyshev_recurrence(), legendre_recurrence()
    return [
        ("d=2", ProductPolyHypergroup([cheb, leg]), (0.6, 0.8), (1.5, -2.0)),
        ("d=3", ProductPolyHypergroup([cheb, cheb, leg]), (0.6, 1.1, 0.8),
         (1.0, 0.5, -0.75)),
    ]


def run_sinsev(cfg):
    checks = []
    rng = np.random.default_rng(cfg.seed)
    n_pairs = min(cfg.samples, 200)
    for tag, hg, lam, coeff in _product_cases(cfg):
        d = hg.dimension
        pairs = [
            (tuple(int(v) for v in rng.integers(0, 13, size=d)),
             tuple(int(v) for v in rng.integers(0, 13, size=d)))
            for _ in range(n_pairs)]
        m = hg.exp_fn(lam)
        f = hg.multi_sine(coeff, lam)
        checks += _equation_checks(f"sinsev:{tag}", "", hg, f, m, pairs,
                                   1e-9, 1e-9)
        try:
            got = hg.fit_coefficients(f, lam, n_max=6, rtol=1e-9)
            rep = _scan(*_residual(got, [np.asarray(coeff, dtype=complex)]),
                        range(d))
        except TheoremViolationError:
            rep = ResidualReport(math.inf, math.inf, None, d)
        checks.append(_row(f"sinsev:{tag}:fit-roundtrip", rep, 1e-9, "abs"))
    return checks


# ---------------------------------------------------------------- sturm

def _closed_form(values, ref, grid):
    """Report of a solution against its closed form ref on the grid; the
    witness is the grid point x of the largest absolute error."""
    return _scan(*_residual(values, [ref]), grid.tolist())


def run_sturm(cfg):
    checks = []
    lambdas = cfg.lambdas or (0.5, 1.0, 2.0, 1.0 + 0.5j)
    x_max, h = cfg.x_max, cfg.h
    const = sturm_mod.constant_family()
    power = sturm_mod.power_family(cfg.alpha)
    power_tag = f"power(alpha={cfg.alpha:g})"
    res_bound = 10.0 * h * h
    residuals = []
    for lam in lambdas:
        ssol = sturm_mod.solve_sine(const, lam, 1.0, x_max=x_max, h=h)
        grid, phi = ssol.grid, ssol.forcing
        checks.append(_row(f"sturm:const:phi:lam={_fmt_lam(lam)}",
                           _closed_form(phi, sturm_mod.line_phi(grid, lam),
                                        grid), 1e-6, "abs"))
        checks.append(_row(
            f"sturm:const:sine-closed-form:lam={_fmt_lam(lam)}",
            _closed_form(ssol.values, sturm_mod.line_dphi(grid, lam), grid),
            1e-5, "abs"))
        residuals += [sturm_mod.ode_residual(grid, phi, const.ratio, lam),
                      ssol.ode_residual]
    lam = 1.0
    sol = sturm_mod.solve_phi(sturm_mod.power_family(0.5), lam,
                              x_max=x_max, h=h)
    ref = np.ones_like(sol.values)
    ref[1:] = np.sinh(sol.grid[1:]) / sol.grid[1:]
    checks.append(_row("sturm:power-half:phi:lam=1",
                       _closed_form(sol.values, ref, sol.grid), 1e-6, "abs"))
    # d/dlam phi_alpha = x^2 / (4 (alpha + 1)) phi_(alpha + 1)
    ssol = sturm_mod.solve_sine(power, lam, 1.0, x_max=x_max, h=h)
    up = sturm_mod.solve_phi(sturm_mod.power_family(cfg.alpha + 1.0), lam,
                             x_max=x_max, h=h)
    ref = up.grid ** 2 / (4.0 * (cfg.alpha + 1.0)) * up.values
    checks.append(_row(f"sturm:{power_tag}:sine-vs-phi(alpha+1):lam=1",
                       _closed_form(ssol.values, ref, ssol.grid), 1e-5, "abs"))
    residuals += [sol.ode_residual, ssol.ode_residual, up.ode_residual]
    for fam, tag in ((const, "const"), (power, power_tag)):
        sol = sturm_mod.solve_sine(fam, 1.0, 0.0, x_max=x_max, h=h)
        checks.append(_row(f"sturm:{tag}:homogeneous-zero",
                           _closed_form(sol.values, 0.0, sol.grid), 1e-10,
                           "abs"))
    worst_res = max(residuals)
    rep = ResidualReport(worst_res, worst_res / res_bound, None, len(residuals))
    checks.append(_row("sturm:ode-residual-bound", rep, res_bound, "abs"))
    rng = np.random.default_rng(cfg.seed)
    pts = rng.uniform(0.05, 2.5, size=(40, 2))
    for lam in (0.8, 1.0, 2.0):
        rep = sturm_mod.cosh_hypergroup_check(lam, [tuple(p) for p in pts])
        checks.append(_row(f"sturm:cosh-check:lam={_fmt_lam(lam)}", rep,
                           1e-10, "abs"))
    return checks


# ---------------------------------------------------------------- coset

def _coset_samples(rng, count):
    xs = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=count))
    us = rng.uniform(-10.0, 10.0, size=count)
    return xs, us


def run_coset(cfg):
    checks = []
    lambdas = cfg.lambdas or (0.0, 1.0, 2.0, 0.5 + 0.5j)
    rng = np.random.default_rng(cfg.seed)
    count = cfg.samples
    xs, us = _coset_samples(rng, count)
    ys, vs = _coset_samples(rng, count)
    hg = coset.CosetHypergroup()
    pairs = list(zip(zip(xs.tolist(), np.abs(us).tolist()),
                     zip(ys.tolist(), np.abs(vs).tolist())))
    for lam in lambdas:
        m = coset.coset_exponential(lam)
        f = coset.coset_sine(1.0, lam)
        checks += _equation_checks("coset", f":lam={_fmt_lam(lam)}", hg, f, m,
                                   pairs, 1e-12, 1e-10)
    # the closed-form value cosh 3 + cosh 1 - 2 cosh^2 1 is pinned in tests
    rep = coset.falsify_dalembert_alpha(0.0, 1.0, [(2.0, 1.0, 1.0, 1.0)])
    checks.append(_row("coset:falsify-alpha:recorded", rep, 0.1, "above"))
    quads = list(zip(xs[:200], us[:200], ys[:200], vs[:200]))
    for alpha, lam in ((1.0, 0.0), (0.5, 1.0)):
        checks.append(_row(
            f"coset:falsify-alpha={alpha:g}:lam={_fmt_lam(lam)}",
            coset.falsify_dalembert_alpha(lam, alpha, quads), 1e-3, "above"))
    checks.append(_row(
        "coset:falsify-square:recorded",
        coset.falsify_square_term(1.0, 1.0, [((2.0, 1.0), (3.0, 1.0))]), 0.5,
        "above"))
    checks.append(_row("coset:falsify-square:random",
                       coset.falsify_square_term(1.0, 0.25, pairs[:200]),
                       1e-3, "above"))
    uv = [(u, v) for u, v in zip(us[:200], vs[:200])]
    checks.append(_row("coset:square-norm", coset.square_norm_check(uv),
                       1e-12, "abs"))
    gpairs = [((x, u), (y, v))
              for x, u, y, v in zip(xs[:200], us[:200], ys[:200], vs[:200])]
    checks.append(_row("coset:group-sine",
                       coset.group_sine_check(1.0 + 1.0j, gpairs), 1e-12,
                       "rel"))
    dyadic, i = np.array([0.5, -2.0, 4.0, -0.25, 8.0, 1.0]), np.arange(6.0)
    p, q = (dyadic, i - 2), (np.roll(dyadic, -1), 2 * i)
    r = (np.roll(dyadic, -2), i)
    same = [*zip(coset.group_mul(coset.group_mul(p, q), r),
                 coset.group_mul(p, coset.group_mul(q, r))),
            *zip(coset.conjugate_by(p, (-1.0, 0.0)), (-1.0, 2.0 * p[1]))]
    checks.append(_row("coset:group-identities-exact",
                       _fact(all((a == b).all() for a, b in same),
                             len(dyadic)), 0.0, "abs"))
    p, q = (xs[:200], us[:200]), (ys[:200], vs[:200])
    r = (xs[:200] * 0.5 + 1.0, vs[:200] - us[:200])
    lhs = coset.group_mul(coset.group_mul(p, q), r)
    rhs = coset.group_mul(p, coset.group_mul(q, r))
    # per triple, the worse of the two coordinates
    errs = (np.maximum(*e) for e in _residual(np.array(lhs), [np.array(rhs)]))
    checks.append(_row("coset:associativity-float",
                       _scan(*errs, range(len(xs[:200]))), 1e-12, "rel"))
    left, right = (integrate(lambda el: el[1], hg.convolve(*pq)) for pq in
                   [((2.0, 3.0), (5.0, 7.0)), ((5.0, 7.0), (2.0, 3.0))])
    checks.append(_row("coset:non-commutative-witness",
                       _fact(abs(left - right) > 0.5, witness=(left, right)),
                       0.0, "abs"))
    return checks


_RUNNERS = {
    "compact": run_compact,
    "polyone": run_polyone,
    "su2": run_su2,
    "sinsev": run_sinsev,
    "sturm": run_sturm,
    "coset": run_coset,
}


def run_suite(name, cfg=None):
    """Run one suite (or "all") and return its SuiteReport."""
    if name != "all" and name not in _RUNNERS:
        raise ValueError(
            f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    cfg = cfg or SuiteConfig()
    t0 = time.perf_counter()
    checks = [c for s in (SUITE_NAMES if name == "all" else (name,))
              for c in _RUNNERS[s](cfg)]
    return SuiteReport(name, checks, wall_time=time.perf_counter() - t0)


# ------------------------------------------------- dual vs finite difference

def dual_fd_families(x_max=1.0, h=1e-3, alpha=0.5):
    """Built-in exponential families exposed as (name, value, deriv, points,
    lambdas) tuples, where value(x, lam) is the exponential and deriv(x, lam)
    is the artifact's lambda-derivative.  Used to cross-check derivatives
    against central differences."""
    cheb = chebyshev_recurrence()
    leg = legendre_recurrence()
    prod = ProductPolyHypergroup([cheb, leg])
    power = sturm_mod.power_family(alpha)

    return [
        (rec.name,
         lambda n, lam, rec=rec: eval_P(rec, n, lam),
         lambda n, lam, rec=rec: eval_P_with_derivative(rec, n, lam)[1],
         [3, 7], [0.6, 0.3 + 0.4j]) for rec in (cheb, leg)
    ] + [
        ("su2", su2.phi, su2.dphi, [2, 9], [0.4, 0.2 + 0.3j]),
        ("product-coordinate-0",
         lambda x, lam: prod.q_eval(x, (lam, 0.8)),
         lambda x, lam: prod.q_grad(x, (lam, 0.8))[0],
         [(2, 3), (4, 1)], [0.5, 0.7]),
        ("sturm-power",
         lambda x, lam: sturm_mod.solve_phi(
             power, lam, x_max=x, h=h).values[-1],
         lambda x, lam: sturm_mod.dlambda_phi(
             power, lam, x_max=x, h=h).values[-1],
         [1.0, 2.0], [0.6, 1.2]),
        ("coset",
         lambda p, lam: coset.coset_exponential(lam)(p),
         lambda p, lam: coset.coset_sine(1.0, lam)(p),
         [(2.0, 1.0), (0.5, 3.0)], [0.7, 1.5]),
    ]


def dual_vs_fd_report(h=1e-5):
    """Worst relative disagreement between the families' lambda-derivatives
    and central differences across all built-in families."""
    derivs, fds, witnesses = [], [], []
    for name, value, deriv, points, lambdas in dual_fd_families():
        for x in points:
            for lam in lambdas:
                derivs.append(deriv(x, lam))
                fds.append(central_difference(lambda t: value(x, t), lam, h=h))
                witnesses.append((name, x, _fmt_lam(lam)))
    return _scan(*_residual(np.array(derivs), [np.array(fds)]), witnesses)
