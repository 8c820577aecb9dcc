"""Acceptance suite: one test per certification criterion.

Each test prints a single pass/fail line (visible with pytest -s) and
asserts the stated tolerance.  Tolerances and parameter grids are fixed
here on purpose; loosening them is not an option.
"""

import cmath
import json
import math
import time

import numpy as np

from hypersine import coset, su2
from hypersine.core import (TabulatedFunction, _errors,
                            compact_vanishing_check,
                            exp_residual, exponentials, power_identity_check,
                            s3_conjugacy_hypergroup, sine_residual,
                            sine_space, two_point_hypergroup)
from hypersine.multipoly import ProductPolyHypergroup
from hypersine.polyhg import (PolynomialHypergroup, chebyshev_recurrence,
                              exp_fn, legendre_recurrence, reconstruct_sine,
                              sine_fn)
from hypersine.sturm import (constant_family, cosh_hypergroup_check,
                             dlambda_phi, power_family, solve_phi, solve_sine)
from hypersine.suites import SuiteConfig, dual_vs_fd_report, run_suite

LAMBDAS_POLY = (0.3, 0.7, 1.0, 1.5, 0.5 + 0.5j)
THETAS = (0.1, 0.25, 0.5, 0.9)


def _report(criterion, ok, detail):
    line = f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_polynomial_sine_sufficiency():
    t0 = time.perf_counter()
    worst = 0.0
    pairs = [(n, k) for n in range(65) for k in range(65)]
    for rec in (chebyshev_recurrence(), legendre_recurrence()):
        # one reduction of the 65 x 65 block serves all five lambdas
        equations = [(sine_fn(rec, 1.0, lam, n_max=130),
                      exp_fn(rec, lam, n_max=130)) for lam in LAMBDAS_POLY]
        rels = [rel.max() for _, rel in
                _errors(PolynomialHypergroup(rec), equations, pairs)]
        worst = float(np.max([worst] + rels))   # a NaN stays and fails
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-9 and elapsed < 5.0,
            f"sine residual {worst:.3e} (tol 1e-9), {elapsed:.2f}s (< 5s)")


def test_criterion_2_polynomial_sine_necessity():
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for rec in (chebyshev_recurrence(), legendre_recurrence()):
        a0 = float(rec.a(0))
        for _ in range(10):
            lam = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.4, 0.4))
            f1 = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            f = reconstruct_sine(rec, lam, f1, 64, rtol=1e-9)
            want = f1 * a0 * sine_fn(rec, 1.0, lam, 64).values
            got = np.array([f(n) for n in range(65)])
            rel = np.abs(got - want) / (1.0 + np.abs(want))
            worst = max(worst, float(rel.max()))
    _report(2, worst <= 1e-9,
            f"20 reconstruction draws, worst deviation {worst:.3e} (tol 1e-9)")


def test_criterion_3_two_point_sine_spaces_trivial():
    worst = 0.0
    dims = []
    for theta in THETAS:
        hg = two_point_hypergroup(theta)
        rep = exp_residual(hg, TabulatedFunction([1.0, -theta]),
                           hg.all_pairs())
        worst = max(worst, rep.max_abs)
        for m in ([1.0, 1.0], [1.0, -theta]):
            dims.append(len(sine_space(hg, m)))
    eps_bound = 4 * np.finfo(float).eps
    _report(3, all(d == 0 for d in dims) and worst <= eps_bound,
            f"dimensions {dims}, exp residual {worst:.2e} "
            f"(exact up to {eps_bound:.2e})")


def test_criterion_4_compact_power_identity_and_vanishing():
    worst = 0.0
    for theta in THETAS:
        hg = two_point_hypergroup(theta)
        zero = TabulatedFunction([0.0, 0.0])
        m1 = TabulatedFunction([1.0, -theta])
        rep = power_identity_check(hg, zero, m1, 0, 1, 8)
        worst = max(worst, rep.max_abs)
    rec = chebyshev_recurrence()
    lam = 0.9
    hg = PolynomialHypergroup(rec)
    rep = power_identity_check(hg, sine_fn(rec, 1.0, lam, n_max=64),
                               exp_fn(rec, lam, n_max=64), 1, 2, 8)
    worst = max(worst, rep.max_abs)
    vanish = []
    for theta in THETAS:
        fin = two_point_hypergroup(theta)
        for m in exponentials(fin):
            basis = sine_space(fin, m)
            vanish.append(compact_vanishing_check(
                fin, TabulatedFunction(list(m)), basis))
    s3 = s3_conjugacy_hypergroup()
    for m in exponentials(s3):
        basis = sine_space(s3, m)
        vanish.append(compact_vanishing_check(
            s3, TabulatedFunction(list(m)), basis))
    _report(4, worst <= 1e-10 and all(vanish),
            f"power identity residual {worst:.3e} (tol 1e-10), "
            f"vanishing checks {len(vanish)}/{len(vanish)}")


def test_criterion_5_su2():
    hg = su2.Su2Hypergroup()
    mu = hg.convolve(1, 1)
    unit_ok = mu.weight(0) == 0.25 and mu.weight(2) == 0.75 and len(mu) == 2
    weight_worst = 0.0
    for k in range(101):
        for n in range(k, 101):
            weight_worst = max(weight_worst,
                               abs(sum(hg.convolve(k, n).weights) - 1.0))
    pairs = [(n, k) for n in range(41) for k in range(41)]
    sine_worst = 0.0
    prop_worst = 0.0
    for lam in (0.3, 0.5 + 0.2j, 1.0):
        m = su2.phi_fn(82, lam)
        f = su2.sine_fn(82, lam)
        sine_worst = max(sine_worst, sine_residual(hg, f, m, pairs).max_rel)
        prop = su2.propagate_sine(lam, 1.75, 40)
        want = (1.75 / cmath.sinh(complex(lam))) * su2.dphi(np.arange(41), lam)
        rel = np.abs(prop - want) / (1.0 + np.abs(want))
        prop_worst = max(prop_worst, float(rel.max()))
    add_rep = sine_residual(hg, su2.additive_fn(1.0), lambda n: 1.0, pairs)
    ok = (unit_ok and weight_worst <= 1e-12 and sine_worst <= 1e-9
          and add_rep.max_abs <= 1e-10 and prop_worst <= 1e-8)
    _report(5, ok,
            f"unit square exact={unit_ok}, weights {weight_worst:.2e} "
            f"(1e-12), sine {sine_worst:.2e} (1e-9), additive "
            f"{add_rep.max_abs:.2e} (1e-10), propagation {prop_worst:.2e} "
            f"(1e-8)")


def test_criterion_6_product_sines():
    rng = np.random.default_rng(42)
    worst = 0.0
    fit_worst = 0.0
    d2 = ProductPolyHypergroup([chebyshev_recurrence(),
                                legendre_recurrence()])
    lam2, c2 = (0.6, 0.8), (1.5, -2.0)
    m2, f2 = d2.exp_fn(lam2), d2.multi_sine(c2, lam2)
    ys = [(1, 0), (0, 1), (2, 3), (5, 7)]
    for i in range(13):
        for j in range(13):
            for y in ys:
                rep = sine_residual(d2, f2, m2, [((i, j), y)])
                worst = max(worst, rep.max_rel)
    got = d2.fit_coefficients(f2, lam2, n_max=6)
    fit_worst = max(fit_worst,
                    float(np.abs(got - np.array(c2, dtype=complex)).max()))
    d3 = ProductPolyHypergroup([chebyshev_recurrence(), chebyshev_recurrence(),
                                legendre_recurrence()])
    lam3, c3 = (0.6, 1.1, 0.8), (1.0, 0.5, -0.75)
    m3, f3 = d3.exp_fn(lam3), d3.multi_sine(c3, lam3)
    pairs3 = [(tuple(int(v) for v in rng.integers(0, 13, size=3)),
               tuple(int(v) for v in rng.integers(0, 13, size=3)))
              for _ in range(300)]
    rep = sine_residual(d3, f3, m3, pairs3)
    worst = max(worst, rep.max_rel)
    got = d3.fit_coefficients(f3, lam3, n_max=5)
    fit_worst = max(fit_worst,
                    float(np.abs(got - np.array(c3, dtype=complex)).max()))
    _report(6, worst <= 1e-9 and fit_worst <= 1e-9,
            f"d=2,3 sine residual {worst:.3e} (1e-9), fit round-trip "
            f"{fit_worst:.3e} (1e-9)")


def test_criterion_7_sturm_liouville():
    t0 = time.perf_counter()
    const = constant_family()
    phi_worst = 0.0
    for lam in (0.5, 1.0, 2.0, 1.0 + 0.5j):
        sol = solve_phi(const, lam, x_max=5.0, h=1e-3)
        ref = np.cosh(cmath.sqrt(complex(lam)) * sol.grid)
        phi_worst = max(phi_worst, float(np.abs(sol.values - ref).max()))
    sol = solve_phi(power_family(0.5), 1.0, x_max=5.0, h=1e-3)
    ref = np.ones_like(sol.values)
    ref[1:] = np.sinh(sol.grid[1:]) / sol.grid[1:]
    phi_worst = max(phi_worst, float(np.abs(sol.values - ref).max()))
    d = dlambda_phi(const, 1.0, x_max=5.0, h=1e-3)
    ref = d.grid * np.sinh(d.grid) / 2.0
    d_worst = float(np.abs(d.values - ref).max())
    d = dlambda_phi(power_family(0.5), 1.0, x_max=5.0, h=1e-3)
    x = d.grid[1:]
    ref = (x * np.cosh(x) - np.sinh(x)) / (2.0 * x)
    d_worst = max(d_worst, float(np.abs(d.values[1:] - ref).max()),
                  abs(d.values[0]))
    hom = solve_sine(const, 1.0, 0.0, x_max=5.0, h=1e-3)
    hom_worst = float(np.abs(hom.values).max())
    pts = [(0.3, 1.1), (2.0, 2.0), (0.7, 2.4), (1.5, 0.2)]
    cosh_worst = max(cosh_hypergroup_check(lam, pts).max_abs
                     for lam in (0.8, 1.5))
    elapsed = time.perf_counter() - t0
    ok = (phi_worst <= 1e-6 and d_worst <= 1e-5 and hom_worst <= 1e-10
          and cosh_worst <= 1e-10 and elapsed < 10.0)
    _report(7, ok,
            f"phi vs closed forms {phi_worst:.2e} (1e-6), derivative vs "
            f"closed forms {d_worst:.2e} (1e-5), homogeneous {hom_worst:.2e} "
            f"(1e-10), pairing {cosh_worst:.2e} (1e-10), {elapsed:.2f}s "
            f"(< 10s)")


def test_criterion_8_double_cosets():
    rng = np.random.default_rng(8)
    n = 1000
    xs = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=n))
    us = rng.uniform(-10.0, 10.0, size=n)
    ys = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=n))
    vs = rng.uniform(-10.0, 10.0, size=n)
    hg = coset.CosetHypergroup()
    pairs = [((x, abs(u)), (y, abs(v)))
             for x, u, y, v in zip(xs, us, ys, vs)]
    exp_worst = 0.0
    sine_worst = 0.0
    for lam in (0.0, 1.0, 2.0, 0.5 + 0.5j):
        exp_worst = max(exp_worst, exp_residual(
            hg, coset.coset_exponential(lam), pairs).max_rel)
        sine_worst = max(sine_worst, sine_residual(
            hg, coset.coset_sine(1.0, lam), coset.coset_exponential(lam),
            pairs).max_rel)
    rep = coset.falsify_dalembert_alpha(0.0, 1.0, [(2.0, 1.0, 1.0, 1.0)])
    independent = abs(math.cosh(3.0) + math.cosh(1.0)
                      - 2.0 * math.cosh(1.0) ** 2)
    falsify_ok = abs(rep.max_abs - independent) <= 1e-6
    exact_ok = True
    dyadics = [0.5, -2.0, 4.0, -0.25, 1.0, 8.0]
    for i, x in enumerate(dyadics):
        p = (x, float(i))
        q = (dyadics[(i + 1) % 6], float(2 * i))
        r = (dyadics[(i + 2) % 6], -1.5 * i)
        if coset.group_mul(coset.group_mul(p, q), r) != coset.group_mul(
                p, coset.group_mul(q, r)):
            exact_ok = False
        if coset.conjugate_by(p, (-1.0, 0.0)) != (-1.0, 2.0 * p[1]):
            exact_ok = False
    ok = (exp_worst <= 1e-12 and sine_worst <= 1e-10 and falsify_ok
          and exact_ok)
    _report(8, ok,
            f"exp {exp_worst:.2e} (1e-12), sine {sine_worst:.2e} (1e-10), "
            f"falsification residual {rep.max_abs:.7f} vs independent "
            f"{independent:.7f}, exact group identities={exact_ok}")


def test_criterion_9_cross_cutting():
    rep = dual_vs_fd_report(h=1e-5)
    t0 = time.perf_counter()
    a = run_suite("all", SuiteConfig(seed=11)).to_json()
    elapsed = time.perf_counter() - t0
    b = run_suite("all", SuiteConfig(seed=11)).to_json()
    da, db = json.loads(a), json.loads(b)
    da.pop("wall_time")
    db.pop("wall_time")
    deterministic = (json.dumps(da, sort_keys=True)
                     == json.dumps(db, sort_keys=True))
    passed = da["pass"] is True
    ok = (rep.max_rel <= 1e-6 and deterministic and passed
          and elapsed < 60.0)
    _report(9, ok,
            f"dual vs finite differences {rep.max_rel:.2e} (1e-6), "
            f"verify-all deterministic={deterministic}, pass={passed}, "
            f"{elapsed:.1f}s (< 60s)")
