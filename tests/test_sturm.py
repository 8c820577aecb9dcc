import cmath
import math

import numpy as np
import pytest

from hypersine.sturm import (CoshLineHypergroup, constant_family,
                             cosh_hypergroup_check, dlambda_phi, line_dphi,
                             line_phi, power_family, solve_phi, solve_sine)


def test_constant_family_matches_cosh():
    for lam in (1.0, 2.0, 0.5 + 0.5j):
        sol = solve_phi(constant_family(), lam, x_max=2.0, h=1e-3)
        w = cmath.sqrt(complex(lam))
        ref = np.cosh(w * sol.grid)
        assert np.max(np.abs(sol.values - ref)) <= 1e-9


def test_power_half_matches_sinh_over_x():
    sol = solve_phi(power_family(0.5), 1.0, x_max=2.0, h=1e-3)
    ref = np.ones_like(sol.values)
    ref[1:] = np.sinh(sol.grid[1:]) / sol.grid[1:]
    assert np.max(np.abs(sol.values - ref)) <= 1e-12


def test_general_lambda_power_half():
    lam = 2.5
    w = math.sqrt(lam)
    sol = solve_phi(power_family(0.5), lam, x_max=1.5, h=1e-3)
    ref = np.ones_like(sol.values)
    ref[1:] = np.sinh(w * sol.grid[1:]) / (w * sol.grid[1:])
    assert np.max(np.abs(sol.values - ref)) <= 1e-10


def test_dlambda_constant_family_closed_form():
    # d/dlam cosh(sqrt(lam) x) = x sinh(sqrt(lam) x) / (2 sqrt(lam))
    for lam in (1.0, 2.0):
        sol = dlambda_phi(constant_family(), lam, x_max=2.0, h=1e-3)
        w = math.sqrt(lam)
        ref = sol.grid * np.sinh(w * sol.grid) / (2.0 * w)
        assert np.max(np.abs(sol.values - ref)) <= 1e-9


def test_dlambda_power_family_closed_form():
    # d/dlam sinh(w x)/(w x) at lam = 1 is (x cosh x - sinh x) / (2 x)
    sol = dlambda_phi(power_family(0.5), 1.0, x_max=2.0, h=1e-3)
    ref = np.zeros_like(sol.values)
    x = sol.grid[1:]
    ref[1:] = (x * np.cosh(x) - np.sinh(x)) / (2.0 * x)
    assert np.max(np.abs(sol.values - ref)) <= 1e-12


def test_dlambda_power_family_shift_identity():
    # d/dlam phi_alpha = x^2 / (4 (alpha + 1)) phi_(alpha + 1)
    for alpha in (0.0, 0.5, 1.3, 2.0):
        d = dlambda_phi(power_family(alpha), 2.0, x_max=2.0, h=1e-3)
        up = solve_phi(power_family(alpha + 1.0), 2.0, x_max=2.0, h=1e-3)
        ref = d.grid ** 2 / (4.0 * (alpha + 1.0)) * up.values
        assert np.max(np.abs(d.values - ref)) <= 1e-9


def test_solve_sine_is_linear_in_c():
    fam = power_family(0.5)
    one = solve_sine(fam, 0.7, 1.0, x_max=1.0, h=1e-3)
    two = solve_sine(fam, 0.7, 2.0, x_max=1.0, h=1e-3)
    assert np.max(np.abs(two.values - 2.0 * one.values)) <= 1e-12


def test_homogeneous_solution_stays_zero():
    sol = solve_sine(constant_family(), 1.0, 0.0, x_max=2.0, h=1e-3)
    assert np.max(np.abs(sol.values)) == 0.0


def test_ode_residual_is_within_grid_bound():
    h = 1e-3
    for fam in (constant_family(), power_family(0.5)):
        sol = solve_sine(fam, 1.0, 1.0, x_max=3.0, h=h)
        assert sol.ode_residual <= 10.0 * h * h


def test_overflow_guard():
    with pytest.raises(OverflowError):
        solve_phi(constant_family(), 64.0, x_max=5.0, h=1e-3)


def test_grid_and_family_validation():
    with pytest.raises(ValueError):
        solve_phi(constant_family(), 1.0, x_max=0.01, h=1e-3)
    with pytest.raises(ValueError):
        power_family(-0.75)
    with pytest.raises(ValueError):
        power_family(float("nan"))


def test_line_phi_and_dphi_closed_forms():
    for lam in (0.9, 2.0):
        w = math.sqrt(lam)
        for x in (0.3, 1.7):
            assert line_phi(x, lam) == pytest.approx(math.cosh(w * x),
                                                     rel=1e-14)
            assert line_dphi(x, lam) == pytest.approx(
                x * math.sinh(w * x) / (2.0 * w), rel=1e-13)


def test_line_dphi_series_branch_near_zero():
    # for lam -> 0 the limit is x^2 / 2
    x = 1.3
    got = line_dphi(x, 1e-12)
    assert got == pytest.approx(x * x / 2.0, rel=1e-9)


def test_cosh_line_hypergroup_structure():
    hg = CoshLineHypergroup()
    mu = hg.convolve(1.0, 2.5)
    assert mu.weight(3.5) == pytest.approx(0.5)
    assert mu.weight(1.5) == pytest.approx(0.5)
    nu = hg.convolve(2.0, 2.0)
    assert nu.weight(4.0) == pytest.approx(0.5)
    assert nu.weight(0.0) == pytest.approx(0.5)


def test_cosh_hypergroup_check_passes_for_true_pairings():
    pts = [(0.5, 1.0), (2.0, 0.25), (1.3, 1.3), (0.05, 2.4)]
    rep = cosh_hypergroup_check(1.7, pts)
    assert rep.max_abs <= 1e-12


def test_cosh_hypergroup_check_flags_wrong_lambda():
    # evaluating the lam = 1 pair identities with mismatched functions
    # built at lam = 2 must fail
    from hypersine.core import sine_residual
    hg = CoshLineHypergroup()
    f = lambda x: line_dphi(x, 2.0)
    m = lambda x: line_phi(x, 1.0)
    rep = sine_residual(hg, f, m, [(0.7, 1.1), (1.5, 2.0)])
    assert rep.max_abs > 1e-3
