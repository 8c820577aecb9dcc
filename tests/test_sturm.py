import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypersine import sturm
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
    # c = 0 runs the four-state pass; every cQ entry is 0, so f stays 0
    for family in (constant_family(), power_family(0.5)):
        sol = solve_sine(family, 1.0, 0.0, x_max=5.0, h=1e-3)
        assert not sol.values.any() and not sol.derivatives.any()


@pytest.mark.parametrize("family", [constant_family(), power_family(0.5)],
                         ids=lambda fam: fam.name)
@pytest.mark.parametrize("lam", [0.7, -1.3, 1.0 + 0.5j, -0.4 - 0.9j])
def test_phi_is_the_forcing_of_every_sine_pass(family, lam):
    # the exponential block never reads f, so phi is the same bits at any c
    phi = solve_phi(family, lam).values
    for c in (0.0, 1.0, 0.5 + 0.3j):
        assert solve_sine(family, lam, c).forcing.tobytes() == phi.tobytes()


def test_ode_residual_is_within_grid_bound():
    h = 1e-3
    for fam in (constant_family(), power_family(0.5)):
        sol = solve_sine(fam, 1.0, 1.0, x_max=3.0, h=h)
        assert sol.ode_residual <= 10.0 * h * h


def test_overflow_guard():
    with pytest.raises(OverflowError):
        solve_phi(constant_family(), 64.0, x_max=5.0, h=1e-3)


def _reference_rk4(family, lam, c, x_max, h):
    """Classical RK4 over (phi, phi', f, f') one state tuple at a time,
    from the same series launch: the step-by-step form of the scheme, the
    oracle for the step matrices.  Returns phi, phi', f, f' on the grid."""
    lam, c = complex(lam), complex(c)
    grid, steps = sturm._grid(x_max, h)
    k0 = sturm._launch_index(x_max, h, steps)
    s = family.origin_exponent
    rows = [sturm._hyp0f1(s, lam, c, x, terms=2) for x in grid[:k0 + 1]]

    def rhs(x, state):
        pu, pv, fu, fv = state
        r = family.ratio(x)
        return (pv, lam * pu - r * pv, fv, lam * fu + c * pu - r * fv)

    def axpy(state, k, scale):
        return tuple(a + scale * b for a, b in zip(state, k))

    state, x0 = rows[-1], grid[k0]
    for i in range(steps - k0):
        x = x0 + i * h
        k1 = rhs(x, state)
        k2 = rhs(x + h / 2.0, axpy(state, k1, h / 2.0))
        k3 = rhs(x + h / 2.0, axpy(state, k2, h / 2.0))
        k4 = rhs(x + h, axpy(state, k3, h))
        state = tuple(s + (h / 6.0) * (a + 2.0 * b + 2.0 * c_ + d)
                      for s, a, b, c_, d in zip(state, k1, k2, k3, k4))
        rows.append(state)
    return np.array(rows, dtype=complex).T


def _close(got, ref, rtol=1e-12):
    return np.max(np.abs(got - ref)) <= rtol * (1.0 + np.max(np.abs(ref)))


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=40)
@given(alpha=st.floats(-0.5, 2.0),
       lam=st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       c=st.one_of(st.just(0.0), st.just(1.0),
                   st.complex_numbers(max_magnitude=3.0, **_finite)),
       grid=st.sampled_from([(0.5, 1e-2), (1.0, 2e-3), (2.0, 1e-2),
                             (0.35, 5e-4)]),
       constant=st.booleans())
def test_step_matrices_match_scalar_rk4(alpha, lam, c, grid, constant):
    family = constant_family() if constant else power_family(alpha)
    x_max, h = grid
    phi, dphi, f, df = _reference_rk4(family, lam, c, x_max, h)
    sol = solve_phi(family, lam, x_max=x_max, h=h)
    assert _close(sol.values, phi) and _close(sol.derivatives, dphi)
    sine = solve_sine(family, lam, c, x_max=x_max, h=h)
    assert _close(sine.forcing, phi)
    assert _close(sine.values, f) and _close(sine.derivatives, df)
    if c == 0:
        assert not sine.values.any() and not sine.derivatives.any()


def _complex_pass(family, lam, c, x_max, h):
    """``sturm._integrate`` with lam and c taken as complex whatever their
    value: the same series launch, step columns and loop, every state a
    complex number.  The oracle for the pass a real problem runs in
    floats."""
    lam, c = complex(lam), complex(c)
    grid, steps = sturm._grid(x_max, h)
    k0 = sturm._launch_index(x_max, h, steps)
    launch = sturm._hyp0f1(family.origin_exponent, lam, c, grid[:k0 + 1],
                           terms=2)
    xs = grid[k0] + np.arange(steps - k0) * h
    columns = [e.tolist() for e in sturm._step_columns(family.ratio, lam, c,
                                                       xs, h)]
    u, v, fu, fv = [complex(t[-1]) for t in launch]
    rows = []
    for a, p, ga, gp, b, q, gb, gq in zip(*columns):
        u, v, fu, fv = (u + (a * u + b * v), v + (p * u + q * v),
                        fu + (a * fu + b * fv + ga * u + gb * v),
                        fv + (p * fu + q * fv + gp * u + gq * v))
        rows.append((u, v, fu, fv))
    rest = np.array(rows, dtype=complex).reshape(-1, 4).T
    return grid, *(np.concatenate(pair) for pair in zip(launch, rest))


@settings(max_examples=40)
@given(alpha=st.floats(-0.5, 2.0), lam=st.floats(-3.0, 3.0),
       c=st.one_of(st.just(0.0), st.just(1.0), st.floats(-3.0, 3.0)),
       grid=st.sampled_from([(0.5, 1e-2), (1.0, 2e-3), (2.0, 1e-2),
                             (0.35, 5e-4)]),
       constant=st.booleans())
def test_real_problem_pass_is_the_complex_pass(alpha, lam, c, grid, constant):
    # real lam and c run the pass in floats; the tables it returns are the
    # complex pass's, bit for bit up to the sign of a zero
    family = constant_family() if constant else power_family(alpha)
    got = sturm._integrate(family, lam, c, *grid)
    ref = _complex_pass(family, lam, c, *grid)
    assert np.array_equal(got[0], ref[0])
    for table, want in zip(got[1:], ref[1:]):
        assert table.dtype == np.complex128
        assert not table.imag.any() and not want.imag.any()
        assert np.array_equal(table.real, want.real)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_guard_covers_the_forced_pass_and_non_finite_tables():
    with pytest.raises(OverflowError, match="solution magnitude exceeded"):
        solve_sine(constant_family(), 64.0, 1.0, x_max=5.0, h=1e-3)
    # the step matrices themselves overflow to inf and NaN here
    with pytest.raises(OverflowError, match="solution magnitude exceeded"):
        solve_phi(constant_family(), 1e300, x_max=1.0, h=1e-2)


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


def _launch_series(s, lam, c, x):
    """The RK4 launch as it was written before ``_hyp0f1``: the series
    through x^4, the oracle for ``_hyp0f1(..., terms=2)``."""
    b2, g2 = lam / (2.0 * (s + 1.0)), c / (2.0 * (s + 1.0))
    b4 = lam * b2 / (4.0 * (s + 3.0))
    g4 = lam * c / (4.0 * (s + 3.0) * (s + 1.0))
    x2 = x * x
    return (1.0 + x2 * (b2 + b4 * x2), x * (2.0 * b2 + 4.0 * b4 * x2),
            x2 * (g2 + g4 * x2), x * (2.0 * g2 + 4.0 * g4 * x2))


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.float64)


_scalars = st.one_of(st.just(0.0), st.just(1.0), st.floats(-50.0, 50.0),
                     st.complex_numbers(max_magnitude=50.0, **_finite))


@settings(max_examples=200)
@given(alpha=st.floats(-0.5, 3.0), lam=_scalars, c=_scalars,
       h=st.sampled_from([1e-4, 5e-4, 1e-3, 2e-3, 1e-2]))
def test_launch_is_the_old_series_bit_for_bit(alpha, lam, c, h):
    s = 2.0 * alpha + 1.0
    x = np.arange(11) * h
    for got, want in zip(sturm._hyp0f1(s, lam, c, x, terms=2),
                         _launch_series(s, lam, c, x)):
        assert np.array_equal(_bits(got), _bits(want))


_lams = st.one_of(
    st.floats(0.0, 6.0, exclude_min=True),
    st.builds(cmath.rect, st.floats(0.0, 6.0),
              st.floats(-math.pi / 2, math.pi / 2)))


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(-0.5, 3.0), lam=_lams,
       c=st.one_of(st.just(1.0),
                   st.complex_numbers(max_magnitude=3.0, **_finite)),
       xs=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4))
def test_series_is_0f1_and_its_lambda_derivative(alpha, lam, c, xs):
    import mpmath as mp
    phi, _, f, _ = sturm._hyp0f1(2.0 * alpha + 1.0, lam, c, np.array(xs))
    for x, got_phi, got_f in zip(xs, phi, f):
        z = mp.mpc(lam) * mp.mpf(x) ** 2 / 4
        ref_phi = complex(mp.hyp0f1(alpha + 1, z))
        ref_f = complex(mp.mpc(c) * mp.mpf(x) ** 2 / (4 * (alpha + 1))
                        * mp.hyp0f1(alpha + 2, z))
        assert abs(got_phi - ref_phi) <= 1e-13 * (1.0 + abs(ref_phi))
        assert abs(got_f - ref_f) <= 1e-13 * (1.0 + abs(ref_f))


def test_series_at_alpha_minus_half_is_cosh():
    x = np.linspace(0.0, 5.0, 501)
    for lam in (0.5, 2.0, 1.0 + 0.5j, 6.0j, 1e-12):
        phi, dphi, f, _ = sturm._hyp0f1(0.0, lam, 1.0, x)
        assert _close(phi, line_phi(x, lam), 1e-14)
        assert _close(f, line_dphi(x, lam), 1e-14)
        w = cmath.sqrt(lam)
        assert _close(dphi, w * np.sinh(w * x), 1e-14)


def test_series_at_lambda_zero_is_exact():
    x = np.linspace(0.0, 5.0, 11)
    phi, dphi, f, df = sturm._hyp0f1(2.0, 0.0, 3.0, x)
    assert np.array_equal(phi, np.ones_like(x))
    assert not dphi.any()
    assert np.array_equal(f, 3.0 / 6.0 * x * x)
    assert np.array_equal(df, 3.0 / 3.0 * x)
