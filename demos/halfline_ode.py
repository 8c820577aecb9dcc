"""Sturm-Liouville exponential families on the half line.

For the constant weight the family is cosh(sqrt(lam) x) and the point masses
convolve like the symmetrized translation delta_{x+y}/2 + delta_{|x-y|}/2.
The lambda-derivative solves the same equation with forcing term; it is
checked against its closed form and, for power weights, against the family
with alpha + 1.
"""

import numpy as np

from hypersine import (constant_family, cosh_hypergroup_check, dlambda_phi,
                       power_family, solve_phi, solve_sine)

lam, x_max, h = 1.0, 3.0, 1e-3

sol = solve_phi(constant_family(), lam, x_max=x_max, h=h)
ref = np.cosh(np.sqrt(lam) * sol.grid)
print(f"constant weight, lam = {lam}")
print(f"  max |phi - cosh| = {np.abs(sol.values - ref).max():.2e}")
print(f"  scaled interior equation residual = {sol.ode_residual:.2e}")

d = dlambda_phi(constant_family(), lam, x_max=x_max, h=h)
closed = sol.grid * np.sinh(sol.grid) / 2.0
print(f"  max |d/dlam phi - x sinh(x)/2| = {np.abs(d.values - closed).max():.2e}")
print(f"  scaled residual of the forced equation = {d.ode_residual:.2e}")

fam = power_family(0.5)
sol = solve_phi(fam, lam, x_max=x_max, h=h)
ref = np.ones_like(sol.values)
ref[1:] = np.sinh(sol.grid[1:]) / sol.grid[1:]
print(f"\npower weight x^2 (alpha = 1/2)")
print(f"  max |phi - sinh(x)/x| = {np.abs(sol.values - ref).max():.2e}")
d = solve_sine(fam, lam, 1.0, x_max=x_max, h=h)
up = solve_phi(power_family(1.5), lam, x_max=x_max, h=h)
shifted = up.grid ** 2 / 6.0 * up.values
print(f"  max |d/dlam phi - x^2/6 phi_(alpha+1)| = "
      f"{np.abs(d.values - shifted).max():.2e}")

rep = cosh_hypergroup_check(1.3, [(0.5, 1.0), (2.0, 0.3), (1.1, 1.1)])
print(f"\nsymmetrized-translation pairing residual: {rep.max_abs:.2e}")
