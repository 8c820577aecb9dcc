"""Products of polynomial hypergroups: multivariate sine functions are
gradient combinations, and the coefficients can be read back off."""

import numpy as np

from hypersine import ProductPolyHypergroup, chebyshev_recurrence, \
    legendre_recurrence
from hypersine.core import TheoremViolationError, integrate

hg = ProductPolyHypergroup([chebyshev_recurrence(), legendre_recurrence()])
lam = (0.6, 0.8)
c = (1.5, -2.0)

m = hg.exp_fn(lam)
f = hg.multi_sine(c, lam)

x, y = (2, 1), (3, 2)
mu = hg.convolve(x, y)
print(f"delta_{x} * delta_{y} has {len(mu)} atoms")
print(f"  multiplicativity: m(x*y) = {integrate(m, mu).real:.8f}, "
      f"m(x)m(y) = {(m(x) * m(y)).real:.8f}")
lhs = integrate(f, mu)
rhs = f(x) * m(y) + f(y) * m(x)
print(f"  sine equation:    {lhs.real:.8f} vs {rhs.real:.8f}")

got = hg.fit_coefficients(f, lam, n_max=6)
print(f"\ncoefficients used: {c}")
print(f"coefficients fit:  ({got[0].real:+.12f}, {got[1].real:+.12f})")

# a function that is not in the gradient span gets rejected
bad = lambda z: z[0] + z[1] ** 2
try:
    hg.fit_coefficients(bad, lam, n_max=4)
except TheoremViolationError as exc:
    print(f"\nnon-sine candidate rejected: {type(exc).__name__}")
