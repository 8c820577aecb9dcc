"""The dimension hypergroup with weights (l+1)/((k+1)(n+1)): its exponential
family and the lambda-derivative sine functions, both read off the
recurrence of U_n(x) / (n+1) at x = cosh lam, and their propagation from
f(1) through the sine equation at (n, 1)."""

import cmath

import numpy as np

from hypersine import su2
from hypersine.core import sine_residual

hg = su2.Su2Hypergroup()
print("convolution of the two smallest nontrivial elements:")
print(" ", hg.convolve(1, 1))

lam = 0.5
print(f"\nexponential and sine values at lam = {lam}")
print("   n   phi(n)      dphi/dlam(n)")
for n in range(6):
    p = su2.phi(n, lam).real
    d = su2.dphi(n, lam).real
    print(f"  {n:2d}  {p:+.6f}   {d:+.6f}")

pairs = [(n, k) for n in range(25) for k in range(25)]
f = su2.sine_fn(50, lam)
m = su2.phi_fn(50, lam)
rep = sine_residual(hg, f, m, pairs)
print(f"\nsine-equation residual of the derivative family: {rep.max_rel:.2e}")

# the sine equation at (n, 1) gives f(n+1) from f(n), f(n-1) and phi;
# starting from f(0) = 0 and f(1) it reproduces the derivative route
f1 = su2.dphi(1, lam)
prop = su2.propagate_sine(lam, f1, 20)
want = (f1 / cmath.sinh(lam)) * su2.dphi(np.arange(21), lam)
print("propagation from f(1) vs direct derivative:",
      f"{np.max(np.abs(prop - want)):.2e}")

# at lam = 0 the exponential collapses to 1 and the sines become additive
add = su2.additive_fn(1.0)
rep = sine_residual(hg, add, lambda n: 1.0, pairs)
print(f"additive family n(n+2) residual at the origin: {rep.max_abs:.2e}")
