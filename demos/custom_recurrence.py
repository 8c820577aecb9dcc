"""Running the verification machinery on a user-supplied recurrence file."""

import json
import os
import tempfile

from hypersine import (PolynomialHypergroup, exp_fn, recurrence_from_file,
                       sine_fn, sine_residual)

# a_n drifts down toward 1/2 like for many classical families
a = [1.0] + [0.5 + 0.05 / n for n in range(1, 13)]
spec = {
    "name": "geometric-mix",
    "a": a,
    "b": [0.0] * 13,
    "c": [0.0] + [1.0 - v for v in a[1:]],
    "closed_form": None,
}

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "geometric-mix.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    rec = recurrence_from_file(path)

hg = PolynomialHypergroup(rec)
print(f"loaded recurrence {rec.name!r}")
mu = hg.convolve(2, 2)
print(f"delta_2 * delta_2 = {mu}")

lam = 0.4
m = exp_fn(rec, lam, n_max=10)
f = sine_fn(rec, 1.0, lam, n_max=10)
pairs = [(n, k) for n in range(5) for k in range(5)]
rep = sine_residual(hg, f, m, pairs)
print(f"derivative family sine residual at lam = {lam}: {rep.max_rel:.2e}")
print("the same file, saved as geometric-mix.json, can be passed to the "
      "command line:")
print("  hypersine verify polyone --rec-file geometric-mix.json --n-max 5")
