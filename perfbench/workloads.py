"""Seeded inputs for the benchmark workloads.

Every input a workload hands to ``hypersine verify`` is drawn from a
``random.Random`` seeded with the workload name, the run seed and the
config index, so the same seed always gives the same argument lists and
the same recurrence files.  A run cycles through configs 0, 1, 2, ...;
spreading one run over many seeded configs keeps the per-run median
from hinging on a single draw (the sinsev pairs in ``suite-all`` change
its cost by a factor of two from one seed to the next).

Sizes are smaller than the CLI defaults so that one run of
``run_seconds`` holds at least 40 invocations, each in a fresh
interpreter, enough for a 75th percentile with ten samples beyond it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# poly-deep: linearization table up to this degree; the recurrence file
# must reach degree 2 * POLY_N_MAX because the suite tabulates P_n there.
POLY_N_MAX = 32


def _rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def _lambda_args(values):
    # "--lambda=..." keeps argparse from reading "-0.5,0.2" as an option.
    args = []
    for lam in values:
        lam = complex(lam)
        text = repr(lam.real) if lam.imag == 0 else f"{lam.real!r},{lam.imag!r}"
        args.append(f"--lambda={text}")
    return args


def ultraspherical_recurrence(alpha, n_max):
    """Coefficients (a, b, c) for n = 0..2*n_max of the Jacobi(alpha, alpha)
    polynomials normalised to P_n(1) = 1:

        x P_n = (n+2a+1)/(2n+2a+1) P_(n+1) + n/(2n+2a+1) P_(n-1).

    Their linearization coefficients are nonnegative for alpha >= -1/2
    (Gasper, Canad. J. Math. 22, 1970), so they define a hypergroup.
    """
    top = 2 * n_max + 1
    a = [(n + 2 * alpha + 1) / (2 * n + 2 * alpha + 1) for n in range(top)]
    c = [n / (2 * n + 2 * alpha + 1) for n in range(top)]
    return {"name": f"ultraspherical(alpha={alpha!r})",
            "a": a, "b": [0.0] * top, "c": c}


def suite_all(rng, workdir, index):
    # Every suite at reduced size: polyone/su2 at n_max 10, sinsev on 3
    # seeded pairs per product, sturm on [0, 0.3] at h = 2e-3.
    return ["verify", "all", "--seed", str(rng.randrange(2 ** 31)),
            "--n-max", "10", "--samples", "3", "--xmax", "0.3",
            "--h", "2e-3"]


def poly_deep(rng, workdir, index):
    alpha = rng.uniform(0.0, 2.0)
    path = Path(workdir) / f"recurrence-{index}.json"
    path.write_text(json.dumps(ultraspherical_recurrence(alpha, POLY_N_MAX),
                               sort_keys=True) + "\n")
    lambdas = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
               complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3))]
    return (["verify", "polyone", "--rec-file", str(path),
             "--n-max", str(POLY_N_MAX), "--seed", str(rng.randrange(2 ** 31))]
            + _lambda_args(lambdas))


def ode_fine(rng, workdir, index):
    alpha = rng.uniform(0.0, 2.0)
    lambdas = [rng.uniform(0.25, 2.0), rng.uniform(0.25, 2.0),
               complex(rng.uniform(0.25, 2.0), rng.uniform(-0.5, 0.5))]
    return (["verify", "sturm", "--h", "5e-4", "--xmax", "0.35",
             "--alpha", repr(alpha), "--seed", str(rng.randrange(2 ** 31))]
            + _lambda_args(lambdas))


def coset_scan(rng, workdir, index):
    lambdas = [rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0),
               complex(rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 1.0))]
    return (["verify", "coset", "--samples", "4000",
             "--seed", str(rng.randrange(2 ** 31))]
            + _lambda_args(lambdas))


WORKLOADS = {
    "suite-all": suite_all,
    "poly-deep": poly_deep,
    "ode-fine": ode_fine,
    "coset-scan": coset_scan,
}


def config_argv(workload, seed, index, workdir):
    """Argument list for ``hypersine`` for config ``index`` of a run;
    may write input files into ``workdir``."""
    return WORKLOADS[workload](_rng(workload, seed, index), workdir, index)
