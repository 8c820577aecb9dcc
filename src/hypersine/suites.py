"""Named verification suites and deterministic report serialization.

Each suite runs a fixed list of checks at pinned tolerances and returns a
SuiteReport.  A suite's runner yields claims (name, tol, rule, evidence);
``_judge`` turns them into rows, in claim order, each by ``_row`` with the
pass rule ``abs``, ``rel`` or the refutation ``above``.  The evidence is a
core.ResidualReport, or an ``_Eq``: an exponential or sine equation on a
pair set, which ``_judge`` checks with every other ``_Eq`` of the same
hypergroup and pair-set objects in one ``core._errors`` call.
Serialized reports contain one row per check with the columns (suite,
max_abs, max_rel, witness, samples, pass), without the tolerance and rule;
given the same configuration and seed the JSON output is byte identical
apart from the wall_time field.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
import time
from collections import namedtuple
from typing import NamedTuple, Sequence

import numpy as np

from . import coset, su2
from .core import (PairBatch, ResidualReport, TabulatedFunction, _cmul,
                   _errors, _integrate_many, _propagate, _real, _residual,
                   _scan, _uniforms, exp_residual, exponentials, integrate,
                   power_identity_check, s3_conjugacy_hypergroup,
                   sine_space, two_point_hypergroup)
from .dual import central_difference
from .multipoly import ProductPolyHypergroup
from .polyhg import (PolynomialHypergroup, _sine_and_exp,
                     chebyshev_recurrence, legendre_recurrence,
                     recurrence_from_file)
from . import sturm as sturm_mod

SUITE_NAMES = ("compact", "polyone", "su2", "sinsev", "sturm", "coset")
# sturm: RK4 on [0, 5] at h 1e-3 reads <= 1.5e-10 relative for |lambda| <= 6
STURM_CLOSED_FORM_RTOL = 1e-8


class SuiteConfig:
    """Suite parameters; each argument defaults to the class attribute of
    the same name.  lambdas and thetas are held as tuples; seed, n_max and
    samples must be integers (numpy's too).  No tolerance is a parameter:
    each claim pins its own."""

    seed = 0
    lambdas = ()          # per-suite defaults when empty
    n_max = 0             # per-suite default when 0
    x_max = 5.0
    h = 1e-3
    thetas = (0.1, 0.25, 0.5, 0.9)
    alpha = 0.5
    samples = 1000
    rec_file = ""

    def __init__(self, seed=seed, lambdas=lambdas, n_max=n_max, x_max=x_max,
                 h=h, thetas=thetas, alpha=alpha, samples=samples,
                 rec_file=rec_file):
        self.seed, self.lambdas = seed, tuple(lambdas)
        self.n_max, self.x_max, self.h = n_max, x_max, h
        self.thetas, self.alpha = tuple(thetas), alpha
        self.samples, self.rec_file = samples, rec_file
        for name in ("seed", "n_max", "samples"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):   # 2.5 is no count
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        for name in ("lambdas", "x_max", "h", "thetas", "alpha"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if self.seed < 0:   # random.Random(-s) would draw seed s's samples
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_max < 0:   # 0 is the per-suite default
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if self.samples < 1:
            raise ValueError(f"sample count must be >= 1, got {self.samples}")
        if self.h <= 0 or self.x_max <= 0:
            raise ValueError("x_max and h must be positive")


class CheckResult(NamedTuple):
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
            "witness": self.witness,
            "samples": int(self.samples),
            "pass": bool(self.passed),
        }


class SuiteReport(NamedTuple):
    suite: str
    checks: Sequence[CheckResult] = ()
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
        return json.dumps(doc, sort_keys=True, indent=2,
                          default=_json_default) + "\n"

    def to_csv(self):
        return _rows_to_text(
            [(row["suite"], repr(row["max_abs"]), repr(row["max_rel"]),
              json.dumps(row["witness"], sort_keys=True,
                         default=_json_default), row["samples"],
              row["pass"]) for row in (c.row() for c in self.checks)],
            ["suite", "max_abs", "max_rel", "witness", "samples", "pass"],
            "csv")


def _rows_to_text(rows, header, fmt):
    """The rows under header as CSV text, or as JSON objects for "json"."""
    if fmt == "json":
        return json.dumps([dict(zip(header, r)) for r in rows],
                          sort_keys=True, indent=2) + "\n"
    import csv   # only CSV output needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_default(obj):
    """JSON text of the one witness value json cannot write: a complex
    number (numpy's complex128 is one), as its repr."""
    if isinstance(obj, complex):
        return repr(complex(obj))
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _fmt(x, sign=""):
    """x in the format g where that reads back as x, else as repr writes it:
    two parameters a check tells apart get two row names."""
    text = format(x, sign + "g")
    return text if float(text) == x else format(x, sign)


def _fmt_lam(lam):
    lam = complex(lam)
    return _fmt(lam.real) + (f"{_fmt(lam.imag, '+')}j" if lam.imag else "")


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


# Claim evidence: f(x*y) = f(x)m(y) + f(y)m(x) over the pairs of hg, or
# m(x*y) = m(x)m(y) when f is None; ``_judge`` checks it
_Eq = namedtuple("_Eq", "hg pairs f m")


def _judge(claims):
    """The rows of the claims (name, tol, rule, evidence), in claim order,
    each by ``_row``.  The ``_Eq`` claims on the same hg and pair-set objects
    are checked by one ``_errors`` call, in claim order, after the last
    claim is made: one batch and convolution per pair set."""
    claims, batches, reports = list(claims), {}, {}
    for i, (*_, ev) in enumerate(claims):
        if isinstance(ev, _Eq):
            batches.setdefault((id(ev.hg), id(ev.pairs)), []).append(i)
    for idx in batches.values():
        hg, pairs, _, _ = claims[idx[0]][3]
        errors = _errors(hg, [claims[i][3][2:] for i in idx], pairs)
        reports.update((i, _scan(*e, pairs)) for i, e in zip(idx, errors))
    return [_row(name, reports.get(i, ev), tol, rule)
            for i, (name, tol, rule, ev) in enumerate(claims)]


def _equations(hg, pairs, head, tail, f, m, exp_tol, sine_tol):
    """The relative claims head:exp<tail> of m and head:sine<tail> of f."""
    yield f"{head}:exp{tail}", exp_tol, "rel", _Eq(hg, pairs, None, m)
    yield f"{head}:sine{tail}", sine_tol, "rel", _Eq(hg, pairs, f, m)


def _sine_dim(tag, label, hg, m):
    """The claim tag:sine-dim-label: the m-sine space is trivial."""
    basis = sine_space(hg, m)
    return (f"{tag}:sine-dim-{label}", 0.0, "abs",
            _fact(len(basis) == 0, hg.size ** 2, len(basis)))


def _pairs_grid(n_max):
    return PairBatch(*np.divmod(np.arange((n_max + 1) ** 2), n_max + 1))


# ---------------------------------------------------------------- families

# A family of the table: its hypergroup hg and pair(c, lam, n) -> (f, m),
# the c-sine function and the exponential at lam on the degrees 0..n (closed
# forms take any n); the lambdas, n_max, elements(n_max) and unit element of
# its default ``hypersine tabulate`` table; the points and lambdas where
# ``dual_vs_fd_report`` compares f at c = 1 with central differences of m
# (none: no such check).
_Family = namedtuple("_Family", "hg pair lams n_max elements unit "
                                "fd_points fd_lams", defaults=((), ()))


def _poly_family(rec):
    return _Family(PolynomialHypergroup(rec),
                   lambda c, lam, n: _sine_and_exp(rec, n, lam, c), (0.7,),
                   8, lambda n: range(n + 1), 1, (3, 7), (0.6, 0.3 + 0.4j))


def _product_family():
    hg = ProductPolyHypergroup([chebyshev_recurrence(), legendre_recurrence()])
    return _Family(hg, lambda c, lam, n: (hg.multi_sine((c, c), lam),
                                          hg.exp_fn(lam)), (0.6, 0.8), 4,
                   lambda n: list(itertools.product(range(n + 1), repeat=2)),
                   (1, 1))


_FAMILIES = {   # name -> the builder of its _Family, in `hypersine list` order
    "chebyshev": lambda: _poly_family(chebyshev_recurrence()),
    "legendre": lambda: _poly_family(legendre_recurrence()),
    "su2": lambda: _Family(su2.Su2Hypergroup(), lambda c, lam, n: (
        TabulatedFunction(_real(_cmul(c, su2.sine_fn(n, lam).values), lam,
                                c)),
        TabulatedFunction(_real(su2.phi_fn(n, lam).values, lam))),
        (0.3,), 8, lambda n: range(n + 1), 1, (2, 9), (0.4, 0.2 + 0.3j)),
    "product": _product_family,
    "coset": lambda: _Family(coset.CosetHypergroup(), lambda c, lam, n: (
        f := coset.coset_sine(c, lam), f.form[1]), (1.0,), 8,   # f's own m
        lambda n: [(float(np.exp(t / 4.0)), float(t)) for t in range(n + 1)],
        (2.0, 1.0), ((2.0, 1.0), (0.5, 3.0)), (0.7, 1.5)),
}


# ---------------------------------------------------------------- compact

def run_compact(cfg):
    for theta in cfg.thetas:
        tag = f"compact:theta={_fmt(theta)}"
        hg = two_point_hypergroup(theta)
        m1 = TabulatedFunction([1.0, -theta])
        yield (f"{tag}:exp", 4 * np.finfo(float).eps, "abs",
               exp_residual(hg, m1, hg.all_pairs()))
        for label, m in (("m0", [1.0, 1.0]), ("m1", [1.0, -theta])):
            yield _sine_dim(tag, label, hg, m)
        # f = [0, 1] is no m1-sine: at n = 2 the residual is 1 + theta
        yield f"{tag}:power-refutation", 0.5, "above", power_identity_check(
            hg, TabulatedFunction([0.0, 1.0]), m1, 0, 1, 8)
    s3 = s3_conjugacy_hypergroup()
    exps = exponentials(s3)
    yield ("compact:s3:exponential-count", 0.0, "abs",
           _fact(len(exps) == 3, s3.size ** 2, len(exps)))
    for i, m in enumerate(exps):
        yield _sine_dim("compact:s3", f"m{i}", s3, m)


# ---------------------------------------------------------------- polyone

def run_polyone(cfg):
    lambdas = cfg.lambdas or (0.3, 0.7, 1.0, 1.5, 0.5 + 0.5j)
    n_max = cfg.n_max or 64
    rng = random.Random(cfg.seed)
    for rec in ([recurrence_from_file(cfg.rec_file)] if cfg.rec_file
                else [chebyshev_recurrence(), legendre_recurrence()]):
        name, fam = rec.name or "custom", _poly_family(rec)
        cases = [(lam, *fam.pair(1.0, lam, 2 * n_max)) for lam in lambdas]
        pairs = _pairs_grid(n_max)   # after the tables: one may overflow
        for lam, f, m in cases:
            yield from _equations(fam.hg, pairs, f"polyone:{name}",
                                  f":lam={_fmt_lam(lam)}", f, m, 1e-9, 1e-9)
        draws = [(complex(rng.uniform(-1.25, 1.25), rng.uniform(-0.5, 0.5)),
                  complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
                 for _ in range(10)]
        # each draw propagated from f1 against f1 times the sine with
        # f(1) = 1 (c = a_0), witnessed at (lam, f1, n)
        lams, f1s = zip(*draws)
        sines, exps = zip(*(fam.pair(float(rec.a(0)), lam, n_max)
                            for lam in lams))
        want = np.ravel([s.values * f1 for s, f1 in zip(sines, f1s)])
        yield f"polyone:{name}:reconstruct", 1e-9, "rel", _scan(
            *_residual(_propagate(fam.hg, exps, f1s, n_max).ravel(), [want]),
            lambda i: (*draws[i // (n_max + 1)], i % (n_max + 1)))
        sines, exps = fam.pair(1.0, 0.3, 5)
        prods = fam.pair(1.0, 1.0, 5)[0].values * exps.values
        sv = np.linalg.svd(np.column_stack([sines.values, prods]),
                           compute_uv=False)
        ratio = float(sv[1] / sv[0])
        yield (f"polyone:{name}:derivative-not-multiplicative", 1e-6,
               "above", ResidualReport(ratio, ratio, None, 6))


# ---------------------------------------------------------------- su2

def run_su2(cfg):
    lambdas = cfg.lambdas or (0.3, 0.5 + 0.2j, 1.0)
    n_max = cfg.n_max or 40
    hg, pair, *_ = _FAMILIES["su2"]()
    upper = PairBatch(*np.triu_indices(101))   # (k, n), k <= n <= 100
    # bands of 13 k keep the padding small (a row has k + 1 weights; a
    # padding weight 0 adds +0.0 to the positive sum); bands of 6 k or of
    # 64 KiB each raised the peak RSS of a cold `verify all` by 0.04-0.1 MB
    edges = [*np.searchsorted(upper.xs, range(0, 101, 13)), len(upper)]
    sums = np.concatenate([_integrate_many(lambda s: 1.0, *hg.convolve_many(
        upper.xs[lo:hi], upper.ys[lo:hi]))
        for lo, hi in zip(edges, edges[1:])])
    yield ("su2:weight-sums", 1e-12, "abs",
           _scan(*_residual(sums - 1.0, []), upper))
    rng = random.Random(cfg.seed)
    cases = [(lam, *pair(1.0, lam, 2 * n_max)) for lam in lambdas]
    pairs = _pairs_grid(n_max)   # after the tables: one may overflow
    for lam, f, m in cases:
        tail = f":lam={_fmt_lam(lam)}"
        yield from _equations(hg, pairs, "su2", tail, f, m, 1e-9, 1e-9)
        f1 = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        prop = su2.propagate_sine(lam, f1, n_max)
        want = (f1 / su2._sine_scale(lam)) * f.values[:n_max + 1]
        yield (f"su2:propagation{tail}", 1e-8, "rel",
               _scan(*_residual(prop, [want]), range(n_max + 1)))
    yield ("su2:additive", 1e-10, "abs",
           _Eq(hg, pairs, su2.additive_fn(1.0), lambda n: 1.0))


# ---------------------------------------------------------------- sinsev

def run_sinsev(cfg):
    rng = random.Random(cfg.seed)
    n_pairs = min(cfg.samples, 200)
    cheb, leg = chebyshev_recurrence(), legendre_recurrence()
    for tag, hg, lam, coeff in [
            ("d=2", ProductPolyHypergroup([cheb, leg]), (0.6, 0.8),
             (1.5, -2.0)),
            ("d=3", ProductPolyHypergroup([cheb, cheb, leg]), (0.6, 1.1, 0.8),
             (1.0, 0.5, -0.75))]:
        d = hg.dimension
        pairs = [tuple(tuple(int(13 * rng.random()) for _ in range(d))
                       for _ in range(2)) for _ in range(n_pairs)]
        yield from _equations(hg, pairs, f"sinsev:{tag}", "",
                              hg.multi_sine(coeff, lam), hg.exp_fn(lam),
                              1e-9, 1e-9)


# ---------------------------------------------------------------- sturm

def run_sturm(cfg):
    lambdas = cfg.lambdas or (0.5, 1.0, 2.0, 1.0 + 0.5j)
    x_max, h = cfg.x_max, cfg.h
    const = sturm_mod.constant_family()
    power = sturm_mod.power_family(cfg.alpha)
    power_tag = f"power(alpha={_fmt(cfg.alpha)})"
    # phi and f against a closed form, witnessed at the grid x of the worst
    # error: cosh for the constant weight at every lambda, 0F1 for the power
    for fam, lam in [*((const, lam) for lam in lambdas), (power, 1.0)]:
        grid, phi, _, f, _ = sturm_mod._integrate(fam, lam, 1.0, x_max, h)
        refs = ((sturm_mod.line_phi(grid, lam), sturm_mod.line_dphi(grid, lam))
                if fam is const else sturm_mod._hyp0f1(
                    power.origin_exponent, lam, 1.0, grid)[::2])
        tag = "const" if fam is const else power_tag
        for what, values, ref in zip(("phi", "sine-closed-form"), (phi, f),
                                     refs):
            yield (f"sturm:{tag}:{what}:lam={_fmt_lam(lam)}",
                   STURM_CLOSED_FORM_RTOL, "rel",
                   _scan(*_residual(values, [ref]), lambda i: grid[i].item()))
    pairs = PairBatch(*_uniforms(random.Random(cfg.seed), 80, 0.05,
                                 2.5).reshape(40, 2).T)
    for lam in (0.8, 1.0, 2.0):
        yield (f"sturm:cosh-check:lam={_fmt_lam(lam)}", 1e-10, "abs",
               sturm_mod.cosh_hypergroup_check(lam, pairs))


# ---------------------------------------------------------------- coset

def _coset_samples(rng, count):
    """count elements (x, u): x log-uniform on [0.1, 10], u uniform on
    [-10, 10]."""
    xs = np.exp(_uniforms(rng, count, math.log(0.1), math.log(10.0)))
    return xs, _uniforms(rng, count, -10.0, 10.0)


def run_coset(cfg):
    lambdas = cfg.lambdas or (0.0, 1.0, 2.0, 0.5 + 0.5j)
    rng = random.Random(cfg.seed)
    count = cfg.samples
    xs, us = _coset_samples(rng, count)
    ys, vs = _coset_samples(rng, count)
    hg, pair, *_ = _FAMILIES["coset"]()
    aus, avs = np.abs(us), np.abs(vs)
    pairs = PairBatch((xs, aus), (ys, avs))
    for lam in lambdas:
        yield from _equations(hg, pairs, "coset", f":lam={_fmt_lam(lam)}",
                              *pair(1.0, lam, None), 1e-12, 1e-10)
    quads = list(zip(*(c[:200].tolist() for c in (xs, us, ys, vs))))
    for alpha, lam in ((1.0, 0.0), (0.5, 1.0)):
        yield (f"coset:falsify-alpha={_fmt(alpha)}:lam={_fmt_lam(lam)}",
               1e-3, "above", coset.falsify_dalembert_alpha(lam, alpha, quads))
    yield "coset:falsify-square:random", 1e-3, "above", (
        coset.falsify_square_term(1.0, 0.25, PairBatch(
            (xs[:200], aus[:200]), (ys[:200], avs[:200]))))
    raw = PairBatch((xs[:200], us[:200]), (ys[:200], vs[:200]))
    yield ("coset:group-sine", 1e-12, "rel",
           coset.group_sine_check(1.0 + 1.0j, raw))
    p, q = raw.xs, raw.ys
    r = (xs[:200] * 0.5 + 1.0, vs[:200] - us[:200])
    lhs = coset.group_mul(coset.group_mul(p, q), r)
    rhs = coset.group_mul(p, coset.group_mul(q, r))
    # per triple, the worse of the two coordinates
    errs = (np.maximum(*e) for e in _residual(np.array(lhs), [np.array(rhs)]))
    yield ("coset:associativity-float", 1e-12, "rel",
           _scan(*errs, range(len(raw))))
    left, right = (integrate(lambda el: el[1], hg.convolve(*pq)) for pq in
                   [((2.0, 3.0), (5.0, 7.0)), ((5.0, 7.0), (2.0, 3.0))])
    yield ("coset:non-commutative-witness", 0.0, "abs",
           _fact(abs(left - right) > 0.5, witness=(left, right)))


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
              for c in _judge(_RUNNERS[s](cfg))]
    return SuiteReport(name, checks, wall_time=time.perf_counter() - t0)


# ------------------------------------------------- dual vs finite difference

def dual_vs_fd_report(h=1e-5):
    """Worst relative disagreement between lambda-derivatives and central
    differences of exponentials: f(x) against m(x) of pair(1, lam, x) for
    each table family (``_Family``), the first coordinate of the chebyshev x
    legendre product, and the power-weight ODE family solved to x."""
    fams = {name: build() for name, build in _FAMILIES.items()}
    checks = [(name, fam.pair, fam.fd_points, fam.fd_lams)
              for name, fam in fams.items() if fam.fd_points]
    prod, power, step = fams["product"].hg, sturm_mod.power_family(0.5), 1e-3
    checks[-1:-1] = [   # before coset: the scan order settles witness ties
        ("product-coordinate-0", lambda c, lam, n: (
            prod.multi_sine((c, 0.0), (lam, 0.8)), prod.exp_fn((lam, 0.8))),
         [(2, 3), (4, 1)], [0.5, 0.7]),
        ("sturm-power", lambda c, lam, n: (
            lambda x: sturm_mod.dlambda_phi(power, lam, x_max=x,
                                            h=step).values[-1],
            lambda x: sturm_mod.solve_phi(power, lam, x_max=x,
                                          h=step).values[-1]),
         [1.0, 2.0], [0.6, 1.2])]
    derivs, fds, witnesses = [], [], []
    for name, pair, points, lambdas in checks:
        for x in points:
            for lam in lambdas:
                derivs.append(pair(1.0, lam, x)[0](x))
                fds.append(central_difference(
                    lambda t: pair(1.0, t, x)[1](x), lam, h=h))
                witnesses.append((name, x, _fmt_lam(lam)))
    return _scan(*_residual(np.array(derivs), [np.array(fds)]), witnesses)
