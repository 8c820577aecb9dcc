"""Command-line front end.

Subcommands: verify <suite>, tabulate, sine-space <spec.json>, list.
Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import sys

import numpy as np

from . import coset, su2
from .core import (NotHypergroupError, TabulatedFunction, _cmul, _errors,
                   _pair_batch, exponentials, load_finite_hypergroup,
                   sine_residual, sine_space)
from .multipoly import ProductPolyHypergroup
from .polyhg import (BUILTIN_RECURRENCES, PolynomialHypergroup, exp_fn,
                     sine_fn)
from . import sturm as sturm_mod
from .suites import SUITE_NAMES, SuiteConfig, jsonable, run_suite

TABULATE_FAMILIES = ("chebyshev", "legendre", "su2", "product", "coset",
                     "sturm")


def _parse_lambda(text):
    """Accept "1.5", "0.5+0.5j", or the "re,im" form."""
    text = text.strip()
    try:
        if "," in text:
            re_s, im_s = text.split(",")
            return complex(float(re_s), float(im_s))
        return complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot parse {text!r} as a lambda value") from exc


def _finite(parse):
    """argparse type that parses with ``parse`` and rejects inf and nan."""
    def convert(text):
        value = parse(text)
        if not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not finite")
        return value
    convert.__name__ = parse.__name__   # argparse: "invalid float value"
    return convert


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypersine",
        description="Verify sine and exponential functional equations on "
                    "built-in hypergroup families.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_finite(float),
                        default=SuiteConfig.tol,
                        help="probability-weight verification tolerance")
    common.add_argument("--seed", type=int, default=SuiteConfig.seed)
    common.add_argument("--lambda", dest="lambdas",
                        type=_finite(_parse_lambda), action="append",
                        metavar="LAM",
                        help="spectral parameter; repeatable; accepts "
                             "re, re+imj, or re,im")
    common.add_argument("--n-max", type=int, default=None)
    common.add_argument("--xmax", type=_finite(float),
                        default=SuiteConfig.x_max)
    common.add_argument("--h", type=_finite(float), default=SuiteConfig.h)
    common.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="json for verify, csv for tables by default")

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="run a verification suite and emit its report")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--theta", type=_finite(float), action="append",
                          help="two-point family parameter; repeatable")
    p_verify.add_argument("--alpha", type=_finite(float),
                          default=SuiteConfig.alpha,
                          help="power-weight parameter for the ODE family")
    p_verify.add_argument("--samples", type=int, default=SuiteConfig.samples)
    p_verify.add_argument("--rec-file", default=None,
                          help="JSON recurrence spec replacing the built-in "
                               "polynomial families")

    p_tab = sub.add_parser(
        "tabulate", parents=[common],
        help="tabulate an exponential and a sine function for one family")
    p_tab.add_argument("--family", choices=TABULATE_FAMILIES, required=True)
    p_tab.add_argument("--c", type=_finite(_parse_lambda),
                       default=complex(1.0),
                       help="sine normalization constant")
    p_tab.add_argument("--alpha", type=_finite(float), default=None,
                       help="power-weight parameter (sturm family)")
    p_tab.add_argument("--a-const", action="store_true",
                       help="use the constant weight (sturm family)")

    p_space = sub.add_parser(
        "sine-space", parents=[common],
        help="solve the sine equation on a finite hypergroup spec file")
    p_space.add_argument("spec", help="JSON file with size, tensor, name")
    p_space.add_argument("--m", action="append", metavar="V1,V2,...",
                         help="exponential values; repeatable; default "
                              "enumerates all exponentials")

    sub.add_parser("list", help="list suites, families, and recurrences")
    return parser


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_text(rows, header, fmt):
    if fmt == "json":
        return json.dumps([dict(zip(header, r)) for r in rows],
                          sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _c(z):
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    return repr(z)


def cmd_verify(args):
    cfg = SuiteConfig(
        seed=args.seed, tol=args.tol,
        lambdas=tuple(args.lambdas or ()),
        n_max=args.n_max or 0, x_max=args.xmax, h=args.h,
        thetas=tuple(args.theta or SuiteConfig.thetas),
        alpha=args.alpha, samples=args.samples,
        rec_file=args.rec_file or "")
    report = run_suite(args.suite, cfg)
    fmt = args.format or "json"
    text = report.to_json() if fmt == "json" else report.to_csv()
    _emit(text, args.out)
    failed = [c for c in report.checks if not c.passed]
    for check in failed:
        print(f"FAIL {check.name}: {check.rule} tol={check.tol:g} "
              f"max_abs={check.max_abs:.3e} max_rel={check.max_rel:.3e} "
              f"witness={check.witness!r}", file=sys.stderr)
    print(f"suite {report.suite}: {len(report.checks) - len(failed)}/"
          f"{len(report.checks)} checks passed "
          f"({report.wall_time:.2f}s)", file=sys.stderr)
    return 0 if report.passed else 1


def _sine_rows(hg, f, m, elements, y, labels=None):
    """Rows (element, m, sine, residual): the residual of the sine equation
    at (x, y) for each element x."""
    if not elements:
        return []
    errs, _ = _errors(hg, f, m, *_pair_batch([(x, y) for x in elements]))
    return [(label, _c(m(x)), _c(f(x)), repr(float(err)))
            for label, x, err in zip(labels or elements, elements, errs)]


def _tabulate_poly(args, rec):
    n_max = 8 if args.n_max is None else args.n_max
    lam = (args.lambdas or [0.7])[0]
    m = exp_fn(rec, lam, n_max=max(2 * n_max + 2, 4))
    f = sine_fn(rec, args.c, lam, n_max=max(2 * n_max + 2, 4))
    return _sine_rows(PolynomialHypergroup(rec), f, m, list(range(n_max + 1)),
                      1)


def _tabulate_su2(args):
    n_max = 8 if args.n_max is None else args.n_max
    lam = (args.lambdas or [0.3])[0]
    m, base = su2.phi_fn(2 * n_max + 2, lam), su2.sine_fn(2 * n_max + 2, lam)
    return _sine_rows(su2.Su2Hypergroup(), lambda n: _cmul(args.c, base(n)),
                      m, list(range(n_max + 1)), 1)


def _tabulate_product(args):
    n_max = 4 if args.n_max is None else args.n_max
    lam = tuple((args.lambdas or [0.6, 0.8]) * 2)[:2]   # one value: both
    hg = ProductPolyHypergroup([BUILTIN_RECURRENCES["chebyshev"](),
                                BUILTIN_RECURRENCES["legendre"]()])
    xs = [(i, j) for i in range(n_max + 1) for j in range(n_max + 1)]
    return _sine_rows(hg, hg.multi_sine((args.c, args.c), lam),
                      hg.exp_fn(lam), xs, (1, 1), [f"{i},{j}" for i, j in xs])


def _tabulate_coset(args):
    n_max = 8 if args.n_max is None else args.n_max
    lam = (args.lambdas or [1.0])[0]
    xs = [(float(np.exp(t / 4.0)), float(t)) for t in range(n_max + 1)]
    return _sine_rows(coset.CosetHypergroup(), coset.coset_sine(args.c, lam),
                      coset.coset_exponential(lam), xs, (2.0, 1.0),
                      [f"{x!r},{u!r}" for x, u in xs])


def _tabulate_sturm(args):
    lam = (args.lambdas or [1.0])[0]
    if args.a_const and args.alpha is not None:
        raise ValueError("choose either --a-const or --alpha, not both")
    if args.a_const or args.alpha is None:
        family = sturm_mod.constant_family()
    else:
        family = sturm_mod.power_family(args.alpha)
    sol = sturm_mod.solve_sine(family, lam, args.c, x_max=args.xmax, h=args.h)
    phi, f = sol.forcing, sol.values
    res = np.zeros(len(sol.grid))
    res[1:-1] = np.abs(sturm_mod.ode_defect(sol.grid, f, family.ratio, sol.lam,
                                            sol.c, phi)[0])
    return [tuple(repr(float(v)) for v in row) for row in
            zip(sol.grid, phi.real, phi.imag, f.real, f.imag, res)]


def cmd_tabulate(args):
    header = ["element", "m", "sine", "residual"]
    if args.family in ("chebyshev", "legendre"):
        rows = _tabulate_poly(args, BUILTIN_RECURRENCES[args.family]())
    elif args.family == "su2":
        rows = _tabulate_su2(args)
    elif args.family == "product":
        rows = _tabulate_product(args)
    elif args.family == "coset":
        rows = _tabulate_coset(args)
    else:
        rows = _tabulate_sturm(args)
        header = ["x", "re_phi", "im_phi", "re_f", "im_f", "residual"]
    _emit(_rows_to_text(rows, header, args.format or "csv"), args.out)
    return 0


def cmd_sine_space(args):
    hg = load_finite_hypergroup(args.spec)
    if args.m:   # sine_space rejects a wrong length or a non-exponential
        ms = [[complex(v) for v in spec.split(",")] for spec in args.m]
    else:
        ms = [list(m) for m in exponentials(hg, tol=args.tol)]
    rows = []
    for mv in ms:
        basis = sine_space(hg, mv, exp_tol=args.tol)
        mfun = TabulatedFunction(mv)
        worst = max([sine_residual(hg, b, mfun, hg.all_pairs()).max_abs
                     for b in basis], default=0.0)
        rows.append((json.dumps(jsonable([complex(v) for v in mv])),
                     len(basis),
                     json.dumps([jsonable([complex(b(i)) for i in
                                           range(hg.size)]) for b in basis]),
                     repr(worst)))
        print(f"m={rows[-1][0]}: sine-space dimension {len(basis)}",
              file=sys.stderr)
    text = _rows_to_text(rows, ["m", "dimension", "basis", "max_residual"],
                         args.format or "csv")
    _emit(text, args.out)
    return 0


def cmd_list(_args):
    print("suites: " + " ".join(SUITE_NAMES + ("all",)))
    print("tabulate families: " + " ".join(TABULATE_FAMILIES))
    print("built-in recurrences: " + " ".join(sorted(BUILTIN_RECURRENCES)))
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "tabulate": cmd_tabulate,
        "sine-space": cmd_sine_space,
        "list": cmd_list,
    }
    try:
        return handlers[args.command](args)
    except (NotHypergroupError, ValueError, OSError, OverflowError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
