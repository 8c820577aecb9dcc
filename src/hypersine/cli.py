"""Command-line front end.

Subcommands: verify <suite>, tabulate, sine-space <spec.json>, list.
Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from .core import (NotHypergroupError, _errors, _sine_space, exponentials,
                   load_finite_hypergroup)
from .polyhg import BUILTIN_RECURRENCES
from . import sturm as sturm_mod
from .suites import (_FAMILIES, SUITE_NAMES, SuiteConfig, _rows_to_text,
                     jsonable, run_suite)

TABULATE_FAMILIES = (*_FAMILIES, "sturm")


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

    shared = {   # add_argument keywords; each subcommand names its own
        "--tol": dict(type=_finite(float), default=SuiteConfig.tol,
                      help="tolerance of the exponential equation in "
                           "sine-space and the compact suite"),
        "--seed": dict(type=int, default=SuiteConfig.seed),
        "--lambda": dict(dest="lambdas", type=_finite(_parse_lambda),
                         action="append", metavar="LAM",
                         help="spectral parameter; repeatable; accepts "
                              "re, re+imj, or re,im"),
        "--n-max": dict(type=int, default=None),
        "--xmax": dict(type=_finite(float), default=SuiteConfig.x_max),
        "--h": dict(type=_finite(float), default=SuiteConfig.h),
        "--out": dict(default=None,
                      help="write the report here instead of stdout"),
        "--format": dict(choices=("json", "csv"), default=None,
                         help="json for verify, csv for tables by default"),
    }

    def add_parser(name, flags, help):
        parser = sub.add_parser(name, help=help)
        for flag in flags:
            parser.add_argument(flag, **shared[flag])
        return parser

    p_verify = add_parser("verify", shared,
                          "run a verification suite and emit its report")
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

    p_tab = add_parser(
        "tabulate", ("--lambda", "--n-max", "--xmax", "--h", "--out",
                     "--format"),
        "tabulate an exponential and a sine function for one family")
    p_tab.add_argument("--family", choices=TABULATE_FAMILIES, required=True)
    p_tab.add_argument("--c", type=_finite(_parse_lambda),
                       default=complex(1.0),
                       help="sine normalization constant")
    p_tab.add_argument("--alpha", type=_finite(float), default=None,
                       help="power-weight parameter (sturm family); "
                            "without it, the constant weight")

    p_space = add_parser(
        "sine-space", ("--tol", "--out", "--format"),
        "solve the sine equation on a finite hypergroup spec file")
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


def _c(z):
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    return repr(z)


def cmd_verify(args):
    if args.n_max is not None and args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
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


def _tabulate_sturm(args):
    lam = (args.lambdas or [1.0])[0]
    family = (sturm_mod.constant_family() if args.alpha is None
              else sturm_mod.power_family(args.alpha))
    sol = sturm_mod.solve_sine(family, lam, args.c, x_max=args.xmax, h=args.h)
    phi, f = sol.forcing, sol.values
    res = np.pad(sturm_mod.ode_defect(sol.grid, f, family.ratio, sol.lam,
                                      sol.c, phi)[0], 1)
    return [tuple(repr(float(v)) for v in row) for row in
            zip(sol.grid, phi.real, phi.imag, f.real, f.imag, res)]


def cmd_tabulate(args):
    """Per element x of a family of the table (``suites._FAMILIES``), a pair
    labelled "x,y": m(x), the sine function f(x) and the residual of its
    equation at (x, unit); for sturm, the ODE solution on its grid."""
    if args.n_max is not None and args.n_max < 0:
        raise ValueError(f"--n-max must be >= 0, got {args.n_max}")
    fam = _FAMILIES[args.family]() if args.family in _FAMILIES else None
    most = 1 if fam is None else len(fam.lams)   # the values a table reads
    if len(args.lambdas or ()) > most:
        raise ValueError(f"--family {args.family} takes at most {most} "
                         f"--lambda, got {len(args.lambdas)}")
    if fam is None:
        rows = _tabulate_sturm(args)
        header = ["x", "re_phi", "im_phi", "re_f", "im_f", "residual"]
    else:
        n_max = fam.n_max if args.n_max is None else args.n_max
        lam = ((args.lambdas or list(fam.lams)) * most)[:most]   # one: all
        # the rows read m and f on 0..n_max + 1: x <= n_max and x * unit
        f, m = fam.pair(args.c, lam[0] if most == 1 else tuple(lam),
                        n_max + 1)
        xs = fam.elements(n_max)
        [(errs, _)] = _errors(fam.hg, [(f, m)], [(x, fam.unit) for x in xs])
        rows = [(",".join(map(repr, x)) if isinstance(x, tuple) else x,
                 _c(m(x)), _c(f(x)), repr(float(err)))
                for x, err in zip(xs, errs)]
        header = ["element", "m", "sine", "residual"]
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
        basis, worst = _sine_space(hg, mv, exp_tol=args.tol)
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
