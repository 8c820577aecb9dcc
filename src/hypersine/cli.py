"""Command-line front end.

Subcommands: verify <suite>, tabulate, sine-space <spec.json>, list.
Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import cmath
import json
import sys
import types

import numpy as np

from .core import (VERIFY_WEIGHT_TOL, NotHypergroupError, _errors,
                   _sine_space, exponentials, load_finite_hypergroup)
from .polyhg import BUILTIN_RECURRENCES
from . import sturm as sturm_mod
from .suites import (_FAMILIES, SUITE_NAMES, SuiteConfig, _json_default,
                     _rows_to_text, run_suite)

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
        import argparse
        raise argparse.ArgumentTypeError(
            f"cannot parse {text!r} as a lambda value") from exc


def _finite(parse):
    """argparse type that parses with ``parse`` and rejects inf and nan."""
    def convert(text):
        value = parse(text)
        if not cmath.isfinite(value):
            import argparse
            raise argparse.ArgumentTypeError(f"{text!r} is not finite")
        return value
    convert.__name__ = parse.__name__   # argparse: "invalid float value"
    return convert


def _values(text):
    """argparse type of ``--m``: "V1,V2,..." as finite complex numbers."""
    return [_finite(complex)(v) for v in text.split(",")]


_values.__name__ = "complex"   # argparse: "invalid complex value"


_SHARED = {   # add_argument keywords; each subcommand names its own
    "--seed": dict(type=int, default=SuiteConfig.seed),
    "--lambda": dict(dest="lambdas", type=_finite(_parse_lambda),
                     action="append", metavar="LAM",
                     help="spectral parameter; repeatable; accepts "
                          "re, re+imj, or re,im"),
    "--n-max": dict(type=int),
    "--xmax": dict(dest="x_max", type=_finite(float),
                   default=SuiteConfig.x_max),
    "--h": dict(type=_finite(float), default=SuiteConfig.h),
    "--out": dict(help="write the report here instead of stdout"),
    "--format": dict(choices=("json", "csv"),
                     help="json for verify, csv for tables by default"),
}


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
    # each option's dest is its SuiteConfig field; an unset one is None
    cfg = SuiteConfig(**{name: value for name, value in vars(args).items()
                         if value is not None and name not in (
                             "command", "suite", "out", "format")})
    report = run_suite(args.suite, cfg)
    _emit(report.to_csv() if args.format == "csv" else report.to_json(),
          args.out)
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
    grid, phi, _, f, _ = sturm_mod._integrate(family, lam, args.c,
                                              args.x_max, args.h)
    res = np.pad(sturm_mod.ode_defect(grid, f, family.ratio, complex(lam),
                                      complex(args.c), phi)[0], 1)
    return [tuple(repr(float(v)) for v in row) for row in
            zip(grid, phi.real, phi.imag, f.real, f.imag, res)]


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
    # sine_space rejects an --m of the wrong length or a non-exponential
    ms = args.m or [list(m) for m in exponentials(hg, tol=args.tol)]
    if not ms:   # m = 1 is an exponential of every finite hypergroup
        raise ValueError(f"--tol {args.tol:g} admits no exponential")
    rows = []
    for mv in ms:
        basis, worst = _sine_space(hg, mv, exp_tol=args.tol)
        rows.append((json.dumps([complex(v) for v in mv],
                                default=_json_default), len(basis),
                     json.dumps([[complex(b(i)) for i in range(hg.size)]
                                 for b in basis], default=_json_default),
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


# name: (handler, help, ((argument, add_argument keywords), ...))
COMMANDS = {
    "verify": (cmd_verify, "run a verification suite and emit its report", (
        *_SHARED.items(), ("suite", dict(choices=SUITE_NAMES + ("all",))),
        ("--theta", dict(dest="thetas", type=_finite(float), action="append",
                         help="two-point family parameter; repeatable")),
        ("--alpha", dict(type=_finite(float), default=SuiteConfig.alpha,
                         help="power-weight parameter for the ODE family")),
        ("--samples", dict(type=int, default=SuiteConfig.samples)),
        ("--rec-file", dict(help="JSON recurrence spec replacing the "
                                 "built-in polynomial families")))),
    "tabulate": (cmd_tabulate, "tabulate an exponential and a sine function "
                               "for one family", (
        *((flag, _SHARED[flag]) for flag in ("--lambda", "--n-max", "--xmax",
                                             "--h", "--out", "--format")),
        ("--family", dict(choices=TABULATE_FAMILIES, required=True)),
        ("--c", dict(type=_finite(_parse_lambda), default=complex(1.0),
                     help="sine normalization constant")),
        ("--alpha", dict(type=_finite(float),
                         help="power-weight parameter (sturm family); "
                              "without it, the constant weight")))),
    "sine-space": (cmd_sine_space, "solve the sine equation on a finite "
                                   "hypergroup spec file", (
        ("--tol", dict(type=_finite(float), default=VERIFY_WEIGHT_TOL,
                       help="tolerance of the exponential equation")),
        *((flag, _SHARED[flag]) for flag in ("--out", "--format")),
        ("spec", dict(help="JSON file with size, tensor, name")),
        ("--m", dict(type=_values, action="append", metavar="V1,V2,...",
                     help="exponential values; repeatable; default "
                          "enumerates all exponentials")))),
    "list": (cmd_list, "list suites, families, and recurrences", ()),
}


def build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="hypersine",
        description="Verify sine and exponential functional equations on "
                    "built-in hypergroup families.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help)
        for argument, keywords in arguments:
            command.add_argument(argument, **keywords)
    return parser


def _parse(argv):
    """``build_parser().parse_args(argv)`` read from ``COMMANDS`` when argv is
    a subcommand, its positionals and exact long options, each "--flag=value"
    or "--flag value" with a value not starting with "-"; else None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    arguments = dict(COMMANDS[argv[0]][2])
    dests = {name: kw.get("dest", name.lstrip("-").replace("-", "_"))
             for name, kw in arguments.items()}
    args = {dests[name]: kw.get("default") for name, kw in arguments.items()}
    positionals = [name for name in arguments if name[0] != "-"]
    required = {name for name, kw in arguments.items() if kw.get("required")}
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] == "-":
            name, eq, value = token.partition("=")
            value = value if eq else next(tokens, "-")
            if (name not in arguments or value == "--"   # argparse drops it
                    or not eq and value[:1] == "-"):
                return None
        elif positionals:
            name, value = positionals.pop(0), token
        else:
            return None
        kw = arguments[name]
        try:
            value = kw.get("type", str)(value)
        except Exception:   # argparse names the argument in its error
            return None
        if value not in kw.get("choices", (value,)):
            return None
        required.discard(name)
        args[dests[name]] = ([*(args[dests[name]] or ()), value]
                             if kw.get("action") == "append" else value)
    return (None if positionals or required
            else types.SimpleNamespace(command=argv[0], **args))


def main(argv=None):
    args = (_parse(sys.argv[1:] if argv is None else argv)
            or build_parser().parse_args(argv))
    try:
        return COMMANDS[args.command][0](args)
    except (NotHypergroupError, ValueError, OSError, OverflowError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
