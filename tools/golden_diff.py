"""Compare the ``hypersine verify`` reports and the ``hypersine verify
--format csv``, ``hypersine tabulate`` and ``hypersine sine-space`` tables of
two source trees.

Usage: python tools/golden_diff.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the ``src`` directories of two checkouts.  Each
golden configuration runs once per tree in a fresh interpreter with
PYTHONPATH set to that tree.  For ``verify``, ``wall_time`` is dropped and
every other field must match byte for byte, and so must each row's ``tol``
and ``rule``, which the report does not hold: the child wraps
``hypersine.cli.run_suite`` and writes them to a file.  The tool prints
``identical``, or one line per differing row field: ``name field base ->
head``.  For the tables, which hold no ``wall_time``, the exit code and the
stdout bytes must match; the tool prints ``identical``, or the exit codes
and every differing line, as a unified diff with no context (``@@`` hunk
headers, ``-`` base lines, ``+`` head lines).  A last line counts the
configurations and the identical ones: ``N configurations, K identical``.
The exit status is 0 only if every configuration is identical.
The CLI reads most of these command lines from its option table; those
with a prefix such as ``--n`` or a separate negative value go through
argparse, so both ways of parsing are compared.  The recurrence files are
written from the lists of ``tests/recurrences.py``.
"""

from __future__ import annotations

import difflib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from recurrences import jacobi_spec, ultraspherical_spec  # noqa: E402

REC_FILES = {   # recurrence spec files, degrees 0..64: name -> (spec, params)
    "ultraspherical-0.7.json": (ultraspherical_spec, 0.7),
    # the weight of P_2 in P_2 * P_2 is -1.33e-11, inside the float rule
    "ultraspherical-near-half.json": (ultraspherical_spec, -0.5 - 1e-11),
    # b_n != 0, inside Gasper's region
    "jacobi-1-0.json": (jacobi_spec, 1, 0),
    "jacobi-2-0.5.json": (jacobi_spec, 2, 0.5),
}
REC_FILE, NEAR_HALF_FILE, JACOBI_FILE, JACOBI_HALF_FILE = REC_FILES
CONFIGS = (
    ("all", "--seed", "11"),
    ("all", "--seed", "11", "--n-max", "10", "--samples", "3", "--xmax",
     "0.3", "--h", "2e-3"),
    # every verify option off its default: a dropped option shows as a diff
    ("all", "--seed", "5", "--n-max", "6", "--samples", "40", "--xmax", "0.4",
     "--h", "2e-3", "--alpha", "1.3", "--theta", "0.4", "--theta", "0.8",
     "--lambda=0.6"),
    ("coset", "--samples", "4000", "--seed", "1"),
    ("coset", "--samples", "4000", "--seed", "7", "--lambda=-0.8",
     "--lambda=1.28,-0.57", "--lambda=-1.5,0.4"),
    ("su2", "--seed", "4"),
    ("compact", "--theta", "1", "--theta", "0.3"),
    ("sinsev", "--seed", "3", "--samples", "50"),
    ("sturm", "--seed", "4"),
    ("sturm", "--h", "5e-4", "--xmax", "0.35", "--alpha", "1.3", "--seed", "2",
     "--lambda=0.7", "--lambda=1.9", "--lambda=1.2,0.4"),
    # |phi| ~ 1e5 at x = 5: accurate solutions with a large absolute error
    ("sturm", "--lambda=5.811"),
    ("sturm", "--alpha", "3", "--lambda=-2", "--seed", "5"),
    # RK4 error above the tolerance: every closed-form row fails
    ("sturm", "--xmax", "5", "--h", "1e-2", "--lambda", "2", "--alpha",
     "-0.5"),
    # a fine grid, where a finite-difference check would meet its rounding
    ("sturm", "--h", "2e-5", "--xmax", "0.35"),
    ("su2", "--lambda", "0,3.141592653589793", "--n-max", "12"),
    ("polyone", "--rec-file", REC_FILE, "--n-max", "32"),
    ("polyone", "--rec-file", NEAR_HALF_FILE, "--n-max", "16"),
    ("polyone", "--rec-file", JACOBI_FILE, "--n-max", "32"),
    ("polyone", "--rec-file", JACOBI_HALF_FILE, "--n-max", "32"),
    # chebyshev's errors are exactly 0 at lambda = +-1: each witness is the
    # first ordered pair; su2 at lambda 0 witnesses pairs off the diagonal
    ("polyone", "--n-max", "16", "--lambda", "1", "--lambda=-1"),
    ("su2", "--n-max", "24", "--lambda", "0"),
    # negative real, negative imaginary part, and the 3 cosh lambda scale
    ("su2", "--lambda=-0.7", "--lambda=0.4,-2", "--lambda=1e-7", "--seed",
     "9"),
    # a prefix and a separate negative value: argparse parses this one
    ("polyone", "--n", "12", "--lambda", "-0.5"),
    # real lambdas written as complex ones, -0.0 too: float tables
    ("coset", "--lambda=2,0", "--lambda=-0.5,-0.0"),
    ("polyone", "--n-max", "16", "--lambda=0.4,0"),
)
# the report as CSV, compared byte for byte: compact and the suite-all size
VERIFY_CSV_CONFIGS = tuple((*config, "--format", "csv") for config in (
    ("compact",),
    ("all", "--seed", "11", "--n-max", "10", "--samples", "3", "--xmax",
     "0.3", "--h", "2e-3")))
TABULATE_CONFIGS = tuple(
    ("--family", family) for family in
    ("chebyshev", "legendre", "su2", "product", "coset", "sturm")) + (
    ("--family", "chebyshev", "--lambda", "1,0.5", "--n-max", "12"),
    ("--family", "legendre", "--lambda", "1.3", "--n-max", "20", "--c",
     "0.3,0.7"),
    ("--family", "product", "--n-max", "6", "--lambda", "0.4", "--format",
     "json"),
    ("--family", "su2", "--lambda", "0,3.141592653589793", "--c", "2"),
    ("--family", "sturm", "--alpha", "1.3", "--lambda", "0.8"),
    ("--family", "sturm", "--lambda", "-0.7", "--c", "-1.5"),
    # zero forcing, where f stays exactly 0, and a complex lambda
    ("--family", "sturm", "--c", "0"),
    ("--family", "sturm", "--lambda", "1,0.5", "--xmax", "2"),
    ("--family", "legendre", "--format", "json"),   # integer element labels
    ("--family", "chebyshev", "--n-max", "0"),   # table to n + 1
    ("--family", "su2", "--n-max", "0"),   # table to n + 1
    ("--family", "coset", "--lambda", "0.5,0.5", "--c", "2,-1", "--n-max",
     "3"),
    # P_2 overflows here, but the one row reads only P_0 and P_1
    ("--family", "chebyshev", "--n-max", "0", "--lambda", "1e100"),
    ("--family", "chebyshev", "--lam", "0.5", "--n", "6"),   # prefixes
    # a real lambda with a complex c: a float m and a complex sine
    ("--family", "su2", "--lambda", "0.7", "--c", "1,1"),
    ("--family", "coset", "--lambda=-3"),   # ln x = 0 at x = 1
    # the coset sine formed from its exponential's values: a real lambda
    # with a complex c, and a complex c whose zero imaginary part is dropped
    ("--family", "coset", "--lambda", "0.7", "--c", "1,1"),
    ("--family", "coset", "--lambda", "0.5", "--c", "2,-0.0"),
)


def two_point(theta):
    """Tensor of the two-point hypergroup, as core.two_point_hypergroup."""
    return [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [theta, 1.0 - theta]]]


def product(s, t):
    """Tensor of the product of two two-element hypergroups: element
    2 i + j is the pair (i, j)."""
    bits = (0, 1)
    return [[[s[i][k][l] * t[j][m][q] for l in bits for q in bits]
             for k in bits for m in bits] for i in bits for j in bits]


def cyclic(n):
    """Tensor of the cyclic group Z/n: i * j is the point mass at i + j
    mod n."""
    return [[[float(l == (i + j) % n) for l in range(n)] for j in range(n)]
            for i in range(n)]


# row 1 * 1 sums to 1 + 3e-12: off by more than tol times its one weight,
# the rule convolve judges it by, but by less than tol times N = 5
Z5_ROW_OFF = cyclic(5)
Z5_ROW_OFF[1][1][2] = 1 + 3e-12
THIRD = 1.0 / 3.0
SPECS = {   # finite hypergroup spec files, as core.dump_finite_hypergroup
    "two-point-0.5.json": {
        "name": "two-point(theta=0.5)", "size": 2, "tensor": two_point(0.5)},
    "s3.json": {
        "name": "s3-conjugacy", "size": 3,
        "tensor": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                   [[0.0, 1.0, 0.0], [THIRD, 0.0, 2 * THIRD],
                    [0.0, 1.0, 0.0]],
                   [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]]},
    # rows with 1, 2 and 4 non-zero weights
    "two-point-product.json": {
        "name": "two-point(theta=0.5) x two-point(theta=0.25)", "size": 4,
        "tensor": product(two_point(0.5), two_point(0.25))},
    # complex exponentials: omega and omega^2
    "z3.json": {"name": "z3", "size": 3, "tensor": cyclic(3)},
    "z5-row-off.json": {"name": "z5-row-off", "size": 5,
                        "tensor": Z5_ROW_OFF},
}
SINE_SPACE_CONFIGS = tuple((spec, "--format", fmt)
                           for spec in SPECS for fmt in ("csv", "json"))
# the command lines whose stdout is compared byte for byte
TABLES = ([("verify", *c) for c in VERIFY_CSV_CONFIGS]
          + [("tabulate", *c) for c in TABULATE_CONFIGS]
          + [("sine-space", *c) for c in SINE_SPACE_CONFIGS])


# the child of ``run`` given a rules path: ``hypersine`` with every report
# of cli.run_suite recorded, and [name, tol, rule] per row written there
RULES_CHILD = """
import json, sys
from hypersine import cli
run_suite, rows = cli.run_suite, []
def recording(*args):
    report = run_suite(*args)
    rows.extend((c.name, c.tol, c.rule) for c in report.checks)
    return report
cli.run_suite = recording
try:
    sys.exit(cli.main(sys.argv[2:]))
finally:
    with open(sys.argv[1], "w") as fh:
        json.dump(rows, fh)
"""


def run(src, argv, cwd, rules=None):
    """(exit code, stdout bytes) of ``hypersine argv`` on src; given a path
    ``rules``, the run also writes there the [name, tol, rule] of each row
    it judged (``RULES_CHILD``)."""
    child = ("-m", "hypersine") if rules is None else ("-c", RULES_CHILD,
                                                       rules)
    proc = subprocess.run(
        [sys.executable, *child, *argv], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(Path(src).resolve())),
        capture_output=True, check=False)
    return proc.returncode, proc.stdout


def run_verify(src, argv, cwd):
    """(exit code, parsed report) of ``hypersine verify argv`` on src, each
    row with the ``tol`` and ``rule`` that judged it."""
    rules = Path(cwd, "rules.json")
    rules.unlink(missing_ok=True)
    code, out = run(src, ["verify", *argv], cwd, rules=str(rules))
    report = json.loads(out) if out else {}
    judged = {name: (tol, rule) for name, tol, rule in (
        json.loads(rules.read_text()) if rules.exists() else [])}
    for row in report.get("checks", []):
        row.update(zip(("tol", "rule"), judged.get(row["suite"], ())))
    return code, report


def line_diff(base, head):
    """Lines telling how two (exit code, stdout bytes) outputs differ, [] if
    they are the same: the exit codes, then a unified diff of the stdout
    lines with no context and no file header.  A last line without its
    newline is marked so."""
    lines = [f"exit code {base[0]} -> {head[0]}"] if base[0] != head[0] else []
    diff = difflib.diff_bytes(difflib.unified_diff,
                              *(out.splitlines(keepends=True)
                                for _, out in (base, head)), n=0)
    for line in itertools.islice(diff, 2, None):
        text = line.decode(errors="replace")
        lines.append(text[:-1] if text.endswith("\n")
                     else f"{text} (no newline at end)")
    return lines


def differences(base, head):
    """Lines ``name field base -> head`` for each field that differs between
    two reports: per row (keyed by its ``suite`` name), then the row order
    and the top-level keys.  ``wall_time`` is ignored; values are compared
    as their JSON text, so 0.0 and -0.0 differ and NaN equals NaN."""
    def text(obj, key):
        return json.dumps(obj[key]) if key in obj else "<missing>"

    rows = [{row["suite"]: row for row in rep.get("checks", [])}
            for rep in (base, head)]
    names = list(rows[0]) + [n for n in rows[1] if n not in rows[0]]
    lines = []
    for name in names:
        b, h = (r.get(name, {}) for r in rows)
        lines += [f"{name} {field} {text(b, field)} -> {text(h, field)}"
                  for field in sorted(set(b) | set(h))
                  if text(b, field) != text(h, field)]
    if not lines and list(rows[0]) != list(rows[1]):
        lines.append("report row-order differs")
    lines += [f"report {key} {text(base, key)} -> {text(head, key)}"
              for key in sorted((set(base) | set(head)) - {"checks",
                                                          "wall_time"})
              if text(base, key) != text(head, key)]
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(next(line for line in __doc__.splitlines()
                   if line.startswith("Usage:")), file=sys.stderr)
        return 2
    same = []   # per configuration: identical or not
    with tempfile.TemporaryDirectory() as tmp:
        for name, (spec, *params) in REC_FILES.items():
            Path(tmp, name).write_text(json.dumps(spec(
                *params, 64, name.removesuffix(".json"))))
        for name, spec in SPECS.items():
            Path(tmp, name).write_text(json.dumps(spec))
        for config in CONFIGS:
            (b_code, b_rep), (h_code, h_rep) = (run_verify(src, config, tmp)
                                                for src in argv)
            lines = differences(b_rep, h_rep)
            if b_code != h_code:
                lines.insert(0, f"exit code {b_code} -> {h_code}")
            print(f"verify {' '.join(config)}: "
                  f"{'identical' if not lines else 'DIFFERS'}")
            for line in lines:
                print(f"  {line}")
            same.append(not lines)
        for config in TABLES:
            lines = line_diff(*(run(src, config, tmp) for src in argv))
            print(f"{' '.join(config)}: "
                  f"{'identical' if not lines else 'DIFFERS'}")
            for line in lines:
                print(f"  {line}")
            same.append(not lines)
    print(f"{len(same)} configurations, {sum(same)} identical")
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
