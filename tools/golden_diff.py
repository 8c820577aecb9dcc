"""Compare the ``hypersine verify`` reports and the ``hypersine verify
--format csv``, ``hypersine tabulate`` and ``hypersine sine-space`` tables of
two source trees.

Usage: python tools/golden_diff.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the ``src`` directories of two checkouts.  Each
golden configuration runs once per tree in a fresh interpreter with
PYTHONPATH set to that tree.  For ``verify``, ``wall_time`` is dropped and
every other field must match byte for byte; the tool prints
``identical``, or one line per differing row field: ``name field base ->
head``.  For the tables, which hold no ``wall_time``, the exit code and the
stdout bytes must match; the tool prints ``identical``, or the exit codes
and every differing line, as a unified diff with no context (``@@`` hunk
headers, ``-`` base lines, ``+`` head lines).  The exit status is 0 only if
every configuration is identical.
The CLI reads most of these command lines from its option table; those
with a prefix such as ``--n`` or a separate negative value go through
argparse, so both ways of parsing are compared.
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

REC_FILE = "ultraspherical-0.7.json"
CONFIGS = (
    ("all", "--seed", "11"),
    ("all", "--seed", "11", "--n-max", "10", "--samples", "3", "--xmax",
     "0.3", "--h", "2e-3"),
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
    ("su2", "--lambda", "0,3.141592653589793", "--n-max", "12"),
    ("polyone", "--rec-file", REC_FILE, "--n-max", "32"),
    # chebyshev's errors are exactly 0 at lambda = +-1: each witness is the
    # first ordered pair; su2 at lambda 0 witnesses pairs off the diagonal
    ("polyone", "--n-max", "16", "--lambda", "1", "--lambda=-1"),
    ("su2", "--n-max", "24", "--lambda", "0"),
    # negative real, negative imaginary part, and the 3 cosh lambda scale
    ("su2", "--lambda=-0.7", "--lambda=0.4,-2", "--lambda=1e-7", "--seed",
     "9"),
    # a prefix and a separate negative value: argparse parses this one
    ("polyone", "--n", "12", "--lambda", "-0.5"),
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
    ("--family", "legendre", "--format", "json"),   # integer element labels
    ("--family", "chebyshev", "--n-max", "0"),   # table to n + 1
    ("--family", "su2", "--n-max", "0"),   # table to n + 1
    ("--family", "coset", "--lambda", "0.5,0.5", "--c", "2,-1", "--n-max",
     "3"),
    # P_2 overflows here, but the one row reads only P_0 and P_1
    ("--family", "chebyshev", "--n-max", "0", "--lambda", "1e100"),
    ("--family", "chebyshev", "--lam", "0.5", "--n", "6"),   # prefixes
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
}
SINE_SPACE_CONFIGS = tuple((spec, "--format", fmt)
                           for spec in SPECS for fmt in ("csv", "json"))
# the command lines whose stdout is compared byte for byte
TABLES = ([("verify", *c) for c in VERIFY_CSV_CONFIGS]
          + [("tabulate", *c) for c in TABULATE_CONFIGS]
          + [("sine-space", *c) for c in SINE_SPACE_CONFIGS])


def ultraspherical():
    """Recurrence spec of the ultraspherical polynomials with alpha = 0.7,
    degrees 0..64."""
    alpha, ns = 0.7, range(65)
    return {"name": "ultraspherical-0.7",
            "a": [(n + 2 * alpha + 1) / (2 * n + 2 * alpha + 1) for n in ns],
            "b": [0.0] * len(ns),
            "c": [n / (2 * n + 2 * alpha + 1) for n in ns]}


def run(src, argv, cwd):
    """(exit code, stdout bytes) of ``hypersine argv`` on src."""
    proc = subprocess.run(
        [sys.executable, "-m", "hypersine", *argv], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(Path(src).resolve())),
        capture_output=True, check=False)
    return proc.returncode, proc.stdout


def run_verify(src, argv, cwd):
    """(exit code, parsed report) of ``hypersine verify argv`` on src."""
    code, out = run(src, ["verify", *argv], cwd)
    return code, json.loads(out) if out else {}


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
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, REC_FILE).write_text(json.dumps(ultraspherical()))
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
            same = same and not lines
        for config in TABLES:
            lines = line_diff(*(run(src, config, tmp) for src in argv))
            print(f"{' '.join(config)}: "
                  f"{'identical' if not lines else 'DIFFERS'}")
            for line in lines:
                print(f"  {line}")
            same = same and not lines
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
