"""Benchmark for the ``hypersine verify`` certifier.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload poly-deep --seed 1 --seconds 25 --trace 0

Each invocation of ``hypersine`` runs in a fresh interpreter
(``child.py``) that imports the package from ``./src`` and calls
``hypersine.cli.main`` with ``--out``, so each timing ends once the
report is on disk.  Invocations run one at a time (a closed loop) and
cycle through seeded configs (``workloads.py``), two invocations each.
Every report is checked: exit code 0, every check passing, and
byte-identical reports (``wall_time`` aside) for the same config.

``--trace 0`` prints the end-to-end metrics.  Their times are rescaled to
a fixed machine speed: each child times a reference routine that shares
no code with hypersine just before and just after ``cli.main``, and the
invocation's timings are multiplied by REFERENCE_S over those readings.
The run and its children are pinned to one CPU, so the gauge and the
invocation run on the same core.  The raw wall-clock median and the
sample count are printed too, not gated.

``--trace 1`` alternates untraced and traced invocations of config 0,
prints the per-layer metrics (medians over the traced invocations, each
per invocation) and leaves the spans of the last traced invocation in
``.perfbench_work/spans-<workload>.npz``.  Traced reports must equal the
untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count checks, so ``failed / attempted`` is the check-fail
ratio, also printed above it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

from workloads import WORKLOADS, config_argv

CHILD = Path(__file__).resolve().parent / "child.py"
WORK_DIR = ".perfbench_work"
REPEATS = 2            # invocations per config; their reports must match
MIN_SAMPLES = 40       # a 75th percentile with ten samples beyond it
MIN_TRACED = 3
RUN_CAP_S = 150.0      # stop extending a run towards MIN_SAMPLES here
CHILD_TIMEOUT_S = 120.0
# The reference routine's usual time on the 2-core, 2.0 GHz sandbox the
# bounds were set on.  Timings are rescaled to this speed because that
# machine drifts between speed states up to 1.8x apart, for tens of
# seconds at a time, far more than any bound.
REFERENCE_S = 0.010

END_TO_END = {
    "verify_s": "s",
    "verify_s_p75": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "suites.self_s": "s",
    "suites.serialize_s": "s",
    "suites.checks": "count",
    "suites.samples": "count",
    "core.residual_s": "s",
    "core.residual_samples": "count",
    "core.sine_space_s": "s",
    "core.exponentials_s": "s",
    "polyhg.table_s": "s",
    "polyhg.linearize_calls": "count",
    "polyhg.convolve_calls": "count",
    "polyhg.convolve_hit_ratio": "ratio",
    "polyhg.table_bytes": "B",
    "polyhg.table_llc_ratio": "ratio",
    "polyhg.convolve_s": "s",
    "polyhg.eval_s": "s",
    "polyhg.eval_calls": "count",
    "polyhg.tabulate_s": "s",
    "polyhg.reconstruct_s": "s",
    "multipoly.convolve_s": "s",
    "multipoly.convolve_calls": "count",
    "multipoly.eval_s": "s",
    "multipoly.eval_calls": "count",
    "multipoly.fit_s": "s",
    "su2.convolve_s": "s",
    "su2.convolve_calls": "count",
    "su2.eval_s": "s",
    "su2.tabulate_s": "s",
    "su2.recurrence_s": "s",
    "sturm.solve_phi_s": "s",
    "sturm.solve_sine_s": "s",
    "sturm.dlambda_phi_s": "s",
    "sturm.cosh_check_s": "s",
    "sturm.rk4_steps": "count",
    "coset.convolve_s": "s",
    "coset.convolve_calls": "count",
    "coset.eval_s": "s",
    "coset.eval_calls": "count",
    "coset.falsify_s": "s",
    "trace_overhead_ratio": "ratio",
}


def source_dir(root):
    """``root/src``, which must hold the hypersine package."""
    src = (Path(root) / "src").resolve()
    if not (src / "hypersine" / "__init__.py").is_file():
        raise SystemExit(f"error: no hypersine sources under {src}")
    return src


def last_level_cache():
    """(level, bytes) of the highest-level data or unified cache of cpu0
    from sysfs, else (None, bytes) from /proc/cpuinfo, else (None, None)."""
    best = (None, None)
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = int((index / "level").read_text())
            size = _parse_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if best[0] is None or level > best[0]:
            best = (level, size)
    if best[0] is not None:
        return best
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("cache size"):
                return None, _parse_size(line.split(":", 1)[1])
    except (OSError, ValueError):
        pass
    return None, None


def _parse_size(text):
    match = re.fullmatch(r"\s*(\d+)\s*([KMG]?)B?\s*", text, re.IGNORECASE)
    if match is None:
        raise ValueError(f"cannot read cache size {text!r}")
    scale = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(match.group(1)) * scale[match.group(2).upper()]


def machine_facts():
    level, size = last_level_cache()
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "llc_level": level,
        "llc_bytes": size,
    }


@dataclass
class Invocation:
    config: int
    code: object                # exit code, or why the child gave none
    seconds: float              # cli.main call to report written
    report: bytes | None        # the report file as written, or None
    setup_s: float = math.nan   # interpreter start to hypersine.cli imported
    scale: float = math.nan     # REFERENCE_S over the child's gauge readings
    rss_kib: int = 0
    layers: dict | None = None  # per-layer values of a traced invocation


def invoke(src, argv, out_path, config, spans_path=None):
    """Run one ``hypersine`` invocation in a fresh interpreter and wait for
    it; with ``spans_path`` it is traced and its spans are written there."""
    out_path = Path(out_path)
    out_path.unlink(missing_ok=True)
    cmd = [sys.executable, "-I", str(CHILD), str(src), str(out_path),
           str(spans_path) if spans_path else "-", "--", *argv]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Invocation(config, "timeout", CHILD_TIMEOUT_S, None)
    report = out_path.read_bytes() if out_path.exists() else None
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        print(f"child gave no result (exit {proc.returncode}): "
              f"{' '.join(argv)}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return Invocation(config, f"child exit {proc.returncode}", math.nan,
                          report)
    if result["code"] != 0:
        print(f"invocation failed (exit {result['code']}): {' '.join(argv)}\n"
              f"{result['log']}", file=sys.stderr)
    gauge = (result["ref_before"] + result["ref_after"]) / 2.0
    return Invocation(config, result["code"], result["seconds"], report,
                      result["imported"] - spawned, REFERENCE_S / gauge,
                      result["rss_kib"], result.get("layers"))


_WALL_TIME = re.compile(rb'"wall_time": [^,\n}]*')


def without_wall_time(report):
    return _WALL_TIME.sub(b'"wall_time": null', report)


def report_rows(report):
    """The check rows of a JSON report, or None if there are none."""
    if report is None:
        return None
    try:
        rows = json.loads(report)["checks"]
    except (ValueError, KeyError, TypeError):
        return None
    return rows if isinstance(rows, list) and rows else None


def tally(invocations):
    """(attempted, failed) checks over all invocations.

    A check fails if its row says so.  Every check of an invocation fails
    if it exited non-zero, wrote no readable report, or its report differs
    (``wall_time`` aside) from another invocation of the same config.  An
    invocation without a report counts as one attempted, failed check.
    """
    by_config = {}
    for inv in invocations:
        by_config.setdefault(inv.config, []).append(inv)
    attempted = failed = 0
    for group in by_config.values():
        bodies = {without_wall_time(inv.report) for inv in group
                  if inv.report is not None}
        consistent = len(bodies) == 1
        for inv in group:
            rows = report_rows(inv.report)
            count = len(rows) if rows else 1
            attempted += count
            if inv.code != 0 or not rows or not consistent:
                failed += count
            else:
                failed += sum(row.get("pass") is not True for row in rows)
    return attempted, failed


def report_samples(rows):
    return sum(int(row["samples"]) for row in rows)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    """One benchmark run: a workload, a seed and a time budget."""

    def __init__(self, src, workload, seed, seconds, workdir):
        self.src = src
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = Path(workdir)
        self.out = self.workdir / "report.json"
        self._argv = {}
        self.invocations = []
        self.started = time.perf_counter()

    def run(self, config, spans_path=None):
        if config not in self._argv:
            self._argv[config] = config_argv(self.workload, self.seed, config,
                                             self.workdir)
        inv = invoke(self.src, self._argv[config], self.out, config,
                     spans_path)
        self.invocations.append(inv)
        return inv

    def keep_going(self, deadline, count, minimum):
        now = time.perf_counter()
        return now < deadline or (count < minimum
                                  and now - self.started < RUN_CAP_S)

    def end_to_end(self):
        self.run(0)  # warm-up: checked, not timed
        timed = []
        deadline = time.perf_counter() + self.seconds
        config = 0
        while self.keep_going(deadline, len(timed), MIN_SAMPLES):
            timed += [self.run(config) for _ in range(REPEATS)]
            config += 1
        ok = [inv for inv in timed if inv.code == 0 and report_rows(inv.report)]
        if not ok:
            raise SystemExit("error: no invocation succeeded")
        verify = [inv.seconds * inv.scale for inv in ok]
        metrics = {
            "verify_s": statistics.median(verify),
            "verify_s_p75": nearest_rank(verify, 0.75),
            "samples_per_s": statistics.median(
                report_samples(report_rows(inv.report)) / seconds
                for inv, seconds in zip(ok, verify)),
            "peak_rss_mb": max(inv.rss_kib for inv in ok) / 1024.0,
            "setup_s": statistics.median(inv.setup_s * inv.scale
                                         for inv in ok),
        }
        notes = {
            "verify_count": (len(verify), "count"),
            "verify_wall_s": (statistics.median(inv.seconds for inv in ok),
                              "s"),
            "reference_s": (statistics.median(REFERENCE_S / inv.scale
                                              for inv in ok), "s"),
        }
        return metrics, notes

    def per_layer(self, llc_bytes, spans_path):
        self.run(0)  # warm-up: checked, not timed
        untraced, traced = [], []
        deadline = time.perf_counter() + self.seconds
        while self.keep_going(deadline, len(traced), MIN_TRACED):
            untraced.append(self.run(0))
            traced.append(self.run(0, spans_path))
        layers = []
        for inv in traced:
            rows = report_rows(inv.report)
            if inv.layers is None or not rows:
                continue
            values = dict(inv.layers)
            values["suites.checks"] = len(rows)
            values["suites.samples"] = report_samples(rows)
            values["polyhg.table_llc_ratio"] = (
                values["polyhg.table_bytes"] / llc_bytes if llc_bytes else 0.0)
            layers.append(values)
        if not layers:
            raise SystemExit("error: no traced invocation succeeded")
        metrics = {name: statistics.median_low(v[name] for v in layers)
                   for name in layers[0]}
        metrics["trace_overhead_ratio"] = (
            statistics.median(inv.seconds for inv in traced)
            / statistics.median(inv.seconds for inv in untraced))
        return metrics, {"traced_count": (len(traced), "count")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = source_dir(root)
    facts = machine_facts()
    # One CPU for the run and the children it starts, which inherit it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = root / WORK_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    runner = Runner(src, args.workload, args.seed, args.seconds, workdir)
    try:
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}.npz"
            metrics, notes = runner.per_layer(facts["llc_bytes"], spans_path)
            units = PER_LAYER
        else:
            metrics, notes = runner.end_to_end()
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = tally(runner.invocations)
    print(f"machine {json.dumps(facts, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runner.invocations)} invocations")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]!r} {unit}")
    for name, (value, unit) in notes.items():
        print(f"  {name:28s} {value!r} {unit} (not gated)")
    print(f"  {'check_fail_ratio':28s} {failed / attempted!r} ratio "
          f"({failed}/{attempted} checks)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
