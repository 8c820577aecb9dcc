"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import POLY_N_MAX, WORKLOADS, config_argv  # noqa: E402


def _files(directory):
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(workload, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    argv_a = [config_argv(workload, 7, i, first) for i in range(3)]
    argv_b = [config_argv(workload, 7, i, second) for i in range(3)]
    strip = lambda argv: [a.replace(str(first), "").replace(str(second), "")
                          for a in argv]
    assert [strip(a) for a in argv_a] == [strip(b) for b in argv_b]
    assert _files(first) == _files(second)
    assert argv_a[0] != argv_a[1]
    assert strip(config_argv(workload, 8, 0, second)) != strip(argv_a[0])


def test_generated_recurrence_is_a_valid_hypergroup(tmp_path):
    from hypersine.polyhg import linearize, recurrence_from_file
    for seed in range(5):
        argv = config_argv("poly-deep", seed, 0, tmp_path)
        path = argv[argv.index("--rec-file") + 1]
        data = json.loads(Path(path).read_text())
        assert len(data["a"]) >= 2 * POLY_N_MAX + 1
        rec = recurrence_from_file(path)  # ThreeTermRecurrence validation
        rec.check_order(2 * POLY_N_MAX)
        for n, k in ((3, 5), (7, 7), (12, 20)):
            assert min(linearize(rec, n, k).weights) >= 0.0


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] -> a [1, 4] -> c [2, 3]
    #              -> b [5, 9] -> d [5, 6], e [7, 9] -> f [8, 8.5]
    parent = [-1, 0, 1, 0, 3, 3, 5]
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 9.0, 8.5]
    got = spans.self_times(parent, start, end)
    assert np.allclose(got, [3.0, 2.0, 1.0, 1.0, 1.0, 1.5, 0.5])


def test_nested_spans_of_one_name_count_once():
    names = ["outer", "layer", "other"]
    # layer [1, 5] holds layer [2, 3] and other [3.5, 4.5];
    # a second layer [6, 7] sits directly under outer.
    name = [0, 1, 1, 2, 1]
    parent = [-1, 0, 1, 1, 0]
    start = [0.0, 1.0, 2.0, 3.5, 6.0]
    end = [10.0, 5.0, 3.0, 4.5, 7.0]
    summary = spans.summarize(names, name, parent, start, end)
    assert summary["layer"] == {"calls": 3, "busy_s": 5.0, "self_s": 4.0}
    assert summary["other"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert summary["outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}


def test_recorder_nesting_and_counts():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda x: x + 1, "inner",
                          lambda args, result: recorder.add("seen", result))
    outer = recorder.wrap(lambda: inner(1) + inner(2), "outer")
    assert outer() == 5
    name, parent, start, end = recorder.arrays()
    assert [recorder.names[i] for i in name] == ["outer", "inner", "inner"]
    assert list(parent) == [-1, 0, 0]
    assert recorder.counters == {"seen": 5}
    assert np.allclose(spans.self_times(parent, start, end), [3.0, 1.0, 1.0])


def _report(*passes):
    rows = [{"suite": f"c{i}", "max_abs": 0.0, "max_rel": 0.0,
             "witness": None, "samples": 3, "pass": ok}
            for i, ok in enumerate(passes)]
    doc = {"suite": "x", "pass": all(passes), "wall_time": 0.5,
           "checks": rows}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _inv(config, code, report, seconds=0.1):
    return run.Invocation(config, code, seconds, report)


def test_passing_repeats_count_no_failures():
    a = _report(True, True)
    b = a.replace(b'"wall_time": 0.5', b'"wall_time": 0.75')
    assert run.tally([_inv(0, 0, a), _inv(0, 0, b)]) == (4, 0)


def test_failing_check_is_counted():
    bad = _report(True, False, True)
    assert run.tally([_inv(0, 0, bad), _inv(0, 0, bad)]) == (6, 2)


def test_nonzero_exit_fails_every_check():
    good = _report(True, True, True)
    assert run.tally([_inv(0, 1, good), _inv(0, 0, good)]) == (6, 3)
    assert run.tally([_inv(0, 2, None)]) == (1, 1)
    assert run.tally([_inv(0, "exception", None)]) == (1, 1)


def test_reports_that_differ_fail_the_config():
    a = _report(True, True)
    b = a.replace(b'"max_abs": 0.0', b'"max_abs": 1e-300', 1)
    other = _report(True)
    assert run.tally([_inv(0, 0, a), _inv(0, 0, b),
                      _inv(1, 0, other), _inv(1, 0, other)]) == (6, 4)


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_invocation_matches_untraced(tmp_path):
    src = run.source_dir(ROOT)
    argv = ["verify", "polyone", "--n-max", "6", "--lambda", "0.4"]
    out = tmp_path / "report.json"
    plain = run.invoke(src, argv, out, 0)
    traced = run.invoke(src, argv, out, 0, tmp_path / "spans.npz")
    checks = len(run.report_rows(plain.report))
    assert run.tally([plain, traced]) == (2 * checks, 0)
    assert plain.layers is None
    layers = traced.layers
    # chebyshev and legendre tables up to degree 6: 28 pairs each
    assert layers["polyhg.table_bytes"] > 0
    assert layers["polyhg.linearize_calls"] >= 2 * 28
    assert 0.0 < layers["polyhg.convolve_hit_ratio"] < 1.0
    assert layers["core.residual_samples"] == 2 * 2 * 49
    saved = np.load(tmp_path / "spans.npz")
    assert "suites.run_suite" in set(saved["names"])
    assert saved["parent"][0] == -1
    assert len(saved["start"]) == len(saved["end"]) == len(saved["name"])


def test_instrumentation_is_removed_after_the_block():
    import hypersine.cli  # noqa: F401  (loads every module)
    import hypersine.polyhg
    import hypersine.suites
    original = hypersine.suites.exp_residual
    convolve = hypersine.polyhg.PolynomialHypergroup.convolve
    instr = spans.Instrumentation(spans.SpanRecorder())
    with instr.installed():
        assert hypersine.suites.exp_residual is not original
        assert hypersine.polyhg.PolynomialHypergroup.convolve is not convolve
        m = hypersine.polyhg.exp_fn(hypersine.polyhg.chebyshev_recurrence(),
                                    0.5, n_max=4)
        assert isinstance(m, hypersine.polyhg.TabulatedFunction)
        assert len(m) == 5 and m(2) == m.values[2]
    assert hypersine.suites.exp_residual is original
    assert hypersine.polyhg.PolynomialHypergroup.convolve is convolve
