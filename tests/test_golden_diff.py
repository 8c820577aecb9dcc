import importlib.util
import json
from pathlib import Path

import numpy as np

from hypersine.core import s3_conjugacy_hypergroup, two_point_hypergroup

_spec = importlib.util.spec_from_file_location(
    "golden_diff", Path(__file__).parents[1] / "tools" / "golden_diff.py")
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)


def _report(rows, wall_time=0.5, passed=True):
    return {"checks": [dict(zip(("suite", "max_abs", "pass"), row))
                       for row in rows],
            "pass": passed, "suite": "compact", "wall_time": wall_time}


def test_differences_ignore_wall_time_and_name_each_changed_field():
    base = _report([("a", 0.0, True), ("b", 1e-16, True)])
    assert golden_diff.differences(base, _report(
        [("a", 0.0, True), ("b", 1e-16, True)], wall_time=9.0)) == []
    head = _report([("a", -0.0, True), ("b", 2.0, False), ("c", 0.0, True)],
                   passed=False)
    assert golden_diff.differences(base, head) == [
        "a max_abs 0.0 -> -0.0",
        "b max_abs 1e-16 -> 2.0",
        "b pass true -> false",
        'c max_abs <missing> -> 0.0',
        "c pass <missing> -> true",
        'c suite <missing> -> "c"',
        "report pass true -> false"]


def test_line_diff_names_exit_code_and_every_changed_line():
    table = b"element,m\n0,1.0\n1,-0.5\n2,0.25\n"
    assert golden_diff.line_diff((0, table), (0, table)) == []
    assert golden_diff.line_diff((0, table), (2, b"")) == [
        "exit code 0 -> 2", "@@ -1,4 +0,0 @@", "-element,m", "-0,1.0",
        "-1,-0.5", "-2,0.25"]
    assert golden_diff.line_diff(
        (0, table), (0, table.replace(b"-0.5", b"-0.25"))) == [
        "@@ -3 +3 @@", "-1,-0.5", "+1,-0.25"]
    # two deleted rows are two - lines, each under its own hunk header
    assert golden_diff.line_diff(
        (0, table), (0, b"element,m\n1,-0.5\n")) == [
        "@@ -2 +1,0 @@", "-0,1.0", "@@ -4 +2,0 @@", "-2,0.25"]
    assert golden_diff.line_diff((0, table), (0, table[:-1])) == [
        "@@ -4 +4 @@", "-2,0.25", "+2,0.25 (no newline at end)"]
    assert golden_diff.line_diff((0, table), (0, table + b"3,0\n")) == [
        "@@ -4,0 +5 @@", "+3,0"]


def test_differences_see_a_reordered_report():
    rows = [("a", 0.0, True), ("b", 1.0, True)]
    assert golden_diff.differences(_report(rows), _report(rows[::-1])) == [
        "report row-order differs"]


def test_sine_space_specs_are_the_built_in_hypergroups():
    specs = golden_diff.SPECS
    for name, hg in (("two-point-0.5.json", two_point_hypergroup(0.5)),
                     ("s3.json", s3_conjugacy_hypergroup())):
        # the JSON text round-trips every weight exactly
        spec = json.loads(json.dumps(specs[name]))
        assert (spec["name"], spec["size"]) == (hg.name, hg.size)
        assert np.array_equal(spec["tensor"], hg.tensor)


def test_product_spec_is_the_product_of_two_point_hypergroups():
    spec = json.loads(json.dumps(golden_diff.SPECS["two-point-product.json"]))
    tensor = np.einsum("abc,def->adbecf", two_point_hypergroup(0.5).tensor,
                       two_point_hypergroup(0.25).tensor).reshape(4, 4, 4)
    assert spec["size"] == 4
    assert np.array_equal(spec["tensor"], tensor)
    # rows of 1, 2 and 4 weights: a narrow batch is padded tensor-wide
    assert sorted(set(np.count_nonzero(tensor, axis=2).ravel())) == [1, 2, 4]


def test_main_compares_every_sine_space_table(monkeypatch, capsys):
    calls = []

    def fake_run(src, argv, cwd):
        calls.append((src, tuple(argv)))
        assert all((Path(cwd) / name).exists() for name in golden_diff.SPECS)
        if argv[0] == "verify":
            return 0, b"{}"
        changed = src == "head" and tuple(argv) == (
            "sine-space", "s3.json", "--format", "json")
        return 0, b"table\n" + (b"changed\n" if changed else b"")

    monkeypatch.setattr(golden_diff, "run", fake_run)
    assert golden_diff.main(["base", "head"]) == 1
    spaces = [argv for src, argv in calls
              if src == "head" and argv[0] == "sine-space"]
    assert spaces == [("sine-space", spec, "--format", fmt)
                      for spec in ("two-point-0.5.json", "s3.json",
                                   "two-point-product.json")
                      for fmt in ("csv", "json")]
    out = capsys.readouterr().out.splitlines()
    assert out.count("sine-space s3.json --format json: DIFFERS") == 1
    assert sum(line.endswith("DIFFERS") for line in out) == 1


def test_main_compares_each_csv_report_byte_for_byte(monkeypatch, capsys):
    calls = []

    def fake_run(src, argv, cwd):
        calls.append((src, tuple(argv)))
        if argv[0] == "verify" and "csv" not in argv:
            return 0, b"{}"
        changed = src == "head" and tuple(argv) == (
            "verify", "compact", "--format", "csv")
        return 0, b"suite,max_abs\n" + (b"changed\n" if changed else b"")

    monkeypatch.setattr(golden_diff, "run", fake_run)
    assert golden_diff.main(["base", "head"]) == 1
    reports = [argv[1:] for src, argv in calls
               if src == "head" and argv[-2:] == ("--format", "csv")
               and argv[0] == "verify"]
    assert reports == list(golden_diff.VERIFY_CSV_CONFIGS)
    assert {"compact", "all"} <= {argv[0] for argv in reports}
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.endswith("DIFFERS")] == [
        "verify compact --format csv: DIFFERS"]
    at = out.index("verify compact --format csv: DIFFERS")
    assert out[at + 1:at + 3] == ["  @@ -1,0 +2 @@", "  +changed"]
