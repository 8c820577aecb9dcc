import csv
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from hypersine import cli, suites
from hypersine.core import (ResidualReport, dump_finite_hypergroup,
                            s3_conjugacy_hypergroup, two_point_hypergroup)
from hypersine.sturm import power_family, solve_sine
from hypersine.suites import _FAMILIES, SuiteReport, _row
from recurrences import ultraspherical_spec
from test_weight_rule import z5_row_off


def run(argv):
    return cli.main(argv)


def test_list(capsys):
    # the tabulate families are those of the family table, then sturm
    assert cli.TABULATE_FAMILIES == (*_FAMILIES, "sturm") == (
        "chebyshev", "legendre", "su2", "product", "coset", "sturm")
    assert run(["list"]) == 0
    assert capsys.readouterr().out == (
        "suites: compact polyone su2 sinsev sturm coset all\n"
        "tabulate families: chebyshev legendre su2 product coset sturm\n"
        "built-in recurrences: chebyshev legendre\n")


def test_verify_compact_json_report(capsys):
    assert run(["verify", "compact", "--theta", "0.25"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["suite"] == "compact"
    for row in doc["checks"]:
        assert set(row) == {"suite", "max_abs", "max_rel", "witness",
                            "samples", "pass"}


def test_verify_writes_file_and_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for args in (["verify", "coset", "--seed", "3", "--samples", "100"],
                 ["verify", "all", "--n-max", "10", "--samples", "3",
                  "--xmax", "0.3", "--h", "2e-3"]):
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        da = json.loads(a.read_text())
        db = json.loads(b.read_text())
        da.pop("wall_time")
        db.pop("wall_time")
        assert da == db


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run(["verify", "bogus"])
    assert err.value.code == 2


def test_bad_lambda_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run(["verify", "polyone", "--lambda", "nope"])
    assert err.value.code == 2


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_verify_n_max_below_one_is_usage_error(n_max, capsys):
    assert run(["verify", "su2", "--n-max", n_max]) == 2
    captured = capsys.readouterr()
    assert "--n-max" in captured.err and captured.out == ""


# each verify option off its default and off SUITE_ALL, and the
# SuiteConfig field it sets
VERIFY_OPTIONS = {
    "--seed=5": ("seed", 5),
    "--lambda=0.6": ("lambdas", (0.6 + 0j,)), "--n-max=6": ("n_max", 6),
    "--xmax=0.4": ("x_max", 0.4), "--h=4e-3": ("h", 4e-3),
    "--theta=0.4": ("thetas", (0.4,)), "--alpha=1.3": ("alpha", 1.3),
    "--samples=40": ("samples", 40), "--rec-file=rec.json": ("rec_file",
                                                              "rec.json")}
SUITE_ALL = ["verify", "all", "--n-max", "10", "--samples", "3", "--xmax",
             "0.3", "--h", "2e-3"]


def test_each_verify_option_reaches_its_config_field(monkeypatch, tmp_path):
    fields = dict(VERIFY_OPTIONS.values())
    assert set(fields) == set(vars(suites.SuiteConfig)) - {
        "__module__", "__doc__", "__init__", "__dict__", "__weakref__"}
    assert all(getattr(suites.SuiteConfig, k) != v for k, v in fields.items())
    # each option changes the report: one that leaves it as it is would
    # certify nothing
    monkeypatch.chdir(tmp_path)
    Path("rec.json").write_text(json.dumps(ultraspherical_spec(
        0.7, 24, "ultraspherical(0.7)")))

    def report(*options):   # the last value of --seed or --h counts
        assert run([*SUITE_ALL, "--seed=11", *options,
                    "--out", "report.json"]) in (0, 1)
        rep = json.loads(Path("report.json").read_text())
        del rep["wall_time"]
        return rep
    base = report()
    for option in VERIFY_OPTIONS:
        assert report(option) != base, option
    configs = []

    def recording(name, cfg):
        configs.append(cfg)
        return SuiteReport(name)
    monkeypatch.setattr(cli, "run_suite", recording)
    argv = ["verify", "compact", *VERIFY_OPTIONS,
            "--out", str(tmp_path / "report.json")]
    assert cli._parse(argv) is not None   # the option table's own parse
    assert run(argv) == 0
    assert cli.cmd_verify(cli.build_parser().parse_args(argv)) == 0
    for cfg in configs:
        assert {k: getattr(cfg, k) for k in fields} == fields


def test_verify_passes_an_unknown_option_to_config_as_an_error():
    args = cli.build_parser().parse_args(["verify", "compact"])
    args.bogus = 1   # an option whose dest is no SuiteConfig field
    with pytest.raises(TypeError, match="bogus"):
        cli.cmd_verify(args)


def test_tabulate_n_max_zero_is_one_row(capsys):
    assert run(["tabulate", "--family", "su2", "--n-max", "0"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2 and rows[1][0] == "0"


@pytest.mark.parametrize("argv", [
    ["verify", "polyone", "--lambda", "nan", "--n-max", "8"],
    ["verify", "coset", "--lambda", "inf"],
    ["verify", "coset", "--lambda", "0.5,-inf"],
    ["verify", "compact", "--theta", "nan"],
    ["verify", "sturm", "--h", "inf"],
    ["verify", "sturm", "--xmax", "nan"],
    ["sine-space", "spec.json", "--tol", "inf"],
    ["tabulate", "--family", "chebyshev", "--lambda", "nan"],
    ["verify", "sturm", "--alpha", "nan"],
    ["tabulate", "--family", "sturm", "--alpha", "nan"],
    ["tabulate", "--family", "chebyshev", "--c", "nan"],
    ["tabulate", "--family", "sturm", "--c", "1,inf"],
])
def test_non_finite_inputs_are_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2


def test_verification_failure_maps_to_exit_one(monkeypatch):
    failing = SuiteReport("compact", [
        _row("compact:forced", ResidualReport(1.0, 1.0, None, 1), 0.0, "abs")])
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: failing)
    assert run(["verify", "compact"]) == 1


def test_fail_line_names_the_rule_and_tolerance(capsys):
    assert run(["verify", "sturm", "--xmax", "5", "--h", "1e-2", "--lambda",
                "2", "--alpha", "-0.5"]) == 1
    prefix = "FAIL sturm:const:sine-closed-form:lam=2: "
    line, = [ln for ln in capsys.readouterr().err.splitlines()
             if ln.startswith(prefix)]
    assert line.startswith(prefix + "rel tol=1e-08 max_abs=")


def test_overflowing_lambda_prints_only_the_error_line(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["verify", "sturm", "--lambda", "1e300"]) == 2
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "error: sturm solution overflows at lambda")


@pytest.mark.parametrize("argv", [
    ["verify", "su2", "--lambda", "9"],
    # a table to degree n-max + 1 = 122; phi(n, 9) leaves the float range
    # near n = 79
    ["tabulate", "--family", "su2", "--lambda", "9", "--n-max", "121"]])
def test_su2_table_leaving_the_float_range_is_config_error(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: su2 table overflows at lambda")


@pytest.mark.parametrize("argv", [
    ["tabulate", "--family", "chebyshev", "--lambda", "1e200", "--n-max", "3"],
    ["tabulate", "--family", "product", "--lambda", "1e200", "--n-max", "2"],
    ["verify", "polyone", "--lambda", "3e3"]])
def test_polynomial_table_leaving_the_float_range_is_config_error(argv,
                                                                  capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    lam = argv[argv.index("--lambda") + 1]
    assert captured.out == "" and captured.err == (
        f"error: chebyshev table overflows at lambda = {complex(lam)!r}\n")


@pytest.mark.parametrize("argv, message", [
    (["verify", "su2", "--n-max", "100000"],
     "su2 table overflows at lambda = 0.3"),
    (["verify", "polyone", "--n-max", "5000"],
     "chebyshev table overflows at lambda = 1.5")])
def test_an_overflowing_table_raises_before_the_pair_grid(argv, message,
                                                          monkeypatch, capsys):
    # the (n_max + 1)^2 grid would take 10^10 pairs here: never build it
    def grid(n_max):
        raise AssertionError(f"pair grid built at n_max {n_max}")

    monkeypatch.setattr(suites, "_pairs_grid", grid)
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "coset", "--lambda", "800", "--samples", "20"],
    ["tabulate", "--family", "coset", "--lambda", "800"]])
def test_coset_closed_form_leaving_the_float_range_is_config_error(argv,
                                                                   capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: coset closed form overflows at lambda = (800+0j)\n")


@pytest.mark.parametrize("argv", [
    ["verify", "su2", "--lambda", "800"],
    ["tabulate", "--family", "su2", "--lambda", "800"],
    ["tabulate", "--family", "su2", "--lambda", "800,1", "--n-max", "0"]])
def test_su2_lambda_whose_cosh_overflows_is_named(argv, capsys):
    # cosh and sinh leave the float range before the table does
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    lam = cli._parse_lambda(argv[argv.index("--lambda") + 1])
    assert captured.out == "" and captured.err == (
        f"error: su2 table overflows at lambda = {lam!r}\n")


def test_tabulate_reads_the_table_to_degree_n_max_plus_one(capsys):
    # the row of 0 reads P_0, P_1 and the support {1} of 0 * 1; P_2 =
    # 2 lam^2 - 1 leaves the float range, and a table to n-max 1 reads it
    argv = ["tabulate", "--family", "chebyshev", "--lambda", "1e160"]
    assert run([*argv, "--n-max", "0"]) == 0
    assert capsys.readouterr().out == (
        "element,m,sine,residual\n0,1.0,0.0,0.0\n")
    assert run([*argv, "--n-max", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: chebyshev table overflows at lambda = (1e+160+0j)\n")


@pytest.mark.parametrize("suite", ["compact", "coset"])
def test_negative_seed_is_config_error(suite, capsys):
    # random.Random(-1) would silently draw the samples of seed 1
    assert run(["verify", suite, "--seed=-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: seed must be >= 0, got -1\n")


def _cold_run(runs, modules):
    """Exit codes of ``cli.main`` on each argv of ``runs`` in a fresh
    interpreter, and which of ``modules`` it has imported after them."""
    script = ("import json, sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "from hypersine import cli\n"
              "codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]\n"
              "print(json.dumps([codes, [m for m in json.loads(sys.argv[3])\n"
              "                          if m in sys.modules]]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-I", "-c", script, src,
                           json.dumps(runs), json.dumps(modules)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_a_cold_run_does_not_import_numpy_random(tmp_path):
    # the seeded samples come from random.Random: importing numpy.random
    # (its Cython modules, secrets, hashlib) was most of a cold verify
    spec = tmp_path / "s3.json"
    dump_finite_hypergroup(s3_conjugacy_hypergroup(), spec)
    runs = [SUITE_ALL + ["--out", str(tmp_path / "all.json")],
            ["sine-space", str(spec), "--out", str(tmp_path / "s3.csv")]]
    assert _cold_run(runs, ["numpy.random"]) == [[0, 0], []]


def test_a_cold_well_formed_run_imports_no_argparse(tmp_path):
    # a well-formed command line is read from cli.COMMANDS: argparse, and the
    # gettext and locale its first message imports, are for help, prefixes
    # and errors only
    spec = tmp_path / "s3.json"
    dump_finite_hypergroup(s3_conjugacy_hypergroup(), spec)
    runs = [SUITE_ALL + ["--out", str(tmp_path / "all.json")],
            ["tabulate", "--family", "chebyshev", "--n-max", "4",
             "--out", str(tmp_path / "t.csv")],
            ["sine-space", str(spec), "--out", str(tmp_path / "s3.csv")],
            ["list"]]
    assert _cold_run(runs, ["argparse", "gettext", "locale"]) == [
        [0, 0, 0, 0], []]
    # --n is a prefix of --n-max: argparse reads it
    runs = [["verify", "compact", "--n", "3",
             "--out", str(tmp_path / "c.json")]]
    assert _cold_run(runs, ["argparse"]) == [[0], ["argparse"]]


def test_a_cold_json_verify_imports_neither_dataclasses_nor_csv(tmp_path):
    # the report records are NamedTuples and only CSV output imports csv:
    # building a dataclass at import costs more than a millisecond
    runs = [SUITE_ALL + ["--out", str(tmp_path / "all.json")]]
    assert _cold_run(runs, ["dataclasses", "csv"]) == [[0], []]


def test_rec_file_with_a_short_list_is_config_error(tmp_path, capsys):
    a, c = [1.0] + [0.5] * 32, [0.0] + [0.5] * 32
    path = tmp_path / "rec.json"
    path.write_text(json.dumps({"name": "short-b", "a": a, "b": [0.0] * 20,
                                "c": c}))
    assert run(["verify", "polyone", "--rec-file", str(path),
                "--n-max", "5"]) == 2
    assert "got 33, 20, 33" in capsys.readouterr().err


def test_rec_file_with_nan_coefficient_is_config_error(tmp_path, capsys):
    a, b, c = [1.0] + [0.5] * 32, [0.0] * 33, [0.0] + [0.5] * 32
    b[15] = math.nan
    path = tmp_path / "rec.json"
    path.write_text(json.dumps({"name": "nan-b15", "a": a, "b": b, "c": c}))
    assert run(["verify", "polyone", "--rec-file", str(path),
                "--n-max", "5"]) == 2
    assert "b_15" in capsys.readouterr().err


def test_sine_space_spec_without_a_tensor_is_config_error(tmp_path, capsys):
    path = tmp_path / "no-tensor.json"
    path.write_text(json.dumps({"size": 2, "name": "no-tensor"}))
    assert run(["sine-space", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: malformed hypergroup spec {str(path)!r}: ")


def test_tabulate_chebyshev_sine_column(capsys):
    assert run(["tabulate", "--family", "chebyshev", "--lambda", "1",
                "--n-max", "5"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["element", "m", "sine", "residual"]
    assert [r[2] for r in rows[1:]] == ["0.0", "1.0", "4.0", "9.0",
                                        "16.0", "25.0"]


def test_tabulate_chebyshev_at_complex_lambda(capsys):
    assert run(["tabulate", "--family", "chebyshev", "--lambda", "1,0.5",
                "--n-max", "3"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert [r[1:3] for r in rows] == [["1.0", "0.0"], ["(1+0.5j)", "1.0"],
                                      ["(0.5+2j)", "(4+2j)"],
                                      ["(-2+4j)", "(6+12j)"]]


def test_tabulate_coset_rows(capsys):
    assert run(["tabulate", "--family", "coset", "--n-max", "6"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["element", "m", "sine", "residual"]
    assert len(rows) == 1 + 7
    assert max(float(r[3]) for r in rows[1:]) <= 1e-12


def test_tabulate_su2_at_zero_lambda(capsys):
    assert run(["tabulate", "--family", "su2", "--lambda", "0",
                "--n-max", "5"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [r[1] for r in rows[1:]] == ["1.0"] * 6


@pytest.mark.parametrize("family",
                         ["chebyshev", "legendre", "su2", "product", "coset"])
def test_tabulate_negative_n_max_is_usage_error(family, capsys):
    assert run(["tabulate", "--family", family, "--n-max", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--n-max must be >= 0" in captured.err and captured.out == ""


def test_tabulate_sturm_grid_csv(capsys):
    assert run(["tabulate", "--family", "sturm", "--lambda", "1,0.5",
                "--xmax", "0.2", "--h", "0.005"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["x", "re_phi", "im_phi", "re_f", "im_f", "residual"]
    assert len(rows) == 42  # header plus 41 grid nodes
    assert float(rows[1][1]) == 1.0  # phi(0) = 1


def test_tabulate_sturm_power_weight_sine_column(capsys):
    assert run(["tabulate", "--family", "sturm", "--alpha", "0.5",
                "--lambda", "1.5", "--xmax", "0.4", "--h", "0.01"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    sol = solve_sine(power_family(0.5), 1.5, 1.0, x_max=0.4, h=0.01)
    assert [(float(r[3]), float(r[4])) for r in rows] == [
        (v.real, v.imag) for v in sol.values.tolist()]


@pytest.mark.parametrize("argv", [
    ["tabulate", "--family", "chebyshev", "--tol", "5"],
    ["tabulate", "--family", "chebyshev", "--seed", "9"],
    ["tabulate", "--family", "sturm", "--a-const"],
    ["sine-space", "spec.json", "--tol", "1e-9", "--seed", "9"],
    ["sine-space", "spec.json", "--lambda", "7"],
    ["sine-space", "spec.json", "--n-max", "3"],
    ["sine-space", "spec.json", "--xmax", "1"]])
def test_options_the_subcommand_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sine_space_h_is_the_help_flag(capsys):
    # sine-space has no --h, so argparse reads it as a prefix of --help
    with pytest.raises(SystemExit) as err:
        run(["sine-space", "spec.json", "--h", "9"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hypersine sine-space")


def test_tabulate_rejects_lambda_values_the_family_does_not_read(capsys):
    assert run(["tabulate", "--family", "chebyshev", "--lambda", "0.3",
                "--lambda", "0.9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: --family chebyshev takes at most 1 --lambda, got 2\n")
    assert run(["tabulate", "--family", "product", "--n-max", "1"]
               + ["--lambda=0.5"] * 3) == 2
    assert "product takes at most 2 --lambda, got 3" in capsys.readouterr().err
    assert run(["tabulate", "--family", "product", "--n-max", "1",
                "--lambda", "0.5", "--lambda", "0.7"]) == 0


def test_tabulate_product_json(capsys):
    assert run(["tabulate", "--family", "product", "--n-max", "1",
                "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {row["element"] for row in doc} == {"0,0", "0,1", "1,0", "1,1"}


def test_sine_space_subcommand(tmp_path, capsys):
    spec = tmp_path / "d.json"
    dump_finite_hypergroup(two_point_hypergroup(0.25), spec)
    assert run(["sine-space", str(spec)]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == ["m", "dimension", "basis", "max_residual"]
    assert [r[1] for r in rows[1:]] == ["0", "0"]
    assert [r[3] for r in rows[1:]] == ["0.0", "0.0"]   # empty basis
    assert "dimension 0" in captured.err


def test_sine_space_with_explicit_m(tmp_path, capsys):
    spec = tmp_path / "d.json"
    dump_finite_hypergroup(two_point_hypergroup(0.25), spec)
    assert run(["sine-space", str(spec), "--m", "1,-0.25"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2


def test_sine_space_rejects_non_exponential(tmp_path, capsys):
    spec = tmp_path / "d.json"
    dump_finite_hypergroup(two_point_hypergroup(0.25), spec)
    assert run(["sine-space", str(spec), "--m", "1,0.5"]) == 2
    assert "not an exponential" in capsys.readouterr().err


def test_sine_space_rejects_wrong_length_m(tmp_path, capsys):
    spec = tmp_path / "d.json"
    dump_finite_hypergroup(two_point_hypergroup(0.25), spec)
    assert run(["sine-space", str(spec), "--m", "1,-0.25,1"]) == 2
    assert "m has 3 values" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0", "1e-300"])
def test_sine_space_tolerance_admitting_no_exponential_is_an_error(
        tol, tmp_path, capsys):
    # m = 1 is an exponential of every finite hypergroup, so none at --tol
    # means --tol is below the rounding of the eigenvectors
    spec = tmp_path / "d.json"
    dump_finite_hypergroup(two_point_hypergroup(0.5), spec)
    assert run(["sine-space", str(spec), f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol" in captured.err


@pytest.mark.parametrize("m, message", [
    ("abc", "invalid complex value: 'abc'"),
    ("1,inf,1", "'inf' is not finite"),
    ("1,nan", "'nan' is not finite")])
def test_malformed_or_non_finite_m_is_a_usage_error(tmp_path, capsys, m,
                                                    message):
    spec = tmp_path / "d.json"
    dump_finite_hypergroup(two_point_hypergroup(0.25), spec)
    with pytest.raises(SystemExit) as err:
        run(["sine-space", str(spec), "--m", m])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --m: {message}\n")


def test_sine_space_missing_file_is_config_error(tmp_path):
    assert run(["sine-space", str(tmp_path / "nope.json")]) == 2


def test_sine_space_malformed_spec(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text("{not json")
    assert run(["sine-space", str(spec)]) == 2


def test_sine_space_names_a_nan_weight(tmp_path, capsys):
    tensor = two_point_hypergroup(0.5).tensor.tolist()
    tensor[1][1][0] = math.nan
    spec = tmp_path / "nan.json"
    spec.write_text(json.dumps({"size": 2, "tensor": tensor}))
    assert run(["sine-space", str(spec)]) == 2
    assert capsys.readouterr().err == (
        "error: convolution [1][1]: weight nan at element 0 is not >= "
        "-1e-12\n")


def test_sine_space_rejects_a_row_sum_that_convolve_rejects(tmp_path, capsys):
    spec = tmp_path / "z5.json"
    spec.write_text(json.dumps({"size": 5, "tensor": z5_row_off().tolist()}))
    assert run(["sine-space", str(spec)]) == 2
    assert capsys.readouterr().err == (
        "error: convolution [1][1]: weights sum to 1.000000000003, "
        "expected 1\n")


def test_sine_space_rejects_non_associative_table(tmp_path, capsys):
    # 1*1 = (d0 + d2)/2, 2*2 = (d0 + d1)/2, 1*2 = 2*1 = d1:
    # (1*1)*2 charges d1, 1*(1*2) does not
    tensor = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
              [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]],
              [[0, 0, 1], [0, 1, 0], [0.5, 0.5, 0]]]
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"size": 3, "tensor": tensor}))
    assert run(["sine-space", str(spec)]) == 2
    assert "not associative" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["0", "0,3.141592653589793"])
def test_su2_at_zeros_of_sinh_checks_a_non_zero_sine(lam, tmp_path):
    # dphi vanishes identically at lam = i k pi; the suite must check the
    # sine function (-1)^(k n) n (n+2) there, not the zero function
    from hypersine import su2
    out = tmp_path / "su2.json"
    argv = ["verify", "su2", "--lambda", lam, "--n-max", "12"]
    assert run(argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(row["pass"] for row in doc["checks"])
    f = su2.sine_fn(24, cli._parse_lambda(lam))
    assert (f.values[1:] != 0).all()


@pytest.mark.parametrize("argv", [
    ["--lambda", "9e-7", "--n-max", "100"],
    ["--lambda=5e-7,3.141592653589793", "--n-max", "160"],
    ["--lambda=2e-6,3.141592653589793"]])
def test_su2_near_zeros_of_sinh_passes(argv, tmp_path):
    # close to i k pi every su2 row still checks a true identity
    out = tmp_path / "su2.json"
    assert run(["verify", "su2", *argv, "--out", str(out)]) == 0
    assert all(row["pass"] for row in json.loads(out.read_text())["checks"])


def test_tabulate_su2_at_i_pi_prints_a_non_zero_sine(capsys):
    # at lam = i pi the derivative of phi vanishes identically; the sine
    # column must show c (-1)^n n (n+2), and the residual must stay small
    assert run(["tabulate", "--family", "su2", "--lambda",
                "0,3.141592653589793", "--n-max", "4", "--c", "2"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert [float(r[2]) for r in rows] == [0.0, -6.0, 16.0, -30.0, 48.0]
    assert max(float(r[3]) for r in rows) <= 1e-12


def test_coset_falsify_square_reports_the_pairs_it_checked(tmp_path):
    out = tmp_path / "coset.json"
    assert run(["verify", "coset", "--samples", "3", "--out", str(out)]) == 0
    rows = {row["suite"]: row for row in json.loads(out.read_text())["checks"]}
    assert rows["coset:falsify-square:random"]["samples"] == 3
    assert rows["coset:associativity-float"]["samples"] == 3


@pytest.mark.parametrize("suite", ["compact", "su2", "sinsev", "coset",
                                   "sturm"])
def test_no_row_that_cannot_fail_on_its_own(suite, tmp_path):
    # none of these can fail alone: a vanishing row checks the basis that
    # its sine-dim row requires to be empty, square-norm calls no hypergroup
    # code, a homogeneous-zero row compares the zero solution of c = 0 with
    # 0, and the fixed-input rows recompute one value on one input whatever
    # the configuration (tests/test_su2.py, tests/test_coset.py,
    # tests/test_sturm.py, tests/test_multipoly.py and acceptance criterion
    # 4 make their assertions)
    fixed_input = {"su2:unit-square", "coset:falsify-alpha:recorded",
                   "coset:falsify-square:recorded",
                   "coset:group-identities-exact",
                   "compact:chebyshev:power-identity",
                   "sinsev:d=2:fit-roundtrip", "sinsev:d=3:fit-roundtrip"}
    out = tmp_path / "report.json"
    assert run(["verify", suite, "--samples", "20", "--out", str(out)]) == 0
    names = [row["suite"] for row in json.loads(out.read_text())["checks"]]
    assert names and not [n for n in names
                          if "vanishing" in n or "square-norm" in n
                          or "homogeneous-zero" in n or n in fixed_input]
