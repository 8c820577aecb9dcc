import csv
import io
import json
import warnings

import pytest

from hypersine import cli
from hypersine.core import (ResidualReport, dump_finite_hypergroup,
                            two_point_hypergroup)
from hypersine.suites import SuiteReport, _row


def run(argv):
    return cli.main(argv)


def test_list(capsys):
    assert run(["list"]) == 0
    out = capsys.readouterr().out
    assert "polyone" in out and "coset" in out and "chebyshev" in out


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


@pytest.mark.parametrize("argv", [
    ["verify", "polyone", "--lambda", "nan", "--n-max", "8"],
    ["verify", "coset", "--lambda", "inf"],
    ["verify", "coset", "--lambda", "0.5,-inf"],
    ["verify", "compact", "--theta", "nan"],
    ["verify", "sturm", "--h", "inf"],
    ["verify", "sturm", "--xmax", "nan"],
    ["verify", "compact", "--tol", "inf"],
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
    assert line.startswith(prefix + "abs tol=1e-05 max_abs=")


def test_overflowing_lambda_prints_only_the_error_line(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["verify", "sturm", "--lambda", "1e300"]) == 2
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: solution magnitude")


def test_tabulate_chebyshev_sine_column(capsys):
    assert run(["tabulate", "--family", "chebyshev", "--lambda", "1",
                "--n-max", "5"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["element", "m", "sine", "residual"]
    assert [r[2] for r in rows[1:]] == ["0.0", "1.0", "4.0", "9.0",
                                        "16.0", "25.0"]


def test_tabulate_su2_at_zero_lambda(capsys):
    assert run(["tabulate", "--family", "su2", "--lambda", "0",
                "--n-max", "5"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [r[1] for r in rows[1:]] == ["1.0"] * 6


def test_tabulate_empty_range(capsys):
    assert run(["tabulate", "--family", "legendre", "--n-max", "-1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["element,m,sine,residual"]


def test_tabulate_sturm_grid_csv(capsys):
    assert run(["tabulate", "--family", "sturm", "--lambda", "1,0.5",
                "--xmax", "0.2", "--h", "0.005"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["x", "re_phi", "im_phi", "re_f", "im_f", "residual"]
    assert len(rows) == 42  # header plus 41 grid nodes
    assert float(rows[1][1]) == 1.0  # phi(0) = 1


def test_tabulate_sturm_rejects_conflicting_weights(capsys):
    assert run(["tabulate", "--family", "sturm", "--alpha", "0.5",
                "--a-const"]) == 2


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


@pytest.mark.parametrize("m, message", [("1,nan", "not an exponential"),
                                        ("1,-0.25,1", "m has 3 values")])
def test_sine_space_rejects_nan_and_wrong_length_m(tmp_path, capsys, m,
                                                   message):
    spec = tmp_path / "d.json"
    dump_finite_hypergroup(two_point_hypergroup(0.25), spec)
    assert run(["sine-space", str(spec), "--m", m]) == 2
    assert message in capsys.readouterr().err


def test_sine_space_missing_file_is_config_error(tmp_path):
    assert run(["sine-space", str(tmp_path / "nope.json")]) == 2


def test_sine_space_malformed_spec(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text("{not json")
    assert run(["sine-space", str(spec)]) == 2


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
