"""Exit codes, report shapes, and determinism of the command-line front end."""

import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from csck import errors
from csck.cli import CSV_HEADER, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def validator():
    text = (resources.files("csck") / "schemas/report.schema.json").read_text()
    schema = json.loads(text)
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def valid(validator, payload):
    errors = list(validator.iter_errors(payload))
    assert not errors, errors[0].message
    return payload


def test_classify_negative_flat_pair(validator):
    code, out, _ = run_cli(
        ["classify", "--n", "2", "--scalar", "-6", "--lambda", "0", "--mu", "0"]
    )
    assert code == 0
    payload = valid(validator, json.loads(out))
    assert payload["verdict"] == "Nonexistent"
    assert payload["branches"] == []


def test_classify_smooth_positive(validator):
    code, out, _ = run_cli(
        ["classify", "--n", "2", "--scalar", "6", "--lambda", "0", "--mu", "0"]
    )
    assert code == 0
    payload = valid(validator, json.loads(out))
    assert payload["verdict"] == "SmoothFamily"
    assert payload["matched_case"] is not None
    kinds = [b["kind"] for b in payload["branches"]]
    assert "SmoothOrigin" in kinds


def test_curvature_sign_maps_to_scalar():
    by_sign = run_cli(
        ["classify", "--n", "3", "--curvature-sign", "pos", "--lambda", "0", "--mu", "0"]
    )
    by_value = run_cli(
        ["classify", "--n", "3", "--scalar", "12", "--lambda", "0", "--mu", "0"]
    )
    assert by_sign == by_value


def test_classify_grid_counts(validator):
    code, out, _ = run_cli(["classify", "--n", "2", "--scalar", "-6", "--grid=-10:10:11"])
    assert code == 0
    payload = valid(validator, json.loads(out))
    assert payload["verdict_counts"] == {"Nonexistent": 121}
    assert payload["lambda_range"] == [-10.0, 10.0, 11]


def test_solve_two_sample_values():
    code, out, _ = run_cli(
        [
            "solve", "--n", "2", "--scalar", "6", "--lambda", "0", "--mu", "0",
            "--anchor", "1,0.5", "--s-min", "1", "--s-max", "3", "--samples", "2",
        ]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[2].split(",")]
    assert abs(first[0] - 1.0) < 1e-15 and abs(first[1] - 0.5) < 1e-10
    assert abs(last[0] - 3.0) < 1e-15 and abs(last[1] - 0.75) < 1e-10


def test_solve_log_grid_profile():
    code, out, _ = run_cli(
        [
            "solve", "--n", "2", "--scalar", "6", "--lambda", "0", "--mu", "0",
            "--anchor", "1,0.5", "--s-min", "0.01", "--s-max", "100",
            "--samples", "200",
        ]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 201
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    gs = [row[1] for row in rows]
    assert all(a < b for a, b in zip(gs, gs[1:]))
    assert max(abs(row[6] - 6.0) for row in rows) < 1e-6


def test_solve_json_report(validator):
    code, out, _ = run_cli(
        [
            "solve", "--n", "2", "--scalar", "6", "--lambda", "0", "--mu", "0",
            "--anchor", "1,0.5", "--s-min", "1", "--s-max", "3", "--samples", "2",
            "--format", "json",
        ]
    )
    assert code == 0
    payload = valid(validator, json.loads(out))
    assert abs(payload["c"]) < 1e-12
    assert payload["s_domain"] == [0.0, "inf"]
    assert len(payload["samples"]) == 2
    assert payload["columns"] == CSV_HEADER.split(",")


def test_solve_gauge_constant_equals_anchor():
    base = [
        "solve", "--n", "2", "--scalar", "6", "--lambda", "0", "--mu", "0",
        "--s-min", "1", "--s-max", "3", "--samples", "2",
    ]
    anchored = run_cli(base + ["--anchor", "1,0.5"])
    gauged = run_cli(base + ["--gauge-c", "0"])
    assert anchored == gauged


def test_gauge_constant_is_reported_exactly():
    # c is the gauge as given, not recovered from an anchor through exp and log
    rng = random.Random(0)
    solved = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        R = rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]) * n * (n + 1)
        lam, mu, c = rng.gauss(0, 3), rng.gauss(0, 3), rng.gauss(0, 1)
        code, out, _ = run_cli(
            [
                "solve", "--n", str(n), "--scalar", repr(R), "--lambda", repr(lam),
                "--mu", repr(mu), "--gauge-c", repr(c), "--s-min", "1", "--s-max", "2",
                "--samples", "2", "--format", "json",
            ]
        )
        if code == 0:
            solved += 1
            assert json.loads(out)["c"] == c, (n, R, lam, mu, c)
    assert solved >= 15


@pytest.mark.parametrize("scalar", ["6", "-6"])  # a full ray, a finite extension
def test_extreme_gauge_constant_is_a_named_error(validator, scalar):
    code, out, err = run_cli(["solve", "--n", "2", "--scalar", scalar, "--gauge-c=-800"])
    assert code == 1 and out == ""
    payload = valid(validator, json.loads(err))
    assert issubclass(getattr(errors, payload["error"]), errors.CsckError)


def test_solve_nonexistent_exits_2(validator):
    code, out, _ = run_cli(
        ["solve", "--n", "2", "--scalar", "6", "--mu", "-10", "--anchor", "1,0.5"]
    )
    assert code == 2
    payload = valid(validator, json.loads(out))
    assert payload["type"] == "classify"
    assert payload["verdict"] == "Nonexistent"


def test_verify_nonexistent_exits_2(validator):
    code, out, _ = run_cli(
        ["verify", "--n", "2", "--scalar", "-6", "--lambda", "0", "--mu", "1", "--anchor", "1,0.5"]
    )
    assert code == 2
    payload = valid(validator, json.loads(out))
    assert payload["verdict"] == "Nonexistent"


def test_branch_index_out_of_range_exits_1():
    code, out, err = run_cli(
        ["solve", "--n", "2", "--scalar", "6", "--anchor", "1,0.5", "--branch-index", "5"]
    )
    assert code == 1 and out == ""
    assert json.loads(err)["detail"] == "branch index 5 out of range: 1 admissible branch(es)"


def test_solve_writes_output_file(tmp_path):
    path = tmp_path / "samples.csv"
    args = [
        "solve", "--n", "2", "--scalar", "6", "--lambda", "0", "--mu", "0",
        "--anchor", "1,0.5", "--s-min", "1", "--s-max", "3", "--samples", "2",
    ]
    code, out, _ = run_cli(args)
    code2, out2, _ = run_cli(args + ["--output", str(path)])
    assert code == code2 == 0
    assert out2 == ""
    assert path.read_text() == out


def test_flag_errors_exit_64():
    assert run_cli([])[0] == 64
    assert run_cli(["solve", "--n", "2", "--scalar", "6"])[0] == 64  # no gauge
    assert run_cli(["classify", "--n", "2", "--bogus", "1"])[0] == 64
    assert run_cli(["classify", "--n", "2"])[0] == 64  # no curvature
    assert run_cli(["classify", "--n", "2", "--scalar", "0", "--grid=a:b"])[0] == 64
    for params in ("{bad", "[1]"):  # not JSON, not an object
        assert run_cli(["catalog", "--label", "1.2.1", "--params", params])[0] == 64, params
    assert run_cli(["lemmas", "--samples", "10"])[0] == 64  # no --which
    # lemmas has no sampling knobs
    assert run_cli(["lemmas", "--which", "J", "--seed", "1"])[0] == 64
    assert run_cli(["lemmas", "--which", "J", "--samples", "10"])[0] == 64
    # every required --n is at least 2
    for args in (["classify", "--scalar", "0"], ["solve", "--scalar", "6", "--anchor", "1,0.5"],
                 ["verify", "--scalar", "6", "--anchor", "1,0.5"], ["ball"]):
        assert run_cli(args + ["--n", "1"])[0] == 64, args


def test_runconfig_invariants_exit_64():
    base = ["solve", "--n", "2", "--scalar", "6", "--anchor", "1,0.5"]
    assert run_cli(base + ["--samples", "1"])[0] == 64
    assert run_cli(base + ["--s-min", "3", "--s-max", "1"])[0] == 64
    assert run_cli(base + ["--s-min", "0"])[0] == 64
    assert run_cli(base + ["--s-min", "-1"])[0] == 64
    assert run_cli(
        ["verify", "--n", "2", "--scalar", "6", "--anchor", "1,0.5", "--tol", "0"]
    )[0] == 64


def test_verify_reingests_solve_output(tmp_path, validator):
    path = tmp_path / "fs.csv"
    run_cli(
        [
            "solve", "--n", "2", "--scalar", "6", "--lambda", "0", "--mu", "0",
            "--anchor", "1,0.5", "--s-min", "0.01", "--s-max", "100",
            "--samples", "50", "--output", str(path),
        ]
    )
    code, out, _ = run_cli(["verify", "--input", str(path), "--n", "2", "--scalar", "6"])
    assert code == 0
    payload = valid(validator, json.loads(out))
    assert payload["passed"] is True
    assert payload["rows"] == 50
    assert payload["max_ode_residual"] < 1e-10

    # a corrupted curvature entry must flip the verdict and the exit code
    lines = path.read_text().splitlines()
    parts = lines[10].split(",")
    parts[6] = "5.9"
    lines[10] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(["verify", "--input", str(path), "--n", "2", "--scalar", "6"])
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("column", range(7))
@pytest.mark.parametrize("row", [1, 3])
def test_verify_rejects_a_nan_entry(tmp_path, row, column):
    # line 1 is the first sample row, line 3 a later one
    path = tmp_path / "nan.csv"
    run_cli(
        [
            "solve", "--n", "2", "--scalar", "6", "--lambda", "0", "--mu", "0",
            "--anchor", "1,0.5", "--samples", "5", "--output", str(path),
        ]
    )
    lines = path.read_text().splitlines()
    parts = lines[row].split(",")
    parts[column] = "nan"
    lines[row] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["verify", "--input", str(path), "--n", "2", "--scalar", "6"])
    assert (code, out) == (1, "")
    assert "malformed row" in json.loads(err)["detail"]


@pytest.mark.parametrize(
    "flag, value", [("anchor", "5,0.1"), ("gauge-c", "3"), ("branch-index", "3"), ("samples", "7")]
)
def test_verify_input_rejects_the_flags_it_does_not_read(tmp_path, flag, value):
    # the rows carry their own gauge, branch and grid
    path = tmp_path / "run.csv"
    run_cli(
        [
            "solve", "--n", "2", "--scalar", "6", "--lambda", "0", "--mu", "0",
            "--anchor", "1,0.5", "--samples", "5", "--output", str(path),
        ]
    )
    base = ["verify", "--input", str(path), "--n", "2", "--scalar", "6"]
    assert run_cli(base)[0] == 0
    code, out, err = run_cli(base + [f"--{flag}", value])
    assert code == 64 and out == "" and f"--{flag}" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: value}))
    code, out, _ = run_cli(base + ["--config", str(cfg)])
    assert code == 64 and out == ""


@pytest.mark.parametrize(
    "base, flag, value",
    [
        (["classify", "--n", "3", "--scalar", "0", "--grid=-10:10:21"], "lambda", "1"),
        (["classify", "--n", "3", "--scalar", "0", "--grid=-10:10:21"], "mu", "0"),
        (["catalog", "--list", "--n", "2", "--curvature-sign", "zero"], "params", '{"a": 1}'),
        (["catalog", "--list", "--n", "2", "--curvature-sign", "zero"], "check", True),
        (["catalog", "--label", "1.5.2"], "curvature-sign", "pos"),
        (["ball", "--n", "2", "--lambda", "1", "--mu=-0.5"], "s-min", "0.2"),
        (["ball", "--n", "2", "--lambda", "1", "--mu=-0.5"], "s-max", "0.5"),
        (["ball", "--n", "2", "--lambda", "1", "--mu=-0.5", "--format", "json"], "s-min", "0.2"),
    ],
)
def test_modes_reject_the_flags_they_do_not_read(tmp_path, base, flag, value):
    # the grid sweeps lambda and mu itself, the list builds no case, a label
    # fixes its own curvature, and the ball report's grid is verify's own
    assert run_cli(base)[0] == 0
    code, out, err = run_cli(base + ([f"--{flag}"] if value is True else [f"--{flag}", value]))
    assert code == 64 and out == "" and f"--{flag}" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: value}))
    code, out, _ = run_cli(base + ["--config", str(cfg)])
    assert code == 64 and out == ""


def test_modes_still_read_the_flags_elsewhere():
    # the same flags outside the mode that leaves them unread
    assert run_cli(["classify", "--n", "3", "--scalar", "0", "--lambda", "1"])[0] == 0
    assert run_cli(["catalog", "--label", "1.2.1", "--params", '{"a": 1}'])[0] == 0
    ball = ["ball", "--n", "2", "--lambda", "1", "--mu=-0.5", "--format", "csv", "--samples", "3"]
    code, out, _ = run_cli(ball + ["--s-min", "0.2", "--s-max", "0.5"])
    assert code == 0
    assert [float(row.split(",")[0]) for row in out.splitlines()[1::2]] == [0.2, 0.5]
    code, out, _ = run_cli(ball)
    assert [float(row.split(",")[0]) for row in out.splitlines()[1::2]] == [0.01, 0.99]


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_anchor_where_F_overflows_is_a_bad_anchor(command):
    code, out, err = run_cli([
        command, "--n", "3", "--scalar", "0", "--lambda", "0.25", "--mu=-1.25",
        "--anchor", "1,1e160", "--samples", "3",
    ])
    assert (code, out) == (1, "")
    report = json.loads(err)
    assert report["error"] == "BadAnchorError"
    assert "g0 = 1e+160" in report["detail"]


def test_anchor_where_only_F_prime_overflows_is_solved():
    # F(1e120) is finite while F' overflows there; the gauge needs F alone
    code, out, err = run_cli([
        "solve", "--n", "3", "--scalar", "-12", "--lambda=-0.25", "--mu=-0.0625",
        "--anchor", "1,1e120", "--samples", "3", "--s-min", "0.5", "--s-max", "0.9",
    ])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 4


def test_verify_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("s,g,u\n1,1,1\n")
    code, out, err = run_cli(["verify", "--input", str(path), "--n", "2", "--scalar", "6"])
    assert code == 1
    assert "header" in json.loads(err)["detail"]


@pytest.mark.parametrize(
    "text, detail",
    [
        (None, "cannot read"),
        (CSV_HEADER + "\n", "no sample rows"),
        (CSV_HEADER + "\n1,2,3\n", "malformed row"),
        (CSV_HEADER + "\n1,2,3,4,5,x,6\n", "malformed row"),
    ],
)
def test_verify_input_that_cannot_be_read_exits_1(tmp_path, text, detail):
    path = tmp_path / "rows.csv"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(["verify", "--input", str(path), "--n", "2", "--scalar", "6"])
    assert code == 1 and out == ""
    assert json.loads(err)["detail"].startswith(detail)


def test_verify_input_with_a_negative_g_fails(tmp_path, validator):
    path = tmp_path / "rows.csv"
    path.write_text(CSV_HEADER + "\n1,-1,0,1,1,0,6\n")
    code, out, _ = run_cli(["verify", "--input", str(path), "--n", "2", "--scalar", "6"])
    assert code == 1
    payload = valid(validator, json.loads(out))
    assert payload["passed"] is False
    assert payload["max_f_mismatch"] == "inf"


def test_verify_pipeline_mode(validator):
    code, out, _ = run_cli(
        [
            "verify", "--n", "2", "--scalar", "6", "--lambda", "0", "--mu", "0",
            "--anchor", "1,0.5",
        ]
    )
    assert code == 0
    payload = valid(validator, json.loads(out))
    assert payload["source"] == "pipeline"
    assert payload["passed"] is True
    assert payload["verification"]["kahler_ok"] is True


def test_verify_reports_nan_without_a_numpy_warning(validator):
    # g' = 0 where rounding pins g to the window end: the residuals are
    # nan, the check fails, and the process prints no RuntimeWarning
    code, out, err = run_process([
        "verify", "--n", "8", "--scalar", "-144", "--lambda", "-3.5987978919500243",
        "--mu", "-463.4992187806941", "--anchor", "1,2.7845335235039497",
    ])
    assert (code, err) == (1, "")
    payload = valid(validator, json.loads(out))
    assert payload["passed"] is False
    assert payload["verification"]["max_curvature_residual"] == "nan"


def test_verify_takes_no_s_range(tmp_path):
    # verify's grid is verify_solution's, so an s-range there would be ignored
    base = ["verify", "--n", "3", "--scalar", "12", "--lambda", "0", "--mu", "0",
            "--anchor", "1,0.5"]
    assert run_cli(base)[0] == 0
    for flags in (["--s-min", "5", "--s-max", "6"], ["--s-min", "5"], ["--s-max", "6"]):
        code, out, _ = run_cli(base + flags)
        assert code == 64 and out == "", flags
    cfg = tmp_path / "cfg.json"
    for key in ("s-min", "s_max"):
        cfg.write_text(json.dumps({key: 5}))
        code, out, _ = run_cli(["verify", "--config", str(cfg)] + base[1:])
        assert code == 64 and out == "", key
    cfg.write_text(json.dumps({"samples": 20}))
    assert run_cli(["verify", "--config", str(cfg)] + base[1:])[0] == 0


def test_verify_pipeline_on_a_domain_that_ends_below_the_grid_floor(validator):
    # the s-domain is (0, 0.02), below verify's usual grid floor of 0.05
    code, out, _ = run_cli(
        [
            "verify", "--n", "2", "--scalar", "-6", "--lambda", "0", "--mu", "0",
            "--anchor", "0.01,1",
        ]
    )
    assert code == 0
    payload = valid(validator, json.loads(out))
    assert payload["passed"] is True
    assert payload["verification"]["kahler_ok"] is True
    assert payload["verification"]["s_hi"] < 0.02


def test_catalog_list(validator):
    code, out, _ = run_cli(["catalog", "--list", "--n", "2", "--curvature-sign", "zero"])
    assert code == 0
    payload = valid(validator, json.loads(out))
    assert payload["labels"] == ["1.2.1", "1.2.2", "1.2.3", "1.2.4"]


def test_catalog_list_without_curvature_sign_exits_64():
    code, out, err = run_cli(["catalog", "--list", "--n", "2"])
    assert code == 64 and out == ""
    assert "--curvature-sign" in err


def test_catalog_case_vieta(validator):
    code, out, _ = run_cli(
        [
            "catalog", "--label", "1.3.3",
            "--params", '{"alpha":-0.5,"beta":0.5,"gamma":1.0}',
        ]
    )
    assert code == 0
    payload = valid(validator, json.loads(out))
    assert abs(payload["lambda"] - 0.25) < 1e-12
    assert abs(payload["mu"] + 0.25) < 1e-12
    assert payload["expected_branch"]["A"] == pytest.approx(0.5)
    assert payload["expected_branch"]["B"] == pytest.approx(1.0)


def test_catalog_check(validator):
    code, out, _ = run_cli(["catalog", "--label", "1.2.4", "--check"])
    assert code == 0
    payload = valid(validator, json.loads(out))
    assert payload["verdict"] == "SingularFamilies"
    assert payload["reference_deviation"] < 1e-9
    assert payload["verification"]["kahler_ok"] is True


def test_catalog_constraint_violation_exits_1(validator):
    code, out, err = run_cli(
        [
            "catalog", "--label", "1.5.6",
            "--params", '{"alpha1":0.5,"alpha2":1.5,"beta":-1.0,"gamma":1.5}',
        ]
    )
    assert code == 1
    payload = valid(validator, json.loads(err))
    assert payload["error"] == "ConstraintViolationError"
    assert "alpha1 + alpha2 + 2 beta" in payload["detail"]


def test_catalog_malformed_parameter_exits_1(validator):
    code, out, err = run_cli(
        ["catalog", "--label", "1.1.1", "--params", '{"a":"x"}', "--check"]
    )
    assert code == 1
    payload = valid(validator, json.loads(err))
    assert payload["error"] == "ValueError"
    assert "parameter a" in payload["detail"]


def test_subnormal_leading_coefficient_exits_1(validator):
    # -R/6 = -1.7e-311 is subnormal, so the companion matrix of H overflows
    code, out, err = run_cli(
        ["classify", "--n", "2", "--scalar", "1e-310", "--lambda", "0", "--mu", "1"]
    )
    assert code == 1 and out == ""
    payload = valid(validator, json.loads(err))
    assert payload["error"] == "IllConditionedError"


def test_catalog_unknown_label_is_error_json(validator):
    code, out, err = run_cli(["catalog", "--label", "9.9.9"])
    assert code == 1
    payload = valid(validator, json.loads(err))
    assert payload["type"] == "error"


def test_ball_report(validator):
    code, out, _ = run_cli(
        ["ball", "--n", "2", "--lambda", "0", "--mu", "0", "--samples", "100"]
    )
    assert code == 0
    payload = valid(validator, json.loads(out))
    assert payload["s_domain"] == [0.0, 1.0]
    assert payload["R"] == -6.0
    assert payload["verification"]["max_curvature_residual"] < 1e-5


def test_ball_csv_samples():
    code, out, _ = run_cli(
        [
            "ball", "--n", "2", "--lambda", "0", "--mu", "0",
            "--format", "csv", "--samples", "5", "--s-min", "0.1", "--s-max", "0.9",
        ]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    # closed form g = s / (1 - s) for the smooth ball profile
    for row in rows:
        assert abs(row[1] - row[0] / (1.0 - row[0])) < 1e-10
        assert abs(row[6] + 6.0) < 1e-9


def test_ball_without_branch_exits_2():
    assert run_cli(["ball", "--n", "2", "--lambda", "0", "--mu", "10"])[0] == 2


def test_lemmas_cli(validator):
    for which in ("J", "I"):
        code, out, _ = run_cli(["lemmas", "--which", which])
        assert code == 0
        payload = valid(validator, json.loads(out))
        assert payload["identity"].startswith(which + " = ")
        assert payload["supremum"] == 0.0
        assert payload["negative"] is True
        assert payload["witness"]["constraint_residuals"] == [0.0]
        assert payload["witness"]["objective"] < 0.0


def test_config_file_merges_under_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "n": 2, "scalar": 6, "lambda": 0, "mu": 0,
                "s-min": 1, "s-max": 3, "samples": 2, "anchor": [1, 0.5],
            }
        )
    )
    code, out, _ = run_cli(["solve", "--config", str(cfg)])
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER
    assert len(out.strip().splitlines()) == 3

    # explicit flags win over config values
    code, out, _ = run_cli(["solve", "--config", str(cfg), "--samples", "4"])
    assert len(out.strip().splitlines()) == 5

    # ... but an overridden config value is still checked as that flag's argument
    cfg.write_text(json.dumps({"n": 2, "scalar": 6, "anchor": [1, 0.5], "samples": 1}))
    assert run_cli(["solve", "--config", str(cfg), "--samples", "4"])[0] == 64


def test_config_unknown_key_exits_64(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, _ = run_cli(["solve", "--config", str(cfg), "--n", "2", "--scalar", "6", "--anchor", "1,0.5"])
    assert code == 64


@pytest.mark.parametrize(
    "config, flags",
    [
        ('{"s_max": Infinity}', True),
        ('{"lambda": NaN}', True),
        ('{"samples": "abc"}', True),
        ('{"n": 2.5, "scalar": 6, "anchor": "1,0.5"}', False),
        ('{"n": 1, "scalar": 6, "anchor": "1,0.5"}', False),
        ('{bad', True),
        ('[1]', True),
        ('{"config": "other.json"}', True),
    ],
)
def test_config_values_take_the_flag_types(tmp_path, config, flags):
    # each value passes through its flag's argparse type, as on the command line
    path = tmp_path / "cfg.json"
    path.write_text(config)
    args = ["solve", "--config", str(path)]
    if flags:
        args += ["--n", "2", "--scalar", "6", "--mu", "0", "--anchor", "1,0.5"]
    code, out, err = run_cli(args)
    assert code == 64 and out == ""
    assert "Traceback" not in err


def test_config_that_cannot_be_read_exits_64(tmp_path):
    code, out, err = run_cli(["solve", "--config", str(tmp_path / "missing.json"),
                              "--n", "2", "--scalar", "6", "--anchor", "1,0.5"])
    assert code == 64 and out == ""
    assert "--config" in err and "Traceback" not in err


def test_config_object_is_read_as_its_json_text(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"a": 2}}))
    base = ["catalog", "--label", "1.2.1"]
    code, out, _ = run_cli(base + ["--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["params"]["a"] == 2.0
    assert (code, out) == run_cli(base + ["--params", '{"a": 2}'])[:2]
    assert out != run_cli(base)[1]


def test_repeated_runs_are_byte_identical():
    classify_args = ["classify", "--n", "3", "--scalar", "12", "--lambda", "0.1", "--mu", "-0.2"]
    solve_args = [
        "solve", "--n", "2", "--scalar", "0", "--lambda", "-1", "--mu", "0",
        "--anchor", "2,3", "--s-min", "1.5", "--s-max", "20", "--samples", "40",
    ]
    lemmas_args = ["lemmas", "--which", "I"]
    for args in (classify_args, solve_args, lemmas_args):
        assert run_cli(args) == run_cli(args)


def test_non_finite_flags_exit_64():
    base = ["solve", "--n", "2", "--scalar", "6", "--lambda", "0", "--mu", "0",
            "--anchor", "1,0.5"]
    # a flag given twice takes its last value
    for flags in (["--scalar", "nan"], ["--lambda", "inf"], ["--anchor", "1,nan"],
                  ["--mu=-inf"], ["--s-max", "inf"]):
        code, out, _ = run_cli(base + flags)
        assert code == 64 and out == "", flags
    verify = ["verify", "--n", "2", "--scalar", "6", "--lambda", "0", "--mu", "0"]
    assert run_cli(verify + ["--gauge-c", "nan"])[0] == 64
    assert run_cli(verify + ["--anchor", "1,0.5", "--tol", "nan"])[0] == 64
    classify = ["classify", "--n", "2", "--scalar", "0"]
    for grid in ("--grid=-inf:0:3", "--grid=0:1e400:3", "--grid=-1e308:1e308:3"):
        code, out, _ = run_cli(classify + [grid])
        assert code == 64 and out == "", grid


def _readme_commands():
    commands = []
    for block in re.findall(r"^```\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("csck "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_run(tmp_path, monkeypatch, validator):
    # every documented command, in order: solve --output run.csv feeds verify --input
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 15
    for argv in commands:
        code, out, err = run_cli(argv)
        assert code == 0, (argv, err)
        if "--output" in argv:
            out = (tmp_path / argv[argv.index("--output") + 1]).read_text()
        if out.startswith("{"):
            valid(validator, json.loads(out))
        else:
            assert out.startswith(CSV_HEADER + "\n"), argv


def run_process(args, *flags):
    """`python *flags -m csck.cli *args` as a fresh process, with Python's
    default warning filters."""
    src = str(Path(errors.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "csck.cli", *args], env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_in(optimize, args):
    """run_cli, or with optimize a `python -O` subprocess, where no assert runs."""
    return run_process(args, "-O") if optimize else run_cli(args)


@pytest.mark.parametrize("optimize", [False, True])
def test_unmatched_antiderivative_is_ill_conditioned(optimize):
    # F' misses x^k/H at the probe point by 2e-8 relative; the check is no
    # assert, so python -O raises it too instead of printing a window
    code, out, err = run_cli_in(optimize, [
        "solve", "--n", "4", "--scalar", "40", "--lambda=-5.938808097987455e-11",
        "--mu=-3.5321373703027535e-11", "--anchor", "1,0.25", "--format", "json",
    ])
    assert (code, out) == (1, "")
    report = json.loads(err)
    assert report["error"] == "IllConditionedError"
    assert "misses" in report["detail"]


@pytest.mark.parametrize("optimize", [False, True])
def test_ball_without_a_limit_at_infinity_is_ill_conditioned(optimize):
    # the log terms of F miss cancelling at infinity by 1.5e-9, so the ball
    # has no boundary constant; python -O raises the same error
    code, out, err = run_cli_in(optimize, [
        "ball", "--n", "2", "--lambda=-1.740276161677827e-10", "--mu", "4.992736763817746e-10",
    ])
    assert (code, out) == (1, "")
    report = json.loads(err)
    assert report["error"] == "IllConditionedError"
    assert "no finite limit at infinity" in report["detail"]


@pytest.mark.parametrize("optimize", [False, True])
def test_catalog_reference_deviation_is_ill_conditioned(optimize):
    # at this k the roots of H sit 2.9e-13 from alpha = (1 - k) / 2 and the
    # engine F misses the printed identity's differences by 4.0e-4; the
    # check is no assert, so python -O fails the reference stage too
    code, out, err = run_cli_in(optimize, [
        "catalog", "--label", "1.3.2", "--params", '{"k": 0.0001368}', "--check",
    ])
    assert (code, out) == (1, "")
    report = json.loads(err)
    assert report["error"] == "StageError"
    assert report["detail"].startswith("stage reference: IllConditionedError: ")


SPLIT_FLOAT_RANGE = {
    # x^2's Taylor coefficients overflow at a root near 3.7e201
    "overflow": ([
        "solve", "--n", "3", "--scalar=3.2414365214354135e-201",
        "--lambda=-1.5507399196705884e-101", "--mu=4.076031672312117e-13",
        "--anchor", "1,1", "--samples", "5", "--format", "json",
    ], "overflows at the root"),
    # A = 8.8e49 on a ray: the probe point A + 1 rounds to A, where H is 0
    "probe": ([
        "ball", "--n", "5", "--lambda=6.6373514880557e-07", "--mu=-4.521056060236043e+299",
        "--samples", "5",
    ], "is not inside"),
    # a numerical triple root at 0 where H has no x^3 term
    "triple-root": ([
        "solve", "--n", "4", "--scalar", "0", "--lambda=3.1287883239167286e-114",
        "--mu=-3.4565543442730043e-217", "--anchor", "1,1", "--samples", "3",
    ], "Taylor coefficient of order 3"),
}


@pytest.mark.parametrize("case, optimize", [
    ("overflow", False), ("probe", False), ("triple-root", False), ("triple-root", True),
])
def test_split_float_range_failures_are_ill_conditioned(case, optimize):
    # the triple root used to fail an assert, and a ZeroDivisionError under -O
    args, detail = SPLIT_FLOAT_RANGE[case]
    code, out, err = run_cli_in(optimize, args)
    assert (code, out) == (1, "")
    report = json.loads(err)
    assert report["error"] == "IllConditionedError"
    assert detail in report["detail"]


def test_gauge_constant_that_empties_the_domain_exits_1(validator):
    # exp(F(inf) - c) underflows to 0: the domain (0, 0.0) has no grid
    code, out, err = run_cli([
        "verify", "--n", "6", "--scalar=-797490.929544062", "--lambda=-0.05927224077667122",
        "--mu=8.550385033450465e-13", "--gauge-c=288382.7069678669", "--samples", "5",
    ])
    assert (code, out) == (1, "")
    payload = valid(validator, json.loads(err))
    assert payload["error"] == "OutOfDomainError"
    assert "empty at c = 288382.7069678669" in payload["detail"]
