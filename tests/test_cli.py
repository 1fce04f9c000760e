"""CLI behavior: exit codes, schema validity, determinism, round trips."""

import json
import subprocess
import sys

import pytest
from jsonschema import Draft7Validator

from padicheights import cli


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv):
    return subprocess.run([sys.executable, "-m", "padicheights"] + list(argv),
                          capture_output=True, text=True, timeout=300)


def check_schema(command, doc):
    schema = json.loads(cli.schema_path(command).read_text())
    Draft7Validator.check_schema(schema)
    errors = list(Draft7Validator(schema).iter_errors(doc))
    assert not errors, errors[:3]


# ---------------------------------------------------------------------------
# usage errors: exit 2, one diagnostic line on stderr

def test_no_subcommand(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "bogus")
    assert code == 2
    assert err.count("\n") == 1


def test_missing_required_flag(capsys):
    code, _, err = run_cli(capsys, "bc-check", "--disc", "-7", "--level",
                           "23", "--p", "11", "--r", "2", "--k", "1",
                           "--prec", "10")
    assert code == 2
    assert "--mmax" in err
    assert err.count("\n") == 1


def test_bc_check_inert_p(capsys):
    code, out, err = run_cli(capsys, "bc-check", "--disc", "-7", "--level",
                             "23", "--p", "13", "--r", "2", "--k", "1",
                             "--mmax", "2", "--prec", "10")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "split" in err


def test_bc_check_nonunit_class_character(capsys):
    # p = 3 divides the leading coefficient of the reduced form (3, -1, 4),
    # so chi of that class's conjugate ideal is not a unit
    code, out, err = run_cli(capsys, "bc-check", "--disc", "-47", "--level",
                             "7", "--p", "3", "--r", "2", "--k", "1",
                             "--mmax", "3", "--prec", "10")
    assert code == 2
    assert out == ""
    assert "p-adic unit" in err and "(3, -1, 4)" in err
    assert err.count("\n") == 1


def test_fourier_p_divides_m(capsys):
    code, _, err = run_cli(capsys, "fourier", "--disc", "-7", "--level",
                           "23", "--p", "11", "--r", "2", "--k", "1",
                           "--m", "7", "--prec", "10")
    assert code == 2
    assert "p | m" in err


def test_class_index_out_of_range(capsys):
    code, _, err = run_cli(capsys, "theta", "--disc", "-7", "--ell", "2",
                           "--class", "5", "--bound", "3", "--mode", "exact")
    assert code == 2
    assert "class index" in err


def test_sigma_needs_odd_prime(capsys):
    code, _, err = run_cli(capsys, "sigma", "--disc", "-7", "--level", "23",
                           "--class", "0", "--n", "3", "--p", "9",
                           "--prec", "5")
    assert code == 2
    assert "odd prime" in err


@pytest.mark.parametrize("extra", [
    ("--mode", "padic", "--prec", "6"),
    ("--mode", "complex"),
    ("--mode", "exact", "--prec", "6"),
])
def test_theta_mode_flag_rules(capsys, extra):
    code, _, err = run_cli(capsys, "theta", "--disc", "-7", "--ell", "2",
                           "--class", "0", "--bound", "3", *extra)
    assert code == 2
    assert err.count("\n") == 1


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "bc-check" in out


# ---------------------------------------------------------------------------
# documented examples

def test_hpoly_example(capsys):
    code, out, _ = run_cli(capsys, "hpoly", "--m", "1", "--k", "1")
    assert code == 0
    assert json.loads(out) == {"coeffs": ["-1/1", "2/1"]}


def test_classgroup_example(capsys):
    code, out, _ = run_cli(capsys, "classgroup", "--disc", "-23")
    assert code == 0
    doc = json.loads(out)
    assert doc["class_number"] == 3
    assert len(doc["forms"]) == 3
    assert doc["forms"][doc["identity"]] == [1, 1, 6]
    check_schema("classgroup", doc)


def test_params_smallest_pair(capsys):
    code, out, _ = run_cli(capsys, "params", "--disc", "-7")
    assert code == 0
    assert json.loads(out) == {"discriminant": -7, "level": 11, "p": 23}


def test_params_with_character_constraint(capsys):
    code, out, _ = run_cli(capsys, "params", "--disc", "-23", "--ell", "2")
    assert code == 0
    assert json.loads(out) == {"discriminant": -23, "level": 3, "p": 29}


@pytest.mark.parametrize("which", ["combo", "recur", "jacobi"])
def test_hpoly_checks_pass(capsys, which):
    code, out, _ = run_cli(capsys, "hpoly", "--m", "4", "--k", "2",
                           "--check", which)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    check_schema("hpoly", doc)


def test_ideals_report(capsys):
    code, out, _ = run_cli(capsys, "ideals", "--disc", "-7", "--norm", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4 == len(doc["ideals"])
    assert all(row["class"] == 0 for row in doc["ideals"])
    check_schema("ideals", doc)


# ---------------------------------------------------------------------------
# verification failure exit code (library reports patched to fail)

def test_bc_check_failure_exit1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "bc_report", lambda ctx, mmax: {
        "pass": False, "results": []})
    code, out, _ = run_cli(capsys, "bc-check", "--disc", "-7", "--level",
                           "23", "--p", "11", "--r", "2", "--k", "1",
                           "--mmax", "1", "--prec", "5")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_crosscheck_failure_exit1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "crosscheck_report", lambda ctx, ci, m: {
        "pass": False, "residual": 0})
    code, _, _ = run_cli(capsys, "crosscheck", "--disc", "-7", "--level",
                         "23", "--p", "11", "--r", "2", "--k", "1",
                         "--m", "33", "--prec", "5")
    assert code == 1


def test_hpoly_check_failure_exit1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_hpoly_identity", lambda m, k, which: False)
    code, out, _ = run_cli(capsys, "hpoly", "--m", "2", "--k", "1",
                           "--check", "combo")
    assert code == 1
    assert json.loads(out)["pass"] is False


# ---------------------------------------------------------------------------
# schema conformance and round-trip identity for every subcommand

TOUR = {
    "classgroup": ("classgroup", "--disc", "-23"),
    "ideals": ("ideals", "--disc", "-23", "--norm", "6"),
    "theta": ("theta", "--disc", "-7", "--ell", "2", "--class", "0",
              "--bound", "5", "--mode", "exact"),
    "hpoly": ("hpoly", "--m", "3", "--k", "2", "--check", "jacobi"),
    "sigma": ("sigma", "--disc", "-7", "--level", "23", "--class", "0",
              "--n", "12", "--p", "11", "--prec", "8"),
    "bc-check": ("bc-check", "--disc", "-7", "--level", "23", "--p", "11",
                 "--r", "2", "--k", "1", "--mmax", "2", "--prec", "12"),
    "fourier": ("fourier", "--disc", "-7", "--level", "23", "--p", "11",
                "--r", "2", "--k", "1", "--m", "11", "--prec", "12"),
    "heightsum": ("heightsum", "--disc", "-7", "--level", "23", "--p", "11",
                  "--r", "2", "--k", "1", "--m", "13", "--prec", "12"),
    "crosscheck": ("crosscheck", "--disc", "-7", "--level", "23", "--p",
                   "11", "--r", "2", "--k", "1", "--m", "33", "--prec", "12"),
    "params": ("params", "--disc", "-7"),
}


@pytest.mark.parametrize("command", sorted(TOUR))
def test_schema_and_roundtrip(capsys, command):
    code, out, _ = run_cli(capsys, *TOUR[command])
    assert code == 0
    doc = json.loads(out)
    check_schema(command, doc)
    assert cli.dump_json(doc) == out


@pytest.mark.parametrize("extra", [
    ("--mode", "padic", "--p", "11", "--prec", "6"),
    ("--mode", "complex", "--prec", "25"),
])
def test_theta_other_modes_validate(capsys, extra):
    code, out, _ = run_cli(capsys, "theta", "--disc", "-7", "--ell", "2",
                           "--class", "0", "--bound", "4", *extra)
    assert code == 0
    doc = json.loads(out)
    check_schema("theta", doc)
    assert cli.dump_json(doc) == out


def test_theta_exact_spot_value(capsys):
    _, out, _ = run_cli(capsys, "theta", "--disc", "-7", "--ell", "2",
                        "--class", "0", "--bound", "2", "--mode", "exact")
    doc = json.loads(out)
    assert doc["coefficients"][1] == {"x": "-3/1", "y": "0/1"}


# ---------------------------------------------------------------------------
# CSV outputs

def test_theta_csv(capsys):
    code, out, _ = run_cli(capsys, "theta", "--disc", "-7", "--ell", "2",
                           "--class", "0", "--bound", "4", "--mode", "exact",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,x,y"
    assert lines[2] == "2,-3/1,0/1"
    assert len(lines) == 5


def test_bc_check_csv_matches_json(capsys):
    base = ("bc-check", "--disc", "-7", "--level", "23", "--p", "11",
            "--r", "2", "--k", "1", "--mmax", "2", "--prec", "12")
    code, jout, _ = run_cli(capsys, *base)
    assert code == 0
    code, cout, _ = run_cli(capsys, *base, "--format", "csv")
    assert code == 0
    lines = cout.splitlines()
    assert lines[0] == "class,m,residual,pass"
    rows = [line.split(",") for line in lines[1:]]
    want = [[str(r["class"]), str(r["m"]), str(r["residual"]),
             "true" if r["pass"] else "false"]
            for r in json.loads(jout)["results"]]
    assert rows == want


# ---------------------------------------------------------------------------
# --output and determinism

def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "classgroup", "--disc", "-47",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    _, direct, _ = run_cli(capsys, "classgroup", "--disc", "-47")
    assert target.read_text(encoding="utf-8") == direct


def test_byte_determinism_across_processes():
    commands = [
        ("classgroup", "--disc", "-23"),
        ("theta", "--disc", "-23", "--ell", "2", "--class", "1", "--bound",
         "4", "--mode", "complex", "--prec", "30"),
        ("fourier", "--disc", "-7", "--level", "23", "--p", "11", "--r",
         "2", "--k", "1", "--m", "11", "--prec", "12"),
    ]
    for argv in commands:
        first = run_proc(*argv)
        second = run_proc(*argv)
        assert first.returncode == second.returncode == 0, argv
        assert first.stdout == second.stdout, argv


def test_jobs_flag_does_not_change_bytes():
    base = ("bc-check", "--disc", "-7", "--level", "23", "--p", "11",
            "--r", "2", "--k", "1", "--mmax", "3", "--prec", "12")
    serial = run_proc(*base, "--jobs", "1")
    threaded = run_proc(*base, "--jobs", "3")
    assert serial.returncode == threaded.returncode == 0
    assert serial.stdout == threaded.stdout
