"""CLI behavior: exit codes, schema validity, determinism, round trips."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_theta_padic_outside_zp(capsys, fmt):
    # at p = 13 the character of Q(sqrt(-55)) takes values in the
    # quadratic extension of Q_13, which the theta report cannot hold
    code, out, err = run_cli(capsys, "theta", "--disc", "-55", "--ell", "2",
                             "--class", "0", "--bound", "3", "--mode",
                             "padic", "--p", "13", "--prec", "3",
                             "--format", fmt)
    assert code == 2
    assert out == ""
    assert "chi takes values in Z_p" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_height_context_outside_zp(capsys):
    # the same refusal as theta's, named by build_char, for every command
    # that builds a height context
    code, out, err = run_cli(capsys, "bc-check", "--disc", "-55", "--level",
                             "7", "--p", "13", "--r", "2", "--k", "1",
                             "--mmax", "1", "--prec", "10")
    assert code == 2
    assert out == ""
    assert err == ("padicheights: theta character unavailable: hypothesis "
                   "chi takes values in Z_p fails: at p = 13 the character "
                   "needs the quadratic extension\n")


def test_bc_check_refuses_large_mmax_before_listing_cells():
    # the largest lattice norm, mmax p^4 |D|, is known before any cell is
    # listed; listing the two million cells and their operator pairs would
    # take about 30 s and 2 GiB of RSS
    proc = subprocess.run(
        [sys.executable, "-m", "padicheights", "bc-check", "--disc", "-7",
         "--level", "23", "--p", "11", "--r", "2", "--k", "1",
         "--mmax", "2000000", "--prec", "30"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("padicheights: lattice norms up to 204974000000 "
                           "exceed the exactness bound 1000000000\n")


@pytest.mark.parametrize("extra", [
    ("--mode", "complex", "--prec", "-5"),
    ("--mode", "complex", "--prec", "0"),
    ("--mode", "complex", "--prec", "-3"),
    ("--mode", "padic", "--p", "11", "--prec", "0"),
])
def test_theta_prec_must_be_positive(capsys, extra):
    code, out, err = run_cli(capsys, "theta", "--disc", "-7", "--ell", "2",
                             "--class", "0", "--bound", "3", *extra)
    assert code == 2
    assert out == ""
    assert "prec must be a positive integer" in err
    assert err.count("\n") == 1 and "Traceback" not in err


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


@pytest.mark.parametrize("ell", ["3", "0", "-2"])
def test_params_rejects_bad_character_type(capsys, ell):
    # no p-adic character of odd or non-positive infinity type exists, so
    # the search must stop at once instead of walking every (N, p)
    code, out, err = run_cli(capsys, "params", "--disc", "-7", "--ell", ell)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "ell even and > 0" in err


def test_params_fixed_p_without_zp_character(capsys):
    # at p = 3 no character of type (2, 0) on Q(sqrt(-23)) has values in
    # Z_p, whatever the level: exit 2 before the level search starts
    code, out, err = run_cli(capsys, "params", "--disc", "-23", "--p", "3",
                             "--ell", "2")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "with values in Z_p" in err


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


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_rejected_before_computing(tmp_path, capsys,
                                                     monkeypatch, where):
    target = tmp_path / "missing" / "x.json" if where == "missing directory" \
        else tmp_path
    monkeypatch.setattr(cli, "class_group",
                        lambda D: pytest.fail("computed before the check"))
    code, out, err = run_cli(capsys, "classgroup", "--disc", "-23",
                             "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"padicheights: cannot write --output {target}: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_output_write_error_exits_2(tmp_path, capsys, monkeypatch):
    # an OSError that only opening the file shows is a rejection as well
    monkeypatch.setattr(cli, "_check_output", lambda path: None)
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "classgroup", "--disc", "-23",
                             "--output", str(target))
    assert (code, out) == (2, "")
    assert err == (f"padicheights: cannot write --output {target}: "
                   "No such file or directory\n")
    assert list(tmp_path.iterdir()) == []


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


# one small command per layer that uses primality, factorization or divisors
NO_SYMPY_COMMANDS = [
    ["bc-check", "--disc", "-7", "--level", "23", "--p", "11", "--r", "2",
     "--k", "1", "--mmax", "2", "--prec", "12"],
    ["crosscheck", "--disc", "-7", "--level", "23", "--p", "11", "--r", "2",
     "--k", "1", "--m", "33", "--prec", "12"],
    ["sigma", "--disc", "-15", "--level", "17", "--class", "1", "--n", "60",
     "--p", "19", "--prec", "8"],
    ["params", "--disc", "-55", "--ell", "2"],
    ["theta", "--disc", "-23", "--ell", "2", "--class", "1", "--bound", "6",
     "--mode", "padic", "--p", "29", "--prec", "5"],
]

_RUN_ALL = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["sympy"] = None
from padicheights import cli
results = []
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    results.append([code, buf.getvalue()])
print(json.dumps({"results": results, "sympy": "sympy" in sys.modules}))
"""


def test_runs_without_sympy():
    def run(mode):
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_ALL, mode,
             json.dumps(NO_SYMPY_COMMANDS)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    blocked, free = run("block"), run("free")
    assert blocked["results"] == free["results"]
    assert [code for code, _ in free["results"]] == [0] * 5
    assert not free["sympy"]        # nothing imports it when it is there


_RUN_ONE = """
import contextlib, io, json, sys
from padicheights import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(json.loads(sys.argv[1]))
print(json.dumps([code, "mpmath" in sys.modules]))
"""


@pytest.mark.parametrize("argv", NO_SYMPY_COMMANDS[:2],
                         ids=lambda argv: argv[0])
def test_padic_reports_never_import_mpmath(argv):
    # mpmath serves only the complex mode and the float integral oracle
    proc = subprocess.run([sys.executable, "-c", _RUN_ONE, json.dumps(argv)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, False]


# ---------------------------------------------------------------------------
# fuzz: small random contexts end in a report or a named rejection

# contexts (D, N, p) that meet every hypothesis on the field, level and prime
_BASES = [(-7, 23, 11), (-23, 3, 13), (-31, 7, 5), (-47, 3, 7), (-51, 11, 5),
          (-55, 13, 7)]
_ANY = {"D": st.integers(-60, 8), "N": st.integers(-3, 30),
        "p": st.integers(-3, 13), "r": st.integers(-1, 4),
        "k": st.integers(-1, 3), "m": st.integers(-2, 6),
        "mmax": st.integers(-1, 1), "prec": st.integers(-1, 5),
        "cls": st.integers(-1, 2)}


@st.composite
def _fuzz_values(draw):
    """A valid context with at most one value replaced by any small integer,
    prime or not, negative or zero."""
    v = dict(zip(("D", "N", "p"), draw(st.sampled_from(_BASES))))
    v["r"], v["k"] = draw(st.sampled_from([(2, 1), (3, 1), (3, 2), (4, 2)]))
    # multiples of p pass the p | m hypothesis of fourier and crosscheck;
    # at p > 7 the cross-check would take seconds
    ms = [1, 2, 3, 4, 5, 6] + ([i * v["p"] for i in (1, 2, 3)]
                               if v["p"] <= 7 else [])
    v.update(m=draw(st.sampled_from(ms)), mmax=1,
             prec=draw(st.integers(1, 5)), cls=draw(st.integers(0, 2)))
    field = draw(st.sampled_from([None, *_ANY]))
    if field is not None:
        v[field] = draw(_ANY[field])
    return v


@given(st.sampled_from(["bc-check", "crosscheck", "fourier", "heightsum",
                        "sigma", "params", "theta"]), _fuzz_values())
@settings(max_examples=40, deadline=None)
def test_fuzz_exit_codes(command, v):
    ctx = ["--disc", str(v["D"]), "--level", str(v["N"]), "--p", str(v["p"]),
           "--r", str(v["r"]), "--k", str(v["k"]), "--prec", str(v["prec"])]
    argv = {
        "bc-check": ["bc-check", *ctx, "--mmax", str(v["mmax"])],
        "crosscheck": ["crosscheck", *ctx, "--m", str(v["m"])],
        "fourier": ["fourier", *ctx, "--m", str(v["m"]),
                    "--class", str(v["cls"])],
        "heightsum": ["heightsum", *ctx, "--m", str(v["m"]),
                      "--class", str(v["cls"])],
        "sigma": ["sigma", "--disc", str(v["D"]), "--level", str(v["N"]),
                  "--class", str(v["cls"]), "--n", str(v["m"]),
                  "--p", str(v["p"]), "--prec", str(v["prec"])],
        "params": ["params", "--disc", str(v["D"]), "--p", str(v["p"]),
                   "--ell", str(2 * v["k"])],
        "theta": ["theta", "--disc", str(v["D"]), "--ell", str(2 * v["k"]),
                  "--class", str(v["cls"]), "--bound", str(v["m"]),
                  "--mode", "padic", "--p", str(v["p"]),
                  "--prec", str(v["prec"])],
    }[command]
    assert cli.run(argv) in (0, 1, 2), argv


def test_every_raise_in_src_is_a_rejection():
    # cli.run turns exactly the _REJECTIONS types into a one line diagnostic
    # and exit 2; a raise of any other type, or a bare re-raise, would reach
    # a user as a traceback.  A raise the scan cannot resolve to a class
    # fails too.
    checked, stray = 0, []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"padicheights.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            try:
                cls = eval(ast.unparse(exc), vars(module)) if exc else None
            except (NameError, AttributeError):
                cls = None
            if not (isinstance(cls, type) and issubclass(cls, cli._REJECTIONS)):
                stray.append(f"{path.name}:{node.lineno}")
            checked += 1
    assert checked > 0
    assert stray == []
