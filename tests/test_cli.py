"""End-to-end command line behavior: outputs, exit codes, reports."""

import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import wittmod
from wittmod import tensor_modules, verifier
from wittmod.cli import run_command
from wittmod.config import resolve_rep
from wittmod.expressions import MAX_WORD_ATOMS, print_expr
from wittmod.reporting import report_schema
from wittmod.verifier import REGISTRY

from conftest import COEFF_POOL, make_spec, rand_coeff, rand_tensor


def run(capsys, argv):
    rc = run_command(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# expression commands

# expected stdout of a successful command; None marks a usage error,
# which exits 2 with nothing on stdout
GOLDEN = [
    (["bracket", "dt1", "t1*dt1"], "dt1\n"),
    (["bracket", "t1*dt1", "dt1"], "-dt1\n"),
    (["bracket", "t1 . dt1", "dt1"], "-dt1\n"),
    (["bracket", "dx1", "t1*x1*dt1"], "t1*dt1\n"),
    (["bracket", "dx1", "t1*x1*dt1", "--mode", "verbatim"], "dt1\n"),
    (["bracket", "t1*dt1", "t2*dt2"], "0\n"),
    (["act", "t1 . dt1", "1 @ e1", "--m", "1", "--n", "1"], "t1 @ e1\n"),
    (["act", "dx1", "x1 @ e2", "--m", "1", "--n", "1"], "1 @ e2\n"),
    (["wh", "--m", "1", "--n", "1", "--D", "2"], "1 @ e1\n1 @ e2\n"),
    (["descent", "t1 @ e1", "--m", "1", "--n", "1", "--a", "1"], "0\n"),
    (["weighting", "t1 @ e1 + 1 @ e2", "--r", "1", "--m", "1", "--n", "1"],
     "1 @ e2\n"),
    (["bracket", "t1", "dt1"], None),
    (["descent", "t1 @ e1", "--m", "1", "--n", "1", "--a", "0"], None),
    # non-integral coefficients: a Witt pair and a dressed pair, both modes
    (["bracket", "3/2*t1^2*x1*dt1 - 1/3*x1*dx1",
      "-1/3*t1*dt1 + 3/2*t1*x1*dx1 + 2*dx1"],
     "2/3*dx1 + 3*t1^2*dt1 + 1/2*t1^2*x1*dt1 - 9/4*t1^3*x1*dt1\n"),
    (["bracket", "3/2*t1^2*x1*dt1 - 1/3*x1*dx1",
      "-1/3*t1*dt1 + 3/2*t1*x1*dx1 + 2*dx1", "--mode", "verbatim"],
     "3*dt1 + 2/3*dx1 - 9/4*x1*dt1 + 1/2*x1*dx1 - 1/2*t1*x1*dx1"
     " + 1/2*t1^2*x1*dt1\n"),
    (["bracket", "3/2*t1 . x1*dt1 - 1/3*t2 . x1*dx1 + dt2",
      "-1/3*x1 . t1*dx1 + 3/2*t1*t2 . x1*dt2"],
     "3/2*t1 . x1*dt2 + 1/2*t1*x1 . x1*dx1 + 1/2*t1*x1 . t1*dt1"
     " + 9/4*t1*t2*x1 . x1*dt2 + 1/2*t1*t2*x1 . x1*dx1"
     " - 1/2*t1*t2^2 . x1*dt2\n"),
    (["bracket", "3/2*t1 . x1*dt1 - 1/3*t2 . x1*dx1 + dt2",
      "-1/3*x1 . t1*dx1 + 3/2*t1*t2 . x1*dt2", "--mode", "verbatim"],
     "-1/9*t2*x1 . dx1 + 1/9*t2*x1 . t1*dx1 + 3/2*t1 . x1*dt2"
     " + 1/2*t1*x1 . dt1 + 1/2*t1*x1 . x1*dx1 + 9/4*t1*t2*x1 . x1*dt2"
     " + 1/2*t1*t2*x1 . x1*dx1 - 1/2*t1*t2^2 . x1*dt2\n"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN)
def test_golden_commands(capsys, argv, expected):
    rc, out, err = run(capsys, argv)
    if expected is None:
        assert (rc, out) == (2, "")
        assert err.startswith("error: ")
        return
    assert rc == 0
    assert out == expected
    assert err == ""


def _readme_tour():
    """The calculator lines of README's command block, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines()
            if line.split()[:1] == ["wittmod"] and line.split()[1] in (
                "bracket", "act", "wh", "descent", "weighting")]


TOUR = _readme_tour()


def test_readme_tour_has_every_calculator_command():
    assert {argv[0] for argv in TOUR} == {
        "bracket", "act", "wh", "descent", "weighting"}


@pytest.mark.parametrize("argv", TOUR, ids=[" ".join(a) for a in TOUR])
def test_readme_tour_runs(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, ""), err
    assert out


def test_wh_generalized_doubles_in_height(capsys):
    rc, out, _ = run(capsys, ["wh", "--m", "1", "--n", "1", "--D", "2",
                              "--height", "1"])
    assert rc == 0
    assert len(out.splitlines()) == 8
    assert "t1 @ e1" in out.splitlines()


def test_shape_is_inferred_from_indices(capsys):
    rc, out, _ = run(capsys, ["bracket", "t2*dt2", "dt2"])
    assert rc == 0
    assert out == "-dt2\n"


# ---------------------------------------------------------------------------
# exit codes

def test_parse_error_exits_2(capsys):
    rc, out, err = run(capsys, ["bracket", "q1", "dt1"])
    assert rc == 2
    assert "unknown name 'q1'" in err
    assert "col 1" in err


def test_unknown_check_exits_2(capsys):
    rc, _, err = run(capsys, ["verify", "nonsense"])
    assert rc == 2
    assert "unknown check id" in err


def test_out_of_range_vector_exits_2(capsys):
    rc, _, err = run(capsys, ["act", "dt1", "1 @ e5", "--m", "1", "--n", "1"])
    assert rc == 2
    assert "out of range" in err


@pytest.mark.parametrize("argv,message", [
    (["act", "t1 @ e1", "1 @ e1"],
     "tensor marker not allowed in an operator word"),
    (["bracket", "t1", "dt1"], "derivation term must end in dt<k> or dx<k>"),
    (["bracket", "t1 . t1 . dt1", "dt1"],
     "a dressed term has at most two segments"),
    (["descent", "t1 . t1 @ e1"], "'.' not allowed in a tensor coefficient"),
    # x1*x1 = 0, yet every index of the vanishing term is checked, as dt9
    # in the last request always was
    (["bracket", "x1*x1*t9*dt1", "dt1", "--m", "1", "--n", "1"],
     "t index 9 out of range in derivation term"),
    (["act", "x1*x1*t9*dt1", "1 @ e1", "--m", "1", "--n", "1"],
     "t index 9 out of range in derivation term"),
    (["bracket", "x1*x1 . t9*dt1", "dt1", "--m", "1", "--n", "1"],
     "t index 9 out of range in derivation term"),
    (["descent", "x1*x1*t9 @ e1", "--m", "1", "--n", "1"],
     "t index 9 out of range in tensor coefficient"),
    (["act", "x1*x1*dt9", "1 @ e1", "--m", "1", "--n", "1"],
     "dt index 9 out of range"),
], ids=["word-marker", "bracket-no-slot", "dressed-segments",
        "tensor-dot", "vanishing-witt", "vanishing-word", "vanishing-dressed",
        "vanishing-tensor", "vanishing-word-slot"])
def test_expression_errors_exit_2(capsys, argv, message):
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


def test_overlong_operator_word_exits_2_before_acting(capsys, monkeypatch):
    # t1^1000000 used to expand to a million atoms (9 s, 392 MB)
    def unreachable(*args):
        raise AssertionError("act_word ran on an over-long word")
    monkeypatch.setattr(tensor_modules, "act_word", unreachable)
    start = time.perf_counter()
    rc, out, err = run(capsys, ["act", "t1^1000000", "1 @ e1",
                                "--m", "1", "--n", "1"])
    assert time.perf_counter() - start < 1.0
    assert (rc, out, err) == (2, "", "error: operator expression expands "
                              "to more than %d atoms\n" % MAX_WORD_ATOMS)


# the ceiling holds for all words of an expression together
@pytest.mark.parametrize("word,expected", [
    ("t1^1000", "t1^1000 @ e1\n"),
    ("t1^5000 . t1^5000", "t1^10000 @ e1\n"),
    ("t1^5000 + t1^5000", "2*t1^5000 @ e1\n"),
    ("t1^5000 . t1^5001", None),
    ("dt1 . t1^10000", None),
    ("t1^5000 + t1^5001", None),
])
def test_operator_word_ceiling(capsys, word, expected):
    assert MAX_WORD_ATOMS == 10000
    rc, out, err = run(capsys, ["act", word, "1 @ e1", "--m", "1", "--n", "1"])
    if expected is None:
        assert (rc, out, err) == (2, "", "error: operator expression expands "
                                  "to more than 10000 atoms\n")
    else:
        assert (rc, out, err) == (0, expected, "")


def test_internal_value_error_propagates(capsys, monkeypatch):
    # a ValueError from the library is a bug, not a usage error
    def broken(*args):
        raise ValueError("internal")
    monkeypatch.setattr(tensor_modules, "act_word", broken)
    with pytest.raises(ValueError, match="internal"):
        run_command(["act", "dt1", "1 @ e1"])


def test_weighting_singular_twist_exits_2_before_work(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("weight_reduce ran on a singular twist")
    monkeypatch.setattr(tensor_modules, "weight_reduce", unreachable)
    rc, out, err = run(capsys, ["weighting", "t1 @ e1", "--r", "1",
                                "--m", "1", "--n", "1", "--a", "0"])
    assert (rc, out) == (2, "")
    assert err == "error: product basis needs a nonsingular twist vector\n"


def test_non_integer_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("WITTMOD_SEED", "abc")
    rc, out, err = run(capsys, ["verify", "gl_realization"])
    assert (rc, out) == (2, "")
    assert err == "error: WITTMOD_SEED must be an integer, got 'abc'\n"


def test_weight_basis_rejection(tmp_path, capsys):
    # natural(2,0) in the basis b1 = e1, b2 = e1 + e2: E11 b2 = b1, so the
    # Cartan matrices are not diagonal
    rep_file = tmp_path / "skew.rep"
    rep_file.write_text("dim 0 0\n"
                        "E 1 1 : 1 1 0 0\n"
                        "E 1 2 : 0 1 0 0\n"
                        "E 2 1 : -1 -1 1 1\n"
                        "E 2 2 : 0 -1 0 1\n")
    descriptor = "file:%s" % rep_file
    assert not resolve_rep(descriptor, 2, 0).has_weight_basis()
    rc, out, _ = run(capsys, ["report", "--check", "difference_annihilation",
                              "--m", "2", "--n", "0", "--rep", descriptor,
                              "--out", "-", "--stable"])
    assert rc == 2
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "error"
    assert "weight basis" in check["counterexample"]["error"]


def test_missing_subcommand_exits_2(capsys):
    rc, _, _ = run(capsys, [])
    assert rc == 2


def test_verify_pass_exits_0(capsys):
    rc, out, _ = run(capsys, ["verify", "gl_realization"])
    assert rc == 0
    line = out.splitlines()[0]
    assert line.startswith("gl_realization")
    assert " pass " in line
    assert "cases=" in line


def test_verify_fail_exits_1(capsys):
    rc, out, _ = run(capsys, ["verify", "bracket_oracle", "--mode",
                              "verbatim", "--deg", "2"])
    assert rc == 1
    assert " fail " in out
    assert "counterexample" in out


def test_negative_parameter_exits_2(capsys):
    rc, out, err = run(capsys, ["verify", "jacobi", "--deg", "-1"])
    assert (rc, out) == (2, "")
    assert "deg must be >= 0" in err


def test_check_with_no_cases_fails(capsys):
    rc, out, _ = run(capsys, ["verify", "difference_recurrence", "--m", "0"])
    assert rc == 1
    assert " fail  cases=0 " in out
    assert "no cases were examined" in out


def test_negative_height_exits_2(capsys):
    rc, out, err = run(capsys, ["wh", "--height", "-1", "--m", "1", "--n",
                                "1", "--D", "2"])
    assert (rc, out) == (2, "")
    assert "height must be >= 0, got -1" in err


@pytest.mark.parametrize("check,mode", [("jacobi", "mutatd"),
                                        ("gl_realization", "tau_flipped")])
def test_unimplemented_mode_exits_2(capsys, check, mode):
    rc, out, err = run(capsys, ["verify", check, "--mode", mode])
    assert (rc, out) == (2, "")
    assert "check %s has no mode %r" % (check, mode) in err


def test_empty_shape_exits_2(capsys):
    rc, out, err = run(capsys, ["verify", "jacobi", "--m", "0", "--n", "0"])
    assert (rc, out) == (2, "")
    assert "empty shape" in err


@pytest.mark.parametrize("argv,message", [
    (["act", "dt1", "1 @ e1", "--m", "-1"], "m must be >= 0, got -1"),
    (["descent", "1 @ e1", "--m", "0", "--n", "0"],
     "empty shape: m and n are both 0"),
    # the shape's ceiling: this bracket used to run at m = 10**6
    (["bracket", "dt1", "t1*dt1", "--m", "1000000"],
     "m must be <= 8, got 1000000"),
    (["weighting", "1 @ e1", "--r", "1", "--n", "9"],
     "n must be <= 8, got 9"),
    (["wh", "--m", "9"], "m must be <= 8, got 9"),
], ids=["act-negative-m", "descent-empty-shape", "bracket-huge-m",
        "weighting-large-n", "wh-large-m"])
def test_calculator_shape_rule_exits_2(capsys, argv, message):
    # the calculator commands share the run parameters' shape rule
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


def test_largest_shape_is_accepted(capsys):
    assert run(capsys, ["bracket", "dt1", "t1*dt1", "--m", "8",
                        "--n", "8"]) == (0, "dt1\n", "")


@pytest.mark.parametrize("r,m", [("1,2", 1), ("1,2,3", 2)])
def test_weight_length_error_names_the_flag(capsys, r, m):
    # the value is the weight --r, not the twist vector --a
    rc, out, err = run(capsys, ["weighting", "1 @ e1", "--r", r,
                                "--m", str(m), "--n", "1"])
    assert (rc, out, err) == (2, "", "error: weight --r needs %d entries, "
                              "got %d\n" % (m, len(r.split(","))))


def test_empty_weight_exits_2(capsys):
    # an empty --r is no weight: it used to reduce modulo the all-ones
    # weight, the default of the twist --a that shares its parser
    rc, out, err = run(capsys, ["weighting", "t1 @ e1 + 1 @ e2", "--r", "",
                                "--m", "1", "--n", "1"])
    assert (rc, out, err) == (2, "", "error: weight --r needs 1 entries, "
                              "got 0\n")
    # an empty --a still means the default twist
    assert run(capsys, ["weighting", "t1 @ e1 + 1 @ e2", "--r", "1",
                        "--a", "", "--m", "1", "--n", "1"]) \
        == run(capsys, ["weighting", "t1 @ e1 + 1 @ e2", "--r", "1",
                        "--m", "1", "--n", "1"]) == (0, "1 @ e2\n", "")


@pytest.mark.parametrize("argv,message", [
    # this window took 2 s before the ceiling
    (["wh", "--m", "2", "--n", "2", "--D", "30"], "D must be <= 8, got 30"),
    (["verify", "whittaker_dimension", "--D", "9"], "D must be <= 8, got 9"),
    (["verify", "jacobi", "--deg", "5"], "deg must be <= 4, got 5"),
    # linear in the height: this took 0.76 s at height 0 + 10**6
    (["wh", "--m", "1", "--n", "0", "--D", "1", "--height", "1000000"],
     "height must be <= 8, got 1000000"),
    # linear in the trials: this took 3.3 s
    (["verify", "weyl_relations", "--trials", "20000"],
     "trials must be <= 1000, got 20000"),
    (["verify", "difference_annihilation", "--rmax", "17"],
     "rmax must be <= 16, got 17"),
], ids=["wh-D30", "verify-D9", "verify-deg5", "wh-height", "verify-trials",
        "verify-rmax"])
def test_window_ceilings_exit_2(capsys, argv, message):
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


def test_largest_window_is_accepted(capsys):
    rc, out, _ = run(capsys, ["wh", "--m", "1", "--n", "1", "--D", "8"])
    assert (rc, out) == (0, "1 @ e1\n1 @ e2\n")
    rc, out, _ = run(capsys, ["verify", "bracket_oracle", "--m", "1",
                              "--n", "0", "--deg", "4"])
    assert rc == 0 and " pass " in out
    # any height at or above D gives the whole window
    assert run(capsys, ["wh", "--m", "1", "--n", "0", "--D", "1",
                        "--height", "8"]) \
        == run(capsys, ["wh", "--m", "1", "--n", "0", "--D", "1",
                        "--height", "1"])
    for check, flag, top in (("simplicity_probe", "--trials", "1000"),
                             ("difference_annihilation", "--rmax", "16")):
        rc, out, _ = run(capsys, ["verify", check, flag, top])
        assert rc == 0 and " pass " in out


@pytest.mark.parametrize("rep,dim", [
    # this peaked at 31 MB; the ceiling is read before anything is built
    ("trivial:1000000", 1000000),
    ("tensor(trivial:16,trivial:17)", 272),
    ("sum(trivial:256,natural)", 258),
    ("sum(tensor(natural,trivial:64),tensor(trivial:64,natural))", 256),
], ids=["trivial", "tensor", "sum", "nested"])
def test_rep_dimension_ceiling_exits_2(capsys, rep, dim):
    argv = ["act", "dt1", "1 @ e1", "--m", "1", "--n", "1", "--rep", rep]
    rc, out, err = run(capsys, argv)
    if dim <= 256:
        assert (rc, err) == (0, "")
    else:
        assert (rc, out, err) == (2, "", "error: rep dimension must be "
                                  "<= 256, got %d\n" % dim)


def test_weight_multiplicity_rejects_m0(capsys):
    # no even variables means no Cartan weights: a configuration error
    # named before any work, not an internal ValueError
    rc, out, _ = run(capsys, ["verify", "weight_multiplicity", "--m", "0",
                              "--n", "1"])
    assert rc == 2
    assert " error cases=0 " in out
    assert "weight_multiplicity needs m >= 1" in out
    assert "randrange" not in out


@pytest.mark.parametrize("command", ["verify", "report"])
def test_check_error_status_exits_2(capsys, command):
    # a singular twist is a configuration error found inside the check:
    # the check reports status error, and that exits 2 like any other
    argv = [command, "descent_roundtrip", "--a", "0"]
    if command == "report":
        argv = [command, "--check", "descent_roundtrip", "--a", "0",
                "--out", "-", "--stable"]
    rc, out, _ = run(capsys, argv)
    assert rc == 2
    if command == "verify":
        assert out.startswith("descent_roundtrip")
        assert " error cases=0 " in out
        assert "nonsingular" in out
    else:
        report = json.loads(out)
        assert [c["status"] for c in report["checks"]] == ["error"]


def test_singular_twist_gives_every_verdict(tmp_path, capsys):
    # at a = 0 the checks that read the product basis or the weight ideal
    # report error; every other check still gives its verdict
    rc, out, err = run(capsys, ["verify", "all", "--a", "0"])
    assert rc == 2
    verdicts = [ln.split()[:2] for ln in out.splitlines()
                if not ln.startswith(" ")]
    assert [v[0] for v in verdicts] == list(REGISTRY)
    assert len(verdicts) == 13
    errors = {v[0] for v in verdicts if v[1] == "error"}
    assert errors == {"descent_roundtrip", "weight_multiplicity"}
    assert "Traceback" not in out + err
    path = tmp_path / "singular.json"
    rc, _, _ = run(capsys, ["report", "--check", "all", "--a", "0",
                            "--out", str(path), "--stable"])
    assert rc == 2
    report = json.loads(path.read_text())
    assert len(report["checks"]) == 13
    assert {c["id"] for c in report["checks"]
            if c["status"] == "error"} == errors


def test_config_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nbogus = 1\n")
    rc, _, err = run(capsys, ["verify", "jacobi", "--config", str(bad)])
    assert rc == 2
    assert "bogus" in err


# ---------------------------------------------------------------------------
# config file end to end

def test_config_selects_and_overrides(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nchecks = bracket_oracle, gl_realization\n"
                   "deg = 1\n\n[check:bracket_oracle]\ndeg = 2\n")
    rc, out, _ = run(capsys, ["verify", "all", "--config", str(ini)])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("bracket_oracle")
    assert lines[1].startswith("gl_realization")


def test_cli_flag_beats_config(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nchecks = bracket_oracle\nmode = corrected\n")
    rc, _, _ = run(capsys, ["verify", "all", "--config", str(ini),
                            "--mode", "verbatim"])
    assert rc == 1


def test_misspelt_check_section_exits_2(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[check:jacobbi]\ndeg = 9\n")
    rc, out, err = run(capsys, ["verify", "jacobi", "--config", str(ini)])
    assert (rc, out) == (2, "")
    assert err == "error: unknown check id 'jacobbi' in [check:jacobbi]\n"


def test_bad_late_section_exits_2_before_any_check(tmp_path, capsys,
                                                   monkeypatch):
    ran = []
    monkeypatch.setattr(verifier, "run_check",
                        lambda cid, params: ran.append(cid))
    ini = tmp_path / "run.ini"
    ini.write_text("[check:simplicity_probe]\nD = -1\n")
    rc, out, err = run(capsys, ["verify", "all", "--config", str(ini)])
    assert (rc, out, ran) == (2, "", [])
    assert err == "error: D must be >= 0, got -1\n"


# ---------------------------------------------------------------------------
# report files

def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_report_stable_is_byte_identical(tmp_path, capsys):
    argv = ["report", "--check", "gl_realization", "--stable"]
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(capsys, argv + ["--out", str(p1)])[0] == 0
    assert run(capsys, argv + ["--out", str(p2)])[0] == 0
    assert _read(p1) == _read(p2)
    doc = json.loads(_read(p1))
    assert doc["timestamp"] == "1970-01-01T00:00:00Z"
    assert doc["checks"][0]["elapsed_ms"] == 0


def test_report_schema_pass_and_fail(tmp_path, capsys):
    schema = report_schema()
    out = tmp_path / "r.json"
    rc, _, _ = run(capsys, ["report", "--check", "gl_realization",
                            "--out", str(out)])
    assert rc == 0
    good = json.loads(_read(out))
    jsonschema.validate(good, schema)
    assert good["checks"][0]["status"] == "pass"

    rc, _, _ = run(capsys, ["report", "--check", "bracket_oracle",
                            "--mode", "verbatim", "--deg", "2",
                            "--out", str(out)])
    assert rc == 1
    bad = json.loads(_read(out))
    jsonschema.validate(bad, schema)
    assert bad["checks"][0]["status"] == "fail"
    assert "counterexample" in bad["checks"][0]


def test_report_to_stdout(capsys):
    rc, out, _ = run(capsys, ["report", "--check", "gl_realization",
                              "--out", "-", "--stable"])
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, report_schema())


def test_report_checks_are_sorted_by_id(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nchecks = gl_realization, bracket_oracle\ndeg = 1\n")
    out = tmp_path / "r.json"
    rc, _, _ = run(capsys, ["report", "--config", str(ini), "--out", str(out)])
    assert rc == 0
    ids = [c["id"] for c in json.loads(_read(out))["checks"]]
    assert ids == ["bracket_oracle", "gl_realization"]


def test_source_date_epoch_pins_timestamp(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "86400")
    out = tmp_path / "r.json"
    rc, _, _ = run(capsys, ["report", "--check", "gl_realization",
                            "--stable", "--out", str(out)])
    assert rc == 0
    assert json.loads(_read(out))["timestamp"] == "1970-01-02T00:00:00Z"


GOLDEN_REPORT = Path(__file__).with_name("golden_report.json")


def test_golden_report_is_byte_identical(capsys, monkeypatch):
    # `wittmod report --check all --out - --stable` at default parameters;
    # regenerate the file only for a change that means to alter a verdict
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    monkeypatch.delenv("WITTMOD_SEED", raising=False)
    rc, out, err = run(capsys, ["report", "--check", "all", "--out", "-",
                                "--stable"])
    assert (rc, err) == (0, "")
    assert out.encode() == GOLDEN_REPORT.read_bytes()


GOLDEN_CONTROLS = json.loads(
    Path(__file__).with_name("golden_controls.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN_CONTROLS,
                         ids=[" ".join(e["argv"][2:-3])
                              for e in GOLDEN_CONTROLS])
def test_golden_control_report_is_byte_identical(capsys, monkeypatch, entry):
    # the failing reports of the built-in negative controls, counterexample
    # and case count included; like golden_report.json, regenerate an
    # entry only for a change that means to alter a verdict
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    monkeypatch.delenv("WITTMOD_SEED", raising=False)
    rc, out, err = run(capsys, entry["argv"])
    assert (rc, err) == (entry["exit"], "")
    assert out == entry["report"]


GOLDEN_COSETS = json.loads(
    Path(__file__).with_name("golden_cosets.json").read_text())


def _weighting_requests(m, n, count):
    """Seeded `weighting` argv lists at shape (m, n): a twist, a weight
    and a random element of degree <= 2 each."""
    rng = random.Random(10 * m + n)
    out = []
    for _ in range(count):
        a = [rand_coeff(rng) for _ in range(m)]
        r = [rng.choice(COEFF_POOL + [0]) for _ in range(m)]
        x = rand_tensor(make_spec(m, n, a), rng, max_deg=2, nterms=3)
        out.append(["weighting", print_expr(x),
                    "--r=" + ",".join(map(str, r)),
                    "--a=" + ",".join(map(str, a)),
                    "--m", str(m), "--n", str(n)])
    return out


def test_weighting_replies_are_pinned(capsys):
    # a weight coset prints as its representative on the unit basis
    pinned = GOLDEN_COSETS["weighting"]
    requests = [argv for m, n in [(2, 1), (1, 2), (2, 2)]
                for argv in _weighting_requests(m, n, 6)]
    assert requests == [e["argv"] for e in pinned]
    for e in pinned:
        assert run(capsys, e["argv"]) == (0, e["out"], "")


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WITTMOD_SEED", "77")
    out = tmp_path / "r.json"
    rc, _, _ = run(capsys, ["report", "--check", "weyl_relations",
                            "--trials", "5", "--out", str(out)])
    assert rc == 0
    doc = json.loads(_read(out))
    assert doc["seed"] == 77
    assert doc["checks"][0]["params"]["seed"] == 77


def test_seed_flag_beats_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WITTMOD_SEED", "77")
    out = tmp_path / "r.json"
    rc, _, _ = run(capsys, ["report", "--check", "weyl_relations",
                            "--trials", "5", "--seed", "9",
                            "--out", str(out)])
    assert rc == 0
    assert json.loads(_read(out))["seed"] == 9


# ---------------------------------------------------------------------------
# one process, many requests

SRC = str(Path(wittmod.__file__).resolve().parents[1])


def run_python(args):
    """A fresh interpreter run with `python args`, this checkout's sources
    first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def run_alone(argv):
    """(exit code, stdout, stderr) of `python -m wittmod argv` in a fresh
    interpreter, so with a parser of its own."""
    done = run_python(["-m", "wittmod", *argv])
    return done.returncode, done.stdout, done.stderr


def test_python_dash_m_runs_the_cli():
    assert run_alone(["bracket", "dt1", "t1*dt1"]) == (0, "dt1\n", "")


# a fresh interpreter reports what it loaded: at `import wittmod.cli`, then
# after each command of the JSON list in argv[1]
LOADS = """
import json, sys
import wittmod.cli
seen = [sorted(sys.modules)]
for argv in json.loads(sys.argv[1]):
    assert wittmod.cli.run_command(argv) == 0
    seen.append(sorted(sys.modules))
print(json.dumps(seen))
"""


def loads_after(*argvs):
    """(stdout lines before the report, the modules loaded at
    `import wittmod.cli` and after each command) of one fresh
    interpreter."""
    done = run_python(["-c", LOADS, json.dumps(argvs)])
    assert done.returncode == 0, done.stderr
    *out, seen = done.stdout.splitlines()
    return out, json.loads(seen)


# layers a Witt bracket never needs
NOT_FOR_BRACKET = ["wittmod.verifier", "wittmod.reporting",
                   "wittmod.tensor_modules", "wittmod.dressed",
                   "wittmod.words", "wittmod.linalg", "wittmod.glmn"]


def test_bracket_loads_only_its_layers():
    out, (early, witt, dressed) = loads_after(
        ["bracket", "dt1", "t1*dt1"], ["bracket", "t1 . dt1", "dt1"])
    assert out == ["dt1", "-dt1"]
    assert [m for m in NOT_FOR_BRACKET if m in witt] == []
    # the config for the shape rule, without what a rep or a dataclass needs
    assert "wittmod.config" in witt
    assert [m for m in ("dataclasses", "inspect") if m in witt] == []
    # the dressed route adds its own layer and the words it builds on
    assert sorted(set(dressed) - set(witt)) == ["wittmod.dressed",
                                                "wittmod.words"]
    # importing the cli loads none of what the first command needs
    assert [m for m in ("wittmod.config", "dataclasses", "argparse")
            if m in early] == []


def test_wh_validates_without_the_verifier(tmp_path):
    # a [check:] section and its mode are validated without the verifier
    spec = tmp_path / "wh.ini"
    spec.write_text("[run]\nm = 1\nn = 1\n\n"
                    "[check:whittaker_dimension]\nD = 2\n")
    out, (_, wh, from_spec) = loads_after(
        ["wh", "--m", "1", "--n", "1", "--D", "2"],
        ["wh", "--spec", str(spec)])
    assert out == ["1 @ e1", "1 @ e2"] * 2
    assert "wittmod.tensor_modules" in wh
    assert [m for m in ("wittmod.verifier", "wittmod.dressed")
            if m in from_spec] == []


def test_verify_loads_no_dataclasses():
    # the reports are plain classes too, so no command loads dataclasses
    out, (_, verify) = loads_after(["verify", "whittaker_dimension"])
    assert out[0].split()[:3] == ["whittaker_dimension", "pass", "cases=7"]
    assert "wittmod.verifier" in verify
    assert "dataclasses" not in verify


# a twist, a rep and a mode first, then requests that rely on the defaults,
# then usage errors: the shared parser must carry nothing between them
BACK_TO_BACK = [
    ["act", "dt1", "t1 @ e1", "--m", "1", "--n", "1", "--a", "3/2",
     "--rep", "tensor(natural,natural)"],
    ["bracket", "dx1", "t1*x1*dt1", "--mode", "verbatim"],
    ["act", "dt1", "t1 @ e1", "--m", "1", "--n", "1"],
    ["bracket", "dx1", "t1*x1*dt1"],
    ["weighting", "t1 @ e1 + 1 @ e2", "--m", "1", "--n", "1"],
    ["bracket", "dt1", "t1*dt1", "--mode", "bogus"],
]


def test_requests_in_one_process_match_each_run_alone(capsys, monkeypatch):
    # usage text wraps at the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    together = [run(capsys, argv) for argv in BACK_TO_BACK]
    alone = [run_alone(argv) for argv in BACK_TO_BACK]
    assert together == alone
    assert [rc for rc, _, _ in together] == [0, 0, 0, 0, 2, 2]
