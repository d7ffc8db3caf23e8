"""End-to-end command line behavior: outputs, exit codes, reports."""

import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wittmod
from wittmod import cli, tensor_modules, verifier
from wittmod.cli import build_parser, run_command
from wittmod.config import CheckParams, ConfigError, resolve_rep
from wittmod.expressions import (MAX_DIGITS, MAX_EXPONENT, MAX_PATH,
                                 MAX_WORD_ATOMS, print_expr, quoted)
from wittmod.reporting import emit_report, report_schema
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


@pytest.mark.parametrize("m", ["1", "2"])
def test_mutated_jacobi_with_nothing_to_mutate_exits_2(capsys, m):
    rc, out, _ = run(capsys, ["verify", "jacobi", "--mode", "mutated",
                              "--m", m, "--n", "0", "--deg", "0"])
    assert rc == 2
    assert out.startswith("jacobi ")
    assert "error cases=0" in out
    assert "needs a nonzero basis-pair bracket" in out
    assert "m=%s, n=0, deg=0 has none" % m in out


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
    # only ASCII digits and letters are read: '²' raised a ValueError
    # traceback and 't١' read as t1
    (["bracket", "t1^\u00b2*dt1", "dt1"],
     "line 1 col 4: unexpected character '\u00b2'"),
    (["bracket", "t\u0661*dt1", "dt1"],
     "line 1 col 2: unexpected character '\u0661'"),
    (["bracket", "t1 +\n \u00e9*dt1", "dt1"],
     "line 2 col 2: unexpected character '\u00e9'"),
    # a digit run past CPython's int-string limit raised a traceback
    (["bracket", "--", "-" + "1" * 5000 + "*dt1", "dt1"],
     "line 1 col 2: number longer than 4300 digits"),
    (["bracket", "dt1", "t" + "1" * 5000 + "*dt1"],
     "line 1 col 2: number longer than 4300 digits"),
    # a t-exponent is bounded summed over a monomial's factors
    (["weighting", "--r", "1", "--m", "1", "--n", "1", "--",
      "t1^600*t1^401 @ e1"], "t exponent above 1000 in tensor coefficient"),
    (["bracket", "t1^1001*dt1", "dt1"],
     "t exponent above 1000 in derivation term"),
    (["bracket", "t1^1001 . dt1", "dt1"], "t exponent above 1000 in dressing"),
], ids=["word-marker", "bracket-no-slot", "dressed-segments",
        "tensor-dot", "vanishing-witt", "vanishing-word", "vanishing-dressed",
        "vanishing-tensor", "vanishing-word-slot", "superscript-two",
        "arabic-indic-one", "latin-letter", "long-number", "long-index",
        "exponent-sum", "witt-exponent", "dressing-exponent"])
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


def test_huge_exponent_exits_2_before_weighting(capsys, monkeypatch):
    # weight_reduce takes one step per unit of a t-exponent: t1^1000000
    # took 3.6 s, and t1^99999999 outran a 10 s timeout
    def unreachable(*args):
        raise AssertionError("weight_reduce ran on a rejected exponent")
    monkeypatch.setattr(tensor_modules, "weight_reduce", unreachable)
    for power in ("1000000", "99999999"):
        start = time.perf_counter()
        rc, out, err = run(capsys, ["weighting", "--r", "1", "--m", "1",
                                    "--n", "1", "--", "t1^%s @ e1" % power])
        assert time.perf_counter() - start < 1.0
        assert (rc, out, err) == (2, "", "error: t exponent above %d in "
                                  "tensor coefficient\n" % MAX_EXPONENT)


def test_literal_and_exponent_bounds_are_inclusive(capsys):
    assert (MAX_DIGITS, MAX_EXPONENT) == (4300, 1000)
    big = "9" * MAX_DIGITS
    rc, out, err = run(capsys, ["bracket", big + "*t1*dt1", "dt1"])
    assert (rc, out, err) == (0, "-%s*dt1\n" % big, "")
    rc, out, err = run(capsys, ["weighting", "--r", "1", "--m", "1", "--n",
                                "1", "--", "t1^600*t1^400 @ e1"])
    assert (rc, out, err) == (0, "0\n", "")


@pytest.fixture
def set_int_digit_limit():
    """sys.set_int_max_str_digits, the limit restored after the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-string limit")
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def test_literal_past_a_lower_int_string_limit_exits_2(capsys,
                                                       set_int_digit_limit):
    # under a limit below MAX_DIGITS, a 1,000-digit literal raised a
    # ValueError traceback from int() in the tokenizer
    set_int_digit_limit(640)
    rc, out, err = run(capsys, ["bracket", "1" * 1000 + "*t1*dt1", "dt1"])
    assert (rc, out, err) == (2, "", "error: line 1 col 1: number longer "
                              "than 640 digits\n")
    big = "9" * 640
    rc, out, err = run(capsys, ["bracket", big + "*t1*dt1", "dt1"])
    assert (rc, out, err) == (0, "-%s*dt1\n" % big, "")


@pytest.mark.parametrize("limit,argv", [
    # about 1000!^2, over 5,000 digits
    (4300, ["weighting", "--r=-1,-1", "--m", "2", "--n", "0", "--",
            "t1^1000*t2^1000 @ e1"]),
    (640, ["bracket", "9" * 640 + "*t1^2*dt1", "9" * 640 + "*t1*dt1"]),
], ids=["default-limit", "lower-limit"])
def test_reply_past_the_int_string_limit_exits_2(capsys, set_int_digit_limit,
                                                 limit, argv):
    # str() of such a coefficient raised a ValueError traceback (exit 1)
    set_int_digit_limit(limit)
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (2, "", "error: a coefficient has more than %d "
                              "digits, the interpreter's int-string "
                              "limit\n" % limit)


GOLDEN_CALCULATOR = json.loads(Path(__file__).with_name(
    "golden_calculator.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", GOLDEN_CALCULATOR, ids=[
    "%02d-%s" % (k, e["argv"][0]) for k, e in enumerate(GOLDEN_CALCULATOR)])
def test_golden_calculator_transcript(capsys, monkeypatch, entry):
    # seeded requests of every calculator command at shapes (1,0) to (2,2)
    # and malformed ones, recorded with their exit code, stdout and stderr
    # (usage lines wrap at COLUMNS); a reply changes only on purpose
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, entry["argv"]) == (entry["exit"], entry["stdout"],
                                          entry["stderr"])


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
    assert err == "error: weighting needs a nonsingular twist vector\n"


def test_non_integer_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("WITTMOD_SEED", "abc")
    rc, out, err = run(capsys, ["verify", "gl_realization"])
    assert (rc, out) == (2, "")
    assert err == "error: WITTMOD_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("epoch", ["abc", "99999999999999999999", "-1",
                                   "253402300800"])
def test_bad_source_date_epoch_exits_2_before_any_check(capsys, monkeypatch,
                                                        epoch):
    # abc and 10**20 raised a traceback after every check had run, and
    # 253402300800 wrote the timestamp 10000-01-01T00:00:00Z
    def no_check(*args):
        raise AssertionError("a check ran")
    monkeypatch.setattr(verifier, "run_check", no_check)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    rc, out, err = run(capsys, ["report", "--check", "all", "--out", "-"])
    assert (rc, out, err) == (2, "", "error: SOURCE_DATE_EPOCH must be an "
                              "integer from 0 to 253402300799, got %r\n"
                              % epoch)


def test_input_bounds_are_inclusive(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "253402300799")
    rc, out, _ = run(capsys, ["report", "--check", "gl_realization",
                              "--out", "-"])
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, report_schema())
    assert doc["timestamp"] == "9999-12-31T23:59:59Z"
    for a in ("1e3", "1/2", "1e4299", "1e-4299"):
        rc, out, _ = run(capsys, ["descent", "1 @ e1", "--m", "1", "--n", "0",
                                  "--a", a])
        assert (rc, out) == (0, "1 @ e1\n")
    rep = "tensor(trivial," * 63 + "natural" + ")" * 63
    assert run(capsys, ["act", "dt1", "1 @ e1", "--m", "1", "--n", "1",
                        "--rep", rep]) == (0, "1 @ e1\n", "")


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
    # a rational's exponent was expanded first: 9 s, then exit 0
    (["descent", "t1 @ e1", "--m", "1", "--n", "0", "--a", "1e10000000"],
     "bad rational '1e10000000': more than 4300 digits"),
    # 3.3 s before an exit 2
    (["weighting", "t1 @ e1", "--m", "1", "--n", "0", "--r", "1e5000000"],
     "bad rational '1e5000000': more than 4300 digits"),
    # a ValueError traceback from printing the twist to read it again
    (["verify", "descent_roundtrip", "--m", "1", "--n", "0",
      "--a", "1e5000"], "bad rational '1e5000': more than 4300 digits"),
    # 1,500 levels raised a RecursionError
    (["act", "dt1", "1 @ e1", "--m", "1", "--n", "1",
      "--rep", "tensor(trivial," * 1500 + "trivial" + ")" * 1500],
     "rep descriptors nest at most 64 combinators deep"),
], ids=["wh-D30", "verify-D9", "verify-deg5", "wh-height", "verify-trials",
        "verify-rmax", "descent-twist-exponent", "weighting-weight-exponent",
        "verify-twist-digits", "rep-nesting"])
def test_window_ceilings_exit_2(capsys, argv, message):
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


def test_a_twist_takes_ascii_digits_as_an_expression_does(capsys):
    # Fraction read an Arabic-Indic one as 1
    assert run(capsys, ["act", "dt1", "t1 @ e1", "--a", "\u0661"]) == (
        2, "", "error: bad rational '\u0661': '\u0661' is not part of a "
               "rational\n")
    assert run(capsys, ["act", "dt1", "\u0661 @ e1"])[0] == 2


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


@pytest.mark.parametrize("argv", [["verify", "all"],
                                  ["report", "--out", "-", "--stable"]])
@pytest.mark.parametrize("value", ["", ","])
def test_empty_checks_list_exits_2(tmp_path, capsys, argv, value):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nchecks = %s\n" % value)
    rc, out, err = run(capsys, argv + ["--config", str(ini)])
    assert (rc, out) == (2, "")
    assert err == "error: no check ids in [run] checks\n"


def test_cli_flag_beats_config(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nchecks = bracket_oracle\nmode = corrected\n")
    rc, _, _ = run(capsys, ["verify", "all", "--config", str(ini),
                            "--mode", "verbatim"])
    assert rc == 1


def _report_checks(capsys, argv):
    rc, out, err = run(capsys, ["report", "--out", "-", "--stable"] + argv)
    assert (rc, err) == (0, ""), err
    return json.loads(out)["checks"]


def _readme_config():
    """The ini block under README's "Config files" heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("### Config files", 1)[1].split("```ini\n", 1)[1]
    return block.split("```", 1)[0]


def test_readme_config_example_sets_every_key(tmp_path, capsys):
    # the argument parser's --rep default used to beat the file's rep
    import configparser
    text = _readme_config()
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    sections = configparser.ConfigParser()
    sections.optionxform = str
    sections.read_string(text)
    run_keys = dict(sections["run"])
    selected = [c.strip() for c in run_keys.pop("checks").split(",")]
    checks = _report_checks(capsys, ["--config", str(ini)])
    assert [c["id"] for c in checks] == sorted(selected)
    for check in checks:
        keys = dict(run_keys)
        if sections.has_section("check:" + check["id"]):
            keys.update(sections["check:" + check["id"]])
        for key, raw in keys.items():
            value = check["params"][key]
            assert (", ".join(value) if isinstance(value, list)
                    else str(value)) == raw, key


# defaults < [run] < [check:<id>] < flags, for the rep as for every key
@pytest.mark.parametrize("flags,dims", [
    ([], {"3": 3, "4": 3}),
    (["--rep", "natural"], {"3": 2, "4": 2}),
], ids=["check-section", "flag"])
def test_a_check_section_rep_beats_run_and_a_flag_beats_both(
        tmp_path, capsys, flags, dims):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nrep = trivial\n\n"
                   "[check:whittaker_dimension]\nrep = trivial:3\n")
    (check,) = _report_checks(capsys, ["--check", "whittaker_dimension",
                                       "--config", str(ini)] + flags)
    assert check["data"]["dims"] == dims


@pytest.mark.parametrize("flags,out", [
    ([], "1 @ e1\n"),
    (["--rep", "natural"], "1 @ e1\n1 @ e2\n"),
], ids=["run-section", "flag"])
def test_wh_spec_rep_beats_the_default(tmp_path, capsys, flags, out):
    spec = tmp_path / "wh.ini"
    spec.write_text("[run]\nm = 1\nn = 1\nD = 2\nrep = trivial\n")
    assert run(capsys, ["wh", "--spec", str(spec)] + flags) == (0, out, "")


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


def _exits_2_before_any_check(capsys, monkeypatch, argv):
    """The one error line of argv, which must exit 2 with nothing on
    stdout and run no check."""
    ran = []
    monkeypatch.setattr(verifier, "run_check",
                        lambda cid, params: ran.append(cid))
    rc, out, err = run(capsys, argv)
    assert (rc, out, ran) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


NESTED_65 = "tensor(trivial," * 65 + "trivial" + ")" * 65


@pytest.mark.parametrize("command", [["verify", "all"],
                                     ["report", "--out", "-", "--stable"]])
@pytest.mark.parametrize("rep,message", [
    ("bogus", "unknown rep descriptor 'bogus'"),
    ("trivial:1000", "rep dimension must be <= 256, got 1000"),
    (NESTED_65, "rep descriptors nest at most 64 combinators deep"),
    ("file:/nonexistent.rep", "cannot read rep file /nonexistent.rep: "),
], ids=["unknown", "dimension", "nesting", "missing-file"])
def test_a_rep_that_cannot_be_built_exits_2_before_any_check(
        capsys, monkeypatch, command, rep, message):
    # each distinct rep of the selected checks is built before the first
    # check runs; this ran three checks to a pass and then printed an
    # error line for each of the ten module checks
    err = _exits_2_before_any_check(capsys, monkeypatch,
                                    command + ["--rep", rep])
    assert err.startswith("error: " + message)


# README's configuration errors "found before any work", one row each, as
# `verify all` meets them: a change to either must change this table
def _unknown_key_config(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nbogus = 1\n")
    return ["--config", str(ini)]


@pytest.mark.parametrize("flags,message", [
    (["--m", "9"], "m must be <= 8, got 9"),
    (["--n", "-1"], "n must be >= 0, got -1"),
    (["--D", "9"], "D must be <= 8, got 9"),
    (["--deg", "5"], "deg must be <= 4, got 5"),
    (["--rmax", "17"], "rmax must be <= 16, got 17"),
    (["--trials", "1001"], "trials must be <= 1000, got 1001"),
    (["--height", "9"], "height must be <= 8, got 9"),
    (["--rep", "trivial:257"], "rep dimension must be <= 256, got 257"),
    (["--rep", NESTED_65], "rep descriptors nest at most 64 combinators "
                           "deep"),
    (["--rep", "bogus"], "unknown rep descriptor 'bogus'"),
    (["--a", "1e5000"], "bad rational '1e5000': more than 4300 digits"),
    (["--m", "0", "--n", "0"], "empty shape: m and n are both 0"),
    (["--a", "1, 2"], "twist vector needs 1 entries, got 2"),
    (_unknown_key_config, "unknown key 'bogus' in [run]"),
    (["--mode", "bogus"], "check jacobi has no mode 'bogus' (modes: "
                          "corrected, mutated)"),
], ids=["m", "n", "D", "deg", "rmax", "trials", "height", "rep-dimension",
        "rep-nesting", "rep-unknown", "rational", "empty-shape",
        "twist-length", "unknown-key", "unknown-mode"])
def test_readme_configuration_errors_exit_2_before_any_check(
        tmp_path, capsys, monkeypatch, flags, message):
    if callable(flags):
        flags = flags(tmp_path)
    err = _exits_2_before_any_check(capsys, monkeypatch,
                                    ["verify", "all"] + flags)
    assert err == "error: %s\n" % message


def _rep_file_with_a_long_line(tmp_path):
    rep = tmp_path / "long.rep"
    rep.write_text("dim 0\n" + "E" * 100000 + "\n")
    return ["act", "dt1", "1 @ e1", "--m", "1", "--n", "0",
            "--rep", "file:%s" % rep]


def _config_with_a_long_key(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\n%s = 1\n" % ("k" * 100000))
    return ["verify", "all", "--config", str(ini)]


def _config_of_one_long_line(tmp_path):
    # configparser's message repeats the line
    ini = tmp_path / "run.ini"
    ini.write_text("k" * 100000 + "\n")
    return ["verify", "all", "--config", str(ini)]


def _config_with_a_long_bad_line(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\n" + "k" * 100000 + "\n")
    return ["verify", "all", "--config", str(ini)]


# user text past 64 characters is echoed as its first 32 and its length.
# Each row: argv (or a function of tmp_path that makes it), the
# environment, and what the line carries besides the text: the known
# check ids, or a path
@pytest.mark.parametrize("argv,env,carried", [
    (["act", "dt1", "1 @ e1", "--a", "1" * 4301], {}, ""),
    (["bracket", "q" * 100000, "dt1"], {}, ""),
    (["act", "dt1", "1 @ e1", "--rep", "r" * 100000], {}, ""),
    (["verify", "v" * 100000], {}, ", ".join(REGISTRY)),
    (["bracket", "t%s*dt1" % ("9" * 4000), "dt1"], {}, ""),
    (["act", "dt1", "1 @ e%s" % ("9" * 4000)], {}, ""),
    (["act", "dt1", "1 @ e1", "--a", "x" * 100000], {}, ""),
    (_rep_file_with_a_long_line, {}, "path"),
    (_config_with_a_long_key, {}, ""),
    (["verify", "jacobi"], {"WITTMOD_SEED": "s" * 100000}, ""),
    (["report", "--check", "jacobi", "--out", "-"],
     {"SOURCE_DATE_EPOCH": "s" * 100000}, ""),
    (["act", "dt1", "1 @ e1", "--rep", "file:" + "r" * 100000], {}, ""),
    (["report", "--out", "/nonexistent/" + "r" * 100000], {}, ""),
    (["verify", "all", "--config", "/nonexistent/" + "c" * 100000], {}, ""),
    (_config_of_one_long_line, {}, "path"),
    (_config_with_a_long_bad_line, {}, "path"),
    (["verify", "jacobi", "--D", "9" * 100000], {}, ""),
    (["bracket", "dt1", "dt1", "--m", "m" * 100000], {}, ""),
], ids=["literal", "name", "rep", "check-id", "index", "vector-index",
        "rational", "rep-file-line", "config-key", "seed", "epoch",
        "rep-file-path", "report-path", "config-path", "config-line",
        "config-bad-line", "int-flag", "shape-flag"])
def test_long_user_text_is_cut_in_error_lines(tmp_path, capsys, monkeypatch,
                                              argv, env, carried):
    if callable(argv):
        argv = argv(tmp_path)
    if carried == "path":
        carried = str(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert " characters)" in err
    assert len(err.encode()) - len(carried) < 200


# a path is echoed whole up to MAX_PATH characters, Linux's PATH_MAX, past
# which no path opens; then cut like other user text.  The OSError's
# strerror follows, not its text, which repeats the path
@pytest.mark.parametrize("length", [100, MAX_PATH, MAX_PATH + 1])
@pytest.mark.parametrize("argv,message", [
    (["act", "dt1", "1 @ e1", "--rep", "file:%s"], "cannot read rep file"),
    (["report", "--out", "%s"], "cannot write report"),
    (["verify", "all", "--config", "%s"], "cannot read config"),
], ids=["rep-file", "report", "config"])
def test_a_path_is_echoed_whole_up_to_max_path(capsys, argv, message,
                                               length):
    path = "/nonexistent/" + "p" * (length - len("/nonexistent/"))
    rc, out, err = run(capsys, [a.replace("%s", path) for a in argv])
    assert (rc, out) == (2, "")
    shown = path if length <= MAX_PATH else "%s... (%d characters)" % (
        path[:32], length)
    assert err.startswith("error: %s %s: " % (message, shown))
    assert err.count("\n") == 1 and err.count(shown) == 1


LONG = "q" * 100000
SPACED = "q " * 50000


# argparse's own usage errors cut a long token by quoted's rule too: each
# row is argv and the token as the error line shows it
@pytest.mark.parametrize("argv,shown", [
    (["bracket", "dt1", "dt1", "--mode", LONG], quoted(LONG)),
    (["verify", "jacobi", LONG], quoted(LONG, str)),
    ([LONG], quoted(LONG)),
    (["verify", "jacobi", "--" + LONG], quoted("--" + LONG, str)),
    (["bracket", "dt1", "dt1", "--mode", SPACED], quoted(SPACED)),
    (["verify", "jacobi", SPACED], quoted(SPACED, str)),
    (["-v", "verify", "jacobi", SPACED], quoted(SPACED, str)),
], ids=["choice", "stray-argument", "command", "flag", "spaced-choice",
        "spaced-argument", "spaced-argument-to-the-tree"])
def test_usage_errors_cut_a_long_token(capsys, monkeypatch, argv, shown):
    monkeypatch.setenv("COLUMNS", "80")
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert shown in err.splitlines()[-1]
    assert len(err.encode()) < 300


# a config file that configparser cannot read: the line is named and quoted
@pytest.mark.parametrize("text,message", [
    ("foo\n", "line 1: no [section] above 'foo'"),
    ("[run]\nm = 1\nkkk\n", "line 3: no '=' or ':' in 'kkk'"),
    ("[run]\nm = 1\n\n[run]\n", "line 4: repeated section '[run]'"),
    ("[run]\nm = 1\nm = 2\n", "line 3: repeated key 'm = 2'"),
], ids=["no-section", "no-delimiter", "repeated-section", "repeated-key"])
def test_a_config_syntax_error_names_its_line(tmp_path, capsys, text,
                                              message):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    rc, out, err = run(capsys, ["verify", "all", "--config", str(ini)])
    assert (rc, out, err) == (2, "", "error: bad config %s: %s\n"
                              % (ini, message))


def test_a_config_value_is_read_as_written(tmp_path, capsys):
    # a '%' is no interpolation: this raised a configparser traceback
    rep = tmp_path / "50%.rep"
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nrep = file:%s\n" % rep)
    rc, out, err = run(capsys, ["verify", "all", "--config", str(ini)])
    assert (rc, out, err) == (2, "", "error: cannot read rep file %s: No "
                              "such file or directory\n" % rep)


# rejections of a rep descriptor, a rep file and a config file, one row
# each, as the error line gives them; FILE is the file the row's text is
# written to
REP_FILE = ["act", "dt1", "1 @ e1", "--m", "1", "--n", "0", "--rep",
            "file:FILE"]


@pytest.mark.parametrize("argv,text,message", [
    (["act", "dt1", "1 @ e1", "--rep", "tensor(natural, trivial, natural)"],
     None, "rep combinators take exactly two arguments: "
           "'natural, trivial, natural'"),
    (["act", "dt1", "1 @ e1", "--rep", "trivial:0"], None,
     "trivial dimension must be >= 1"),
    (REP_FILE, "0\nE 1 1 : 1\n",
     "rep file FILE: first line must be 'dim p1 .. pd'"),
    (REP_FILE, "dim\nE 1 1 : 1\n", "rep file FILE: no basis parities"),
    (REP_FILE, "dim x\nE 1 1 : 1\n", "rep file FILE: parities must be 0/1"),
    (REP_FILE, "dim 2\nE 1 1 : 1\n", "rep file FILE: parities must be 0/1"),
    (REP_FILE, "dim 0\nE a b : 1\n",
     "rep file FILE: bad unit indices in 'E a b : 1'"),
    (REP_FILE, "dim 0\nE 9 1 : 1\n", "rep file FILE: unit E 9 1 out of range"),
    (REP_FILE, "dim 0\nE 1 1 : 1 2\n",
     "rep file FILE: E 1 1 needs 1 entries, got 2"),
    (["verify", "all", "--config", "FILE"], "[run]\nchecks = jacobi, bogus\n",
     "unknown check ids in config: bogus"),
    (["verify", "all", "--config", "FILE"],
     "[run]\nchecks = weyl_relations, jacobi, weyl_relations\n",
     "check id 'weyl_relations' named twice in [run] checks"),
    (["verify", "jacobi", "--config", "FILE"], "[run]\nm = \xff\xfe\n",
     "cannot read config FILE: not UTF-8 text at byte 10"),
    (REP_FILE, "dim 0\nE 1 1 : \xff\n",
     "cannot read rep file FILE: not UTF-8 text at byte 14"),
], ids=["three-arguments", "trivial-0", "no-dim", "no-parities", "parity-x",
        "parity-2", "unit-indices", "unit-range", "unit-entries",
        "unknown-check-ids", "repeated-check-id", "config-not-utf8",
        "rep-file-not-utf8"])
def test_each_rejection_names_its_fault(tmp_path, capsys, argv, text,
                                        message):
    path = tmp_path / "in.txt"
    if text is not None:  # one byte per character: \xff is the byte 0xff
        path.write_bytes(text.encode("latin-1"))
    argv = [a.replace("FILE", str(path)) for a in argv]
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err == "error: %s\n" % message.replace("FILE", str(path))


@pytest.mark.parametrize("argv", [
    ["verify", "weyl_relations", "--config"],
    ["report", "--check", "jacobi", "--out", "-", "--config"],
    ["wh", "--spec"],
], ids=["verify", "report", "wh"])
def test_config_check_ids_are_validated_for_every_command(
        tmp_path, capsys, monkeypatch, argv):
    # [run] checks is read by `all` alone, but a bad id in it is a bad
    # config for every command, as a bad [check:<id>] section is
    def no_check(*args):
        raise AssertionError("a check ran")
    monkeypatch.setattr(verifier, "run_check", no_check)
    monkeypatch.setattr(tensor_modules, "whittaker_space", no_check)
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nchecks = jacobi, bogus\n")
    assert run(capsys, argv + [str(ini)]) == (
        2, "", "error: unknown check ids in config: bogus\n")


def test_config_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    # under the C locale without UTF-8 mode open() decodes ASCII, and a
    # comment in UTF-8 raised UnicodeDecodeError
    rep = tmp_path / "r.rep"
    rep.write_bytes("# \u00e9\ndim 0\nE 1 1 : 2\n".encode())
    ini = tmp_path / "run.ini"
    ini.write_bytes(("# \u00e9\n[run]\nm = 1\nn = 0\nrep = file:%s\n"
                     % rep).encode())
    done = run_python(["-X", "utf8=0", "-m", "wittmod", "wh", "--D", "1",
                       "--spec", str(ini)],
                      {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"})
    assert (done.returncode, done.stdout, done.stderr) == (0, "1 @ e1\n", "")


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


def test_report_to_unwritable_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    rc, out, err = run(capsys, ["report", "--check", "whittaker_dimension",
                                "--out", str(path)])
    assert (rc, out) == (2, "")
    assert err.startswith("error: cannot write report %s: " % path)
    assert not path.parent.exists()


def test_report_rejects_an_unwritable_path_before_any_check(
        tmp_path, capsys, monkeypatch):
    def no_check(*args):
        raise AssertionError("a check ran")
    monkeypatch.setattr(verifier, "run_check", no_check)
    a_file = tmp_path / "f"
    a_file.write_text("")
    # no directory, a directory, a file in place of the directory
    for path in (tmp_path / "missing" / "r.json", tmp_path,
                 a_file / "r.json"):
        rc, out, err = run(capsys, ["report", "--check", "all",
                                    "--out", str(path)])
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot write report %s: " % path)
    assert list(tmp_path.iterdir()) == [a_file]


def test_report_makes_no_file_until_the_report_is_ready(
        tmp_path, capsys, monkeypatch):
    # a new path is not made, an old file not truncated, while checks run
    real = verifier.run_check
    for path, before in ((tmp_path / "new.json", None),
                         (tmp_path / "old.json", "old\n")):
        if before is not None:
            path.write_text(before)

        def probe(*args, path=path, before=before):
            assert (path.read_text() if path.exists() else None) == before
            return real(*args)
        monkeypatch.setattr(verifier, "run_check", probe)
        rc, _, _ = run(capsys, ["report", "--check", "gl_realization",
                                "--out", str(path)])
        assert rc == 0
        assert [c["id"] for c in json.loads(_read(path))["checks"]] \
            == ["gl_realization"]


def test_emit_report_still_reports_a_failed_write(tmp_path):
    path = tmp_path / "missing" / "r.json"
    with pytest.raises(ConfigError, match="cannot write report %s: "
                       % re.escape(str(path))):
        emit_report([], str(path), seed=0)


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


def test_golden_report_at_m1_n2_a2_is_byte_identical(capsys, monkeypatch):
    # the same report at --m 1 --n 2 --a 2, the shape where tau re-signs a
    # term and a dx position sign can be -1
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    monkeypatch.delenv("WITTMOD_SEED", raising=False)
    rc, out, err = run(capsys, ["report", "--check", "all", "--out", "-",
                                "--stable", "--m", "1", "--n", "2", "--a",
                                "2"])
    assert (rc, err) == (0, "")
    assert out.encode() == GOLDEN_REPORT.with_name(
        "golden_report_m1_n2_a2.json").read_bytes()


def test_golden_report_at_m1_n3_a2_is_byte_identical(capsys, monkeypatch):
    # the six checks of criterion_14.ini at --m 1 --n 3 --a 2, the least
    # shape where a Koszul sign can need three odd generators
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    monkeypatch.delenv("WITTMOD_SEED", raising=False)
    rc, out, err = run(capsys, ["report", "--config", str(
        GOLDEN_REPORT.with_name("criterion_14.ini")), "--out", "-",
        "--stable"])
    assert (rc, err) == (0, "")
    assert out.encode() == GOLDEN_REPORT.with_name(
        "golden_report_m1_n3_a2.json").read_bytes()


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


def run_python(args, env=()):
    """A fresh interpreter run with `python args`, this checkout's sources
    first on its path and env over the environment."""
    env = {**os.environ, **dict(env)}
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
    # importing the cli loads none of what the first command needs, and a
    # canonical request is read without argparse
    assert [m for m in ("wittmod.config", "dataclasses", "argparse")
            if m in early] == []
    assert "argparse" not in dressed


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


# a fresh interpreter runs one command with sys.argv[1:] and reports its
# exit code and whether the verifier loaded
VERIFIER_LOADED = """
import sys
import wittmod.cli
code = wittmod.cli.run_command(sys.argv[1:])
print(code, "wittmod.verifier" in sys.modules)
"""


@pytest.mark.parametrize("argv,env,err", [
    (["verify", "bogus"], {}, "unknown check id 'bogus' (known: %s)"
     % ", ".join(REGISTRY)),
    (["verify", "jacobi", "--D", "x"], {},
     "key D must be an integer, got 'x'"),
    (["verify", "all", "--rep", "bogus"], {},
     "unknown rep descriptor 'bogus'"),
    (["verify", "jacobi"], {"WITTMOD_SEED": "abc"},
     "WITTMOD_SEED must be an integer, got 'abc'"),
], ids=["check-id", "flag", "rep", "seed-env"])
def test_a_rejected_run_never_loads_the_verifier(monkeypatch, argv, env, err):
    # the run is planned, and its reps built, before the verifier loads
    monkeypatch.delenv("WITTMOD_SEED", raising=False)
    done = run_python(["-c", VERIFIER_LOADED, *argv], env)
    assert (done.stdout, done.stderr) == ("2 False\n", "error: %s\n" % err)


# a twist, a rep and a mode first, then requests that rely on the defaults,
# then usage errors, the last two answered by the whole tree: the parsers kept
# for the process must carry nothing between requests
BACK_TO_BACK = [
    ["act", "dt1", "t1 @ e1", "--m", "1", "--n", "1", "--a", "3/2",
     "--rep", "tensor(natural,natural)"],
    ["bracket", "dx1", "t1*x1*dt1", "--mode", "verbatim"],
    ["act", "dt1", "t1 @ e1", "--m", "1", "--n", "1"],
    ["bracket", "dx1", "t1*x1*dt1"],
    ["weighting", "t1 @ e1 + 1 @ e2", "--m", "1", "--n", "1"],
    ["bracket", "dt1", "t1*dt1", "--mode", "bogus"],
    ["frobnicate", "dt1"],
    ["act", "dt1", "t1 @ e1", "--m", "1", "--n", "1", "extra"],
]


def test_requests_in_one_process_match_each_run_alone(capsys, monkeypatch):
    # usage text wraps at the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    together = [run(capsys, argv) for argv in BACK_TO_BACK]
    alone = [run_alone(argv) for argv in BACK_TO_BACK]
    assert together == alone
    assert [rc for rc, _, _ in together] == [0, 0, 0, 0, 2, 2, 2, 2]


# usage errors and help at each level: run_command parses a command with its
# own parser, and must answer as the whole tree does
PARSER_CASES = [
    [],
    ["-h"],
    ["frobnicate", "dt1"],
    ["--version"],
    ["-h", "bracket"],
    ["bracket", "dt1"],
    ["bracket", "dt1", "t1*dt1", "extra"],
    ["bracket", "dt1", "t1*dt1", "extra", "more", "--bogus"],
    ["bracket", "dt1", "t1*dt1", "--bogus"],
    ["bracket", "dt1", "t1*dt1", "--mode", "bogus"],
    ["bracket", "dx1", "t1*x1*dt1", "--mo", "verbatim"],
    ["bracket", "--", "-dt1", "t1*dt1"],
    ["bracket", "-dt1", "t1*dt1"],
    ["bracket", "dt1", "t1*dt1", "-h"],
    ["bracket", "dt1", "t1*dt1", "--m", "x"],
    ["act", "dx1", "x1 @ e2", "--m", "1", "--n", "1"],
    ["wh", "--height"],
    ["weighting", "t1 @ e1", "--m", "1", "--n", "1"],
    ["verify"],
    ["verify", "whittaker_dimension", "--stable"],
    ["report", "--check", "whittaker_dimension", "--out", "-", "--stable"],
]


def run_through_tree(capsys, argv):
    """(exit code, stdout, stderr) of argv parsed by the whole tree."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        rc = 2 if e.code else 0
    else:
        rc = args.fn(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_CASES,
                         ids=[" ".join(a) or "-" for a in PARSER_CASES])
def test_command_parser_answers_as_the_tree(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, argv) == run_through_tree(capsys, argv)


# _scan reads a canonically spelt request from the argument table and must
# read it as the command's parser does; any other request it leaves to
# argparse (None)
def scanned_as_parsed(argv):
    """Whether _scan accepts argv.  It raises nothing and prints nothing,
    and when it accepts, its vars() are what the command's parser returns,
    with no extras and fn compared by the function it calls."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        scanned = cli._scan(argv)
    assert (out.getvalue(), err.getvalue()) == ("", "")
    if scanned is None:
        return False
    try:
        with redirect_stdout(out), redirect_stderr(err):
            parsed, extras = cli._parser(argv[0]).parse_known_args(argv[1:])
    except SystemExit:
        pytest.fail("%r scanned, but its parser says %s" % (argv,
                                                            err.getvalue()))

    def read(namespace):
        values = dict(vars(namespace))
        fn = values.pop("fn")
        return values, (fn.func, fn.args, fn.keywords)

    assert (read(scanned), extras) == (read(parsed), [])
    return True


def test_scan_reads_the_fixed_corpora_as_the_parser():
    corpus = PARSER_CASES + [e["argv"] for e in GOLDEN_CALCULATOR]
    scanned = [argv for argv in corpus if scanned_as_parsed(argv)]
    # the calculator's requests are canonical, and so scanned
    assert {argv[0] for argv in scanned} == {"bracket", "act", "wh",
                                             "descent", "weighting"}
    assert len(scanned) > len(GOLDEN_CALCULATOR) // 2


SCAN_WORDS = ["dt1", "t1*dt1", "1", "all", "corrected", "verbatim", "a b",
              "x=y"]
SCAN_ODD = ["--", "-", "-h", "-1", ""]


@st.composite
def command_argvs(draw):
    """A command with its positionals and some of its flags, each flag
    with a value (as '--flag value' or '--flag=value') unless it takes
    none, in any order and the last positionals perhaps after a '--';
    then a few stray tokens put anywhere: its flags (also as --flag= or
    cut short), plain words, '--', '-', '-h', a negative number and the
    empty string."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    arguments = dict(cli._COMMANDS[command][2])
    flags = [arg for arg in arguments if arg.startswith("--")]
    flag, word = st.sampled_from(flags), st.sampled_from(SCAN_WORDS)
    chosen = draw(st.sets(flag))
    if draw(st.booleans()):
        chosen |= {f for f in flags if arguments[f].get("required")}
    units = [[f] if "action" in arguments[f] else draw(st.sampled_from(
        [[f, w], ["%s=%s" % (f, w)]])) for f, w in
        zip(sorted(chosen), draw(st.lists(word, min_size=len(chosen),
                                          max_size=len(chosen))))]
    words = [draw(word) for arg in arguments if arg[0] != "-"]
    dash = draw(st.booleans())
    after = draw(st.integers(0, len(words))) if dash else 0
    units = draw(st.permutations(units + [[w] for w in
                                          words[:len(words) - after]]))
    argv = sum(units, []) + (["--"] + words[len(words) - after:]
                             if dash else [])
    stray = st.one_of(
        flag, flag.map(lambda f: f + "="), word, st.sampled_from(SCAN_ODD),
        flag.filter(lambda f: len(f) > 3).map(lambda f: f[:-1]))
    for token in draw(st.lists(stray, max_size=3)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return [command] + argv


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(command_argvs())
def test_scan_reads_drawn_requests_as_the_parser(argv):
    scanned_as_parsed(argv)


# a fresh interpreter lists the parsers it built for the command in argv
BUILDS = """
import json, sys
import wittmod.cli as cli
built, build = [], cli.build_parser
def recorded(command=None):
    built.append(command)
    return build(command)
cli.build_parser = recorded
assert cli.run_command(sys.argv[1:]) == 0
print(json.dumps(built))
"""


def test_a_command_builds_its_own_parser_alone():
    # a canonical request is read from the argument table: no parser
    done = run_python(["-c", BUILDS, "bracket", "dt1", "t1*dt1"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["dt1", "[]"]
    # any other spelling builds one parser, that of its command, and never
    # the whole tree (None)
    done = run_python(["-c", BUILDS, "bracket", "dt1", "t1*dt1", "-h"])
    assert done.returncode == 0, done.stderr
    *out, built = done.stdout.splitlines()
    assert out[0].startswith("usage: wittmod bracket ")
    assert json.loads(built) == ["bracket"]


def test_flags_leave_types_and_defaults_to_config():
    # a run-parameter flag is a name and help text: config types, defaults,
    # bounds and echoes its text as it does an INI value
    keys = set(CheckParams.keys())
    for command in ("bracket", "act", "wh", "descent", "weighting", "verify",
                    "report"):
        actions = [a for a in build_parser(command)._actions
                   if a.dest in keys]
        assert actions, command
        assert [a.dest for a in actions
                if a.type is not None or a.default is not None] == []
