"""End-to-end command line behavior: outputs, exit codes, reports."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import wittmod
from wittmod.cli import run_command
from wittmod.reporting import report_schema


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
], ids=["act-negative-m", "descent-empty-shape"])
def test_calculator_shape_rule_exits_2(capsys, argv, message):
    # the calculator commands share the run parameters' shape rule
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


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


def run_alone(argv):
    """(exit code, stdout, stderr) of `python -m wittmod argv` in a fresh
    interpreter, so with a parser of its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-m", "wittmod", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_python_dash_m_runs_the_cli():
    assert run_alone(["bracket", "dt1", "t1*dt1"]) == (0, "dt1\n", "")


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
