"""Configuration parsing: descriptors, rep files, merge precedence."""

from fractions import Fraction

import pytest

from wittmod.cli import _cli_dict, build_parser
from wittmod.config import (CheckParams, ConfigError, RunConfig, load_config,
                            load_rep_file, parse_rational, parse_twist,
                            resolve_rep)
from wittmod.verifier import REGISTRY, run_check
from wittmod.glmn import natural_rep, verify_rep

F = Fraction


def test_parse_rational():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("-5") == F(-5)
    with pytest.raises(ConfigError):
        parse_rational("1.5e3x")
    with pytest.raises(ConfigError):
        parse_rational("1/0")


def test_parse_twist():
    assert parse_twist("1,-1/2", 2) == (F(1), F(-1, 2))
    with pytest.raises(ConfigError):
        parse_twist("1", 2)
    with pytest.raises(ConfigError):
        parse_twist("1,2,3", 2)


def test_resolve_rep_descriptors():
    assert resolve_rep("natural", 1, 1).dim == 2
    assert resolve_rep("trivial", 2, 1).dim == 1
    assert resolve_rep("trivial:4", 1, 1).dim == 4
    assert resolve_rep("tensor(natural,natural)", 1, 1).dim == 4
    assert resolve_rep("sum(trivial,natural)", 1, 1).dim == 3
    nested = resolve_rep("sum(tensor(natural,natural),trivial:2)", 1, 1)
    assert nested.dim == 6
    assert verify_rep(nested)


def test_resolve_rep_bad_descriptor():
    with pytest.raises(ConfigError):
        resolve_rep("spinor", 1, 1)
    with pytest.raises(ConfigError):
        resolve_rep("tensor(natural)", 1, 1)
    with pytest.raises(ConfigError):
        resolve_rep("trivial:x", 1, 1)


def _write_rep_file(path, rep):
    lines = ["dim " + " ".join(str(p) for p in rep.parities)]
    for (i, j), mat in sorted(rep.mats.items()):
        flat = " ".join(str(mat.get((r, c), 0)) for r in range(rep.dim)
                        for c in range(rep.dim))
        lines.append("E %d %d : %s" % (i, j, flat))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
@pytest.mark.parametrize("descriptor", [
    "natural", "trivial:2", "sum(natural,trivial)", "tensor(natural,natural)"])
def test_rep_file_roundtrip(tmp_path, descriptor, m, n):
    """A rep written as a dense file and reloaded is the same Rep."""
    rep = resolve_rep(descriptor, m, n)
    f = tmp_path / "rep.txt"
    _write_rep_file(f, rep)
    loaded = load_rep_file(str(f), m, n)
    assert loaded == rep
    assert verify_rep(loaded)
    assert resolve_rep("file:%s" % f, m, n) == rep


def test_rep_file_errors(tmp_path):
    f = tmp_path / "bad.rep"
    f.write_text("dim 0 1\nE 1 1 : 1 0 0 0\n")
    with pytest.raises(ConfigError):
        load_rep_file(str(f), 1, 1)  # missing matrices
    with pytest.raises(ConfigError):
        load_rep_file(str(tmp_path / "absent.rep"), 1, 1)


def test_rep_file_rejects_non_representation(tmp_path):
    # natural with one sign flipped no longer satisfies the brackets
    rep = natural_rep(1, 1)
    mats = dict(rep.mats)
    mats[(1, 2)] = {rc: -x for rc, x in mats[(1, 2)].items()}
    broken = type(rep)(1, 1, rep.dim, rep.parities, mats)
    f = tmp_path / "broken.rep"
    _write_rep_file(f, broken)
    with pytest.raises(ConfigError):
        load_rep_file(str(f), 1, 1)


def test_params_merge_precedence():
    cfg = RunConfig(base={"m": 2, "D": 5, "a": "1,2"},
                    overrides={"jacobi": {"D": 6}})
    merged = cfg.params_for("jacobi", {"deg": 3})
    assert merged["m"] == 2
    assert merged["D"] == 6          # per-check beats [run]
    assert merged["deg"] == 3        # CLI beats everything
    assert merged["a"] == (F(1), F(2))
    other = cfg.params_for("bracket_oracle", None)
    assert other["D"] == 5


def test_twist_defaults_to_ones():
    merged = RunConfig().params_for("jacobi", {"m": 2})
    assert merged["a"] == (F(1), F(1))


def test_twist_length_mismatch():
    with pytest.raises(ConfigError):
        RunConfig(base={"a": "1,2"}).params_for("jacobi", {"m": 1})


def test_load_config_file(tmp_path):
    f = tmp_path / "run.ini"
    f.write_text(
        "[run]\n"
        "m = 1\n"
        "n = 1\n"
        "a = 2\n"
        "checks = jacobi, bracket_oracle\n"
        "\n"
        "[check:jacobi]\n"
        "deg = 1\n")
    cfg = load_config(str(f))
    assert cfg.checks == ["jacobi", "bracket_oracle"]
    assert cfg.params_for("jacobi", None)["deg"] == 1
    assert cfg.params_for("bracket_oracle", None)["deg"] == 2


def test_load_config_rejects_unknown_keys(tmp_path):
    f = tmp_path / "run.ini"
    f.write_text("[run]\nvolume = 11\n")
    with pytest.raises(ConfigError):
        load_config(str(f))
    f.write_text("[mystery]\nm = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(f))
    f.write_text("[run]\nm = one\n")
    with pytest.raises(ConfigError):
        load_config(str(f))


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.ini")


@pytest.mark.parametrize("key", ["m", "n", "D", "deg", "rmax", "trials",
                                 "height"])
def test_params_reject_negative(key):
    with pytest.raises(ConfigError, match="%s must be >= 0" % key):
        RunConfig().params_for("jacobi", {key: -1})


def test_params_reject_empty_shape():
    with pytest.raises(ConfigError, match="empty shape"):
        RunConfig().params_for("jacobi", {"m": 0, "n": 0})
    # one empty side is a legal shape
    assert RunConfig().params_for("jacobi", {"m": 0, "n": 1})["m"] == 0


def test_shape_ceiling_is_inclusive():
    # the largest shape is legal; the calculator reads the same bound
    assert RunConfig().params_for("jacobi", {"m": 8, "n": 8})["m"] == 8
    CheckParams.check_shape(8, 8)
    with pytest.raises(ConfigError, match="m must be <= 8, got 9"):
        CheckParams.check_shape(9, 0)


# ---------------------------------------------------------------------------
# one schema: the INI file, the command line and the library agree

SAMPLE_VALUES = {"m": "2", "n": "0", "a": "1, 2", "rep": "trivial",
                 "D": "4", "deg": "1", "rmax": "3", "trials": "7",
                 "seed": "5", "mode": "mutated", "expect_reducible": "yes",
                 "height": "1"}


def test_every_parameter_is_an_ini_key_and_a_cli_flag(tmp_path):
    # a new field needs a sample here, so it is checked on both routes
    keys = CheckParams.keys()
    assert sorted(SAMPLE_VALUES) == sorted(keys)
    f = tmp_path / "run.ini"
    f.write_text("[run]\n" + "".join("%s = %s\n" % kv
                                     for kv in SAMPLE_VALUES.items()))
    merged = load_config(str(f)).params_for("jacobi")
    assert merged == {
        "m": 2, "n": 0, "a": (F(1), F(2)), "rep": "trivial", "D": 4,
        "deg": 1, "rmax": 3, "trials": 7, "seed": 5, "mode": "mutated",
        "expect_reducible": True, "height": 1}
    argv = ["verify", "jacobi"]
    for key in keys:
        flag = "--" + key.replace("_", "-")
        argv += [flag] if key == "expect_reducible" \
            else [flag, SAMPLE_VALUES[key]]
    args = build_parser().parse_args(argv)
    assert RunConfig().params_for("jacobi", _cli_dict(args)) == merged


REJECTED = [
    ({"m": 0, "n": 0}, "empty shape: m and n are both 0"),
    ({"m": 2, "a": (F(1),)}, "twist vector needs 2 entries, got 1"),
    ({"a": "1, 2"}, "twist vector needs 1 entries, got 2"),
    ({"dee": 3}, "unknown key 'dee'"),
    ({"mode": "mutatd"},
     "check jacobi has no mode 'mutatd' (modes: corrected, mutated)"),
    ({"mode": "verbatim"},
     "check jacobi has no mode 'verbatim' (modes: corrected, mutated)"),
    ({"deg": "two"}, "key deg must be an integer, got 'two'"),
] + [({key: -1}, "%s must be >= 0, got -1" % key)
     for key in ("m", "n", "D", "deg", "rmax", "trials", "height")] + [
    ({"m": 9}, "m must be <= 8, got 9"),
    ({"n": 1000000}, "n must be <= 8, got 1000000"),
]


@pytest.mark.parametrize("params,message", REJECTED)
def test_library_and_config_reject_alike(params, message):
    with pytest.raises(ConfigError) as via_config:
        RunConfig().params_for("jacobi", params)
    with pytest.raises(ConfigError) as via_library:
        run_check("jacobi", params)
    assert str(via_config.value) == str(via_library.value) == message


def test_check_modes_are_declared():
    # every check takes "corrected" and the modes its entry declares
    for check_id, entry in REGISTRY.items():
        for mode in ("corrected",) + entry.modes:
            assert RunConfig().params_for(check_id, {"mode": mode})
    with pytest.raises(ConfigError, match="unknown check id"):
        RunConfig().params_for("nonsense")
