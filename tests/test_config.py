"""Configuration parsing: descriptors, rep files, merge precedence."""

from fractions import Fraction

import pytest

from wittmod.cli import build_parser
from wittmod import glmn
from wittmod.config import (CHECKS, MAX_REP_DIM, MAX_REP_NESTING,
                            CheckParams, ConfigError, load_rep_file,
                            parse_rational, parse_twist, plan_run,
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


def test_parse_rational_reads_one_grammar_on_every_python():
    # Fraction reads "1_0" from 3.11 and "1 / 2" from 3.12, and reads a
    # non-ASCII digit as a digit; the grammar is the same on every Python
    for text, char in (("\u0661", "'\u0661'"), ("1_0", "'_'"),
                       ("1 / 2", "' '")):
        with pytest.raises(ConfigError) as err:
            parse_rational(text)
        assert str(err.value) == "bad rational '%s': %s is not part of a " \
            "rational" % (text, char)
    with pytest.raises(ConfigError, match="bad rational"):
        parse_twist(["1 / 2"], 1)
    assert parse_rational(" 1/2\n") == F(1, 2)


def test_parse_rational_bounds_digits_before_expanding():
    # the longest part's digits plus the exponent's size
    assert parse_rational("1e4299") == 10 ** 4299
    assert parse_rational("-2.5E-3") == F(-1, 400)
    assert parse_rational("1/" + "3" * 4300) == F(1, int("3" * 4300))
    for text in ("1e4300", "1e-4300", "1.5e4299", "3" * 4301,
                 "1/" + "3" * 4301, "1e" + "9" * 5000):
        with pytest.raises(ConfigError):
            parse_rational(text)


def test_parse_twist_keeps_rational_entries():
    # a parsed twist is not printed and read again: str() of a number past
    # the interpreter's int-string limit raises ValueError
    big = F(10 ** 5000, 3)
    assert parse_twist((big, 2), 2) == (big, F(2))
    assert parse_twist(["1/2", 2], 2) == (F(1, 2), F(2))


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


def _params(check_id, flags, path=None):
    """The parameters plan_run gives one check."""
    return plan_run(path, check_id, flags)[1][0]


def test_params_merge_precedence(tmp_path):
    f = tmp_path / "run.ini"
    f.write_text("[run]\nm = 2\nD = 5\na = 1,2\ndeg = 1\n"
                 "[check:jacobi]\nD = 6\ndeg = 2\n")
    merged = _params("jacobi", {"deg": "3"}, str(f))
    assert merged["m"] == 2
    assert merged["D"] == 6          # per-check beats [run]
    assert merged["deg"] == 3        # CLI beats everything
    assert merged["a"] == (F(1), F(2))
    other = _params("bracket_oracle", {}, str(f))
    assert other["D"] == 5


def test_twist_defaults_to_ones():
    merged = _params("jacobi", {"m": 2})
    assert merged["a"] == (F(1), F(1))


def test_twist_length_mismatch(tmp_path):
    f = tmp_path / "run.ini"
    f.write_text("[run]\na = 1,2\n")
    with pytest.raises(ConfigError):
        _params("jacobi", {"m": 1}, str(f))


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
    ids, params, _ = plan_run(str(f), "all", {})
    assert ids == ["jacobi", "bracket_oracle"]
    assert params[0]["deg"] == 1
    assert params[1]["deg"] == 2


@pytest.mark.parametrize("value", ["", ",", " , ,"])
def test_load_config_rejects_an_empty_checks_list(tmp_path, value):
    # a run that selects no check would pass with zero cases
    f = tmp_path / "run.ini"
    f.write_text("[run]\nchecks = %s\n" % value)
    with pytest.raises(ConfigError, match="no check ids"):
        plan_run(str(f), "all", {})


def test_load_config_rejects_unknown_keys(tmp_path):
    f = tmp_path / "run.ini"
    for text in ("[run]\nvolume = 11\n", "[mystery]\nm = 1\n",
                 "[run]\nm = one\n"):
        f.write_text(text)
        with pytest.raises(ConfigError):
            plan_run(str(f), "jacobi", {})


def test_load_config_missing_file():
    # None is the only "no file": an empty path is a file that is not there
    for path in ("/nonexistent/run.ini", ""):
        with pytest.raises(ConfigError, match="cannot read config"):
            plan_run(path, "jacobi", {})


@pytest.mark.parametrize("key", ["m", "n", "D", "deg", "rmax", "trials",
                                 "height"])
def test_params_reject_negative(key):
    with pytest.raises(ConfigError, match="%s must be >= 0" % key):
        _params("jacobi", {key: -1})


def test_params_reject_empty_shape():
    with pytest.raises(ConfigError, match="empty shape"):
        _params("jacobi", {"m": 0, "n": 0})
    # one empty side is a legal shape
    assert _params("jacobi", {"m": 0, "n": 1})["m"] == 0


def test_shape_ceiling_is_inclusive():
    # the largest shape is legal; the calculator reads the same bound
    assert _params("jacobi", {"m": 8, "n": 8})["m"] == 8
    CheckParams.check_shape(8, 8)
    with pytest.raises(ConfigError, match="m must be <= 8, got 9"):
        CheckParams.check_shape(9, 0)


# ---------------------------------------------------------------------------
# one schema: the INI file, the command line and the library agree

SAMPLE_VALUES = {"m": "2", "n": "0", "a": "1, 2", "rep": "trivial",
                 "D": "4", "deg": "1", "rmax": "3", "trials": "7",
                 "seed": "5", "mode": "mutated", "expect_reducible": "yes",
                 "height": "1"}


def test_every_parameter_is_an_ini_key_and_a_cli_flag(tmp_path,
                                                       monkeypatch):
    # a new field needs a sample here, so it is checked on both routes
    monkeypatch.delenv("WITTMOD_SEED", raising=False)
    keys = CheckParams.keys()
    assert sorted(SAMPLE_VALUES) == sorted(keys)
    f = tmp_path / "run.ini"
    f.write_text("[run]\n" + "".join("%s = %s\n" % kv
                                     for kv in SAMPLE_VALUES.items()))
    merged = _params("jacobi", {}, str(f))
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
    assert plan_run(None, "jacobi", vars(args))[1] == [merged]


# the run's seed and the check's: a flag beats WITTMOD_SEED, which beats
# every config file; [check:<id>] sets the check's seed, not the run's
@pytest.mark.parametrize("ini,flags,env,run_seed,check_seed", [
    ("", {}, None, 0, 0),
    ("[run]\nseed = 5\n", {}, None, 5, 5),
    ("[run]\nseed = 5\n", {"seed": "3"}, "7", 3, 3),
    ("[check:jacobi]\nseed = 5\n", {}, "7", 7, 7),
    ("[check:jacobi]\nseed = 5\n", {}, None, 0, 5),
    # blank reads as unset, as the empty string does
    ("[run]\nseed = 5\n", {}, "", 5, 5),
    ("[run]\nseed = 5\n", {}, " ", 5, 5),
    ("[run]\nseed = 5\n", {}, "\t", 5, 5),
])
def test_plan_run_resolves_the_seed(tmp_path, monkeypatch, ini, flags, env,
                                    run_seed, check_seed):
    f = tmp_path / "run.ini"
    f.write_text(ini)
    monkeypatch.delenv("WITTMOD_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("WITTMOD_SEED", env)
    ids, params, seed = plan_run(str(f), "jacobi", flags)
    assert (ids, seed, params[0]["seed"]) == (["jacobi"], run_seed,
                                              check_seed)


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
    ({"D": 9}, "D must be <= 8, got 9"),
    ({"deg": 5}, "deg must be <= 4, got 5"),
    ({"D": 30, "deg": 3}, "D must be <= 8, got 30"),
    ({"height": 9}, "height must be <= 8, got 9"),
    ({"trials": 1001}, "trials must be <= 1000, got 1001"),
    ({"rmax": 17}, "rmax must be <= 16, got 17"),
]


@pytest.mark.parametrize("params,message", REJECTED)
def test_library_and_config_reject_alike(params, message):
    routes = [lambda: run_check("jacobi", params),
              lambda: CheckParams.from_dict("jacobi", params)]
    if set(params) <= set(CheckParams.keys()):  # a flag names a known key
        routes.append(lambda: _params("jacobi", params))
    for route in routes:
        with pytest.raises(ConfigError) as err:
            route()
        assert str(err.value) == message


def test_check_modes_are_declared():
    # every check takes "corrected" and the modes its entry declares
    for check_id, modes in CHECKS.items():
        for mode in ("corrected",) + modes:
            assert _params(check_id, {"mode": mode})
    with pytest.raises(ConfigError, match="unknown check id"):
        _params("nonsense", {})
    # the registry runs each check of the config's table, in its order
    assert list(REGISTRY) == list(CHECKS)
    assert all(fn.__name__ == "check_" + cid for cid, fn in REGISTRY.items())


def test_ini_check_sections_are_validated(tmp_path):
    f = tmp_path / "run.ini"
    f.write_text("[check:nonsense]\nD = 2\n")
    with pytest.raises(ConfigError) as err:
        plan_run(str(f), "jacobi", {})
    assert str(err.value) == "unknown check id 'nonsense' in [check:nonsense]"
    # whittaker_dimension, which wh reads, has no fault mode
    f.write_text("[check:whittaker_dimension]\nmode = mutated\n")
    with pytest.raises(ConfigError) as err:
        plan_run(str(f), "whittaker_dimension", {})
    assert str(err.value) == ("check whittaker_dimension has no mode "
                              "'mutated' (modes: corrected)")


# ---------------------------------------------------------------------------
# CheckParams behaves as the dataclass it replaced

DEFAULTS = {"m": 1, "n": 1, "a": (F(1),), "rep": "natural", "D": 3,
            "deg": 2, "rmax": 8, "trials": 50, "seed": 0, "mode": "corrected",
            "expect_reducible": False, "height": 0}


def test_checkparams_keys_and_defaults():
    assert CheckParams.keys() == list(DEFAULTS)
    p = CheckParams("jacobi")
    assert {key: getattr(p, key) for key in p.keys()} == DEFAULTS
    assert list(p.as_dict()) == ["check", *DEFAULTS]
    assert p.as_dict() == {"check": "jacobi", **DEFAULTS, "a": ["1"]}


def test_checkparams_keyword_construction():
    p = CheckParams(check="difference_annihilation", m=2, n=0, a="1, -1/2",
                    D="4", mode="coset", expect_reducible="yes")
    assert (p.check, p.m, p.n, p.a, p.D, p.mode, p.expect_reducible) == (
        "difference_annihilation", 2, 0, (F(1), F(-1, 2)), 4, "coset", True)
    assert p.as_dict()["a"] == ["1", "-1/2"]
    with pytest.raises(TypeError, match="unexpected keyword argument 'dee'"):
        CheckParams("jacobi", dee=3)
    with pytest.raises(ConfigError) as err:
        CheckParams(7)
    assert str(err.value) == "key check must be a string, got 7"


def test_checkparams_from_dict_names_the_unknown_key():
    # the check id is an argument, not a key
    for values, key in (({"dee": 3, "m": 1}, "dee"), ({"check": "x"},
                                                       "check")):
        with pytest.raises(ConfigError) as err:
            CheckParams.from_dict("jacobi", values)
        assert str(err.value) == "unknown key %r" % key


def test_check_shape_is_a_class_attribute():
    # the calculator calls it on the class, with no check to validate
    assert CheckParams.check_shape(1, 0) == (1, 0)
    assert CheckParams("jacobi").check_shape(0, 1) == (0, 1)
    # a flag's text comes back typed, an unknown side as None
    assert CheckParams.check_shape("0", None) == (0, None)
    with pytest.raises(ConfigError, match="n must be >= 0, got -1"):
        CheckParams.check_shape(1, -1)


# ---------------------------------------------------------------------------
# the rep dimension ceiling

def test_rep_dimension_is_read_before_building(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a rep was built")
    for name in ("natural_rep", "trivial_rep", "tensor_rep",
                 "direct_sum_rep"):
        monkeypatch.setattr(glmn, name, unreachable)
    for descriptor, dim in (("trivial:1000000000", 10 ** 9),
                            ("tensor(natural,trivial:200)", 600),
                            ("sum(trivial:250,tensor(natural,natural))",
                             259)):
        with pytest.raises(ConfigError) as err:
            resolve_rep(descriptor, 2, 1)
        assert str(err.value) == ("rep dimension must be <= %d, got %d"
                                  % (MAX_REP_DIM, dim))


def test_rep_nesting_is_bounded_before_building(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a rep was built")
    for name in ("natural_rep", "trivial_rep", "tensor_rep",
                 "direct_sum_rep"):
        monkeypatch.setattr(glmn, name, unreachable)
    for combinator in ("tensor", "sum"):
        deep = "%s(trivial," % combinator * 65 + "trivial" + ")" * 65
        with pytest.raises(ConfigError) as err:
            resolve_rep(deep, 1, 1)
        assert str(err.value) == ("rep descriptors nest at most %d "
                                  "combinators deep" % MAX_REP_NESTING)


def test_largest_rep_is_accepted():
    assert MAX_REP_DIM == 256
    assert resolve_rep("sum(trivial:255,trivial)", 1, 1).dim == 256
    assert resolve_rep("tensor(natural,natural)", 8, 8).dim == 256


def test_rep_file_header_over_the_ceiling(tmp_path):
    # rejected at its header, before any matrix line is read
    f = tmp_path / "big.rep"
    f.write_text("dim " + "0 " * (MAX_REP_DIM + 1) + "\nE 1 1 : oops\n")
    for load in (lambda: load_rep_file(str(f), 1, 1),
                 lambda: resolve_rep("file:%s" % f, 1, 1)):
        with pytest.raises(ConfigError) as err:
            load()
        assert str(err.value) == "rep dimension must be <= 256, got 257"


# ---------------------------------------------------------------------------
# plan_run plans each rep of the run, and builds none

@pytest.mark.parametrize("rep,message", [
    ("bogus", "unknown rep descriptor 'bogus'"),
    ("trivial:300", "rep dimension must be <= 256, got 300"),
    ("file:/nonexistent/R",
     "cannot read rep file /nonexistent/R: No such file or directory"),
])
def test_plan_run_rejects_a_bad_rep(rep, message):
    for selector in ("all", "jacobi"):
        with pytest.raises(ConfigError) as err:
            plan_run(None, selector, {"rep": rep})
        assert str(err.value) == message


def test_plan_run_builds_no_rep(tmp_path, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a rep was built")
    for name in ("natural_rep", "trivial_rep", "tensor_rep",
                 "direct_sum_rep"):
        monkeypatch.setattr(glmn, name, unreachable)
    f = tmp_path / "run.ini"
    f.write_text("[run]\nrep = sum(natural, trivial:2)\n"
                 "[check:jacobi]\nrep = tensor(natural, natural)\n")
    ids, params, _ = plan_run(str(f), "all", {"m": "2"})
    assert ids == list(CHECKS)
    assert {p["rep"] for p in params} == {"sum(natural, trivial:2)",
                                          "tensor(natural, natural)"}
