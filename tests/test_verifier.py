"""The check registry: quick positive runs, every mutation control, and
counterexample self-containment."""

from fractions import Fraction

import pytest

from wittmod import verifier
from wittmod.dressed import dressed_bracket
from wittmod.expressions import (as_dressed, as_extended, as_witt,
                                 parse_expr, print_expr)
from wittmod.verifier import (CONTROL_MODES, REGISTRY, Check, CheckParams,
                              run_check)
from wittmod.witt import (XSLOT, bracket_oracle, extended_bracket,
                          witt_bracket)

F = Fraction

# small-but-honest parameters so the whole registry runs in seconds
QUICK = {
    "jacobi": {"m": 1, "n": 1, "deg": 2},
    "bracket_oracle": {"deg": 2},
    "weyl_relations": {"trials": 20},
    "module_axioms": {"deg": 1, "D": 2},
    "commutant_homomorphism": {"deg": 2, "D": 3},
    "commutant_weyl_commute": {"deg": 2, "D": 2},
    "gl_realization": {},
    "whittaker_dimension": {"D": 2},
    "descent_roundtrip": {"trials": 10, "D": 2},
    "weight_multiplicity": {"D": 2},
    "difference_recurrence": {"D": 2, "rmax": 2},
    "difference_annihilation": {"rmax": 8},
    "simplicity_probe": {"trials": 10},
}


@pytest.mark.parametrize("check_id", sorted(REGISTRY))
def test_every_check_passes_small(check_id):
    report = run_check(check_id, QUICK[check_id])
    assert report.status == "pass", report.counterexample
    assert report.cases > 0
    assert report.id == check_id


def test_registry_is_complete():
    assert list(REGISTRY) == [
        "jacobi", "bracket_oracle", "weyl_relations", "module_axioms",
        "commutant_homomorphism", "commutant_weyl_commute",
        "gl_realization", "whittaker_dimension", "descent_roundtrip",
        "weight_multiplicity", "difference_recurrence",
        "difference_annihilation", "simplicity_probe"]


# ---------------------------------------------------------------------------
# mutation controls: each seeded defect must be caught

CONTROLS = [
    ("jacobi", {"m": 1, "n": 1, "deg": 2, "mode": "mutated"}),
    ("bracket_oracle", {"deg": 2, "mode": "verbatim"}),
    ("module_axioms", {"deg": 1, "D": 2, "mode": "mutated"}),
    # n = 2 is the smallest shape where the flipped convention can show
    ("commutant_homomorphism", {"n": 2, "deg": 2, "D": 3,
                                "mode": "tau_flipped"}),
    ("difference_annihilation", {"rmax": 0}),
    ("simplicity_probe", {"rep": "natural", "expect_reducible": True,
                          "trials": 10}),
]


@pytest.mark.parametrize("check_id,params", CONTROLS)
def test_mutation_controls_fail(check_id, params):
    report = run_check(check_id, params)
    assert report.status == "fail"
    assert report.counterexample


def test_tau_flipped_control_shows_a_counterexample():
    # a real refutation, not the rule that fails an undetected control
    report = run_check("commutant_homomorphism", {
        "n": 2, "deg": 2, "D": 3, "mode": "tau_flipped"})
    assert report.status == "fail"
    cex = report.counterexample
    assert {"u", "v", "on", "bracket_image", "supercommutator"} <= set(cex)
    assert cex["bracket_image"] != cex["supercommutator"]


# a control mode fails at every shape: where its fault cannot show (no odd
# rows or odd masks at n = 0, no |J||K| odd at n = 1) run_check fails it
SHAPE_CONTROLS = [
    ("jacobi", {"deg": 1, "mode": "mutated"}),
    ("module_axioms", {"deg": 1, "D": 1, "mode": "mutated"}),
    ("bracket_oracle", {"deg": 1, "mode": "verbatim"}),
    ("commutant_homomorphism", {"deg": 2, "D": 0, "mode": "tau_flipped"}),
]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("check_id,params", SHAPE_CONTROLS,
                         ids=[c for c, _ in SHAPE_CONTROLS])
def test_control_modes_fail_at_every_shape(check_id, params, m, n):
    report = run_check(check_id, {"m": m, "n": n, **params})
    assert report.status == "fail"
    assert report.counterexample
    assert report.cases > 0


def test_undetected_control_is_a_fail():
    # no odd rows at n = 0, so the negated odd rows change nothing
    report = run_check("module_axioms", {"m": 1, "n": 0, "deg": 1, "D": 1,
                                         "mode": "mutated"})
    assert report.status == "fail"
    assert report.counterexample == {
        "error": "control mode mutated was not detected"}
    assert report.cases == run_check("module_axioms", {
        "m": 1, "n": 0, "deg": 1, "D": 1}).cases


def test_control_modes_are_the_declared_fault_modes():
    declared = {mode for check in REGISTRY.values() for mode in check.modes}
    assert set(CONTROL_MODES) == declared - {"untwisted", "coset"}


def test_reducible_module_is_detected():
    report = run_check("simplicity_probe", {
        "rep": "sum(trivial,trivial)", "expect_reducible": True,
        "trials": 10})
    assert report.status == "pass"
    assert "reducibility_evidence" in report.data


def test_difference_annihilation_coset_mode_passes():
    report = run_check("difference_annihilation", {"mode": "coset"})
    assert report.status == "pass", report.counterexample
    assert len(report.data["minimal_r"]) == report.cases > 0


def test_simple_module_probe_covers():
    report = run_check("simplicity_probe", {"rep": "natural", "trials": 10})
    assert report.status == "pass"


def test_simplicity_probe_redraws_a_cancelled_start():
    # at seed 24 one random start cancels to zero; it is drawn again, so
    # the two vacuums and all eight random starts are probed
    report = run_check("simplicity_probe", {"seed": 24})
    assert report.status == "pass"
    assert report.cases == 10


# ---------------------------------------------------------------------------
# error routes: bad configuration is an error status, not a crash

def test_singular_twist_is_error_status():
    report = run_check("descent_roundtrip", {"a": (F(0),)})
    assert report.status == "error"
    assert "nonsingular" in report.counterexample["error"]


def test_missing_rep_file_is_error_status():
    report = run_check("whittaker_dimension",
                       {"rep": "file:/nonexistent.rep"})
    assert report.status == "error"


def test_unknown_check_id_raises():
    from wittmod.config import ConfigError
    with pytest.raises(ConfigError):
        run_check("nonsense", {})


def test_internal_value_error_is_not_an_error_status(monkeypatch):
    # only configuration problems become status error; a bug surfaces
    def broken(p):
        raise ValueError("internal bug")
    monkeypatch.setitem(REGISTRY, "gl_realization", Check(broken, ()))
    with pytest.raises(ValueError, match="internal bug"):
        run_check("gl_realization", {})


# ---------------------------------------------------------------------------
# counterexamples replay standalone

def test_bracket_oracle_counterexample_replays():
    report = run_check("bracket_oracle", {"deg": 2, "mode": "verbatim"})
    cex = report.counterexample
    x = as_witt(parse_expr(cex["x"]), 1, 1)
    y = as_witt(parse_expr(cex["y"]), 1, 1)
    assert print_expr(witt_bracket(x, y, mode="verbatim")) == cex["table"]
    assert print_expr(bracket_oracle(x, y)) == cex["oracle"]
    assert cex["table"] != cex["oracle"]


def test_jacobi_mutation_counterexample_names_the_pair():
    report = run_check("jacobi", {"m": 1, "n": 1, "deg": 2,
                                  "mode": "mutated", "seed": 3})
    assert report.status == "fail"
    assert "mutated_pair" in report.counterexample


# ---------------------------------------------------------------------------
# the extension and dressed levels can fail: a bilinear fault in the bracket
# a level calls (odd-slot output terms negated) surfaces at that level

def _faulty_dressed(u, v, mode="corrected"):
    out = dressed_bracket(u, v, mode)
    return out._like({k: -c if k[1][1][0] == XSLOT else c
                      for k, c in out.terms.items()})


def _faulty_extended(u, v):
    out = extended_bracket(u, v)
    return out._like({k: -c if k[1] and k[1][0] == XSLOT else c
                      for k, c in out.terms.items()})


def _faulty_extended_function_part(u, v):
    # function terms (slot None) divisible by t1 negated
    out = extended_bracket(u, v)
    return out._like({k: -c if k[1] is None and k[0][0][0] else c
                      for k, c in out.terms.items()})


def test_dressed_level_fault_is_caught_and_replays(monkeypatch):
    monkeypatch.setattr(verifier, "dressed_bracket", _faulty_dressed)
    report = run_check("jacobi", {"m": 1, "n": 1, "deg": 2})
    cex = report.counterexample
    assert report.status == "fail"
    assert cex["level"] == "dressed product"
    x, y, z = (as_dressed(parse_expr(cex[k]), 1, 1) for k in "xyz")
    f = _faulty_dressed
    s = -1 if x.parity() & y.parity() else 1
    defect = f(x, f(y, z)) - f(f(x, y), z) - s * f(y, f(x, z))
    assert defect
    assert print_expr(defect) == cex["defect"]


def _replay_extension_fault(monkeypatch, f):
    """The counterexample parses back and the patched bracket recomputes
    its defect."""
    monkeypatch.setattr(verifier, "extended_bracket", f)
    report = run_check("jacobi", {"m": 1, "n": 1, "deg": 2})
    cex = report.counterexample
    assert report.status == "fail"
    assert cex["level"] == "abelian extension"
    x, y, z = (as_extended(parse_expr(cex[k]), 1, 1) for k in "xyz")
    s = -1 if x.parity() & y.parity() else 1
    defect = f(x, f(y, z)) - f(f(x, y), z) - s * f(y, f(x, z))
    assert defect
    assert print_expr(defect) == cex["defect"]
    return cex


def test_extension_level_fault_is_caught(monkeypatch):
    _replay_extension_fault(monkeypatch, _faulty_extended)


def test_extension_function_part_fault_replays(monkeypatch):
    cex = _replay_extension_fault(monkeypatch,
                                  _faulty_extended_function_part)
    # the counterexample carries function-part terms
    assert any(not as_extended(parse_expr(cex[k]), 1, 1).der
               for k in ("x", "y", "z", "defect"))


# ---------------------------------------------------------------------------
# a pass means something was checked

def test_zero_cases_is_not_a_pass():
    report = run_check("difference_recurrence", {"m": 0, "D": 2, "rmax": 2})
    assert report.status == "fail"
    assert report.cases == 0
    assert report.counterexample == {"error": "no cases were examined"}


# ---------------------------------------------------------------------------
# the pinned minimal annihilation exponents (regression fixture)

def _expected_min_r(s1, s2, alpha, beta, imask, jmask):
    if imask and jmask:
        return 0 if (s1, s2) == ("dt1", "dt1") else 1
    if (s1, s2) == ("dx1", "dx1") and not imask and not jmask \
            and alpha == beta:
        return 0
    return 2


def test_minimal_annihilation_table_matches_fixture():
    report = run_check("difference_annihilation", {})
    assert report.status == "pass"
    table = report.data["minimal_r"]
    assert len(table) == 144
    for label, rmin in table.items():
        head, tail = label.split(" j=")
        s1, s2 = head.split()
        fields = dict(part.split("=") for part in ("j=" + tail).split())
        want = _expected_min_r(s1, s2, int(fields["alpha"]),
                               int(fields["beta"]), int(fields["I"]),
                               int(fields["J"]))
        assert rmin == want, label


def test_report_params_echo_inputs():
    report = run_check("bracket_oracle", {"deg": 1, "m": 2, "n": 1,
                                          "a": (F(1), F(2))})
    assert report.params["deg"] == 1
    assert report.params["m"] == 2
    assert report.params["a"] == ["1", "2"]


def test_checkparams_twist_defaults():
    p = CheckParams(check="jacobi", m=2)
    assert p.a == (F(1), F(1))
