"""The check registry: quick positive runs, every mutation control, and
counterexample self-containment."""

import importlib
import json
import pkgutil
import random
import tracemalloc
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

import pytest

import wittmod
from wittmod import dressed, tensor_modules, verifier, witt, words
from wittmod.config import CHECKS
from wittmod.dressed import (DressedWittElement, _dressed_bracket_basis,
                             _dressed_tables, dressed_basis, dressed_bracket)
from wittmod.expressions import (as_dressed, as_tensor, as_witt, parse_expr,
                                 print_expr)
from wittmod.superpoly import divide, merge_sign_masks, mono_tdeg, popcount
from wittmod.glmn import Rep, mat_add, mat_mul
from wittmod.tensor_modules import (ModuleSpec, TensorElement, act_witt,
                                    weight_reduce)
from wittmod.verifier import (CONTROL_MODES, REGISTRY, CheckParams,
                              run_check)
from wittmod.witt import (TSLOT, XSLOT, ExtendedWittElement, WittElement,
                          _bracket_basis, _extended_bracket_basis,
                          bracket_oracle, extended_basis,
                          extended_bracket, term_parity, witt_bracket)

from conftest import (as_extended, dressed_from_witt, ext_der,
                      next_generator_sign)

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


def test_readme_lists_the_registry():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("### Verifier checks", 1)[1].split("```", 2)[1]
    assert [line.split()[0] for line in block.splitlines() if line] \
        == list(REGISTRY)


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
    declared = {mode for modes in CHECKS.values() for mode in modes}
    assert set(CONTROL_MODES) == declared - {"untwisted", "coset"}


def test_reducible_module_is_detected():
    # a start that misses a vacuum closes its whole capped orbit, so its
    # span_dim does not depend on where the passing starts stop
    report = run_check("simplicity_probe", {
        "rep": "sum(trivial,trivial)", "expect_reducible": True,
        "trials": 10})
    assert report.status == "pass"
    assert report.data == {"reducibility_evidence": {
        "seed": "random7", "span_dim": 8, "missing_vacuum": "e2"}}


def test_failing_probe_start_keeps_its_full_span():
    report = run_check("simplicity_probe", {"rep": "tensor(natural,natural)"})
    assert report.status == "fail"
    assert report.counterexample == {"seed": "0", "start": "1 @ e1",
                                     "span_dim": 16, "missing_vacuum": "e2"}


def test_simplicity_probe_stops_at_its_verdict(monkeypatch):
    # at defaults and seed 0 each start stops at the insert that brings
    # the last vacuum into its span; finishing each BFS round makes 1,224
    calls = []
    act_atom = verifier.act_atom
    monkeypatch.setattr(verifier, "act_atom",
                        lambda *args: calls.append(1) or act_atom(*args))
    report = run_check("simplicity_probe", {})
    assert (report.status, report.cases) == ("pass", 10)
    assert len(calls) == 560


def test_simplicity_probe_reads_the_whittaker_space(monkeypatch):
    # the vacuums the probe starts from and stops at are wh at window D
    calls = []
    real = verifier.whittaker_space
    monkeypatch.setattr(verifier, "whittaker_space", lambda spec, D: (
        calls.append((spec.dim, D)) or real(spec, D)))
    report = run_check("simplicity_probe", {"D": 2})
    assert (report.status, report.cases) == ("pass", 10)
    assert calls == [(2, 2)]


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


@pytest.mark.parametrize("check_id,params", [
    ("weight_multiplicity", {"m": 2, "a": (F(1), F(0))}),
    ("difference_annihilation", {"mode": "coset", "a": (F(0),)})])
def test_other_singular_twist_routes_are_error_status(check_id, params):
    report = run_check(check_id, params)
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
    monkeypatch.setitem(REGISTRY, "gl_realization", broken)
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
# the extension and dressed levels can fail: a bilinear fault in the kernel
# a level's memo is filled from (odd-slot output terms negated) surfaces at
# that level, and _bilinear over the faulty kernel replays its defect

def _faulty_dressed(tables, k1, k2):
    return [(k, -c if k[1][1][0] == XSLOT else c)
            for k, c in _dressed_bracket_basis(tables, k1, k2)]


def _faulty_extended(m, k1, k2):
    return [(k, -c if k[1] and k[1][0] == XSLOT else c)
            for k, c in _extended_bracket_basis(m, k1, k2)]


def _faulty_extended_function_part(m, k1, k2):
    # function terms (slot None) divisible by t1 negated
    return [(k, -c if k[1] is None and k[0][0][0] else c)
            for k, c in _extended_bracket_basis(m, k1, k2)]


def _replay_kernel_fault(monkeypatch, name, faulty, first, convert):
    """The report with verifier.<name> patched to faulty, whose first
    argument is first; the counterexample parses back, and the bilinear
    extension of the faulty kernel recomputes its defect."""
    monkeypatch.setattr(verifier, name, faulty)
    report = run_check("jacobi", {"m": 1, "n": 1, "deg": 2})
    cex = report.counterexample
    assert report.status == "fail"
    x, y, z = (convert(parse_expr(cex[k]), 1, 1) for k in "xyz")

    def f(u, v):
        return u._bilinear(v, lambda k1, k2: faulty(first, k1, k2))
    s = -1 if x.parity() & y.parity() else 1
    defect = f(x, f(y, z)) - f(f(x, y), z) - s * f(y, f(x, z))
    assert defect
    assert print_expr(defect) == cex["defect"]
    return report


def test_three_generator_sign_fault_fails_jacobi_at_n3(monkeypatch):
    # the fault agrees with merge_sign_masks at n <= 2, so (1,2) passes
    # it and (1,3), the least shape with three odd generators, refutes it
    bound = []
    for info in pkgutil.iter_modules(wittmod.__path__):
        if info.name == "__main__":  # runs the command line
            continue
        module = importlib.import_module("wittmod." + info.name)
        if getattr(module, "merge_sign_masks", None) is merge_sign_masks:
            bound.append(info.name)
            monkeypatch.setattr(module, "merge_sign_masks",
                                next_generator_sign)
    assert sorted(bound) == ["dressed", "expressions", "superpoly", "witt",
                             "words"]
    params = {"m": 1, "a": (F(2),)}
    assert run_check("jacobi", dict(params, n=2)).status == "pass"
    report = run_check("jacobi", dict(params, n=3))
    assert (report.status, report.cases, report.counterexample) == (
        "fail", 9649, {"level": "derivation table", "x": "t1*x3*dt1",
                       "y": "dx1", "z": "x1*dt1", "defect": "-2*x3*dt1"})


def test_dressed_level_fault_is_caught_and_replays(monkeypatch):
    report = _replay_kernel_fault(monkeypatch, "_dressed_bracket_basis",
                                  _faulty_dressed, _dressed_tables(1, True),
                                  as_dressed)
    assert (report.counterexample, report.cases) == ({
        "level": "dressed product", "x": "t1*dx1", "y": "dt1",
        "z": "x1*dt1", "defect": "-2*dt1"}, 7662)


def test_extension_level_fault_is_caught(monkeypatch):
    report = _replay_kernel_fault(monkeypatch, "_extended_bracket_basis",
                                  _faulty_extended, 1, as_extended)
    assert (report.counterexample, report.cases) == ({
        "level": "abelian extension", "x": "t1*dx1", "y": "dt1",
        "z": "x1*dt1", "defect": "-2*dt1"}, 1790)


def test_extension_function_part_fault_replays(monkeypatch):
    report = _replay_kernel_fault(monkeypatch, "_extended_bracket_basis",
                                  _faulty_extended_function_part, 1,
                                  as_extended)
    cex = report.counterexample
    assert (cex, report.cases) == ({
        "level": "abelian extension", "x": "t1*x1", "y": "dt1",
        "z": "dx1", "defect": "2"}, 1758)
    # the counterexample carries function-part terms
    assert any(not ext_der(as_extended(parse_expr(cex[k]), 1, 1))
               for k in ("x", "y", "z", "defect"))


# the memos are filled from the kernels; a fault in a level's public
# bracket alone fails the comparison that follows the level's pass

def _negated_odd_slots(bracket, odd):
    def faulty(u, v):
        out = bracket(u, v)
        return out._like({k: -c if odd(k) else c
                          for k, c in out.terms.items()})
    return faulty


@pytest.mark.parametrize("name,bracket,odd,convert,level,cases", [
    ("witt_bracket", witt_bracket, lambda k: k[1][0] == XSLOT, as_witt,
     "derivation table", 12 ** 3),
    ("extended_bracket", extended_bracket,
     lambda k: k[1] and k[1][0] == XSLOT, as_extended, "abelian extension",
     12 ** 3 + 18 ** 3),
    ("dressed_bracket", dressed_bracket, lambda k: k[1][1][0] == XSLOT,
     as_dressed, "dressed product", 12 ** 3 + 18 ** 3 + 48 ** 3),
], ids=["derivation", "extension", "dressed"])
def test_public_bracket_fault_fails_the_memo_comparison(
        monkeypatch, name, bracket, odd, convert, level, cases):
    faulty = _negated_odd_slots(bracket, odd)
    monkeypatch.setattr(verifier, name, faulty)
    report = run_check("jacobi", {"m": 1, "n": 1, "deg": 2})
    cex = report.counterexample
    assert report.status == "fail"
    assert (cex["level"], report.cases) == (level, cases)
    x, y = (convert(parse_expr(cex[k]), 1, 1) for k in "xy")
    assert len(x.terms) in (2, 3) and len(y.terms) in (2, 3)
    assert print_expr(faulty(x, y)) == cex["bracket"]
    assert print_expr(bracket(x, y)) == cex["memo"] != cex["bracket"]


# the kernel route and the public route fill equal memos, entry by entry;
# the dressed kernel's tables belong to one mode

def _filled(basis, pair):
    """A memo with every basis pair filled, and every pair of a basis key
    and a key in the support of a basis-pair bracket in both orders."""
    memo = verifier._PairMemo(basis, pair)
    size = len(basis)
    rows = [memo[i][j] for i in range(size) for j in range(size)]
    for k in sorted({k for row in rows for k, _ in row if k >= size}):
        for i in range(size):
            memo[i][k], memo[k][i]
    return memo


def _pairs(memo):
    """Every filled memo entry, by (left id, right id)."""
    return {(i, j): terms for i, row in enumerate(memo)
            for j, terms in row.items()}


@pytest.mark.parametrize("m,n,deg", [(1, 1, 2), (2, 1, 1)])
def test_kernel_memos_equal_public_bracket_memos(m, n, deg):
    def public(cls, bracket):
        unit = cls(m, n)._like
        return lambda k1, k2: bracket(unit({k1: F(1)}),
                                      unit({k2: F(1)})).terms.items()

    routes = [(verifier._witt_keys(m, n, deg, extended_basis),
               partial(_extended_bracket_basis, m),
               public(ExtendedWittElement, extended_bracket))]
    dressed = verifier._witt_keys(m, n, deg, dressed_basis)
    for mode in ("corrected", "verbatim"):
        tables = _dressed_tables(m, mode == "corrected")
        routes.append((dressed, partial(_dressed_bracket_basis, tables),
                       public(DressedWittElement,
                              partial(dressed_bracket, mode=mode))))
    memos = []
    for basis, kernel, bracket in routes:
        got, want = _filled(basis, kernel), _filled(basis, bracket)
        assert got.interned == want.interned
        assert _pairs(got) == _pairs(want)
        memos.append(_pairs(got))
    assert memos[1] != memos[2]  # the modes differ at these shapes


def test_jacobi_peak_memory_is_bounded():
    # the sweep keeps one column per key, cut for the current x-range; a
    # column kept per (x-range, key) reads a peak of about 2.9 MB here,
    # against about 1.3
    tracemalloc.start()
    try:
        report = run_check("jacobi", {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.status, report.cases) == ("pass", 118152)
    assert peak < 2.0 * 2 ** 20


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


# coset-mode reports recorded before the coset route acted with the
# difference word; regenerate an entry only for a change that means to
# alter a verdict
COSET_REPORTS = json.loads(Path(__file__).with_name(
    "golden_cosets.json").read_text())["difference_annihilation_coset"]


@pytest.mark.parametrize("entry", COSET_REPORTS, ids=lambda e: ",".join(
    "%s=%s" % kv for kv in sorted(e["params"].items()) if kv[0] != "mode")
    or "defaults")
def test_coset_minimal_orders_are_pinned(entry):
    report = run_check("difference_annihilation", entry["params"])
    assert (report.status, report.cases, report.counterexample) == (
        entry["status"], entry["cases"], entry["counterexample"])
    assert (report.data or {}).get("minimal_r") == entry["minimal_r"]


# ---------------------------------------------------------------------------
# failure branches the positive runs never reach, each forced once

def _fails_with(check_id, params, *keys):
    report = run_check(check_id, params)
    assert report.status == "fail"
    assert set(keys) <= set(report.counterexample)
    json.dumps(report.counterexample)
    return report.counterexample


def test_weight_multiplicity_fails_on_a_wrong_quotient(monkeypatch):
    # Cartan operators acting as the scalar -2, the first weight tried:
    # the whole window is then its quotient.  The quotient reads the
    # raw action, so the fault is planted in the check's _act.
    def scalar(spec, atom, terms, out=None, scale=None):
        out = {} if out is None else out
        for key, c in terms.items():
            c = out.get(key, 0) - 2 * c
            if c:
                out[key] = c
            else:
                del out[key]
        return out
    monkeypatch.setattr(verifier, "_act", scalar)
    cex = _fails_with("weight_multiplicity", {"D": 2},
                      "weight", "expected", "got")
    assert cex == {"weight": [-2], "window": 2, "expected": 4, "got": 12}


def test_weight_multiplicity_fails_on_a_representative_dependence(
        monkeypatch):
    # the identity is no reduction: it sees the representative
    monkeypatch.setattr(verifier, "weight_reduce", lambda spec, x, w: x)
    cex = _fails_with("weight_multiplicity", {"D": 2}, "weight", "x", "y")
    assert cex["error"] == "reduction depends on the representative"


# gl_realization has no fault mode: its faults are planted here.  Each
# pinned report is the one the per-vacuum design before the Whittaker
# functor gave with the same fault planted by a code edit.

def _gl_fault(got):
    """gl_realization at default parameters fails at E 2 1 on 1 @ e1 (the
    fifth case) with image got; returns the spec and got parsed back."""
    report = run_check("gl_realization", {})
    assert (report.status, report.cases) == ("fail", 5)
    assert report.counterexample == {
        "unit": "E 2 1", "dressed": "x1*dt1", "on": "1 @ e1", "got": got,
        "want": "1 @ e2"}
    spec = verifier._spec(CheckParams.from_dict("gl_realization", {}))
    return spec, as_tensor(parse_expr(got), 1, 1, 2)


def test_gl_realization_fails_on_negated_odd_rows(monkeypatch):
    # the action runs on odd_rows_negated(spec); the expected matrices
    # still come from the original rep
    real = verifier.whittaker_functor
    monkeypatch.setattr(verifier, "whittaker_functor",
                        lambda spec, D, words: real(
                            verifier.odd_rows_negated(spec), D, words))
    spec, got = _gl_fault("-1 @ e2")
    assert got == -1 * TensorElement.vacuum(spec, 1)


def test_gl_realization_fails_on_a_word_that_leaves_wh(monkeypatch):
    # the commutant word of x1*dt1 replaced by the bare derivation, which
    # maps 1 @ e1 out of the Whittaker space
    real = verifier.commutant_element
    x1dt1 = ((0,), 1, (TSLOT, 1))

    def bare(m, n, alpha, imask, slot):
        if (alpha, imask, slot) == x1dt1:
            return dressed_from_witt(
                WittElement.term(m, n, alpha, imask, slot))
        return real(m, n, alpha, imask, slot)
    monkeypatch.setattr(verifier, "commutant_element", bare)
    spec, got = _gl_fault("1 @ e2 + x1 @ e1")
    assert got == act_witt(spec, WittElement.term(1, 1, *x1dt1),
                           TensorElement.vacuum(spec, 0))


@pytest.mark.parametrize("word,cases,cex", [
    (0, 2, {"unit": "E 1 1", "dressed": "t1*dt1", "on": "1 @ e2",
            "got": "1 @ e1", "want": "0"}),
    (2, 6, {"unit": "E 2 1", "dressed": "x1*dt1", "on": "1 @ e2",
            "got": "1 @ e1", "want": "0"}),
])
def test_gl_realization_names_the_first_differing_column(monkeypatch, word,
                                                         cases, cex):
    # one extra entry in column 1 of a functor matrix: the report names
    # column 1 and counts the columns before it; the numbers are those of
    # the column-by-column comparison with the same fault
    real = verifier.whittaker_functor

    def planted(spec, D, words):
        basis, mats = real(spec, D, words)
        return basis, ({**mat, (0, 1): 1} if w == word else mat
                       for w, mat in enumerate(mats))
    monkeypatch.setattr(verifier, "whittaker_functor", planted)
    report = run_check("gl_realization", {})
    assert (report.status, report.cases) == ("fail", cases)
    assert report.counterexample == cex


# whittaker_dimension: the closed forms against the operator kernels.  Each
# route below fails on its own fault and names its window or height.

def _whittaker_dimension_fails(window=None, height=None):
    report = run_check("whittaker_dimension", {})
    assert report.status == "fail"
    cex = report.counterexample
    if window is not None:
        assert cex["window"] == window
    else:
        assert cex["generalized_height"] == height
    json.dumps(cex)
    return cex


def test_whittaker_dimension_fails_on_a_missing_vacuum(monkeypatch):
    real = verifier.whittaker_space
    monkeypatch.setattr(verifier, "whittaker_space",
                        lambda spec, D: real(spec, D)[:-1])
    cex = _whittaker_dimension_fails(window=3)
    assert (cex["closed_form"], cex["kernel"]) == (None, "1 @ e2")


def test_whittaker_dimension_fails_on_a_vector_that_is_not_whittaker(
        monkeypatch):
    real = verifier.whittaker_space

    def shifted(spec, D):
        x1 = TensorElement.pure(spec, ((0,) * spec.m, 1), 0)
        return [x1] + real(spec, D)[1:]
    monkeypatch.setattr(verifier, "whittaker_space", shifted)
    cex = _whittaker_dimension_fails(window=3)
    assert (cex["closed_form"], cex["kernel"]) == ("x1 @ e1", "1 @ e1")


def test_whittaker_dimension_fails_when_the_operators_kill_too_much(
        monkeypatch):
    # d/dt_i also killing the t-degree-1 keys widens the operator kernel
    real = verifier._lower
    monkeypatch.setattr(verifier, "_lower", lambda i, terms: real(
        i, {key: c for key, c in terms.items() if mono_tdeg(key[0]) != 1}))
    cex = _whittaker_dimension_fails(window=3)
    assert (cex["closed_form"], cex["kernel"]) == (None, "t1 @ e1")


def test_whittaker_dimension_fails_on_a_missing_generalized_key(
        monkeypatch):
    real = verifier.generalized_whittaker_space
    monkeypatch.setattr(verifier, "generalized_whittaker_space",
                        lambda spec, D, height_bound=0: real(
                            spec, D, height_bound)[:-1])
    cex = _whittaker_dimension_fails(height=0)
    assert (cex["closed_form"], cex["kernel"]) == (None, "x1 @ e2")


def test_whittaker_dimension_fails_on_a_space_short_of_dim_v(monkeypatch):
    # the closed form and the window both one vector index short: they
    # agree key for key, so only the count against dim V sees it
    real_space, real_keys = verifier.whittaker_space, verifier.window_keys
    monkeypatch.setattr(verifier, "whittaker_space",
                        lambda spec, D: real_space(spec, D)[:-1])
    monkeypatch.setattr(verifier, "window_keys", lambda spec, D: [
        key for key in real_keys(spec, D) if key[1] < spec.dim - 1])
    report = run_check("whittaker_dimension", {})
    assert (report.status, report.cases) == ("fail", 4)
    assert report.counterexample == {"expected_dim": 2, "window_3": 1,
                                     "window_4": 1}


def test_whittaker_dimension_fails_on_a_window_without_odd_keys(
        monkeypatch):
    # a window that forgets the odd variables: wh is still the vacuums and
    # the generalized space still its kernel, but 2^n times too small
    real = tensor_modules.enumerate_monomials
    monkeypatch.setattr(tensor_modules, "enumerate_monomials",
                        lambda m, n, deg: real(m, 0, deg))
    report = run_check("whittaker_dimension", {})
    assert (report.status, report.cases) == ("fail", 7)
    assert report.counterexample == {"generalized_height": 0, "expected": 4,
                                     "got": 2}


def test_weight_multiplicity_at_m1_fails_through_the_representatives(
        monkeypatch):
    # Cartan operators acting as zero: at m = 1 the image of (h - w) on
    # window D - 1 is all of it for w != 0, so the quotient is the top
    # layer and its count is right; only the representative route sees it
    monkeypatch.setattr(verifier, "act_witt",
                        lambda spec, w, x: TensorElement.zero(spec))
    cex = _fails_with("weight_multiplicity", {"m": 1, "n": 1, "D": 2},
                      "weight", "x", "y")
    assert cex["error"] == "reduction depends on the representative"
    assert cex["weight"] == [-2] and "expected" not in cex


# descent_roundtrip's planted faults: one in the action the product basis
# is built from, one in weight_reduce's closed form.  Both fail on the
# first trial's element.
X0 = "-t1 @ e1 - 3/2*t1^3 @ e2 - 1/2*t1^3*x1 @ e2"


def test_descent_roundtrip_fails_on_a_doubled_cartan_term(monkeypatch):
    # every derivation reads E(i, i), i <= m, twice over.  E_ii keeps the
    # t-degree, so the columns h^s u_j stay triangular and the rewrite
    # still solves; only the closed form sees the wrong product basis
    real = tensor_modules._derivation_row

    def doubled(spec, atom, key):
        rep = spec.rep
        mats = {ij: {rc: 2 * f for rc, f in mat.items()}
                if ij[0] == ij[1] <= spec.m else mat
                for ij, mat in rep.mats.items()}
        rep = Rep(rep.m, rep.n, rep.dim, rep.parities, mats)
        return real(ModuleSpec(spec.m, spec.n, spec.a, rep), atom, key)
    monkeypatch.setattr(tensor_modules, "_derivation_row", doubled)
    cex = _fails_with("descent_roundtrip", {}, "trial", "x", "weight",
                      "closed_form", "product_basis")
    # t1 @ e1 at weight -1: (-1 - E_11)/a_1 gives -2 @ e1, not -3 @ e1
    assert cex == {"trial": 0, "x": X0, "weight": [-1],
                   "closed_form": "2 @ e1 + 9 @ e2 + 3*x1 @ e2",
                   "product_basis": "3 @ e1 + 9 @ e2 + 3*x1 @ e2"}


def test_descent_roundtrip_fails_on_a_descent_that_keeps_a_non_vacuum_term(
        monkeypatch):
    # the vacuum terms plus the first other term of x: still a filter on
    # keys, so idempotent; only the Whittaker operators on the output see it
    real = tensor_modules.descent

    def leaky(spec, x):
        y = real(spec, x)
        kept = next((k, c) for k, c in x.terms.items() if k not in y.terms)
        return y + tensor_modules._element(spec, dict([kept]))
    monkeypatch.setattr(verifier, "descent", leaky)
    report = run_check("descent_roundtrip", {})
    assert (report.status, report.cases) == ("fail", 1)
    assert report.counterexample == {
        "trial": 0, "x": X0, "descended": "-3/2*t1^3 @ e2",
        "violates": "dt1 - a1"}


def test_descent_roundtrip_names_a_surviving_odd_variable(monkeypatch):
    # a descent that sets t = 0 but keeps xi: the first trial with a term
    # free of t and holding xi_1 violates d/dxi_1 alone
    monkeypatch.setattr(verifier, "descent", lambda spec, x: verifier._element(
        spec, {k: c for k, c in x.terms.items() if not any(k[0][0])}))
    report = run_check("descent_roundtrip", {})
    assert (report.status, report.cases) == ("fail", 3)
    assert report.counterexample == {
        "trial": 2, "x": "3*x1 @ e2 + t1^2*x1 @ e1 + 1/2*t1^2*x1 @ e2",
        "descended": "3*x1 @ e2", "violates": "dx1"}


def _closed_form(spec, x, weight, shift):
    """weight_reduce's closed form, each factor (w_i - k - E_ii)/a_i with
    its -k dropped unless shift; it divides exactly, as weight_reduce
    does."""
    out = TensorElement.zero(spec)
    for ((s, kmask), l), c in x.terms.items():
        v = {(l, 0): c}
        for i, (w, si, ai) in enumerate(zip(weight, s, spec.a), start=1):
            for k in range(si):
                v = mat_add(mat_mul(spec.rep.mats[(i, i)], v), v,
                            k * shift - w)
                v = {rc: divide(-f, ai) for rc, f in v.items()}
        for (r, _), f in v.items():
            out = out + TensorElement.pure(spec, ((0,) * spec.m, kmask), r, f)
    return out


def test_descent_roundtrip_fails_on_a_closed_form_without_the_shift(
        monkeypatch):
    # right while every s_i <= 1, wrong from t_i^2 on
    monkeypatch.setattr(verifier, "weight_reduce",
                        partial(_closed_form, shift=False))
    cex = _fails_with("descent_roundtrip", {}, "trial", "x", "weight",
                      "closed_form", "product_basis")
    assert cex == {"trial": 0, "x": X0, "weight": [-1],
                   "closed_form": "2 @ e1 + 3/2 @ e2 + 1/2*x1 @ e2",
                   "product_basis": "2 @ e1 + 9 @ e2 + 3*x1 @ e2"}
    # with the shift the planted copy is weight_reduce again
    spec = verifier._spec(CheckParams.from_dict("descent_roundtrip", {}))
    x = as_tensor(parse_expr(X0), 1, 1, 2)
    assert _closed_form(spec, x, [-1], shift=True) \
        == weight_reduce(spec, x, [-1])


def test_difference_annihilation_fails_on_an_unstable_window(monkeypatch):
    # the smaller window D = 3 reports every word as annihilating
    real = verifier._annihilates_on_keys
    monkeypatch.setattr(
        verifier, "_annihilates_on_keys",
        lambda spec, word, keys: real(spec, word, keys)
        if max(sum(mono[0]) for mono, _ in keys) > 3 else None)
    cex = _fails_with("difference_annihilation", {}, "word")
    assert cex["error"].endswith("not stable between windows")


def test_coset_route_fails_without_an_order():
    cex = _fails_with("difference_annihilation",
                      {"mode": "coset", "rmax": 0}, "word", "rmax")
    assert cex["error"] == "no annihilation order found"


def test_commutant_weyl_commute_fails_on_flipped_commutants(monkeypatch):
    # every commutant word re-signed by tau_flipped: at n = 2 the flipped
    # convention no longer commutes with multiplication by t1
    real = verifier.commutant_element
    monkeypatch.setattr(verifier, "commutant_element",
                        lambda *args: verifier.tau_flipped(real(*args)))
    report = run_check("commutant_weyl_commute",
                       {"m": 1, "n": 2, "deg": 2, "D": 3})
    assert (report.status, report.cases) == ("fail", 37)
    assert report.counterexample == {
        "dressed": "x1*x2*dt1", "atom": "t1", "on": "1 @ e1",
        "left": "4*x1*x2 @ e1 + 2*t1*x1 @ e3 - 2*t1*x2 @ e2"
                " + 4*t1*x1*x2 @ e1",
        "right": "2*t1*x1 @ e3 - 2*t1*x2 @ e2 + 4*t1*x1*x2 @ e1"}
    assert report.counterexample["left"] != report.counterexample["right"]


# weyl_relations: one planted fault per failure branch, each named with
# its atoms in the expression grammar

def _weyl_relations_fails(cases):
    report = run_check("weyl_relations", {})
    assert (report.status, report.cases) == ("fail", cases)
    return report.counterexample


def test_weyl_relations_fails_on_an_ordering_without_contractions(
        monkeypatch):
    # dt1 t1 ordered as t1 dt1 with the + 1 dropped: [t1, dt1] reads 0
    real = words._nf_append

    def degree(key):
        alpha, imask, gamma, kmask = key
        return sum(alpha) + popcount(imask) + sum(gamma) + popcount(kmask)

    def no_contraction(terms, atom):
        out = real(terms, atom)
        top = max(map(degree, out), default=0)
        return {key: c for key, c in out.items() if degree(key) == top}
    monkeypatch.setattr(words, "_nf_append", no_contraction)
    assert _weyl_relations_fails(3) == {"u": "t1", "v": "dt1", "got": "0",
                                        "want": "-1"}


def test_weyl_relations_fails_on_a_square_taken_as_its_own_normal_form(
        monkeypatch):
    # a shortcut that returns a lone word of coefficient 1 as it stands;
    # every pair relation orders a sum or a multiple of 2, so only the
    # squares see it
    real = verifier.weyl_normal_order
    monkeypatch.setattr(verifier, "weyl_normal_order", lambda w: (
        w if list(w.terms.values()) == [1] else real(w)))
    assert _weyl_relations_fails(17) == {"atom": "x1", "square": "nonzero"}


def test_weyl_relations_fails_on_a_normal_order_that_doubles(monkeypatch):
    # both sides of every relation double alike; ordering twice does not
    real = verifier.weyl_normal_order
    monkeypatch.setattr(verifier, "weyl_normal_order",
                        lambda w: 2 * real(w))
    assert _weyl_relations_fails(21) == {
        "trial": 2, "word": "t1 . t1 . dt1 + 5/2*x1 . dx1 . dx1",
        "first": "2*t1 . t1 . dt1", "second": "4*t1 . t1 . dt1"}


def test_weyl_relations_fails_on_words_acting_left_to_right(monkeypatch):
    # the leftmost atom acting first: a word and its normal form then act
    # differently
    real = verifier.act_word
    monkeypatch.setattr(verifier, "act_word", lambda spec, w, x: real(
        spec, w._like({word[::-1]: c for word, c in w.terms.items()}), x))
    assert _weyl_relations_fails(31) == {
        "trial": 12, "word": "-2*t1 . dx1 + 2*t1 . dt1 . t1 . t1",
        "argument": "1", "direct": "2*t1^2", "normal_ordered": "10*t1^2"}


def test_difference_recurrence_fails_on_a_doubled_order(monkeypatch):
    # D(alpha, beta; 2) doubled: the recurrence at r = 1 reads it
    real = verifier.difference_word
    monkeypatch.setattr(verifier, "difference_word", lambda *args: (
        2 if args[6] == 2 else 1) * real(*args))
    report = run_check("difference_recurrence", {})
    assert (report.status, report.cases) == ("fail", 2)
    assert report.counterexample == {
        "route": "formal words", "alpha": [0], "beta": [0], "I": 0, "J": 0,
        "r": 1, "j": 1,
        "lhs": "dt1 . t1^2*dt1 - 2*t1*dt1 . t1*dt1 + t1^2*dt1 . dt1",
        "rhs": "2*dt1 . t1^2*dt1 - 4*t1*dt1 . t1*dt1 + 2*t1^2*dt1 . dt1"}


# past 60,000 (x, y, window key) triples module_axioms samples 1,000 of
# them: 36^2 * 60 = 77,760 at (2,1)
@pytest.mark.parametrize("m,n", [(2, 1), (1, 2)])
def test_module_axioms_sampled_triples_pass(m, n):
    report = run_check("module_axioms", {"m": m, "n": n})
    assert (report.status, report.cases) == ("pass", 1100)


@pytest.mark.parametrize("m,n,cases,cex", [
    (2, 1, 22, {
        "x": "t2*x1*dt1", "y": "x1*dx1", "v": "t1^3 @ e1",
        "bracket_route": "-3*t1^2*t2*x1 @ e1 - t1^3*x1 @ e2"
                         " + t1^3*t2 @ e3 - t1^3*t2*x1 @ e1",
        "composition_route": "-3*t1^2*t2*x1 @ e1 - t1^3*x1 @ e2"
                             " - t1^3*t2 @ e3 - t1^3*t2*x1 @ e1"}),
    (1, 2, 9, {
        "x": "x1*dt1", "y": "t1^2*dx1", "v": "x1 @ e1",
        "bracket_route": "4*t1*x1 @ e1 + t1^2*x1 @ e1",
        "composition_route": "t1^2*x1 @ e1"}),
])
def test_module_axioms_sampled_triples_catch_the_mutation(m, n, cases, cex):
    report = run_check("module_axioms", {"m": m, "n": n, "mode": "mutated"})
    assert (report.status, report.cases) == ("fail", cases)
    assert report.counterexample == {"law": "bracket compatibility", **cex}


def test_module_laws_read_the_multiplication_rows(monkeypatch):
    # an mx row without its Koszul sign: xi_j p is read as +xi_j p.  The
    # bracket law reads no mx row, so only the associativity and mixed
    # laws can see it, and only if they multiply through the atom table
    params = {"m": 2, "n": 2, "deg": 1, "D": 2}
    assert run_check("module_axioms", params).status == "pass"
    real = tensor_modules._atom_row

    def unsigned(spec, atom, key):
        row = real(spec, atom, key)
        return tuple((k, abs(c)) for k, c in row) if atom[0] == "mx" \
            else row
    monkeypatch.setattr(tensor_modules, "_atom_row", unsigned)
    report = run_check("module_axioms", params)
    assert report.status == "fail"
    assert report.counterexample["law"] == "coefficient associativity"


def test_module_axioms_reads_the_twisted_dt_row(monkeypatch):
    # the dt row without its twist a_i: d/dt_i is the derivation atom of
    # a trivial monomial, so the bracket law reads that row, as act and
    # commutant words do
    real = tensor_modules._atom_row

    def untwisted(spec, atom, key):
        row = real(spec, atom, key)
        return tuple((k, c) for k, c in row if k != key) \
            if atom[0] == "dt" else row
    monkeypatch.setattr(tensor_modules, "_atom_row", untwisted)
    report = run_check("module_axioms", {})
    assert report.status == "fail"
    assert report.counterexample["law"] == "bracket compatibility"


def test_module_axioms_fails_on_a_doubled_derivative(monkeypatch):
    # witt_act doubled: only the mixed law reads it, on its derivative
    # route
    real = verifier.witt_act
    monkeypatch.setattr(verifier, "witt_act", lambda x, f: 2 * real(x, f))
    report = run_check("module_axioms", {})
    assert (report.status, report.cases) == ("fail", 2355)
    assert report.counterexample == {
        "law": "mixed derivation-multiplication", "x": "t1^2*x1*dx1",
        "f": "x1", "v": "t1^2 @ e1", "commutator_route": "t1^4*x1 @ e1",
        "derivative_route": "2*t1^4*x1 @ e1"}


def test_commutant_homomorphism_builds_each_commutant_once(monkeypatch):
    real = verifier.commutant_element
    calls = []
    monkeypatch.setattr(verifier, "commutant_element",
                        lambda *args: calls.append(args) or real(*args))
    report = run_check("commutant_homomorphism", {})
    assert (report.status, report.cases) == ("pass", 64)
    assert len(calls) == len(set(calls)) == 8


def test_rep_file_with_wrong_parities_is_an_error_status(tmp_path):
    # natural(1,1) with both basis vectors even: E 1 2 is odd but maps
    # an even vector to an even one
    rep_file = tmp_path / "even.rep"
    rep_file.write_text("dim 0 0\n"
                        "E 1 1 : 1 0 0 0\nE 1 2 : 0 1 0 0\n"
                        "E 2 1 : 0 0 1 0\nE 2 2 : 0 0 0 1\n")
    report = run_check("gl_realization", {"rep": "file:%s" % rep_file})
    assert report.status == "error"
    assert "('parity', (1, 2), (0, 1))" in report.counterexample["error"]
    json.dumps(report.counterexample)


def test_report_params_echo_inputs():
    report = run_check("bracket_oracle", {"deg": 1, "m": 2, "n": 1,
                                          "a": (F(1), F(2))})
    assert report.params["deg"] == 1
    assert report.params["m"] == 2
    assert report.params["a"] == ["1", "2"]


def test_checkparams_twist_defaults():
    p = CheckParams(check="jacobi", m=2)
    assert p.a == (F(1), F(1))


# ---------------------------------------------------------------------------
# the batched Jacobi sweep against the triple-by-triple sweep it replaced

def _reference_jacobi_sweep(level, memo, parity, triples, render, cases,
                            extra=None):
    """[x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]] on every triple of
    basis ids, expanded by bilinearity through the memo.  render maps a
    terms dict to the expression grammar; extra ends a counterexample."""
    for x, y, z in triples:
        cases += 1
        out = {}
        for k, c in memo[y][z]:                            # [x,[y,z]]
            for k2, c2 in memo[x][k]:
                out[k2] = out.get(k2, 0) + c * c2
        for k, c in memo[x][y]:                            # -[[x,y],z]
            for k2, c2 in memo[k][z]:
                out[k2] = out.get(k2, 0) - c * c2
        s = -1 if parity[x] & parity[y] else 1             # -(-1)^{xy}[y,[x,z]]
        for k, c in memo[x][z]:
            for k2, c2 in memo[y][k]:
                out[k2] = out.get(k2, 0) - s * c * c2
        if any(out.values()):
            key = memo.interned
            raise verifier._Fail({
                "level": level, "x": render({key[x]: F(1)}),
                "y": render({key[y]: F(1)}), "z": render({key[z]: F(1)}),
                "defect": render({key[k]: c for k, c in out.items() if c}),
                **(extra or {})}, cases)
    return cases


def _jacobi_levels(m, n, deg):
    """(level, basis, bracket of two basis keys, parity, render) for each
    level, built as check_jacobi builds them."""
    basis = verifier._witt_keys(m, n, deg)
    out = [("derivation table", basis,
            lambda k1, k2: _bracket_basis(m, *k1, *k2),
            [term_parity(*k) for k in basis],
            lambda terms: print_expr(WittElement(m, n, terms)))]
    for level, cls, elements, bracket in [
            ("abelian extension", ExtendedWittElement,
             extended_basis(m, n, min(deg, 2)), extended_bracket),
            ("dressed product", DressedWittElement,
             dressed_basis(m, n, min(deg, 2)), dressed_bracket)]:
        basis = [next(iter(el.terms)) for el in elements]
        out.append((level, basis,
                    lambda k1, k2, cls=cls, bracket=bracket: bracket(
                        cls(m, n, {k1: F(1)}),
                        cls(m, n, {k2: F(1)})).terms.items(),
                    [cls.key_parity(k) for k in basis],
                    lambda terms, cls=cls: print_expr(cls(m, n, terms))))
    return out


def _outcome(sweep, *args):
    """A sweep's case count, or its (counterexample, cases) on failure."""
    try:
        return sweep(*args)
    except verifier._Fail as e:
        return e.cex, e.cases


def _both_sweeps(level, basis, pair, parity, render, plant=None,
                 triples=None):
    """(cases or (counterexample, cases), memo keys filled) of the batched
    sweep and of the reference, each on a fresh memo that plant(memo)
    edits first.  Every triple in (y, z, x) order by default, else the
    given triples as singleton batches."""
    pair = cache(pair)  # the second memo fills without bracketing again
    if triples is None:
        xs = range(len(basis))
        batches = [(y, z, xs) for y in xs for z in xs]
        triples = [(x, y, z) for y, z, _ in batches for x in xs]
    else:
        batches = [(y, z, (x,)) for x, y, z in triples]
    results = []
    for sweep, todo in ((verifier._jacobi_sweep, batches),
                        (_reference_jacobi_sweep, triples)):
        memo = verifier._PairMemo(basis, pair)
        if plant:
            plant(memo)
        got = _outcome(sweep, level, memo, parity, todo, render, 7)
        results.append((got, set(_pairs(memo))))
    return results


@pytest.mark.parametrize("m,n,deg", [(1, 1, 2), (2, 1, 1)])
@pytest.mark.parametrize("index", [0, 1, 2],
                         ids=["derivation", "extension", "dressed"])
def test_batched_sweep_matches_reference(m, n, deg, index):
    level = _jacobi_levels(m, n, deg)[index]
    (got, filled), (want, want_filled) = _both_sweeps(*level)
    size = len(level[1])
    assert got == want == 7 + size ** 3
    assert filled == want_filled


def _planted(memo, kind, size):
    """Negate one nonzero memo entry: a basis pair whose bracket stays in
    the basis, one whose bracket leaves it, or a pair whose second key
    lies outside the basis."""
    pairs = [(i, j) for i in range(size) for j in range(size) if memo[i][j]]
    if kind == "outside":  # keys the basis pairs bracket into
        top = len(memo.interned)
        pairs = [(i, k) for i in range(size) for k in range(size, top)
                 if memo[i][k]]
    else:
        leaves = kind == "leaves"
        pairs = [(i, j) for i, j in pairs
                 if any(k >= size for k, _ in memo[i][j]) == leaves]
    assert pairs, "no %s pair" % kind
    i, j = pairs[len(pairs) // 2]
    memo[i][j] = tuple((k, -c) for k, c in memo[i][j])


@pytest.mark.parametrize("kind", ["inside", "leaves", "outside"])
@pytest.mark.parametrize("index", [0, 1, 2],
                         ids=["derivation", "extension", "dressed"])
def test_planted_fault_gives_the_reference_counterexample(index, kind):
    level = _jacobi_levels(1, 1, 2)[index]
    size = len(level[1])
    (got, filled), (want, want_filled) = _both_sweeps(
        *level, plant=lambda memo: _planted(memo, kind, size))
    assert isinstance(want, tuple), "the planted entry went unseen"
    assert got == want
    assert got[0]["defect"]


@pytest.mark.parametrize("plant", [False, True])
def test_sampled_triples_are_singleton_batches(plant):
    level = _jacobi_levels(1, 1, 2)[2]
    size = len(level[1])
    rng = random.Random(5)
    triples = [tuple(rng.randrange(size) for _ in range(3))
               for _ in range(400)]
    (got, filled), (want, want_filled) = _both_sweeps(
        *level, triples=triples,
        plant=(lambda memo: _planted(memo, "inside", size)) if plant
        else None)
    assert got == want
    assert filled == want_filled
    assert isinstance(got, tuple) == plant


# the sorted route: super-antisymmetry plus the sorted triples certify an
# exhaustive level; the ordered sweep runs only to name a failure

LEVEL_CLASSES = (WittElement, ExtendedWittElement, DressedWittElement)


def _ordered_verdict(level, memo, parity, render):
    """Whether every ordered triple passes, swept as check_jacobi falls
    back to it."""
    xs = range(len(parity))
    try:
        verifier._jacobi_sweep(level, memo, parity,
                               ((y, z, xs) for y in xs for z in xs), render, 0)
    except verifier._Fail:
        return False
    return True


def _scaled(memo, i, j, scale):
    """[i, j] and [j, i] scaled alike: the memo stays antisymmetric."""
    for a, b in {(i, j), (j, i)}:
        memo[a][b] = tuple((k, scale * c) for k, c in memo[a][b])


@pytest.mark.parametrize("scale", [-1, 2])
@pytest.mark.parametrize("m,n,deg", [(1, 1, 2), (2, 1, 1)])
@pytest.mark.parametrize("index", [0, 1, 2],
                         ids=["derivation", "extension", "dressed"])
def test_sorted_route_agrees_with_the_ordered_sweep(m, n, deg, index, scale):
    level, basis, pair, parity, render = _jacobi_levels(m, n, deg)[index]
    key_parity = LEVEL_CLASSES[index].key_parity
    pair = cache(pair)
    size = len(basis)
    probe = verifier._PairMemo(basis, pair)
    pairs = [(i, j) for i in range(size) for j in range(i, size)
             if probe[i][j]]
    for i, j in random.Random(index).sample(pairs, 3):
        verdicts = []
        for route in ("sorted", "ordered"):
            memo = verifier._PairMemo(basis, pair)
            _scaled(memo, i, j, scale)
            # the fault reaches the sorted sweep, not the antisymmetry pass
            assert verifier._antisymmetric(
                memo, size, verifier._support(memo, size), key_parity)
            verdicts.append(
                verifier._sorted_route(level, memo, parity, key_parity,
                                       render) if route == "sorted"
                else _ordered_verdict(level, memo, parity, render))
        assert verdicts[0] == verdicts[1], (i, j)


def test_each_sorted_batch_reads_every_x_up_to_y():
    # one sorted batch (y, z, range(y + 1)) at a time against the
    # reference on its triples, with [i, j] and [j, i] doubled for each
    # odd i: some batches fail first at x = y, which a column cut before
    # y would miss
    level, basis, pair, parity, render = _jacobi_levels(1, 1, 2)[0]
    size = len(basis)
    pair = cache(pair)
    probe = verifier._PairMemo(basis, pair)
    at_y = 0
    for i, j in [(i, j) for i in range(size) for j in range(i + 1, size)
                 if parity[i] and probe[i][j]]:
        memo = verifier._PairMemo(basis, pair)
        _scaled(memo, i, j, 2)
        for y in range(size):
            for z in range(y, size):
                xs = range(y + 1)
                got = _outcome(verifier._jacobi_sweep, level, memo, parity,
                               [(y, z, xs)], render, 0)
                want = _outcome(_reference_jacobi_sweep, level, memo,
                                parity, [(x, y, z) for x in xs], render, 0)
                assert got == want, (i, j, y, z)
                at_y += isinstance(want, tuple) and want[1] == y + 1
    assert at_y


@pytest.mark.parametrize("m,n,deg", [(1, 1, 2), (2, 1, 1)])
@pytest.mark.parametrize("index", [0, 1, 2],
                         ids=["derivation", "extension", "dressed"])
def test_sorted_route_reads_the_ordered_sweeps_pairs(m, n, deg, index):
    # a passing level fills the same memo pairs either way (ids may differ)
    level, basis, pair, parity, render = _jacobi_levels(m, n, deg)[index]
    pair = cache(pair)
    filled = []
    for route in ("sorted", "ordered"):
        memo = verifier._PairMemo(basis, pair)
        assert (verifier._sorted_route(
            level, memo, parity, LEVEL_CLASSES[index].key_parity, render)
            if route == "sorted" else
            _ordered_verdict(level, memo, parity, render))
        filled.append({(memo.interned[i], memo.interned[j])
                       for i, j in _pairs(memo)})
    assert filled[0] == filled[1]


@pytest.mark.parametrize("index", [0, 1, 2],
                         ids=["derivation", "extension", "dressed"])
def test_one_sided_fault_falls_back_to_the_reference(monkeypatch, index):
    # [b, k] negated for one basis b and one k outside the basis, [k, b]
    # kept: antisymmetry fails, and check_jacobi names the ordered sweep's
    # first failing triple with its case count
    levels = _jacobi_levels(1, 1, 2)
    size = len(levels[index][1])
    _, (want, _) = _both_sweeps(
        *levels[index], plant=lambda memo: _planted(memo, "outside", size))
    built = []

    class Planted(verifier._PairMemo):
        def __init__(self, basis, pair):
            super().__init__(basis, pair)
            if len(built) == index:
                _planted(self, "outside", len(basis))
            built.append(self)

    monkeypatch.setattr(verifier, "_PairMemo", Planted)
    report = run_check("jacobi", {"m": 1, "n": 1, "deg": 2})
    before = sum(len(level[1]) ** 3 for level in levels[:index])
    assert report.status == "fail"
    assert (report.counterexample, report.cases) == (
        want[0], want[1] - 7 + before)


def _spied_jacobi(monkeypatch, params):
    """The report and, per kernel call, the level and its batches' shape:
    sorted (y, z >= y, x <= y), ordered (y, z, every x) or sampled."""
    seen = []
    sweep = verifier._jacobi_sweep

    def spy(level, memo, parity, batches, render, cases, extra=None):
        batches = list(batches)
        ids = range(len(parity))
        if batches == [(y, z, range(y + 1)) for y in ids
                       for z in range(y, len(ids))]:
            shape = "sorted"
        elif batches == [(y, z, ids) for y in ids for z in ids]:
            shape = "ordered"
        else:
            assert {len(xs) for _, _, xs in batches} == {1}
            shape = "sampled %d" % len(batches)
        seen.append((level, len(parity), shape))
        return sweep(level, memo, parity, batches, render, cases, extra)

    monkeypatch.setattr(verifier, "_jacobi_sweep", spy)
    return run_check("jacobi", params), seen


def test_check_jacobi_batches(monkeypatch):
    # (1,2) deg 1: 24 and 32 basis keys certified on sorted batches, the
    # 144 of the dressed product sampled, through the one kernel
    report, seen = _spied_jacobi(monkeypatch, {"m": 1, "n": 2, "deg": 1})
    assert report.status == "pass"
    assert seen == [("derivation table", 24, "sorted"),
                    ("abelian extension", 32, "sorted"),
                    ("dressed product", 144, "sampled 500")]
    assert report.cases == 24 ** 3 + 32 ** 3 + 500


def test_check_jacobi_orders_triples_only_after_a_failure(monkeypatch):
    # the mutated control breaks antisymmetry: no sorted sweep runs
    report, seen = _spied_jacobi(monkeypatch, {"m": 1, "n": 2, "deg": 1,
                                               "mode": "mutated"})
    assert report.status == "fail"
    assert seen == [("derivation table", 24, "ordered")]
    # [dt1, t1*dt1] doubled in both orders stays antisymmetric: the sorted
    # sweep fails, then the ordered sweep names the triple
    doubled = {(((0,), 0), (TSLOT, 1)), (((1,), 0), (TSLOT, 1))}

    def faulty(m, mono1, slot1, mono2, slot2):
        scale = 2 if {(mono1, slot1), (mono2, slot2)} == doubled else 1
        return [(k, scale * c)
                for k, c in _bracket_basis(m, mono1, slot1, mono2, slot2)]

    monkeypatch.setattr(verifier, "_bracket_basis", faulty)
    report, seen = _spied_jacobi(monkeypatch, {"m": 1, "n": 2, "deg": 1})
    assert report.status == "fail"
    assert seen == [("derivation table", 24, "sorted"),
                    ("derivation table", 24, "ordered")]
    assert report.counterexample["level"] == "derivation table"


# ---------------------------------------------------------------------------
# the cheap comparisons can still fail: bracket_oracle reads two equal
# lists, or two lists equal once sorted, as agreeing and sums any others
# key by key; _antisymmetric compares one-term rows without dicts

def _faulty_table(monkeypatch, fault):
    real = witt._bracket_basis
    monkeypatch.setattr(witt, "_bracket_basis",
                        lambda *args: fault(real(*args)))


def _split(out):
    """The first term (key, c) as (key, 2c) and (key, -c): a duplicate key
    with the right sum."""
    if not out:
        return out
    (key, c), rest = out[0], out[1:]
    return [(key, 2 * c), (key, -c)] + rest


@pytest.mark.parametrize("fault", [_split, lambda out: out[::-1]],
                         ids=["split", "reversed"])
def test_bracket_oracle_passes_a_table_with_the_right_sums(monkeypatch,
                                                           fault):
    _faulty_table(monkeypatch, fault)
    report = run_check("bracket_oracle", {"m": 2, "n": 2, "deg": 2})
    assert (report.status, report.cases) == ("pass", 96 ** 2)


def test_bracket_oracle_fails_on_a_duplicate_key_with_a_wrong_sum(
        monkeypatch):
    # the first term emitted twice; the counterexample is the one the
    # check gave when it summed every pair
    _faulty_table(monkeypatch, lambda out: out[:1] + out)
    report = run_check("bracket_oracle", {"m": 2, "n": 2, "deg": 2})
    assert (report.status, report.cases) == ("fail", 17)
    assert report.counterexample == {"x": "dt1", "y": "t1*dt1",
                                     "mode": "corrected", "table": "2*dt1",
                                     "oracle": "dt1"}


def _antisymmetric_with_a_fault(length, fault):
    """_antisymmetric on the (1,1) deg 2 derivation memo with one row
    [b, a], a > b in the basis, of the given length faulted.  The faulted
    row keeps parity |a| + |b|, so only the comparison can reject it,
    except under the parity fault, which swaps a key for one of the other
    parity."""
    basis = verifier._witt_keys(1, 1, 2)
    size = len(basis)
    memo = verifier._PairMemo(basis,
                              lambda k1, k2: _bracket_basis(1, *k1, *k2))
    assert verifier._antisymmetric(memo, size, verifier._support(memo, size),
                                   WittElement.key_parity)
    parity = [WittElement.key_parity(k) for k in memo.interned]
    b, a = next((b, a) for a in range(size) for b in range(a)
                if len(memo[b][a]) == length)
    row = list(memo[b][a])
    k, c = row[0]
    other = next(j for j in range(len(parity))
                 if (parity[j] == parity[k]) == (fault != "parity")
                 and j not in dict(row))
    if fault == "coefficient":
        row[0] = (k, 2 * c)
    elif fault in ("key", "parity"):
        row[0] = (other, c)
    else:
        row = row[:-1] if length == 2 else row + [(other, c)]
    memo[b][a] = tuple(row)
    return verifier._antisymmetric(memo, size, verifier._support(memo, size),
                                   WittElement.key_parity)


@pytest.mark.parametrize("fault", ["coefficient", "key", "length", "parity"])
@pytest.mark.parametrize("length", [1, 2])
def test_antisymmetric_rejects_a_faulted_row(length, fault):
    assert _antisymmetric_with_a_fault(length, fault) is False


def test_no_check_warms_another(monkeypatch):
    # every table a check reads is built for that check and dropped with
    # it: a second identical run computes every structure constant again
    calls = []
    real = witt._bracket_basis

    def counted(*args):
        calls.append(None)
        return real(*args)
    for module in (witt, verifier, dressed):
        monkeypatch.setattr(module, "_bracket_basis", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        assert run_check("jacobi", {"m": 2, "n": 1}).ok
        counts.append(len(calls))
    # pinned: filling the memo row by row brackets no pair twice
    assert counts == [10454, 10454]


def test_derivation_memo_size_at_the_acceptance_shape(monkeypatch):
    # (2,2) deg 2: the 96 basis keys and the 144 of their brackets' support
    # against the basis in both orders, over 448 interned keys
    built = []

    class Kept(verifier._PairMemo):
        def __init__(self, basis, pair):
            super().__init__(basis, pair)
            built.append(self)

    monkeypatch.setattr(verifier, "_PairMemo", Kept)
    assert run_check("jacobi", {"m": 2, "n": 2, "deg": 2}).ok
    memo = built[0]
    assert (len(_pairs(memo)), len(memo.interned)) == (36864, 448)
    assert len(memo) == 448


@pytest.mark.parametrize("m", [1, 2])
def test_mutated_jacobi_without_a_bracket_to_negate_is_an_error(m):
    # (m,0) deg 0: the d/dt_i commute, so no basis pair can be mutated
    report = run_check("jacobi", {"m": m, "n": 0, "deg": 0,
                                  "mode": "mutated"})
    assert (report.status, report.cases) == ("error", 0)
    assert report.counterexample == {"error": (
        "jacobi mode mutated needs a nonzero basis-pair bracket to "
        "negate; m=%d, n=0, deg=0 has none" % m)}
