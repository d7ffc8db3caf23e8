"""Acceptance gate: the fourteen headline guarantees, run at full strength.

Every test prints one verdict line and tolerates nothing: equality is
exact over the rationals, windows are the stated sizes, and the seeded
counts are the stated counts.
"""

import json
from fractions import Fraction

import jsonschema

from test_expressions import GOLDEN, _to_object, run_seeded_roundtrips
from test_verifier import _expected_min_r
from wittmod.cli import run_command
from wittmod.expressions import print_expr
from wittmod.reporting import report_schema
from wittmod.verifier import run_check

F = Fraction
SHAPES = [(m, n) for m in (1, 2) for n in (0, 1, 2)]


def _verdict(num, desc, ok, detail=""):
    print("criterion %02d %s %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, detail


def test_criterion_01_jacobi_exhaustive():
    r = run_check("jacobi", {"m": 2, "n": 2, "deg": 2})
    _verdict(1, "super Jacobi identity at (2,2) with t-degree <= 2: "
             "exhaustive basis triples of the derivation table, 500 "
             "seeded triples each at the extension and dressed levels",
             r.status == "pass" and r.cases >= 96 ** 3,
             r.counterexample)


def test_criterion_02_bracket_table_vs_oracle():
    runs = [run_check("bracket_oracle", {"m": m, "n": n, "deg": 3})
            for m, n in SHAPES]
    control = run_check("bracket_oracle", {"deg": 3, "mode": "verbatim"})
    cex = control.counterexample or {}
    ok = (all(r.status == "pass" for r in runs)
          and control.status == "fail"
          and cex.get("table") != cex.get("oracle"))
    _verdict(2, "structure constants match the derivation oracle on all "
             "pairs, t-degree <= 3, shapes up to (2,2); uncorrected "
             "table refuted by a concrete pair", ok,
             [r.counterexample for r in runs if r.status != "pass"] or cex)


def test_criterion_03_weyl_relations():
    # (2,2) as well: at n = 1 the Koszul position sign of a dx atom is
    # always +1, so a fault in that sign passes (1,1)
    runs = [run_check("weyl_relations", {"m": m, "n": n, "trials": 500})
            for m, n in ((1, 1), (2, 2))]
    _verdict(3, "generator relations normal-order to equality; normal "
             "ordering idempotent on 500 seeded words at (1,1) and (2,2)",
             all(r.status == "pass" and r.cases >= 500 for r in runs),
             [r.counterexample for r in runs if r.status != "pass"])


def test_criterion_04_commutant_homomorphism():
    r = run_check("commutant_homomorphism",
                  {"m": 1, "n": 1, "a": (F(1),), "rep": "natural",
                   "deg": 2, "D": 4})
    _verdict(4, "operator commutant map preserves brackets on all "
             "degree <= 2 pairs over the D=4 window",
             r.status == "pass", r.counterexample)


def test_criterion_05_commutant_commutes_with_weyl():
    r = run_check("commutant_weyl_commute", {"deg": 2, "D": 3})
    _verdict(5, "commutant elements supercommute with every generator "
             "on the D=3 window",
             r.status == "pass", r.counterexample)


def test_criterion_06_gl_realization():
    runs = [run_check("gl_realization", {"m": m, "n": n})
            for m, n in SHAPES]
    _verdict(6, "degree-one commutant action on the Whittaker space "
             "realizes the rep matrices, higher degrees annihilate "
             "it, shapes up to (2,2)",
             all(r.status == "pass" for r in runs),
             [r.counterexample for r in runs if r.status != "pass"])


def test_criterion_07_whittaker_dimension():
    specs = [(1, 1, (F(1),), "natural"),
             (2, 2, (F(1), F(-1)), "natural"),
             (2, 1, (F(2), F(3)), "tensor(natural,natural)")]
    runs = [run_check("whittaker_dimension",
                      {"m": m, "n": n, "a": a, "rep": rep, "D": D})
            for m, n, a, rep in specs for D in (2, 3, 4)]
    _verdict(7, "Whittaker space dimension equals the rep dimension for "
             "three module shapes, stable across windows D in {2,3,4}",
             all(r.status == "pass" for r in runs),
             [r.counterexample for r in runs if r.status != "pass"])


def test_criterion_08_descent_and_rewrite_roundtrip():
    r = run_check("descent_roundtrip",
                  {"m": 2, "n": 1, "a": (F(1), F(1)), "rep": "natural",
                   "D": 3, "trials": 100, "seed": 0})
    _verdict(8, "descent of 100 seeded elements lands in the Whittaker "
             "space; each one's closed-form weight coset equals its "
             "ordered-product rewrite evaluated at a seeded weight",
             r.status == "pass" and r.cases >= 100, r.counterexample)


def test_criterion_09_weight_multiplicity():
    runs = [run_check("weight_multiplicity", {"m": m, "n": n})
            for m, n in ((1, 1), (2, 1))]
    _verdict(9, "weight space dimension is 2^n times the rep dimension "
             "for every integer weight in [-2,2]^m",
             all(r.status == "pass" for r in runs),
             [r.counterexample for r in runs if r.status != "pass"])


def test_criterion_10_difference_recurrence():
    r = run_check("difference_recurrence", {"rmax": 4, "D": 4})
    _verdict(10, "difference word recurrence holds as formal sums for "
             "r <= 4 (operators follow by linearity of the action)",
             r.status == "pass", r.counterexample)


def test_criterion_11_difference_annihilation_pinned():
    r = run_check("difference_annihilation", {})
    ok = r.status == "pass"
    mismatches = []
    if ok:
        table = r.data["minimal_r"]
        ok = len(table) == 144
        for label, rmin in sorted(table.items()):
            head, tail = label.split(" j=")
            s1, s2 = head.split()
            fields = dict(part.split("=")
                          for part in ("j=" + tail).split())
            want = _expected_min_r(s1, s2, int(fields["alpha"]),
                                   int(fields["beta"]), int(fields["I"]),
                                   int(fields["J"]))
            if rmin != want:
                mismatches.append((label, rmin, want))
        ok = ok and not mismatches
    _verdict(11, "a finite annihilation order exists for every slot "
             "pair with exponents <= 2, and the minimal orders match "
             "the pinned table", ok, mismatches or r.counterexample)


def test_criterion_12_cli_contract(tmp_path, capsys):
    ok = True
    detail = ""

    for kind, text, m, n, dim, canonical in GOLDEN:
        obj = _to_object(kind, text, m, n, dim)
        again = _to_object(kind, canonical, m, n, dim)
        if print_expr(obj) != canonical or again != obj:
            ok, detail = False, "golden corpus: %r" % text
            break

    if ok:
        try:
            run_seeded_roundtrips(1000, seed=0)
        except AssertionError as e:
            ok, detail = False, "seeded roundtrip: %s" % e

    if ok:
        argv = ["report", "--check", "gl_realization", "--stable"]
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        rc1 = run_command(argv + ["--out", str(p1)])
        rc2 = run_command(argv + ["--out", str(p2)])
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        try:
            jsonschema.validate(json.loads(b1), report_schema())
        except jsonschema.ValidationError as e:
            ok, detail = False, "schema: %s" % e.message
        if ok and not (rc1 == rc2 == 0 and b1 == b2):
            ok, detail = False, "report not byte-stable for fixed seed"

    if ok:
        codes = (run_command(["bracket", "dt1", "t1*dt1"]),
                 run_command(["verify", "bracket_oracle", "--mode",
                              "verbatim", "--deg", "2"]),
                 run_command(["bracket", "q1", "dt1"]))
        if codes != (0, 1, 2):
            ok, detail = False, "exit codes %r != (0, 1, 2)" % (codes,)

    capsys.readouterr()
    _verdict(12, "expression round-trips (golden corpus plus 1000 "
             "seeded), byte-stable schema-valid report, exit codes "
             "0/1/2", ok, detail)


# the seed-0 case counts of `verify all` at (1,2) with a = 2, as floors
CRITERION_13_FLOORS = {
    "jacobi": 157748, "bracket_oracle": 1296, "weyl_relations": 90,
    "module_axioms": 1100, "commutant_homomorphism": 441,
    "commutant_weyl_commute": 126, "gl_realization": 63,
    "whittaker_dimension": 9, "descent_roundtrip": 50,
    "weight_multiplicity": 10, "difference_recurrence": 2304,
    "difference_annihilation": 1296, "simplicity_probe": 10,
}


def test_criterion_13_verify_all_at_two_odd_variables(capsys):
    # n = 2 is the least n at which tau_flipped re-signs a term (two odd
    # masks of odd size) and a dx atom's position sign can be -1
    rc = run_command(["verify", "all", "--m", "1", "--n", "2", "--a", "2"])
    lines = [ln.split() for ln in capsys.readouterr().out.splitlines()
             if not ln.startswith(" ")]
    verdicts = {ln[0]: (ln[1], int(ln[2][len("cases="):])) for ln in lines}
    ok = rc == 0 and list(verdicts) == list(CRITERION_13_FLOORS) and all(
        status == "pass" and cases >= CRITERION_13_FLOORS[cid]
        for cid, (status, cases) in verdicts.items())
    control = run_check("commutant_homomorphism",
                        {"m": 1, "n": 2, "a": (F(2),), "mode": "tau_flipped"})
    cex = control.counterexample or {}
    ok = ok and control.status == "fail" and (
        cex.get("u"), cex.get("v"), cex.get("on")) == (
        "x1*dt1", "x1*x2*dx1", "1 @ e1")
    _verdict(13, "verify all passes at (1,2) with a = 2 at its seed-0 case "
             "counts; the tau-flipped commutant map is refuted there",
             ok, (verdicts, cex))


# the seed-0 case counts of the six checks at (1,3) with a = 2, as floors
CRITERION_14_FLOORS = {
    "jacobi": 885736, "bracket_oracle": 9216, "weyl_relations": 120,
    "module_axioms": 1100, "gl_realization": 176,
    "commutant_weyl_commute": 352,
}


def test_criterion_14_six_checks_at_three_odd_variables():
    # n = 3 is the least n at which a Koszul sign can need three odd
    # generators: a merge_sign_masks fault there passes every n <= 2 shape
    runs = {cid: run_check(cid, {"m": 1, "n": 3, "a": (F(2),)})
            for cid in CRITERION_14_FLOORS}
    _verdict(14, "jacobi, bracket_oracle, weyl_relations, module_axioms, "
             "gl_realization and commutant_weyl_commute pass at (1,3) "
             "with a = 2 at their seed-0 case counts",
             all(r.status == "pass" and r.cases >= CRITERION_14_FLOORS[cid]
                 for cid, r in runs.items()),
             {cid: (r.status, r.cases, r.counterexample)
              for cid, r in runs.items()})
