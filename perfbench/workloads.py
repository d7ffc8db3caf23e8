"""The three benchmark workloads, their seeded inputs and their checks.

Every workload is a closed loop with one client: the next request goes
out when the previous reply is back.  A *pass* is one list of requests.

* ``verify_default`` and ``acceptance`` are verifier sweeps: each request
  is one ``run_check`` call, and its reply is a ``CheckReport``.
* ``calculator`` is a stream of single CLI requests sent in-process
  through ``cli.run_command`` with stdout and stderr captured; its reply
  is ``(exit code, stdout, stderr)``.

The library only ever receives generated inputs: the seed lives here and
reaches a check as its ``seed`` parameter or as the text of a request.
Replies are checked after the timed interval, by a second route where
one exists.
"""

from __future__ import annotations

import ast
import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import Callable, NamedTuple

from wittmod.cli import run_command
from wittmod.dressed import DressedWittElement, dressed_bracket
from wittmod.expressions import (as_dressed, as_tensor, as_witt,
                                 parse_expr, print_expr)
from wittmod.glmn import natural_rep
from wittmod.superpoly import enumerate_monomials, mono_parity
from wittmod.tensor_modules import (ModuleSpec, TensorElement, act_atom,
                                    descent, lower_t)
from wittmod.verifier import REGISTRY, run_check
from wittmod.witt import (WittElement, bracket_oracle, term_parity,
                          witt_basis, witt_bracket)
from wittmod.words import OperatorWord

F = Fraction


def derive_seed(seed, *path):
    """Deterministic 31-bit seed for one pass or stream of a workload."""
    return random.Random("/".join(str(x) for x in (seed,) + path)) \
        .getrandbits(31)


# ---------------------------------------------------------------------------
# verifier sweeps

class CheckRequest:
    """One run_check call and what its report must show."""

    __slots__ = ("label", "check", "params", "expect", "floor", "extra")

    def __init__(self, label, check, params, expect="pass", floor=1,
                 extra=None):
        self.label = label
        self.check = check
        self.params = params
        self.expect = expect
        self.floor = floor
        self.extra = extra

    def call(self):
        return run_check(self.check, self.params)

    def verdict(self, report):
        """'' when the report is right, else what is wrong with it."""
        if report.status != self.expect:
            return "%s: status %s, want %s (%s)" % (
                self.label, report.status, self.expect,
                report.counterexample)
        if report.cases < self.floor:
            return "%s: %d cases, below the floor of %d" % (
                self.label, report.cases, self.floor)
        if self.extra is not None:
            return self.extra(self, report)
        return ""


def _cex_keys(*keys):
    """A control must fail on a concrete counterexample, not a sentinel."""
    def check(req, report):
        cex = report.counterexample or {}
        missing = [k for k in keys if k not in cex]
        if missing or "error" in cex:
            return "%s: counterexample lacks %s: %s" % (
                req.label, missing or "a witness", cex)
        return ""
    return check


def _verbatim_replays(req, report):
    """The uncorrected-table counterexample must replay standalone."""
    msg = _cex_keys("x", "y", "table", "oracle")(req, report)
    if msg:
        return msg
    cex = report.counterexample
    m, n = report.params["m"], report.params["n"]
    x = as_witt(parse_expr(cex["x"]), m, n)
    y = as_witt(parse_expr(cex["y"]), m, n)
    if (cex["table"] == cex["oracle"]
            or print_expr(witt_bracket(x, y, mode="verbatim")) != cex["table"]
            or print_expr(bracket_oracle(x, y)) != cex["oracle"]):
        return "%s: counterexample does not replay: %s" % (req.label, cex)
    return ""


def _tau_witness(req, report):
    """The flipped convention must be refuted by a pair whose bracket image
    and supercommutator visibly differ."""
    msg = _cex_keys("u", "v", "on", "bracket_image",
                    "supercommutator")(req, report)
    cex = report.counterexample
    if not msg and cex["bracket_image"] == cex["supercommutator"]:
        msg = "%s: bracket image equals supercommutator in %s" % (
            req.label, cex)
    return msg


def _no_reducibility(req, report):
    cex = report.counterexample or {}
    if "no invariant proper subspace" not in cex.get("error", ""):
        return "%s: unexpected counterexample %s" % (req.label, cex)
    return ""


def _pinned_min_r():
    """Criterion 11's pinned minimal orders: the function the verifier
    tests check against, compiled from tests/test_verifier.py rather than
    copied.  Only that function is compiled, so pytest is not imported
    and does not count in the workload's memory."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tests", "test_verifier.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name == "_expected_min_r")
    space = {}
    exec(compile(ast.Module([fn], []), path, "exec"), space)
    return space[fn.name]


def _pinned_table(req, report):
    expected_min_r = _pinned_min_r()
    table = report.data["minimal_r"]
    if len(table) != 144:
        return "%s: %d table entries, want 144" % (req.label, len(table))
    for label, rmin in sorted(table.items()):
        head, tail = label.split(" j=")
        s1, s2 = head.split()
        fields = dict(part.split("=") for part in ("j=" + tail).split())
        want = expected_min_r(s1, s2, int(fields["alpha"]),
                              int(fields["beta"]), int(fields["I"]),
                              int(fields["J"]))
        if rmin != want:
            return "%s: minimal order of %s is %d, pinned %d" % (
                req.label, label, rmin, want)
    return ""


# Case counts of the seed commit.  A pass may not examine fewer cases, so
# coverage cannot shrink to buy speed.  Controls stop at their first
# counterexample, so for them the floor is one case.  simplicity_probe
# skips a random start that cancels to zero, which the seed commit does
# for about one seed in 75, so its floor is 9 of its 10 starts.
VERIFY_DEFAULT_FLOORS = {
    "jacobi": 118152, "bracket_oracle": 144, "weyl_relations": 68,
    "module_axioms": 2404, "commutant_homomorphism": 64,
    "commutant_weyl_commute": 32, "gl_realization": 16,
    "whittaker_dimension": 7, "descent_roundtrip": 50,
    "weight_multiplicity": 10, "difference_recurrence": 256,
    "difference_annihilation": 144, "simplicity_probe": 9,
}


def verify_default_pass(seed, k):
    """`wittmod verify all` at default parameters, plus every built-in
    negative control."""
    s = derive_seed(seed, "verify_default", k)
    reqs = [CheckRequest(cid, cid, {"seed": s},
                         floor=VERIFY_DEFAULT_FLOORS[cid])
            for cid in REGISTRY]
    reqs += [
        CheckRequest("control bracket_oracle verbatim", "bracket_oracle",
                     {"mode": "verbatim", "seed": s}, "fail",
                     extra=_verbatim_replays),
        CheckRequest("control jacobi mutated", "jacobi",
                     {"mode": "mutated", "seed": s}, "fail",
                     extra=_cex_keys("x", "y", "z", "defect",
                                     "mutated_pair")),
        CheckRequest("control module_axioms mutated", "module_axioms",
                     {"mode": "mutated", "seed": s}, "fail",
                     extra=_cex_keys("law", "x", "v")),
        # at n=1 this control only trips its "was not detected" sentinel;
        # n=2 is the smallest shape where it yields a counterexample
        CheckRequest("control commutant_homomorphism tau_flipped n=2",
                     "commutant_homomorphism",
                     {"mode": "tau_flipped", "n": 2, "seed": s}, "fail",
                     extra=_tau_witness),
        CheckRequest("control difference_annihilation rmax=0",
                     "difference_annihilation", {"rmax": 0, "seed": s},
                     "fail", extra=_cex_keys("word", "rmax",
                                             "surviving_image")),
        CheckRequest("control simplicity_probe expect_reducible",
                     "simplicity_probe",
                     {"rep": "natural", "expect_reducible": True,
                      "seed": s}, "fail", extra=_no_reducibility),
    ]
    return reqs


SHAPES = [(m, n) for m in (1, 2) for n in (0, 1, 2)]

ACCEPTANCE_FLOORS = {
    "c01 jacobi (2,2)": 885736,
    "c02 bracket_oracle (1,0)": 16, "c02 bracket_oracle (1,1)": 256,
    "c02 bracket_oracle (1,2)": 2304, "c02 bracket_oracle (2,0)": 400,
    "c02 bracket_oracle (2,1)": 3600, "c02 bracket_oracle (2,2)": 25600,
    "c03 weyl_relations": 518, "c04 commutant_homomorphism": 64,
    "c05 commutant_weyl_commute": 32,
    "c06 gl_realization (1,0)": 2, "c06 gl_realization (1,1)": 16,
    "c06 gl_realization (1,2)": 63, "c06 gl_realization (2,0)": 20,
    "c06 gl_realization (2,1)": 72, "c06 gl_realization (2,2)": 192,
    "c07 whittaker_dimension (1,1) natural": 7,
    "c07 whittaker_dimension (2,2) natural": 11,
    "c07 whittaker_dimension (2,1) tensor(natural,natural)": 21,
    "c08 descent_roundtrip": 100, "c09 weight_multiplicity (1,1)": 10,
    "c09 weight_multiplicity (2,1)": 50,
    "c10 difference_recurrence": 256,
    "c11 difference_annihilation": 144,
}


def acceptance_pass(seed, k):
    """Acceptance criteria 1-11 at their stated parameters."""
    s = derive_seed(seed, "acceptance", k)
    reqs = [CheckRequest("c01 jacobi (2,2)", "jacobi",
                         {"m": 2, "n": 2, "deg": 2, "seed": s})]
    for m, n in SHAPES:
        reqs.append(CheckRequest("c02 bracket_oracle (%d,%d)" % (m, n),
                                 "bracket_oracle",
                                 {"m": m, "n": n, "deg": 3, "seed": s}))
    reqs.append(CheckRequest("c02 control verbatim", "bracket_oracle",
                             {"deg": 3, "mode": "verbatim", "seed": s},
                             "fail", extra=_verbatim_replays))
    reqs += [
        CheckRequest("c03 weyl_relations", "weyl_relations",
                     {"trials": 500, "seed": s}),
        CheckRequest("c04 commutant_homomorphism", "commutant_homomorphism",
                     {"m": 1, "n": 1, "a": (F(1),), "rep": "natural",
                      "deg": 2, "D": 4, "seed": s}),
        CheckRequest("c05 commutant_weyl_commute", "commutant_weyl_commute",
                     {"deg": 2, "D": 3, "seed": s}),
    ]
    for m, n in SHAPES:
        reqs.append(CheckRequest("c06 gl_realization (%d,%d)" % (m, n),
                                 "gl_realization",
                                 {"m": m, "n": n, "seed": s}))
    for m, n, a, rep in [(1, 1, (F(1),), "natural"),
                         (2, 2, (F(1), F(-1)), "natural"),
                         (2, 1, (F(2), F(3)), "tensor(natural,natural)")]:
        for D in (2, 3, 4):
            reqs.append(CheckRequest(
                "c07 whittaker_dimension (%d,%d) %s D=%d" % (m, n, rep, D),
                "whittaker_dimension",
                {"m": m, "n": n, "a": a, "rep": rep, "D": D, "seed": s}))
    reqs += [
        CheckRequest("c08 descent_roundtrip", "descent_roundtrip",
                     {"m": 2, "n": 1, "a": (F(1), F(1)), "rep": "natural",
                      "D": 3, "trials": 100, "seed": s}),
        CheckRequest("c09 weight_multiplicity (1,1)", "weight_multiplicity",
                     {"m": 1, "n": 1, "seed": s}),
        CheckRequest("c09 weight_multiplicity (2,1)", "weight_multiplicity",
                     {"m": 2, "n": 1, "seed": s}),
        CheckRequest("c10 difference_recurrence", "difference_recurrence",
                     {"rmax": 4, "D": 4, "seed": s}),
        CheckRequest("c11 difference_annihilation",
                     "difference_annihilation", {"seed": s},
                     extra=_pinned_table),
    ]
    for req in reqs:
        if req.expect == "pass":
            req.floor = ACCEPTANCE_FLOORS[req.label.split(" D=")[0]]
    return reqs


def report_key(report):
    """Everything a verdict says, for comparing two runs of one pass."""
    return (report.id, report.status, report.cases,
            repr(report.counterexample), repr(report.data))


# ---------------------------------------------------------------------------
# calculator

class CliRequest:
    """One CLI invocation plus what is needed to check its reply."""

    __slots__ = ("kind", "argv", "m", "n", "ctx")

    def __init__(self, kind, argv, m=0, n=0, ctx=None):
        self.kind = kind
        self.argv = argv
        self.m = m
        self.n = n
        self.ctx = ctx

    def call(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_command(self.argv)
        return code, out.getvalue(), err.getvalue()

    def verdict(self, reply):
        try:
            msg = _check_cli(self, reply)
        except Exception as e:  # a reply that breaks its check is wrong
            msg = "check raised %s: %s" % (type(e).__name__, e)
        return "%s %r: %s" % (self.kind, self.argv, msg) if msg else ""


# One block of the calculator mix: (kind, shape, how many per block).
# There is no record of how the CLI is used, so the mix is a design, not a
# measurement.  The kinds keep the proportions of the command tour in the
# repository README ("wittmod bracket ..." to "wittmod weighting ..."):
# two Witt brackets to one each of dressed bracket, act, wh, descent and
# weighting.  One malformed request per tour (an eighth of the stream)
# keeps the exit-2 path in every block.  The tour runs at the smallest
# shapes, where every request costs about the same; here each kind is
# spread over the shapes of the acceptance criteria, (1,0) to (2,2), so
# the stream also has the PBW-inverse tail.  `wh` stops at (2,1) with
# D=2, the "small D" the calculator is meant for.  Every pass repeats the
# block a whole number of times in a seeded order, so the mix, and with
# it the latency percentiles, do not drift with the seed; only the
# expressions do.  The weighting request at (2,2) (a 96x96 exact PBW
# inverse) is the slowest kind and a thirty-second of the stream, so p99
# falls inside it.
CALC_SHAPES = ((1, 0), (1, 1), (2, 1), (2, 2))
CALC_BLOCK = (
    [("bracket", s, 2) for s in CALC_SHAPES]
    + [(kind, s, 1) for kind in ("dressed", "act", "descent", "weighting")
       for s in CALC_SHAPES]
    + [("wh", s, 1) for s in ((1, 0, 2), (1, 1, 2), (1, 1, 3), (2, 1, 2))]
    + [("malformed", None, 4)]
)
CALC_KINDS = sorted({kind for kind, _, _ in CALC_BLOCK})
MALFORMED = [
    ["bracket", "t1 +", "dt1"], ["bracket", "q1", "dt1"],
    ["bracket", "dt1", "x{2,1}*dt1"], ["bracket", "1/0*dt1", "dt1"],
    ["bracket", "t1^", "dt1"], ["act", "dt1 . . dt1", "1 @ e1"],
    ["descent", "t1 @ e9", "--m", "1", "--n", "0"],
    ["weighting", "t1 @ e1", "--r", "1,2,3"],
    ["bracket", "dt1"], ["frobnicate", "dt1"],
]


def _coeff(rng):
    return F(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3]))


def _rand_witt(rng, m, n, deg):
    basis = [next(iter(el.terms)) for el in witt_basis(m, n, deg)]
    out = WittElement.zero(m, n)
    for _ in range(rng.randint(1, 3)):
        (alpha, imask), slot = basis[rng.randrange(len(basis))]
        out = out + WittElement.term(m, n, alpha, imask, slot, _coeff(rng))
    return out


def _rand_dressed(rng, m, n, parity):
    """Homogeneous dressed element with at least one nontrivial dressing,
    so the CLI reads it on the dressed route."""
    dressings = enumerate_monomials(m, n, 1)[1:]
    pairs = [(a, key) for a in dressings
             for key in (next(iter(el.terms)) for el in witt_basis(m, n, 1))
             if (mono_parity(a) + term_parity(*key)) & 1 == parity]
    out = DressedWittElement(m, n)
    while not out:
        for _ in range(rng.randint(1, 3)):
            amono, (wmono, slot) = pairs[rng.randrange(len(pairs))]
            out = out + DressedWittElement.term(m, n, amono, wmono, slot,
                                                _coeff(rng))
    return out


def _rand_tensor(rng, spec, deg):
    """Nonzero element of t-degree exactly `deg`: the degree sets the size
    of the windows that descent and weighting solve on, so fixing it
    keeps the cost of a request independent of the seed."""
    monos = enumerate_monomials(spec.m, spec.n, deg)
    top = [mono for mono in monos if sum(mono[0]) == deg]
    out = TensorElement.zero(spec)
    while out.tdegree() != deg:
        out = TensorElement.pure(spec, top[rng.randrange(len(top))],
                                 rng.randrange(spec.dim), _coeff(rng))
        for _ in range(rng.randint(0, 2)):
            mono = monos[rng.randrange(len(monos))]
            out = out + TensorElement.pure(spec, mono,
                                           rng.randrange(spec.dim),
                                           _coeff(rng))
    return out


def _rand_word(rng, m, n):
    atoms = [("mt", i) for i in range(1, m + 1)]
    atoms += [("dt", i) for i in range(1, m + 1)]
    atoms += [("mx", j) for j in range(1, n + 1)]
    atoms += [("dx", j) for j in range(1, n + 1)]
    word = tuple(atoms[rng.randrange(len(atoms))]
                 for _ in range(rng.randint(1, 3)))
    return OperatorWord.from_word(m, n, word, _coeff(rng))


def _shape_flags(m, n):
    return ["--m", str(m), "--n", str(n)]


def _make_request(rng, kind, shape):
    # expressions follow "--": argparse would read a leading minus sign
    # as an option
    if kind == "malformed":
        return CliRequest(kind, list(MALFORMED[rng.randrange(
            len(MALFORMED))]))
    if kind == "wh":
        m, n, D = shape
        return CliRequest(kind, ["wh", "--D", str(D)] + _shape_flags(m, n),
                          m, n)
    m, n = shape
    if kind == "bracket":
        u, v = _rand_witt(rng, m, n, 2), _rand_witt(rng, m, n, 2)
        return CliRequest(kind, ["bracket"] + _shape_flags(m, n)
                          + ["--", print_expr(u), print_expr(v)],
                          m, n, (u, v))
    if kind == "dressed":
        # with no odd variables (n = 0) every element is even
        pu, pv = (rng.randrange(2), rng.randrange(2)) if n else (0, 0)
        u, v = _rand_dressed(rng, m, n, pu), _rand_dressed(rng, m, n, pv)
        return CliRequest(kind, ["bracket"] + _shape_flags(m, n)
                          + ["--", print_expr(u), print_expr(v)],
                          m, n, (u, v, pu & pv))
    spec = ModuleSpec(m, n, (F(1),) * m, natural_rep(m, n))
    x = _rand_tensor(rng, spec, 2)
    if kind == "act":
        w = _rand_word(rng, m, n)
        return CliRequest(kind, ["act"] + _shape_flags(m, n)
                          + ["--", print_expr(w), print_expr(x)], m, n)
    if kind == "descent":
        return CliRequest(kind, ["descent"] + _shape_flags(m, n)
                          + ["--", print_expr(x)], m, n)
    r = ",".join(str(rng.randint(-2, 2)) for _ in range(m))
    return CliRequest(kind, ["weighting", "--r=" + r] + _shape_flags(m, n)
                      + ["--", print_expr(x)], m, n)


def calculator_pass(seed, k, blocks=10):
    """`blocks` copies of the mix block, shuffled, with seeded
    expressions: 320 requests by default."""
    rng = random.Random(derive_seed(seed, "calculator", k))
    slots = [(kind, shape) for kind, shape, count in CALC_BLOCK
             for _ in range(count * blocks)]
    rng.shuffle(slots)
    return [_make_request(rng, kind, shape) for kind, shape in slots]


def _reprints(text, convert):
    """Each reply line must re-parse and re-print byte-identically."""
    for line in text.splitlines():
        again = print_expr(convert(parse_expr(line)))
        if again != line:
            return "reply %r re-prints as %r" % (line, again)
    return ""


def _check_cli(req, reply):
    code, out, err = reply
    if req.kind == "malformed":
        if code != 2 or out:
            return "exit %d with stdout %r, want exit 2 and no output" % (
                code, out)
        return ""
    if code != 0 or err:
        return "exit %d, stderr %r" % (code, err)
    m, n = req.m, req.n
    if req.kind == "bracket":
        got = as_witt(parse_expr(out), m, n)
        u, v = req.ctx
        if got != bracket_oracle(u, v):
            return "differs from the derivation oracle"
        return _reprints(out, lambda t: as_witt(t, m, n))
    if req.kind == "dressed":
        got = as_dressed(parse_expr(out), m, n)
        u, v, both_odd = req.ctx
        # super-antisymmetry: [u,v] = -(-1)^{|u||v|} [v,u]
        swapped = dressed_bracket(v, u)
        if got != (swapped if both_odd else -1 * swapped):
            return "not super-antisymmetric"
        return _reprints(out, lambda t: as_dressed(t, m, n))
    spec = ModuleSpec(m, n, (F(1),) * m, natural_rep(m, n))
    as_elem = lambda t: as_tensor(t, m, n, spec.dim)  # noqa: E731
    if req.kind == "descent":
        y = as_elem(parse_expr(out))
        if any(lower_t(spec, i, y) for i in range(1, m + 1)) or any(
                act_atom(spec, ("dx", j), y) for j in range(1, n + 1)):
            return "descent output is not a Whittaker vector"
        if descent(spec, y) != y:
            return "descent is not idempotent on its output"
    if req.kind == "wh":
        lines = out.splitlines()
        if len(lines) != spec.dim:
            return "%d basis vectors, want %d" % (len(lines), spec.dim)
        for line in lines:
            y = as_elem(parse_expr(line))
            if any(lower_t(spec, i, y) for i in range(1, m + 1)) or any(
                    act_atom(spec, ("dx", j), y) for j in range(1, n + 1)):
                return "basis vector %r is not a Whittaker vector" % line
    return _reprints(out, as_elem)


def calculator_key(reply):
    return reply


# ---------------------------------------------------------------------------

class Workload(NamedTuple):
    make_pass: Callable     # (seed, pass index) -> list of requests
    reply_key: Callable     # reply -> what two runs of it must agree on
    # what a client waits for: the whole sweep (one `wittmod verify all`
    # or acceptance session), or each CLI command on its own
    pass_is_one_request: bool


WORKLOADS = {
    "verify_default": Workload(verify_default_pass, report_key, True),
    "acceptance": Workload(acceptance_pass, report_key, True),
    "calculator": Workload(calculator_pass, calculator_key, False),
}


def cases_of(reply):
    """Cases a reply covers: verifier cases, or one per CLI reply."""
    return reply.cases if hasattr(reply, "cases") else 1
