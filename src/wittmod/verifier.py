"""Window-scale certification of the library's identities.

Every check is deterministic given its parameters (the seed is a
parameter), counts the cases it examined, and on failure carries a
self-contained counterexample rendered in the CLI expression grammar.

Negative controls are faults built here, never switches in the code they
check.  A check that passes in a fault mode (CONTROL_MODES) fails; rmax=0
annihilation and the non-simple direct-sum probe (expect_reducible) fail
on their own.  The test suite asserts that every control fails.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from . import linalg
from .config import CheckParams, ConfigError, resolve_rep
from .dressed import (DressedWittElement, commutant_element,
                      commutant_of_witt, dressed_basis, dressed_bracket)
from .glmn import Rep, trivial_rep
from .superpoly import (SuperPoly, accumulate, enumerate_monomials, mono_mul,
                        mono_parity, popcount)
from .tensor_modules import (ModuleSpec, TensorElement, TensorSpan,
                             TransitionSingular, act_atom, act_mono, act_witt,
                             act_word, descent, generalized_whittaker_space,
                             lower_t, pbw_basis_rewrite, unit_basis,
                             unit_vector, weight_act, weight_reduce,
                             whittaker_space, window_keys)
from .witt import (TSLOT, XSLOT, ExtendedWittElement, WittElement,
                   _bracket_basis, bracket_oracle, extended_basis,
                   extended_bracket, term_parity, witt_basis, witt_bracket)
from .words import OperatorWord, atom_parity, difference_word, \
    weyl_normal_order

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class CheckReport:
    id: str
    params: dict
    status: str
    cases: int
    elapsed_ms: int = 0
    counterexample: dict = None
    data: dict = None

    @property
    def ok(self):
        return self.status == "pass"

    def as_dict(self):
        out = {"id": self.id, "params": self.params, "status": self.status,
               "cases": self.cases, "elapsed_ms": self.elapsed_ms}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.data is not None:
            out["data"] = self.data
        return out


class _Fail(Exception):
    """Internal: carries a counterexample dict out of a sweep."""

    def __init__(self, cex, cases):
        self.cex = cex
        self.cases = cases
        super().__init__("check failed")


def _spec(p: CheckParams) -> ModuleSpec:
    return ModuleSpec(p.m, p.n, p.a, resolve_rep(p.rep, p.m, p.n))


# ---------------------------------------------------------------------------
# negative controls: the fault modes and the faults they plant

CONTROL_MODES = ("verbatim", "mutated", "tau_flipped")


def odd_rows_negated(spec: ModuleSpec) -> ModuleSpec:
    """spec with every odd-row matrix unit E(i,j), i > m, negated: only
    act_term's odd-unit piece reads them, so that piece changes sign."""
    rep = spec.rep
    mats = {ij: tuple(tuple(-f for f in row) for row in mat)
            if ij[0] > spec.m else mat for ij, mat in rep.mats.items()}
    return ModuleSpec(spec.m, spec.n, spec.a,
                      Rep(rep.m, rep.n, rep.dim, rep.parities, mats))


def tau_flipped(x: DressedWittElement) -> DressedWittElement:
    """Each term (t^b xi_J).(t^c xi_K d) re-signed by (-1)^{|J||K|}, which
    turns merge_sign(J, K) into merge_sign(K, J); a key fixes its term."""
    return DressedWittElement(x.m, x.n, {
        key: -c if popcount(key[0][1]) * popcount(key[1][0][1]) & 1 else c
        for key, c in x.terms.items()})


def _print(obj):
    from .expressions import print_expr
    return print_expr(obj)


def _key_elem(m, n, key):
    (mono, slot) = key
    return WittElement.term(m, n, mono[0], mono[1], slot)


def _pure(spec, key):
    return TensorElement.pure(spec, key[0], key[1])


def _random_coeff(rng):
    num = rng.choice([-3, -2, -1, 1, 2, 3, 5])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def _random_tensor(spec, rng, max_deg, nterms=3):
    keys = window_keys(spec, max_deg)
    out = TensorElement.zero(spec)
    for _ in range(nterms):
        key = keys[rng.randrange(len(keys))]
        out = out + _random_coeff(rng) * _pure(spec, key)
    return out


# ---------------------------------------------------------------------------
# jacobi

def _witt_keys(m, n, deg):
    return [next(iter(el.terms)) for el in witt_basis(m, n, deg)]


class _PairMemo(dict):
    """Brackets of basis pairs at one level, each computed on first use.

    Keys are interned to small ints, the basis first and in its order:
    memo[i, j] is the bracket of interned[i] and interned[j] as a tuple of
    (key id, coefficient).  Structure constants are integers, so the
    coefficients are ints and a sweep over the memo builds no element.
    Equal (key id, coefficient) pairs are stored once: most brackets
    repeat a few of them, and the memo's size is a sweep's peak memory."""

    def __init__(self, basis, pair):
        super().__init__()
        self.interned = list(basis)
        self.ids = {key: i for i, key in enumerate(self.interned)}
        self.pair = pair
        self.shared = {}

    def _intern(self, key):
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.interned)
            self.interned.append(key)
        return i

    def __missing__(self, ij):
        acc = {}
        for key, c in self.pair(self.interned[ij[0]], self.interned[ij[1]]):
            accumulate(acc, self._intern(key), c)
        items = []
        for k, c in acc.items():
            # exact either way; a non-integral constant stays a Fraction
            term = (k, int(c) if c.denominator == 1 else c)
            items.append(self.shared.setdefault(term, term))
        items = self[ij] = tuple(items)
        return items


def _jacobi_sweep(level, memo, parity, triples, render, cases, extra=None):
    """[x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]] on every triple of
    basis ids, expanded by bilinearity through the memo.  render maps a
    terms dict to the expression grammar; extra ends a counterexample."""
    for x, y, z in triples:
        cases += 1
        out = {}
        for k, c in memo[y, z]:                            # [x,[y,z]]
            for k2, c2 in memo[x, k]:
                out[k2] = out.get(k2, 0) + c * c2
        for k, c in memo[x, y]:                            # -[[x,y],z]
            for k2, c2 in memo[k, z]:
                out[k2] = out.get(k2, 0) - c * c2
        s = -1 if parity[x] & parity[y] else 1             # -(-1)^{xy}[y,[x,z]]
        for k, c in memo[x, z]:
            for k2, c2 in memo[y, k]:
                out[k2] = out.get(k2, 0) - s * c * c2
        if any(out.values()):
            key = memo.interned
            raise _Fail({"level": level, "x": render({key[x]: ONE}),
                         "y": render({key[y]: ONE}),
                         "z": render({key[z]: ONE}),
                         "defect": render({key[k]: c for k, c in out.items()
                                           if c}), **(extra or {})}, cases)
    return cases


def check_jacobi(p: CheckParams):
    """The derivation table exhaustively; the extension and the dressed
    product exhaustively up to 300000 triples, else a seeded sample.
    Each level's memo is filled by that level's own bracket."""
    m, n = p.m, p.n
    basis = _witt_keys(m, n, p.deg)
    witt = _PairMemo(basis, lambda k1, k2: _bracket_basis(m, *k1, *k2))

    def render(terms):
        return _print(WittElement(m, n, terms))

    size = len(basis)
    mutated = {}
    if p.mode == "mutated":
        rng = random.Random(p.seed)
        candidates = [(i, j) for i in range(size) for j in range(size)
                      if witt[i, j]]
        i, j = candidates[rng.randrange(len(candidates))]
        witt[i, j] = [(k, -c) for k, c in witt[i, j]]
        mutated["mutated_pair"] = "[%s, %s]" % (render({basis[i]: ONE}),
                                                render({basis[j]: ONE}))
    cases = _jacobi_sweep(
        "derivation table", witt, [term_parity(*k) for k in basis],
        ((x, y, z) for y in range(size) for z in range(size)
         for x in range(size)), render, 0, mutated)

    exdeg = min(p.deg, 2)
    levels = [
        ("abelian extension", ExtendedWittElement,
         extended_basis(m, n, exdeg), extended_bracket),
        ("dressed product", DressedWittElement,
         dressed_basis(m, n, exdeg), dressed_bracket),
    ]
    for level, cls, elements, bracket in levels:
        basis = [next(iter(el.terms)) for el in elements]
        size = len(basis)
        if size ** 3 <= 300000:
            triples = product(range(size), repeat=3)
        else:
            rng = random.Random(p.seed + 1)
            triples = [tuple(rng.randrange(size) for _ in range(3))
                       for _ in range(max(p.trials, 500))]
        memo = _PairMemo(basis, lambda k1, k2: bracket(
            cls(m, n, {k1: ONE}), cls(m, n, {k2: ONE})).terms.items())
        cases = _jacobi_sweep(
            level, memo, [cls.key_parity(k) for k in basis], triples,
            lambda terms: _print(cls(m, n, terms)), cases)
    return cases, None


# ---------------------------------------------------------------------------
# bracket_oracle

def check_bracket_oracle(p: CheckParams):
    basis = witt_basis(p.m, p.n, p.deg)
    cases = 0
    for x in basis:
        for y in basis:
            cases += 1
            table = witt_bracket(x, y, mode=p.mode)
            oracle = bracket_oracle(x, y)
            if table != oracle:
                raise _Fail({
                    "x": _print(x), "y": _print(y), "mode": p.mode,
                    "table": _print(table), "oracle": _print(oracle),
                }, cases)
    return cases, None


# ---------------------------------------------------------------------------
# weyl_relations

def _weyl_atoms(m, n):
    atoms = [("mt", i) for i in range(1, m + 1)]
    atoms += [("mx", j) for j in range(1, n + 1)]
    atoms += [("dt", i) for i in range(1, m + 1)]
    atoms += [("dx", j) for j in range(1, n + 1)]
    return atoms


def _expected_pair_relation(u, v, m, n):
    """[u, v]_super as a WeylNormalForm-equal OperatorWord (scalar)."""
    ku, iu = u
    kv, iv = v
    if ku == "dt" and kv == "mt" and iu == iv:
        return OperatorWord.identity(m, n)
    if ku == "mt" and kv == "dt" and iu == iv:
        return -1 * OperatorWord.identity(m, n)
    if ku == "dx" and kv == "mx" and iu == iv:
        return OperatorWord.identity(m, n)
    if ku == "mx" and kv == "dx" and iu == iv:
        return OperatorWord.identity(m, n)
    return OperatorWord(m, n)


def _as_poly(x: TensorElement) -> SuperPoly:
    """An element of the plain module as the polynomial it is."""
    return SuperPoly(x.m, x.n, {mono: c for (mono, _), c in x.terms.items()})


def check_weyl_relations(p: CheckParams):
    m, n = p.m, p.n
    atoms = _weyl_atoms(m, n)
    cases = 0
    for u in atoms:
        for v in atoms:
            cases += 1
            s = -1 if atom_parity(u) & atom_parity(v) else 1
            w = (OperatorWord.from_word(m, n, (u, v))
                 - s * OperatorWord.from_word(m, n, (v, u)))
            want = _expected_pair_relation(u, v, m, n)
            if weyl_normal_order(w) != weyl_normal_order(want):
                raise _Fail({"u": str(u), "v": str(v),
                             "got": _print(weyl_normal_order(w).to_word()),
                             "want": _print(want)}, cases)
    # squares of odd atoms vanish
    for j in range(1, n + 1):
        for atom in (("mx", j), ("dx", j)):
            cases += 1
            w = OperatorWord.from_word(m, n, (atom, atom))
            if weyl_normal_order(w):
                raise _Fail({"atom": str(atom), "square": "nonzero"}, cases)
    # idempotence of normal ordering + action faithfulness, seeded; the
    # algebra acts as the untwisted trivial module
    plain = ModuleSpec(m, n, (ZERO,) * m, trivial_rep(m, n))
    rng = random.Random(p.seed)
    mono_pool = enumerate_monomials(m, n, 3)
    for t in range(p.trials):
        cases += 1
        length = rng.randint(1, 6)
        word = tuple(atoms[rng.randrange(len(atoms))] for _ in range(length))
        w = OperatorWord.from_word(m, n, word, _random_coeff(rng))
        if rng.random() < 0.5:
            word2 = tuple(atoms[rng.randrange(len(atoms))]
                          for _ in range(rng.randint(1, 4)))
            w = w + OperatorWord.from_word(m, n, word2, _random_coeff(rng))
        nf = weyl_normal_order(w)
        nf2 = weyl_normal_order(nf.to_word())
        if nf != nf2:
            raise _Fail({"trial": t, "word": _print(w),
                         "first": _print(nf.to_word()),
                         "second": _print(nf2.to_word())}, cases)
        mono = mono_pool[rng.randrange(len(mono_pool))]
        v = TensorElement.pure(plain, mono, 0)
        got = act_word(plain, w, v)
        want = act_word(plain, nf.to_word(), v)
        if got != want:
            raise _Fail({"trial": t, "word": _print(w),
                         "argument": _print(_as_poly(v)),
                         "direct": _print(_as_poly(got)),
                         "normal_ordered": _print(_as_poly(want))}, cases)
    return cases, None


# ---------------------------------------------------------------------------
# module_axioms

def check_module_axioms(p: CheckParams):
    spec = _spec(p)
    if p.mode == "mutated":
        spec = odd_rows_negated(spec)
    keys = _witt_keys(p.m, p.n, p.deg)
    wkeys = window_keys(spec, p.D)
    cases = 0
    total = len(keys) * len(keys) * len(wkeys)
    if total <= 60000:
        triples = ((kx, ky, wk) for kx in keys for ky in keys
                   for wk in wkeys)
    else:
        rng0 = random.Random(p.seed + 7)
        triples = [(keys[rng0.randrange(len(keys))],
                    keys[rng0.randrange(len(keys))],
                    wkeys[rng0.randrange(len(wkeys))])
                   for _ in range(max(20 * p.trials, 1000))]
    for kx, ky, wk in triples:
        cases += 1
        x = _key_elem(p.m, p.n, kx)
        y = _key_elem(p.m, p.n, ky)
        v = _pure(spec, wk)
        s = -1 if (term_parity(kx[0], kx[1])
                   & term_parity(ky[0], ky[1])) else 1
        lhs = act_witt(spec, witt_bracket(x, y), v)
        rhs = (act_witt(spec, x, act_witt(spec, y, v))
               - s * act_witt(spec, y, act_witt(spec, x, v)))
        if lhs != rhs:
            raise _Fail({
                "law": "bracket compatibility",
                "x": _print(x), "y": _print(y),
                "v": _print(v), "bracket_route": _print(lhs),
                "composition_route": _print(rhs)}, cases)
    # coefficient algebra is associative on the module
    rng = random.Random(p.seed + 13)
    monos = enumerate_monomials(p.m, p.n, p.deg)
    for _ in range(p.trials):
        cases += 1
        am = monos[rng.randrange(len(monos))]
        bm = monos[rng.randrange(len(monos))]
        wk = wkeys[rng.randrange(len(wkeys))]
        v = _pure(spec, wk)
        two_step = act_mono(spec, am, act_mono(spec, bm, v))
        hit = mono_mul(am, bm)
        one_step = TensorElement.zero(spec) if hit is None \
            else hit[1] * act_mono(spec, hit[0], v)
        if two_step != one_step:
            raise _Fail({
                "law": "coefficient associativity",
                "p": _print(SuperPoly.monomial(p.m, p.n, am[0], am[1])),
                "q": _print(SuperPoly.monomial(p.m, p.n, bm[0], bm[1])),
                "v": _print(v), "two_step": _print(two_step),
                "one_step": _print(one_step)}, cases)
    # mixed law: [derivation, multiplication] = multiplication by the
    # plain derivative of the coefficient
    from .witt import witt_act
    for _ in range(p.trials):
        cases += 1
        kx = keys[rng.randrange(len(keys))]
        fm = monos[rng.randrange(len(monos))]
        wk = wkeys[rng.randrange(len(wkeys))]
        x = _key_elem(p.m, p.n, kx)
        v = _pure(spec, wk)
        fpoly = SuperPoly.monomial(p.m, p.n, fm[0], fm[1])
        s = -1 if (term_parity(kx[0], kx[1]) & mono_parity(fm)) else 1
        lhs = (act_witt(spec, x, act_mono(spec, fm, v))
               - s * act_mono(spec, fm, act_witt(spec, x, v)))
        rhs = TensorElement.zero(spec)
        for gm, c in witt_act(x, fpoly).terms.items():
            rhs = rhs + c * act_mono(spec, gm, v)
        if lhs != rhs:
            raise _Fail({
                "law": "mixed derivation-multiplication",
                "x": _print(x), "f": _print(fpoly), "v": _print(v),
                "commutator_route": _print(lhs),
                "derivative_route": _print(rhs)}, cases)
    return cases, None


# ---------------------------------------------------------------------------
# commutant_homomorphism

def _positive_keys(m, n, deg):
    out = []
    for key in _witt_keys(m, n, deg):
        (alpha, imask), _slot = key
        d = sum(alpha) + popcount(imask)
        if 1 <= d <= deg:
            out.append(key)
    return out


def check_commutant_homomorphism(p: CheckParams):
    spec = _spec(p)
    fault = tau_flipped if p.mode == "tau_flipped" else (lambda x: x)
    keys = _positive_keys(p.m, p.n, p.deg)
    wkeys = window_keys(spec, p.D)
    cases = 0
    for ku in keys:
        u = _key_elem(p.m, p.n, ku)
        XU = fault(commutant_element(p.m, p.n, ku[0][0], ku[0][1],
                                     ku[1])).to_word()
        pu = term_parity(ku[0], ku[1])
        for kv in keys:
            cases += 1
            v = _key_elem(p.m, p.n, kv)
            XV = fault(commutant_element(p.m, p.n, kv[0][0], kv[0][1],
                                         kv[1])).to_word()
            pv = term_parity(kv[0], kv[1])
            s = -1 if pu & pv else 1
            XB = fault(commutant_of_witt(witt_bracket(u, v))).to_word()
            for wk in wkeys:
                e = _pure(spec, wk)
                lhs = act_word(spec, XB, e)
                rhs = (act_word(spec, XU, act_word(spec, XV, e))
                       - s * act_word(spec, XV, act_word(spec, XU, e)))
                if lhs != rhs:
                    raise _Fail({
                        "u": _print(u), "v": _print(v), "on": _print(e),
                        "bracket_image": _print(lhs),
                        "supercommutator": _print(rhs)}, cases)
    return cases, None


# ---------------------------------------------------------------------------
# commutant_weyl_commute

def check_commutant_weyl_commute(p: CheckParams):
    spec = _spec(p)
    keys = _positive_keys(p.m, p.n, p.deg)
    atoms = _weyl_atoms(p.m, p.n)
    wkeys = window_keys(spec, p.D)
    cases = 0
    for ku in keys:
        X = commutant_element(p.m, p.n, ku[0][0], ku[0][1], ku[1])
        xw = X.to_word()
        px = X.parity()
        for atom in atoms:
            cases += 1
            s = -1 if px & atom_parity(atom) else 1
            for wk in wkeys:
                e = _pure(spec, wk)
                lhs = act_word(spec, xw, act_atom(spec, atom, e))
                rhs = s * act_atom(spec, atom, act_word(spec, xw, e))
                if lhs != rhs:
                    raise _Fail({
                        "dressed": _print(_key_elem(p.m, p.n, ku)),
                        "atom": str(atom), "on": _print(e),
                        "left": _print(lhs), "right": _print(rhs)}, cases)
    return cases, None


# ---------------------------------------------------------------------------
# gl_realization

def _gl_dictionary(m, n):
    """(row, col) -> degree-1 dressing parameters (alpha, imask, slot)."""
    out = {}
    for col in range(1, m + n + 1):
        slot = (TSLOT, col) if col <= m else (XSLOT, col - m)
        for row in range(1, m + 1):
            alpha = tuple(1 if q == row - 1 else 0 for q in range(m))
            out[(row, col)] = (alpha, 0, slot)
        for row in range(1, n + 1):
            out[(m + row, col)] = ((0,) * m, 1 << (row - 1), slot)
    return out


def check_gl_realization(p: CheckParams):
    spec = _spec(p)
    cases = 0
    for (row, col), (alpha, imask, slot) in sorted(_gl_dictionary(
            p.m, p.n).items()):
        word = commutant_element(p.m, p.n, alpha, imask, slot).to_word()
        mat = spec.rep.mats[(row, col)]
        for l in range(spec.dim):
            cases += 1
            got = act_word(spec, word, TensorElement.vacuum(spec, l))
            want = TensorElement.zero(spec)
            for r in range(spec.dim):
                if mat[r][l]:
                    want = want + TensorElement.vacuum(spec, r, mat[r][l])
            if got != want:
                raise _Fail({
                    "unit": "E %d %d" % (row, col),
                    "dressed": _print(_key_elem(
                        p.m, p.n, ((alpha, imask), slot))),
                    "on": _print(TensorElement.vacuum(spec, l)),
                    "got": _print(got), "want": _print(want)}, cases)
    # everything two steps into the filtration annihilates the vacuum
    for key in _witt_keys(p.m, p.n, 2):
        (alpha, imask), slot = key
        if sum(alpha) + popcount(imask) != 2:
            continue
        word = commutant_element(p.m, p.n, alpha, imask, slot).to_word()
        for l in range(spec.dim):
            cases += 1
            got = act_word(spec, word, TensorElement.vacuum(spec, l))
            if got:
                raise _Fail({
                    "dressed": _print(_key_elem(p.m, p.n, key)),
                    "on": _print(TensorElement.vacuum(spec, l)),
                    "got": _print(got), "want": "0"}, cases)
    return cases, None


# ---------------------------------------------------------------------------
# whittaker_dimension

def _whittaker_violation(spec, x):
    """The first Whittaker operator (d/dt_i - a_i, then d/dxi_j) that does
    not kill x, named as in a counterexample; None if all of them do.
    Applied directly, not through the kernel solve it checks."""
    for i in range(1, spec.m + 1):
        if lower_t(spec, i, x):
            return "dt%d - a%d" % (i, i)
    for j in range(1, spec.n + 1):
        if act_atom(spec, ("dx", j), x):
            return "dx%d" % j
    return None


def check_whittaker_dimension(p: CheckParams):
    spec = _spec(p)
    cases = 0
    dims = {}
    for D in (p.D, p.D + 1):
        basis = whittaker_space(spec, D)
        dims[D] = len(basis)
        cases += 1
        for x in basis:
            cases += 1
            bad = _whittaker_violation(spec, x)
            if bad:
                raise _Fail({"window": D, "element": _print(x),
                             "violates": bad}, cases)
    if dims[p.D] != spec.dim or dims[p.D + 1] != spec.dim:
        raise _Fail({"expected_dim": spec.dim,
                     "window_%d" % p.D: dims[p.D],
                     "window_%d" % (p.D + 1): dims[p.D + 1]}, cases)
    # generalized vectors up to the height bound: every odd layer times
    # t-degrees at most `height` in each coordinate
    gw = generalized_whittaker_space(spec, p.D, height_bound=p.height)
    cases += 1
    if p.height * p.m <= p.D:
        expected = ((p.height + 1) ** p.m) * (1 << p.n) * spec.dim
        if len(gw) != expected:
            raise _Fail({"generalized_height": p.height,
                         "expected": expected, "got": len(gw)}, cases)
    return cases, {"dims": {str(D): dims[D] for D in sorted(dims)},
                   "generalized_dim": len(gw)}


# ---------------------------------------------------------------------------
# descent_roundtrip

def check_descent_roundtrip(p: CheckParams):
    spec = _spec(p)
    if not spec.nonsingular:
        raise ConfigError("descent requires a nonsingular twist vector; "
                          "got a = (%s)" % ", ".join(str(x) for x in p.a))
    rewrite = pbw_basis_rewrite(spec, p.D)
    rng = random.Random(p.seed)
    cases = 0
    for t in range(p.trials):
        cases += 1
        x = _random_tensor(spec, rng, p.D, nterms=rng.randint(1, 4))
        y = descent(spec, x)
        bad = _whittaker_violation(spec, y)
        if bad:
            raise _Fail({"trial": t, "x": _print(x), "descended": _print(y),
                         "violates": bad}, cases)
        if descent(spec, y) != y:
            raise _Fail({"trial": t, "x": _print(x),
                         "error": "descent is not idempotent"}, cases)
        coords = rewrite.to_products(x)
        back = rewrite.from_products(coords)
        if back != x:
            raise _Fail({"trial": t, "x": _print(x),
                         "roundtrip": _print(back)}, cases)
    return cases, None


# ---------------------------------------------------------------------------
# weight_multiplicity

def _cartan(m, n, i):
    alpha = tuple(1 if q == i - 1 else 0 for q in range(m))
    return WittElement.term(m, n, alpha, 0, (TSLOT, i))


def check_weight_multiplicity(p: CheckParams):
    if p.m == 0:
        raise ConfigError("weight_multiplicity needs m >= 1: weights are "
                          "eigenvalues of the even Cartan operators "
                          "t_i dt_i, and there are none at m = 0")
    spec = _spec(p)
    expected = (1 << p.n) * spec.dim
    big = window_keys(spec, p.D)
    small = window_keys(spec, p.D - 1)
    hs = [_cartan(p.m, p.n, i) for i in range(1, p.m + 1)]
    cases = 0
    rng = random.Random(p.seed)
    for weight in product(range(-2, 3), repeat=p.m):
        cases += 1
        image = linalg.Echelon()
        for i, h in enumerate(hs):
            for key in small:
                img = act_witt(spec, h, _pure(spec, key)) \
                    - Fraction(weight[i]) * _pure(spec, key)
                image.insert(img.terms)
        quotient = len(big) - len(image.rows)
        if quotient != expected:
            raise _Fail({"weight": list(weight), "window": p.D,
                         "expected": expected, "got": quotient}, cases)
        # representative independence of the reduction map
        x = _random_tensor(spec, rng, max(p.D - 2, 0), nterms=2)
        y = _random_tensor(spec, rng, max(p.D - 2, 0), nterms=2)
        i = rng.randrange(p.m)
        shifted = x + act_witt(spec, hs[i], y) - Fraction(weight[i]) * y
        cases += 1
        if weight_reduce(spec, shifted, weight) != weight_reduce(
                spec, x, weight):
            raise _Fail({"weight": list(weight), "x": _print(x),
                         "y": _print(y),
                         "error": "reduction depends on the "
                                  "representative"}, cases)
    return cases, None


# ---------------------------------------------------------------------------
# difference_recurrence

def _slot_list(m, n):
    return [(TSLOT, i) for i in range(1, m + 1)] \
        + [(XSLOT, j) for j in range(1, n + 1)]


def _difference_sweep(m, n, deg):
    """Every (alpha, beta, I, J, j, s1, s2) with exponents in 0..deg, odd
    masks I and J, an even index j and two slots, in a fixed order."""
    slots = _slot_list(m, n)
    exps = list(product(range(deg + 1), repeat=m))
    return product(exps, exps, range(1 << n), range(1 << n),
                   range(1, m + 1), slots, slots)


def check_difference_recurrence(p: CheckParams):
    """The shift recurrence as an identity of formal sums.  act_word is
    linear (the module table tests check it), so the operator identity on
    any module follows and is not acted out here."""
    rmax = min(p.rmax, 4)
    cases = 0
    for alpha, beta, imask, jmask, j, s1, s2 in _difference_sweep(
            p.m, p.n, 1):
        aj = tuple(x + (1 if q == j - 1 else 0) for q, x in enumerate(alpha))
        bj = tuple(x + (1 if q == j - 1 else 0) for q, x in enumerate(beta))
        for r in range(rmax):
            cases += 1
            lhs = (difference_word(p.m, p.n, aj, beta, imask, jmask,
                                   r, j, s1, s2)
                   - difference_word(p.m, p.n, alpha, bj, imask, jmask,
                                     r, j, s1, s2))
            rhs = difference_word(p.m, p.n, alpha, beta, imask, jmask,
                                  r + 1, j, s1, s2)
            if lhs != rhs:
                raise _Fail({"route": "formal words",
                             "alpha": list(alpha), "beta": list(beta),
                             "I": imask, "J": jmask, "r": r, "j": j,
                             "lhs": _print(lhs), "rhs": _print(rhs)}, cases)
    return cases, None


# ---------------------------------------------------------------------------
# difference_annihilation

def _diff_label(alpha, beta, imask, jmask, j, s1, s2):
    def slot_name(s):
        return ("dt%d" if s[0] == TSLOT else "dx%d") % s[1]
    return "%s %s j=%d alpha=%s beta=%s I=%d J=%d" % (
        slot_name(s1), slot_name(s2), j,
        ",".join(str(x) for x in alpha), ",".join(str(x) for x in beta),
        imask, jmask)


def _annihilates_on_keys(spec, word, keys):
    for key in keys:
        if act_word(spec, word, _pure(spec, key)):
            return key
    return None


def check_difference_annihilation(p: CheckParams):
    rep = resolve_rep(p.rep, p.m, p.n)
    if not rep.has_weight_basis():
        raise ConfigError("difference annihilation needs a rep with a "
                          "weight basis (all Cartan matrices diagonal)")
    table = {}
    cases = 0
    if p.mode != "coset":  # "untwisted", the default route
        spec0 = ModuleSpec(p.m, p.n, (ZERO,) * p.m, rep)
        keys_lo = window_keys(spec0, p.D)
        keys_hi = window_keys(spec0, p.D + 1)
        for alpha, beta, imask, jmask, j, s1, s2 in _difference_sweep(
                p.m, p.n, p.deg):
            cases += 1
            label = _diff_label(alpha, beta, imask, jmask, j, s1, s2)
            found = None
            for r in range(p.rmax + 1):
                word = difference_word(p.m, p.n, alpha, beta, imask,
                                       jmask, r, j, s1, s2)
                bad = _annihilates_on_keys(spec0, word, keys_hi)
                if bad is None:
                    found = r
                    break
            if found is None:
                word = difference_word(p.m, p.n, alpha, beta, imask, jmask,
                                       p.rmax, j, s1, s2)
                bad = _annihilates_on_keys(spec0, word, keys_lo)
                witness = "none within the window" if bad is None else \
                    _print(act_word(spec0, word, _pure(spec0, bad)))
                raise _Fail({"word": label, "rmax": p.rmax,
                             "surviving_image": witness}, cases)
            # window stability: the same order must do on the smaller window
            for r in range(found):
                word = difference_word(p.m, p.n, alpha, beta, imask,
                                       jmask, r, j, s1, s2)
                if _annihilates_on_keys(spec0, word, keys_lo) is None:
                    raise _Fail({"word": label,
                                 "error": "minimal order %d not stable "
                                          "between windows" % found}, cases)
            table[label] = found
        return cases, {"minimal_r": table}
    spec = ModuleSpec(p.m, p.n, p.a, rep)
    if not spec.nonsingular:
        raise ConfigError("coset mode needs a nonsingular twist vector")
    units = unit_basis(spec)
    weights = list(product(range(-1, 2), repeat=p.m))
    for alpha, beta, imask, jmask, j, s1, s2 in _difference_sweep(
            p.m, p.n, min(p.deg, 1)):
        cases += 1
        label = _diff_label(alpha, beta, imask, jmask, j, s1, s2)
        found = None
        for r in range(p.rmax + 1):
            ok = True
            for weight in weights:
                for u in units:
                    coset = weight_reduce(spec, unit_vector(spec, *u),
                                          weight)
                    acc = None
                    for i in range(r + 1):
                        ai = tuple(x + (r - i if q == j - 1 else 0)
                                   for q, x in enumerate(alpha))
                        bi = tuple(x + (i if q == j - 1 else 0)
                                   for q, x in enumerate(beta))
                        g1 = WittElement.term(p.m, p.n, ai, imask, s1)
                        g2 = WittElement.term(p.m, p.n, bi, jmask, s2)
                        piece = weight_act(spec, g1,
                                           weight_act(spec, g2, coset))
                        c = Fraction((-1) ** i * comb(r, i))
                        vals = tuple(c * x for x in piece.coords)
                        acc = vals if acc is None else tuple(
                            u0 + v0 for u0, v0 in zip(acc, vals))
                    if acc and any(acc):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found = r
                break
        if found is None:
            raise _Fail({"word": label, "rmax": p.rmax,
                         "mode": "coset",
                         "error": "no annihilation order found"}, cases)
        table[label] = found
    return cases, {"minimal_r": table}


# ---------------------------------------------------------------------------
# simplicity_probe

def _probe(spec, gens, x, cap):
    span = TensorSpan()
    span.insert(x)
    vacuums = [TensorElement.vacuum(spec, l) for l in range(spec.dim)]
    frontier = [x]
    while frontier:
        if all(span.contains(v) for v in vacuums):
            return "covered", span
        new = []
        for f in frontier:
            for atom in gens:
                y = act_atom(spec, atom, f)
                if not y or y.tdegree() > cap:
                    continue
                if span.insert(y):
                    new.append(y)
        frontier = new
    if all(span.contains(v) for v in vacuums):
        return "covered", span
    return "stabilized", span


def _probe_generators(m, n, cap):
    """The atoms of the coefficient multiplications t_i, xi_j and of every
    basis derivation that can act within the degree cap: the module
    structure being probed is over the extended algebra, so both families
    belong to the generating set."""
    gens = [("mt", i) for i in range(1, m + 1)]
    gens += [("mx", j) for j in range(1, n + 1)]
    gens += [("w", alpha, imask, kind, idx)
             for (alpha, imask), (kind, idx) in _witt_keys(m, n, cap)]
    return gens


def check_simplicity_probe(p: CheckParams):
    spec = _spec(p)
    gens = _probe_generators(p.m, p.n, p.D)
    rng = random.Random(p.seed)
    seeds = [(l, TensorElement.vacuum(spec, l)) for l in range(spec.dim)]
    extra = max(0, min(p.trials, 10) - len(seeds))
    for t in range(extra):
        x = None
        while not x:  # a start whose terms cancel is drawn again
            x = _random_tensor(spec, rng, max(p.D - 2, 0),
                               nterms=rng.randint(1, 3))
        seeds.append(("random%d" % t, x))
    cases = 0
    evidence = None
    for tag, x in seeds:
        cases += 1
        outcome, span = _probe(spec, gens, x, p.D)
        if outcome == "stabilized":
            missing = [l for l in range(spec.dim)
                       if not span.contains(TensorElement.vacuum(spec, l))]
            if p.expect_reducible and missing:
                evidence = {"seed": str(tag), "span_dim": span.dim,
                            "missing_vacuum": "e%d" % (missing[0] + 1)}
            elif not p.expect_reducible:
                raise _Fail({"seed": str(tag), "start": _print(x),
                             "span_dim": span.dim,
                             "missing_vacuum":
                                 "e%d" % (missing[0] + 1) if missing
                                 else "none"}, cases)
    if p.expect_reducible:
        if evidence is None:
            raise _Fail({"error": "no invariant proper subspace found, "
                                  "module looks simple at this window"},
                        cases)
        return cases, {"reducibility_evidence": evidence}
    return cases, None


# ---------------------------------------------------------------------------
# registry and runner

# a check and the modes it implements besides "corrected"
Check = namedtuple("Check", "run modes")

REGISTRY = {
    "jacobi": Check(check_jacobi, ("mutated",)),
    "bracket_oracle": Check(check_bracket_oracle, ("verbatim",)),
    "weyl_relations": Check(check_weyl_relations, ()),
    "module_axioms": Check(check_module_axioms, ("mutated",)),
    "commutant_homomorphism": Check(check_commutant_homomorphism,
                                    ("tau_flipped",)),
    "commutant_weyl_commute": Check(check_commutant_weyl_commute, ()),
    "gl_realization": Check(check_gl_realization, ()),
    "whittaker_dimension": Check(check_whittaker_dimension, ()),
    "descent_roundtrip": Check(check_descent_roundtrip, ()),
    "weight_multiplicity": Check(check_weight_multiplicity, ()),
    "difference_recurrence": Check(check_difference_recurrence, ()),
    "difference_annihilation": Check(check_difference_annihilation,
                                     ("untwisted", "coset")),
    "simplicity_probe": Check(check_simplicity_probe, ()),
}


def run_check(check_id, merged) -> CheckReport:
    """Run one check.  An unknown check id, an unknown key or a bad
    parameter raises ConfigError, as on the command line; a ConfigError or
    TransitionSingular inside the check is a report with status error, and
    any other exception propagates.  A pass in a fault mode is a fail."""
    params = CheckParams.from_dict(check_id, merged)
    start = time.monotonic()
    try:
        cases, data = REGISTRY[check_id].run(params)
        if not cases:
            raise _Fail({"error": "no cases were examined"}, 0)
        if params.mode in CONTROL_MODES:
            raise _Fail({"error": "control mode %s was not detected"
                                  % params.mode}, cases)
        status, cex = "pass", None
    except _Fail as f:
        status, cases, cex, data = "fail", f.cases, f.cex, None
    except (ConfigError, TransitionSingular) as e:
        status, cases, cex, data = "error", 0, {"error": str(e)}, None
    elapsed = int((time.monotonic() - start) * 1000)
    return CheckReport(id=check_id, params=params.as_dict(), status=status,
                       cases=cases, elapsed_ms=elapsed, counterexample=cex,
                       data=data)
