"""Window-scale certification of the library's identities.

Every check is deterministic given its parameters (the seed is a
parameter) and is a generator: it yields the number of cases it has just
examined, raises _Fail with a self-contained counterexample rendered in
the CLI expression grammar, or returns its data.  run_check alone adds
the cases up; a failure counts every case yielded before it.

Negative controls are faults built here, never switches in the code they
check.  A check that passes in a fault mode (CONTROL_MODES) fails; rmax=0
annihilation and the non-simple direct-sum probe (expect_reducible) fail
on their own.  The test suite asserts that every control fails.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from itertools import chain, product, zip_longest
from math import prod
from weakref import ref

from . import linalg, witt
from .config import CHECKS, CheckParams, ConfigError, resolve_rep
from .dressed import (DressedWittElement, _dressed_bracket_basis,
                      _dressed_tables, commutant_element, commutant_of_witt,
                      dressed_basis, dressed_bracket)
from .expressions import print_expr
from .glmn import Rep, trivial_rep
from .superpoly import (SuperPoly, accumulate, divide, enumerate_monomials,
                        mono_mul, mono_parity, popcount)
from .tensor_modules import (LeavesWhittaker, ModuleSpec, TensorElement,
                             TensorSpan, TransitionSingular, _act, _element,
                             _lower, _word, act_atom, act_witt,
                             act_word, descent, generalized_whittaker_space,
                             pbw_basis_rewrite, weight_reduce,
                             whittaker_functor, whittaker_space, window_keys)
from .witt import (TSLOT, ExtendedWittElement, WittElement,
                   _bracket_basis, _extended_bracket_basis,
                   bracket_oracle, extended_basis, extended_bracket,
                   slot_list, term_parity, witt_act, witt_basis,
                   witt_bracket)
from .words import OperatorWord, atom_parity, difference_word, \
    make_watom, mono_atoms, weyl_normal_order


class CheckReport:
    """One check's verdict: status "pass", "fail" or "error", the cases
    examined, the time taken, and a counterexample or data if any."""

    __slots__ = ("id", "params", "status", "cases", "elapsed_ms",
                 "counterexample", "data")

    def __init__(self, id, params, status, cases, elapsed_ms=0,
                 counterexample=None, data=None):
        self.id, self.params, self.status = id, params, status
        self.cases, self.elapsed_ms = cases, elapsed_ms
        self.counterexample, self.data = counterexample, data

    @property
    def ok(self):
        return self.status == "pass"

    def as_dict(self):
        # key order is part of the contract: documents are compared byte-wise
        out = {"id": self.id, "params": self.params, "status": self.status,
               "cases": self.cases, "elapsed_ms": self.elapsed_ms}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.data is not None:
            out["data"] = self.data
        return out


class _Fail(Exception):
    """Internal: carries a counterexample dict out of a sweep."""

    def __init__(self, cex):
        self.cex = cex
        super().__init__("check failed")


def _spec(p: CheckParams) -> ModuleSpec:
    return ModuleSpec(p.m, p.n, p.a, resolve_rep(p.rep, p.m, p.n))


def _nonsingular(spec: ModuleSpec, what) -> ModuleSpec:
    """spec, else a ConfigError: what reads the product basis or the
    weight ideal, which need every twist entry nonzero."""
    if not spec.nonsingular:
        raise ConfigError("%s requires a nonsingular twist vector; got "
                          "a = (%s)" % (what, ", ".join(map(str, spec.a))))
    return spec


# ---------------------------------------------------------------------------
# negative controls: the fault modes and the faults they plant

CONTROL_MODES = ("verbatim", "mutated", "tau_flipped")


def odd_rows_negated(spec: ModuleSpec) -> ModuleSpec:
    """spec with every odd-row matrix unit E(i,j), i > m, negated: of
    the module action only the first-order terms of _derivation_row from
    an odd generator, (df/dxi_k) p (x) E(m+k, col) e_l, read them, so
    those terms change sign."""
    rep = spec.rep
    mats = {ij: {rc: -f for rc, f in mat.items()} if ij[0] > spec.m
            else mat for ij, mat in rep.mats.items()}
    return ModuleSpec(spec.m, spec.n, spec.a,
                      Rep(rep.m, rep.n, rep.dim, rep.parities, mats))


def tau_flipped(x: DressedWittElement) -> DressedWittElement:
    """Each term (t^b xi_J).(t^c xi_K d) re-signed by (-1)^{|J||K|}, which
    turns the Koszul sign of J, K into that of K, J; a key fixes its term."""
    return DressedWittElement(x.m, x.n, {
        key: -c if popcount(key[0][1]) * popcount(key[1][0][1]) & 1 else c
        for key, c in x.terms.items()})


def _key_elem(m, n, key):
    (mono, slot) = key
    return WittElement.term(m, n, mono[0], mono[1], slot)


def _show_atom(m, n, atom):
    """An operator atom in the expression grammar, as t1 or x1*dt1."""
    return print_expr(OperatorWord.from_word(m, n, (atom,)))


def _show(spec, terms):
    """A raw terms dict of the module, printed."""
    return print_expr(_element(spec, terms))


def _random_coeff(rng):
    num = rng.choice([-3, -2, -1, 1, 2, 3, 5])
    den = rng.choice([1, 1, 2, 3])
    return divide(num, den)


def _random_tensor(spec, rng, max_deg, nterms=3):
    keys = window_keys(spec, max_deg)
    terms = {}
    for _ in range(nterms):
        accumulate(terms, keys[rng.randrange(len(keys))], _random_coeff(rng))
    return _element(spec, terms)


# ---------------------------------------------------------------------------
# jacobi

def _witt_keys(m, n, deg, basis=witt_basis):
    """The key of each element of a basis, the derivations' by default."""
    return [key for el in basis(m, n, deg) for key in el.terms]


class _Row(dict):
    """Row i of a _PairMemo; a missing j is computed from the kernel.  It
    holds its memo weakly: a cycle would outlive the check."""

    __slots__ = ("memo", "i")

    def __init__(self, memo, i):
        super().__init__()
        self.memo, self.i = ref(memo), i

    def __missing__(self, j):
        self.memo().fill(self.i, (j,))
        return self[j]


class _PairMemo(list):
    """Brackets of basis pairs at one level, each computed on first use.

    Keys are interned to small ints, the basis first and in its order,
    each with a row by int id: memo[i][j] is the bracket of interned[i]
    and interned[j] as a tuple of (key id, coefficient), filled on a miss
    or by fill.  Structure constants are integers, so the coefficients
    are ints and a sweep over the memo builds no element.
    Equal (key id, coefficient) pairs are stored once: most brackets
    repeat a few of them, and the memo's size is a sweep's peak memory."""

    def __init__(self, basis, pair):
        super().__init__()
        self.interned, self.ids = [], {}
        self.pair = pair
        self.shared = {}
        for key in basis:
            self._intern(key)

    def _intern(self, key):
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.interned)
            self.interned.append(key)
            self.append(_Row(self, i))
        return i

    def fill(self, i, js):
        """Row i's entries for the ids in js it lacks, in one loop."""
        row, keys, pair = self[i], self.interned, self.pair
        left, intern, shared = keys[i], self._intern, self.shared
        for j in js:
            if j in row:
                continue
            terms = pair(left, keys[j])
            if not terms:  # about half the pairs
                row[j] = ()
                continue
            if len(terms) > 1:  # most nonzero pairs have one term: no sum
                acc = {}
                for key, c in terms:
                    c0 = acc.get(key, 0) + c
                    if c0:
                        acc[key] = c0
                    else:
                        del acc[key]
                terms = acc.items()
            # interned once summed: a key whose terms cancel takes no id,
            # so the ids follow the public bracket's terms
            out = []
            for key, c in terms:
                if c:
                    t = (intern(key), c)
                    out.append(shared.setdefault(t, t))
            row[j] = tuple(out)


def _support(memo, size):
    """The ids outside the basis in the basis-pair brackets, ascending."""
    basis = range(size)
    return sorted({k for row in memo[:size] for j in basis
                   for k, _ in row[j] if k >= size})


def _jacobi_sweep(level, memo, parity, batches, render, extra=None):
    """[x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]], expanded by
    bilinearity through the memo, for each batch (y, z, xs) of basis ids:
    the defects of every x in xs at once, keyed l*size + x, read through
    columns (the x in xs with [x, k] != 0), so the work follows the
    nonzero products.  For xs = range(last + 1) (ordered and sorted
    batches) a column is built once over the basis and cut after last;
    other xs (sampled singletons) build their own.  A passing batch yields
    len(xs); a failing batch yields the triples up to its first failing
    x, then raises.  render maps a terms dict to the expression grammar;
    extra ends a counterexample."""
    size = len(parity)
    basis_rows = memo[:size]
    whole, columns, current = {}, {}, None

    def column(k):  # reads the loop's xs and cut
        col = columns.get(k)
        if col is None:
            if cut is None:
                col = [(x, r) for x in xs if (r := memo[x][k])]
            else:
                col = whole.get(k)
                if col is None:
                    col = whole[k] = [(x, r) for x, row in
                                      enumerate(basis_rows) if (r := row[k])]
                if cut < size:  # the entries with x < cut
                    col = col[:bisect_left(col, (cut,))]
            columns[k] = col
        return col

    for y, z, xs in batches:
        if xs != current:
            columns, current = {}, xs
            cut = len(xs) if xs == range(len(xs)) else None
        rowy, out = memo[y], {}
        for k, c in rowy[z]:                # [x,[y,z]]
            for x, row in column(k):
                for l, c2 in row:
                    key = l * size + x
                    out[key] = out.get(key, 0) + c * c2
        for x, row in column(y):            # -[[x,y],z]
            for k, c in row:
                for l, c2 in memo[k][z]:
                    key = l * size + x
                    out[key] = out.get(key, 0) - c * c2
        py = parity[y]
        for x, row in column(z):            # -(-1)^{xy}[y,[x,z]]
            s = 1 if parity[x] & py else -1
            for k, c in row:
                for l, c2 in rowy[k]:
                    key = l * size + x
                    out[key] = out.get(key, 0) + s * c * c2
        if not any(out.values()):
            yield len(xs)
            continue
        x = min(key % size for key, c in out.items() if c)
        ids = memo.interned
        yield xs.index(x) + 1
        raise _Fail({"level": level, "x": render({ids[x]: 1}),
                     "y": render({ids[y]: 1}),
                     "z": render({ids[z]: 1}),
                     "defect": render({ids[key // size]: c
                                       for key, c in out.items()
                                       if c and key % size == x}),
                     **(extra or {})})


def _antisymmetric(memo, size, support, key_parity):
    """Whether [b, a] = -(-1)^{|a||b|} [a, b] through the memo for every
    basis id b and every a in the basis or in support, the _support of
    the basis-pair brackets (the pairs an ordered sweep reads), and every
    basis-pair bracket is homogeneous of parity |a| + |b|.  A row lists
    each key once, so rows of different lengths differ; one-term rows are
    compared directly, longer ones as dicts."""
    basis = range(size)
    parity = [key_parity(key) for key in memo.interned]
    for i in basis:
        row, pi = memo[i], parity[i]
        for j in basis:
            pij = pi ^ parity[j]
            for k, _ in row[j]:
                if parity[k] != pij:
                    return False
    for b in basis:
        rb, pb = memo[b], parity[b]
        for a in chain(range(b, size), support):
            s = 1 if parity[a] & pb else -1
            ab, ba = memo[a][b], rb[a]
            if len(ab) != len(ba):
                return False
            if len(ab) == 1:
                (k, c), = ab
                if ba[0] != (k, s * c):
                    return False
            elif ab and dict(ba) != {k: s * c for k, c in ab}:
                return False
    return True


def _sorted_route(level, memo, parity, key_parity, render):
    """Whether the level passes on every ordered basis triple, certified
    on the sorted triples x <= y <= z alone: the bracket is
    super-antisymmetric on the pairs the sweep reads, so the Jacobiator
    is super-alternating and each ordered triple's defect is, up to sign,
    its sorted permutation's.  The memo is filled first, row by row:
    basis by basis, then support by basis and basis by support.  False
    names no triple."""
    size = len(parity)
    basis = range(size)
    for i in basis:
        memo.fill(i, basis)
    support = _support(memo, size)
    for k in support:
        memo.fill(k, basis)
    for i in basis:
        memo.fill(i, support)
    if not _antisymmetric(memo, size, support, key_parity):
        return False
    batches = ((y, z, range(y + 1)) for y in basis
               for z in range(y, size))
    try:
        for _ in _jacobi_sweep(level, memo, parity, batches, render):
            pass
    except _Fail:
        return False
    return True


def _memo_agrees(level, memo, basis, bracket, unit, render, draw):
    """The level's public bracket against the memo's bilinear expansion on
    one pair of random elements, 2 or 3 basis terms each: the memo is
    filled from the kernel, and this keeps the bracket users call under
    the verdict.  A mismatch fails with both sides; no case is added."""
    keys, ids = memo.interned, memo.ids
    x, y = (unit({key: _random_coeff(draw) for key in draw.sample(
        basis, min(len(basis), draw.choice((2, 3))))}) for _ in range(2))
    got = bracket(x, y)
    want = x._bilinear(y, lambda k1, k2: [
        (keys[k], c) for k, c in memo[ids[k1]][ids[k2]]])
    if got.terms != want.terms:
        raise _Fail({"level": level, "x": render(x.terms),
                     "y": render(y.terms), "bracket": render(got.terms),
                     "memo": render(want.terms)})


def check_jacobi(p: CheckParams):
    """The derivation table exhaustively; the extension and the dressed
    product exhaustively up to 300000 triples, else a seeded sample.
    An exhaustive level is first certified on the sorted route
    (_sorted_route: super-antisymmetry plus the sorted triples) and then
    yields its size**3 ordered triples as cases.  Else it runs every
    ordered triple in (y, z, x) order, one (y, z) batch at a time, which
    names the first failing triple and its case count.  Sampled triples
    are singleton batches.  Each level's memo is filled from that level's
    basis-pair kernel: _bracket_basis, _extended_bracket_basis, and
    _dressed_bracket_basis over tables built for the check
    (_dressed_tables).  A level that passes then compares its public
    bracket (witt_bracket, extended_bracket, dressed_bracket) with the
    memo on one pair of random elements seeded by seed + 2
    (_memo_agrees)."""
    m, n = p.m, p.n
    exdeg = min(p.deg, 2)
    tables = _dressed_tables(m, True)
    # a key's parts passed as they are: star-unpacking took about a
    # quarter of each table call
    levels = [
        ("derivation table", WittElement, _witt_keys(m, n, p.deg),
         lambda k1, k2: _bracket_basis(m, k1[0], k1[1], k2[0], k2[1]),
         witt_bracket),
        ("abelian extension", ExtendedWittElement,
         _witt_keys(m, n, exdeg, extended_basis),
         lambda k1, k2: _extended_bracket_basis(m, k1, k2),
         extended_bracket),
        ("dressed product", DressedWittElement,
         _witt_keys(m, n, exdeg, dressed_basis),
         lambda k1, k2: _dressed_bracket_basis(tables, k1, k2),
         dressed_bracket),
    ]
    draw = random.Random(p.seed + 2)
    for level, cls, basis, kernel, bracket in levels:
        memo = _PairMemo(basis, kernel)
        size = len(basis)

        def render(terms, cls=cls):
            return print_expr(cls(m, n, terms))

        extra = {}
        if cls is WittElement and p.mode == "mutated":
            rng = random.Random(p.seed)
            candidates = [(i, j) for i in range(size) for j in range(size)
                          if memo[i][j]]
            if not candidates:
                raise ConfigError(
                    "jacobi mode mutated needs a nonzero basis-pair "
                    "bracket to negate; m=%d, n=%d, deg=%d has none"
                    % (m, n, p.deg))
            i, j = candidates[rng.randrange(len(candidates))]
            memo[i][j] = tuple((k, -c) for k, c in memo[i][j])
            extra["mutated_pair"] = "[%s, %s]" % (
                render({basis[i]: 1}), render({basis[j]: 1}))
        parity = [cls.key_parity(k) for k in basis]
        exhaustive = cls is WittElement or size ** 3 <= 300000
        if exhaustive and _sorted_route(level, memo, parity, cls.key_parity,
                                        render):
            yield size ** 3
        else:
            if exhaustive:
                xs = range(size)
                batches = ((y, z, xs) for y in xs for z in xs)
            else:
                rng = random.Random(p.seed + 1)
                batches = [(y, z, (x,)) for x, y, z in (
                    [rng.randrange(size) for _ in range(3)]
                    for _ in range(max(p.trials, 500)))]
            yield from _jacobi_sweep(level, memo, parity, batches, render,
                                     extra)
        _memo_agrees(level, memo, basis, bracket, cls(m, n)._like, render,
                     draw)


# ---------------------------------------------------------------------------
# bracket_oracle

def check_bracket_oracle(p: CheckParams):
    """Table and oracle kernels on every pair of basis keys, read through
    witt like the two public brackets, which render a failing pair.  Two
    lists equal as they are or once sorted agree; only others are summed
    key by key, so a table that splits a coefficient still passes."""
    m, n, mode = p.m, p.n, p.mode
    keys = _witt_keys(m, n, p.deg)
    table, tables = witt._bracket_basis, witt._oracle_tables(m, n)
    corrected = mode == "corrected"
    for k1, k2 in product(keys, keys):
        yield 1
        (mono1, slot1), (mono2, slot2) = k1, k2
        got = table(m, mono1, slot1, mono2, slot2, corrected)
        want = witt._oracle_basis(tables, k1, k2)
        if got == want or sorted(got) == sorted(want):
            continue
        defect = {}
        for key, c in got:
            defect[key] = defect.get(key, 0) + c
        for key, c in want:
            defect[key] = defect.get(key, 0) - c
        if any(defect.values()):
            x, y = _key_elem(m, n, k1), _key_elem(m, n, k2)
            raise _Fail({
                "x": print_expr(x), "y": print_expr(y), "mode": mode,
                "table": print_expr(witt_bracket(x, y, mode=mode)),
                "oracle": print_expr(bracket_oracle(x, y)),
            })


# ---------------------------------------------------------------------------
# weyl_relations

def _weyl_atoms(m, n):
    atoms = [("mt", i) for i in range(1, m + 1)]
    atoms += [("mx", j) for j in range(1, n + 1)]
    atoms += [("dt", i) for i in range(1, m + 1)]
    atoms += [("dx", j) for j in range(1, n + 1)]
    return atoms


# the nonzero supercommutators of two Weyl atoms with one index: scalars
_PAIR_SIGNS = {("dt", "mt"): 1, ("mt", "dt"): -1, ("dx", "mx"): 1,
               ("mx", "dx"): 1}


def _as_poly(x: TensorElement) -> SuperPoly:
    """An element of the plain module as the polynomial it is."""
    return SuperPoly(x.m, x.n, {mono: c for (mono, _), c in x.terms.items()})


def check_weyl_relations(p: CheckParams):
    m, n = p.m, p.n
    atoms = _weyl_atoms(m, n)
    for u in atoms:
        for v in atoms:
            yield 1
            s = -1 if atom_parity(u) & atom_parity(v) else 1
            w = (OperatorWord.from_word(m, n, (u, v))
                 - s * OperatorWord.from_word(m, n, (v, u)))
            want = (_PAIR_SIGNS.get((u[0], v[0]), 0) if u[1] == v[1]
                    else 0) * OperatorWord.identity(m, n)
            got = weyl_normal_order(w)
            if got != weyl_normal_order(want):
                raise _Fail({"u": _show_atom(m, n, u),
                             "v": _show_atom(m, n, v),
                             "got": print_expr(got),
                             "want": print_expr(want)})
    # squares of odd atoms vanish
    for j in range(1, n + 1):
        for atom in (("mx", j), ("dx", j)):
            yield 1
            w = OperatorWord.from_word(m, n, (atom, atom))
            if weyl_normal_order(w):
                raise _Fail({"atom": _show_atom(m, n, atom),
                             "square": "nonzero"})
    # idempotence of normal ordering + action faithfulness, seeded; the
    # algebra acts as the untwisted trivial module
    plain = ModuleSpec(m, n, (0,) * m, trivial_rep(m, n))
    rng = random.Random(p.seed)
    mono_pool = enumerate_monomials(m, n, 3)
    for t in range(p.trials):
        yield 1
        length = rng.randint(1, 6)
        word = tuple(atoms[rng.randrange(len(atoms))] for _ in range(length))
        w = OperatorWord.from_word(m, n, word, _random_coeff(rng))
        if rng.random() < 0.5:
            word2 = tuple(atoms[rng.randrange(len(atoms))]
                          for _ in range(rng.randint(1, 4)))
            w = w + OperatorWord.from_word(m, n, word2, _random_coeff(rng))
        nf = weyl_normal_order(w)
        nf2 = weyl_normal_order(nf)
        if nf != nf2:
            raise _Fail({"trial": t, "word": print_expr(w),
                         "first": print_expr(nf),
                         "second": print_expr(nf2)})
        mono = mono_pool[rng.randrange(len(mono_pool))]
        v = TensorElement.pure(plain, mono, 0)
        got = act_word(plain, w, v)
        want = act_word(plain, nf, v)
        if got != want:
            raise _Fail({"trial": t, "word": print_expr(w),
                         "argument": print_expr(_as_poly(v)),
                         "direct": print_expr(_as_poly(got)),
                         "normal_ordered": print_expr(_as_poly(want))})


# ---------------------------------------------------------------------------
# module_axioms

def check_module_axioms(p: CheckParams):
    """The module laws over the extended algebra as raw images of the
    atom table (_act, _word), a monomial acting as its mono_atoms word:
    the bracket law on every (x, y, window key) triple, sampled past
    60,000; then on seeded trials coefficient associativity against
    mono_mul, and the mixed law [x, f] = x(f) against witt_act."""
    spec = _spec(p)
    if p.mode == "mutated":
        spec = odd_rows_negated(spec)

    def times(mono, terms, out=None, scale=1):
        word = OperatorWord.from_word(p.m, p.n, mono_atoms(mono))
        return _word(spec, word, terms, out, scale)

    keys = _witt_keys(p.m, p.n, p.deg)
    wkeys = window_keys(spec, p.D)
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
    brackets = {}  # (kx, ky) -> [(atom, c)] of [x, y]
    for kx, ky, wk in triples:
        yield 1
        b = brackets.get((kx, ky))
        if b is None:
            xy = witt_bracket(_key_elem(p.m, p.n, kx),
                              _key_elem(p.m, p.n, ky))
            b = brackets[kx, ky] = [(make_watom(k), c)
                                    for k, c in xy.terms.items()]
        s = -1 if (term_parity(kx[0], kx[1])
                   & term_parity(ky[0], ky[1])) else 1
        v = {wk: 1}
        lhs = {}
        for atom, c in b:
            _act(spec, atom, v, lhs, c)
        ax, ay = make_watom(kx), make_watom(ky)
        rhs = _act(spec, ax, _act(spec, ay, v))
        _act(spec, ay, _act(spec, ax, v), rhs, -s)
        if lhs != rhs:
            raise _Fail({
                "law": "bracket compatibility",
                "x": print_expr(_key_elem(p.m, p.n, kx)),
                "y": print_expr(_key_elem(p.m, p.n, ky)),
                "v": _show(spec, {wk: 1}), "bracket_route": _show(spec, lhs),
                "composition_route": _show(spec, rhs)})
    # coefficient algebra is associative on the module
    rng = random.Random(p.seed + 13)
    monos = enumerate_monomials(p.m, p.n, p.deg)
    for _ in range(p.trials):
        yield 1
        am = monos[rng.randrange(len(monos))]
        bm = monos[rng.randrange(len(monos))]
        v = {wkeys[rng.randrange(len(wkeys))]: 1}
        two_step = times(am, times(bm, v))
        hit = mono_mul(am, bm)
        one_step = times(hit[0], v, None, hit[1]) if hit else {}
        if two_step != one_step:
            raise _Fail({
                "law": "coefficient associativity",
                "p": print_expr(SuperPoly.monomial(p.m, p.n, am[0], am[1])),
                "q": print_expr(SuperPoly.monomial(p.m, p.n, bm[0], bm[1])),
                "v": _show(spec, v), "two_step": _show(spec, two_step),
                "one_step": _show(spec, one_step)})
    # mixed law: [derivation, multiplication] = multiplication by the
    # plain derivative of the coefficient
    for _ in range(p.trials):
        yield 1
        kx = keys[rng.randrange(len(keys))]
        fm = monos[rng.randrange(len(monos))]
        v = {wkeys[rng.randrange(len(wkeys))]: 1}
        x, ax = _key_elem(p.m, p.n, kx), make_watom(kx)
        fpoly = SuperPoly.monomial(p.m, p.n, fm[0], fm[1])
        s = -1 if (term_parity(kx[0], kx[1]) & mono_parity(fm)) else 1
        lhs = _act(spec, ax, times(fm, v))
        times(fm, _act(spec, ax, v), lhs, -s)
        rhs = {}
        for gm, c in witt_act(x, fpoly).terms.items():
            times(gm, v, rhs, c)
        if lhs != rhs:
            raise _Fail({
                "law": "mixed derivation-multiplication",
                "x": print_expr(x), "f": print_expr(fpoly),
                "v": _show(spec, v), "commutator_route": _show(spec, lhs),
                "derivative_route": _show(spec, rhs)})


# ---------------------------------------------------------------------------
# commutant_homomorphism

def _positive_keys(m, n, deg):
    return [key for key in _witt_keys(m, n, deg)
            if 1 <= sum(key[0][0]) + popcount(key[0][1]) <= deg]


def check_commutant_homomorphism(p: CheckParams):
    """X_[u,v] e = X_u X_v e - (-1)^{|u||v|} X_v X_u e for every pair of
    positive keys and window key e, compared as raw images.  Each X_k is
    built once, and X_k e once per e when first needed.  tau_flipped
    re-signs only the terms whose disjoint masks J and K = I \\ J both
    have odd size, which needs n >= 2: at n <= 1 it changes nothing, and
    the control fails only by run_check's rule for an undetected one."""
    spec = _spec(p)
    fault = tau_flipped if p.mode == "tau_flipped" else (lambda x: x)
    keys = _positive_keys(p.m, p.n, p.deg)
    wkeys = window_keys(spec, p.D)
    words = [fault(commutant_element(p.m, p.n, k[0][0], k[0][1],
                                     k[1])).to_word() for k in keys]
    images = {}  # (key index, window key) -> X_k e

    def image(k, wk):
        out = images.get((k, wk))
        if out is None:
            out = images[k, wk] = _word(spec, words[k], {wk: 1})
        return out
    for iu, ku in enumerate(keys):
        u = _key_elem(p.m, p.n, ku)
        pu = term_parity(ku[0], ku[1])
        for iv, kv in enumerate(keys):
            yield 1
            v = _key_elem(p.m, p.n, kv)
            s = -1 if pu & term_parity(kv[0], kv[1]) else 1
            XB = fault(commutant_of_witt(witt_bracket(u, v))).to_word()
            for wk in wkeys:
                lhs = _word(spec, XB, {wk: 1})
                rhs = _word(spec, words[iu], image(iv, wk))
                _word(spec, words[iv], image(iu, wk), rhs, -s)
                if lhs != rhs:
                    raise _Fail({
                        "u": print_expr(u), "v": print_expr(v),
                        "on": _show(spec, {wk: 1}),
                        "bracket_image": _show(spec, lhs),
                        "supercommutator": _show(spec, rhs)})


# ---------------------------------------------------------------------------
# commutant_weyl_commute

def check_commutant_weyl_commute(p: CheckParams):
    """Each positive key's commutant word X supercommutes with every Weyl
    atom on every window key e, compared as raw images; X e is made once."""
    spec = _spec(p)
    keys = _positive_keys(p.m, p.n, p.deg)
    atoms = _weyl_atoms(p.m, p.n)
    wkeys = window_keys(spec, p.D)
    for ku in keys:
        X = commutant_element(p.m, p.n, ku[0][0], ku[0][1], ku[1])
        xw = X.to_word()
        px = X.parity()
        images = [_word(spec, xw, {wk: 1}) for wk in wkeys]
        for atom in atoms:
            yield 1
            s = -1 if px & atom_parity(atom) else 1
            for wk, xe in zip(wkeys, images):
                lhs = _word(spec, xw, _act(spec, atom, {wk: 1}))
                rhs = _act(spec, atom, xe, None, s)
                if lhs != rhs:
                    raise _Fail({
                        "dressed": print_expr(_key_elem(p.m, p.n, ku)),
                        "atom": _show_atom(p.m, p.n, atom),
                        "on": _show(spec, {wk: 1}),
                        "left": _show(spec, lhs),
                        "right": _show(spec, rhs)})


# ---------------------------------------------------------------------------
# gl_realization

def check_gl_realization(p: CheckParams):
    """The action read off wh: the commutant element of t_row d_col or
    xi_(row-m) d_col acts as E(row, col), every degree-2 one as zero.
    One case per column; a failure names the first column that differs."""
    spec = _spec(p)
    units = {}  # (row, col) of each degree-1 key, None at degree 2
    for key in _positive_keys(p.m, p.n, 2):
        (alpha, imask), (kind, idx) = key
        units[key] = None if sum(alpha) + popcount(imask) == 2 else (
            alpha.index(1) + 1 if any(alpha) else p.m + imask.bit_length(),
            idx if kind == TSLOT else p.m + idx)
    keys = sorted(units, key=lambda k: (units[k] is None, units[k] or ()))
    wants = [spec.rep.mats.get(units[key], {}) for key in keys]
    words = (commutant_element(p.m, p.n, *k[0], k[1]).to_word() for k in keys)
    basis, mats = whittaker_functor(spec, p.D, words)

    def column(mat, col):  # of a sparse matrix, summed on the basis
        return sum((c * basis[r] for (r, k), c in mat.items() if k == col),
                   TensorElement.zero(spec))

    def fail(w, col, got):  # its cases: the columns up to col
        yield col + 1
        unit, want = units[keys[w]], column(wants[w], col)
        raise _Fail({**({"unit": "E %d %d" % unit} if unit else {}),
                     "dressed": print_expr(_key_elem(p.m, p.n, keys[w])),
                     "on": print_expr(basis[col]), "got": print_expr(got),
                     "want": print_expr(want)})
    try:
        for w, mat in enumerate(mats):
            diff = mat.items() ^ wants[w].items()
            if diff:
                col = min(k for (_, k), _ in diff)
                yield from fail(w, col, column(mat, col))
            yield len(basis)
    except LeavesWhittaker as e:
        yield from fail(*e.args)


# ---------------------------------------------------------------------------
# whittaker_dimension

def _whittaker_ops(spec):
    """The Whittaker operators as (name, op), op mapping a raw terms dict
    to one: d/dt_i - a_i, the plain d/dt_i on the coefficients (_lower),
    then d/dxi_j, the dx row; each named as in a counterexample."""
    ops = [("dt%d - a%d" % (i, i), lambda t, i=i: _lower(i, t))
           for i in range(1, spec.m + 1)]
    ops += [("dx%d" % j, lambda t, j=j: _act(spec, ("dx", j), t))
            for j in range(1, spec.n + 1)]
    return ops


def _kernel_mismatch(spec, closed, max_deg, ops):
    """The first closed-form vector and unit vector of the ops' joint
    kernel on the window that differ, printed (None past an end); None if
    the two agree key for key.  The kernel is the window keys that every
    op (raw terms dict -> raw terms dict) kills, in window order: each op
    maps a key to 0 or to a nonzero multiple of one key, never two keys
    to one (test_window_operators_are_injective_on_keys), so the images
    of the keys it moves are independent."""
    kernel = [_element(spec, {key: 1}) for key in window_keys(spec, max_deg)
              if not any(op({key: 1}) for op in ops)]
    for x, unit in zip_longest(closed, kernel):
        if x != unit:
            return {"closed_form": None if x is None else print_expr(x),
                    "kernel": None if unit is None else print_expr(unit)}
    return None


def check_whittaker_dimension(p: CheckParams):
    """The closed forms against the operators, key for key: wh at windows
    D and D + 1 against the joint kernel of the _whittaker_ops, and the
    generalized space against the kernel of the powers of _lower.  Then wh
    has dimension dim V at both windows, and the generalized space the
    count below."""
    spec = _spec(p)
    ops = [op for _, op in _whittaker_ops(spec)]
    dims = {}
    for D in (p.D, p.D + 1):
        basis = whittaker_space(spec, D)
        dims[D] = len(basis)
        yield 1 + len(basis)
        bad = _kernel_mismatch(spec, basis, D, ops)
        if bad:
            raise _Fail(dict({"window": D}, **bad))
    if dims[p.D] != spec.dim or dims[p.D + 1] != spec.dim:
        raise _Fail({"expected_dim": spec.dim,
                     "window_%d" % p.D: dims[p.D],
                     "window_%d" % (p.D + 1): dims[p.D + 1]})

    def power(t, i):
        for _ in range(p.height + 1):
            t = _lower(i, t)
        return t
    # generalized vectors up to the height bound: every odd layer times
    # t-degrees at most `height` in each coordinate
    gw = generalized_whittaker_space(spec, p.D, height_bound=p.height)
    yield 1
    bad = _kernel_mismatch(spec, gw, p.D, [lambda t, i=i: power(t, i)
                                           for i in range(1, spec.m + 1)])
    if bad:
        raise _Fail(dict({"generalized_height": p.height}, **bad))
    if p.height * p.m <= p.D:
        expected = ((p.height + 1) ** p.m) * (1 << p.n) * spec.dim
        if len(gw) != expected:
            raise _Fail({"generalized_height": p.height,
                         "expected": expected, "got": len(gw)})
    return {"dims": {str(D): dims[D] for D in sorted(dims)},
            "generalized_dim": len(gw)}


# ---------------------------------------------------------------------------
# descent_roundtrip

def check_descent_roundtrip(p: CheckParams):
    """descent lands in wh, checked by applying every Whittaker operator
    (_whittaker_ops) to its output, and weight_reduce at a weight
    w agrees with sum c w^s u_j over x = sum c h^s u_j (pbw_basis_rewrite;
    a product basis that is not triangular fails).  descent is a filter
    on keys, so it is idempotent whatever keys it keeps: a test of that
    could not fail, and none is made."""
    spec = _nonsingular(_spec(p), "descent")
    ops = _whittaker_ops(spec)
    rng, weights = random.Random(p.seed), random.Random(p.seed + 1)
    for t in range(p.trials):
        yield 1
        x = _random_tensor(spec, rng, p.D, nterms=rng.randint(1, 4))
        y = descent(spec, x)
        bad = next((name for name, op in ops if op(y.terms)), None)
        if bad:
            raise _Fail({"trial": t, "x": print_expr(x),
                         "descended": print_expr(y), "violates": bad})
        weight = [weights.randint(-2, 2) for _ in range(p.m)]
        try:
            coords = pbw_basis_rewrite(spec, p.D, x)
        except TransitionSingular as e:  # a fault in the product basis
            raise _Fail({"trial": t, "x": print_expr(x), "error": str(e)})
        products = {}
        for (s, (kmask, l)), c in coords.items():
            c *= prod(w ** si for w, si in zip(weight, s))
            accumulate(products, (((0,) * p.m, kmask), l), c)
        got, want = weight_reduce(spec, x, weight), _element(spec, products)
        if got != want:
            raise _Fail({"trial": t, "x": print_expr(x), "weight": weight,
                         "closed_form": print_expr(got),
                         "product_basis": print_expr(want)})


# ---------------------------------------------------------------------------
# weight_multiplicity

def _cartan(m, n, i):
    alpha = tuple(1 if q == i - 1 else 0 for q in range(m))
    return WittElement.term(m, n, alpha, 0, (TSLOT, i))


def check_weight_multiplicity(p: CheckParams):
    """At each weight w in [-2, 2]^m: window D modulo the image of the
    (h_i - w_i) on window D - 1 has 2^n * dim keys, and weight_reduce
    does not see a shift by that image.  At m = 1 the count cannot fail
    where h - w is injective on window D - 1, as for an h that acts as
    zero at w != 0: the quotient is then window D's top layer, 2^n * dim
    keys.  The shift test is what catches such a fault."""
    if p.m == 0:
        raise ConfigError("weight_multiplicity needs m >= 1: weights are "
                          "eigenvalues of the even Cartan operators "
                          "t_i dt_i, and there are none at m = 0")
    spec = _nonsingular(_spec(p), "weight_multiplicity")
    expected = (1 << p.n) * spec.dim
    big = window_keys(spec, p.D)
    small = window_keys(spec, p.D - 1)
    hs = [_cartan(p.m, p.n, i) for i in range(1, p.m + 1)]
    # each h_i is one basis term with coefficient 1
    atoms = [make_watom(key) for h in hs for key in h.terms]
    rng = random.Random(p.seed)
    for weight in product(range(-2, 3), repeat=p.m):
        yield 1
        # pivots on the t_i-raised keys (coefficient a_i): int rows
        image = linalg.Echelon(lambda k: (-sum(k[0][0]), k))
        for atom, w in zip(atoms, weight):
            for key in small:  # (h_i - w_i) on one window key, in ints
                image.insert(_act(spec, atom, {key: 1},
                                  {key: -w} if w else None))
        quotient = len(big) - len(image.rows)
        if quotient != expected:
            raise _Fail({"weight": list(weight), "window": p.D,
                         "expected": expected, "got": quotient})
        # representative independence of the reduction map
        x = _random_tensor(spec, rng, max(p.D - 2, 0), nterms=2)
        y = _random_tensor(spec, rng, max(p.D - 2, 0), nterms=2)
        i = rng.randrange(p.m)
        shifted = x + act_witt(spec, hs[i], y) - weight[i] * y
        yield 1
        if weight_reduce(spec, shifted, weight) != weight_reduce(
                spec, x, weight):
            raise _Fail({"weight": list(weight), "x": print_expr(x),
                         "y": print_expr(y),
                         "error": "reduction depends on the "
                                  "representative"})


# ---------------------------------------------------------------------------
# difference_recurrence

def _difference_sweep(m, n, deg):
    """Every (alpha, beta, I, J, j, s1, s2) with exponents in 0..deg, odd
    masks I and J, an even index j and two slots, in a fixed order."""
    slots = slot_list(m, n)
    exps = list(product(range(deg + 1), repeat=m))
    return product(exps, exps, range(1 << n), range(1 << n),
                   range(1, m + 1), slots, slots)


def check_difference_recurrence(p: CheckParams):
    """The shift recurrence as an identity of formal sums.  act_word is
    linear (the module table tests check it), so the operator identity on
    any module follows and is not acted out here."""
    rmax = min(p.rmax, 4)
    for alpha, beta, imask, jmask, j, s1, s2 in _difference_sweep(
            p.m, p.n, 1):
        aj = tuple(x + (1 if q == j - 1 else 0) for q, x in enumerate(alpha))
        bj = tuple(x + (1 if q == j - 1 else 0) for q, x in enumerate(beta))
        for r in range(rmax):
            yield 1
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
                             "lhs": print_expr(lhs),
                             "rhs": print_expr(rhs)})


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
        if _word(spec, word, {key: 1}):
            return key
    return None


def _diff_word(p, item, r):
    alpha, beta, imask, jmask, j, s1, s2 = item
    return difference_word(p.m, p.n, alpha, beta, imask, jmask, r, j, s1, s2)


def check_difference_annihilation(p: CheckParams):
    """The least r <= rmax whose difference word annihilates, for every
    sweep item.  The untwisted route tests raw images (_word) on each key
    of window D + 1 and asks the same r of window D; the coset route acts
    on the unit basis and reduces modulo the weight ideal at every weight
    in {-1, 0, 1}^m."""
    rep = resolve_rep(p.rep, p.m, p.n)
    if not rep.has_weight_basis():
        raise ConfigError("difference annihilation needs a rep with a "
                          "weight basis (all Cartan matrices diagonal)")
    if p.mode == "coset":
        spec = _nonsingular(ModuleSpec(p.m, p.n, p.a, rep), "coset mode")
        units = [_element(spec, {key: 1}) for key in window_keys(spec, 0)]
        weights = list(product(range(-1, 2), repeat=p.m))
        deg = min(p.deg, 1)

        def killed(item, r):
            # a basis derivation t^g xi_K d of Cartan shift
            # mu = g - (e_i if d = d/dt_i) maps (h - lambda)M into
            # (h - lambda - mu)M, so reducing the word's image once, at the
            # summed shift, is the composed action on cosets
            alpha, beta, _, _, j, s1, s2 = item
            shift = [a + b for a, b in zip(alpha, beta)]
            shift[j - 1] += r
            for kind, i in (s1, s2):
                if kind == TSLOT:
                    shift[i - 1] -= 1
            word = _diff_word(p, item, r)
            images = [act_word(spec, word, u) for u in units]
            return not any(
                weight_reduce(spec, y, [w + s for w, s in zip(lam, shift)])
                for lam in weights for y in images)

        def refute(item, found):
            if found is None:
                return {"rmax": p.rmax, "mode": "coset",
                        "error": "no annihilation order found"}
            return None
    else:  # "untwisted", the default route
        spec = ModuleSpec(p.m, p.n, (0,) * p.m, rep)
        keys_lo = window_keys(spec, p.D)
        keys_hi = window_keys(spec, p.D + 1)
        deg = p.deg

        def killed(item, r):
            return _annihilates_on_keys(spec, _diff_word(p, item, r),
                                        keys_hi) is None

        def refute(item, found):
            if found is None:
                word = _diff_word(p, item, p.rmax)
                bad = _annihilates_on_keys(spec, word, keys_lo)
                return {"rmax": p.rmax, "surviving_image":
                        "none within the window" if bad is None else
                        _show(spec, _word(spec, word, {bad: 1}))}
            # window stability: the same order must do on the smaller window
            for r in range(found):
                if _annihilates_on_keys(spec, _diff_word(p, item, r),
                                        keys_lo) is None:
                    return {"error": "minimal order %d not stable between "
                                     "windows" % found}
            return None
    table = {}
    for item in _difference_sweep(p.m, p.n, deg):
        yield 1
        label = _diff_label(*item)
        found = next((r for r in range(p.rmax + 1) if killed(item, r)), None)
        cex = refute(item, found)
        if cex:
            raise _Fail({"word": label, **cex})
        table[label] = found
    return {"minimal_r": table}


# ---------------------------------------------------------------------------
# simplicity_probe

def _probe(spec, gens, x, wh, cap):
    """x's orbit span under gens within the cap, and the indices of the
    vectors of wh it misses.  A span only grows, so after each insert that
    grows it only the vectors still missing are tested again; the probe
    returns when none is, that is when wh lies in the span."""
    span = TensorSpan()
    span.insert(x)
    missing = [l for l, v in enumerate(wh) if not span.contains(v)]
    frontier = [x]
    while frontier and missing:
        new = []
        for f in frontier:
            for atom in gens:
                y = act_atom(spec, atom, f)
                if not y or y.tdegree() > cap or not span.insert(y):
                    continue
                missing = [l for l in missing if not span.contains(wh[l])]
                if not missing:
                    return span, missing
                new.append(y)
        frontier = new
    return span, missing


def _probe_generators(m, n, cap):
    """The atoms of the coefficient multiplications t_i, xi_j and of every
    basis derivation that can act within the degree cap: the module
    structure being probed is over the extended algebra, so both families
    belong to the generating set."""
    gens = _weyl_atoms(m, n)[:m + n]  # the multiplications
    gens += [make_watom(key) for key in _witt_keys(m, n, cap)]
    return gens


def check_simplicity_probe(p: CheckParams):
    """Every vacuum, then random starts up to min(trials, 10) starts in
    all, must generate a span holding every vacuum 1 @ e_l.  The span
    grows breadth first under the generators, in their fixed order, within
    the degree cap D (which makes the capped closure depend on that
    order), and a start passes at the first insert after which every
    vacuum lies in the span.  A start whose span misses a vacuum is closed
    to the end of its breadth-first search, so its span_dim is that of the
    whole capped orbit and does not depend on where a passing start
    stops.  With expect_reducible a missing vacuum is the evidence sought,
    and the last such start is reported."""
    spec = _spec(p)
    gens = _probe_generators(p.m, p.n, p.D)
    rng = random.Random(p.seed)
    wh = whittaker_space(spec, p.D)  # the vacuums 1 @ e_l
    seeds = list(enumerate(wh))
    extra = max(0, min(p.trials, 10) - len(seeds))
    for t in range(extra):
        x = None
        while not x:  # a start whose terms cancel is drawn again
            x = _random_tensor(spec, rng, max(p.D - 2, 0),
                               nterms=rng.randint(1, 3))
        seeds.append(("random%d" % t, x))
    evidence = None
    for tag, x in seeds:
        yield 1
        span, missing = _probe(spec, gens, x, wh, p.D)
        if missing and p.expect_reducible:
            evidence = {"seed": str(tag), "span_dim": span.dim,
                        "missing_vacuum": "e%d" % (missing[0] + 1)}
        elif missing:
            raise _Fail({"seed": str(tag), "start": print_expr(x),
                         "span_dim": span.dim,
                         "missing_vacuum": "e%d" % (missing[0] + 1)})
    if p.expect_reducible:
        if evidence is None:
            raise _Fail({"error": "no invariant proper subspace found, "
                                  "module looks simple at this window"})
        return {"reducibility_evidence": evidence}


# ---------------------------------------------------------------------------
# registry and runner

# each id of config.CHECKS, in its order, to its function check_<id>
REGISTRY = {cid: globals()["check_" + cid] for cid in CHECKS}


def run_check(check_id, merged) -> CheckReport:
    """Run one check.  An unknown check id, an unknown key or a bad
    parameter raises ConfigError, as on the command line; a ConfigError
    inside the check is a report with status error, and any other
    exception propagates.  The check's yields are the one count of its
    cases: a fail counts every case yielded before the raise, the failing
    one included.  A return with no case, or a pass in a fault mode, is a
    fail."""
    params = CheckParams.from_dict(check_id, merged)
    start = time.monotonic()
    cases, cex, data = 0, None, None
    try:
        check = REGISTRY[check_id](params)
        while True:
            cases += next(check)
    except StopIteration as done:  # the check returned
        if not cases:
            cex = {"error": "no cases were examined"}
        elif params.mode in CONTROL_MODES:
            cex = {"error": "control mode %s was not detected" % params.mode}
        status, data = ("fail", None) if cex else ("pass", done.value)
    except _Fail as f:
        status, cex = "fail", f.cex
    except ConfigError as e:
        status, cases, cex = "error", 0, {"error": str(e)}
    elapsed = int((time.monotonic() - start) * 1000)
    return CheckReport(id=check_id, params=params.as_dict(), status=status,
                       cases=cases, elapsed_ms=elapsed, counterexample=cex,
                       data=data)
