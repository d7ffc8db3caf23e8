"""Twisted tensor modules: polynomial coefficients tensored with a
finite-dimensional representation of the block matrix superalgebra.

A module is fixed by ModuleSpec(m, n, a, rep): a is the twist vector (the
derivative d/dt_i acts on the coefficient algebra as d/dt_i + a_i), rep
the matrix representation supplying the finite tensor factor.

The derivation action on a pure tensor p (x) v splits into three pieces:
the twisted action on p, a sum over even matrix units weighted by the
exponents of the coefficient monomial, and a sign-weighted sum over odd
matrix units from the odd derivatives of the coefficient monomial.  All
formulas live in _derivation_row, which gives the image of one pure
tensor; each spec memoises the image of every operator atom, so act_term,
act_witt, act_atom and act_word are loops over memoised rows and are the
one action path.  Everything else (Whittaker solves, descent, weight
cosets) is built on top of them plus exact linear algebra.

The coefficient algebra itself is the module with twist a = 0 and the
trivial one-dimensional rep: d/dt_i is then the plain derivative, and the
zero matrices make a basis derivation act exactly as on the algebra.  It
has no separate action.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .glmn import Rep
from .superpoly import (ONE, ZERO, LinComb, accumulate, as_fractions,
                        enumerate_alphas, enumerate_monomials, mono_mul,
                        mono_parity, mono_partial_t, mono_partial_xi,
                        mono_sort_key, mono_tdeg, popcount)
from .witt import TSLOT, WittElement
from .words import OperatorWord


class TransitionSingular(RuntimeError):
    """The monomial-to-product-basis transition failed to invert."""


class ModuleSpec:
    """Shape of a twisted tensor module."""

    __slots__ = ("m", "n", "a", "rep", "_pbw_cache", "_act_cache")

    def __init__(self, m: int, n: int, a, rep: Rep):
        if (rep.m, rep.n) != (m, n):
            raise ValueError("representation block shape != (m, n)")
        a = tuple(Fraction(x) for x in a)
        if len(a) != m:
            raise ValueError("twist vector length != m")
        self.m = m
        self.n = n
        self.a = a
        self.rep = rep
        self._pbw_cache = {}
        self._act_cache = {}  # atom -> {tensor key: row}, see _act

    @property
    def dim(self):
        return self.rep.dim

    @property
    def nonsingular(self) -> bool:
        return all(self.a)

    def pbw(self, max_deg: int) -> "PbwRewrite":
        got = self._pbw_cache.get(max_deg)
        if got is None:
            got = pbw_basis_rewrite(self, max_deg)
            self._pbw_cache[max_deg] = got
        return got

    def __repr__(self):
        return "ModuleSpec(m=%d,n=%d,a=%s,rep=%r)" % (
            self.m, self.n, self.a, self.rep)


class TensorElement(LinComb):
    """Sparse element: dict ((alpha, imask), vindex) -> Fraction."""

    __slots__ = ("dim",)

    def __init__(self, m, n, dim, terms=None):
        self.dim = dim
        super().__init__(m, n, terms)

    @classmethod
    def zero(cls, spec):
        return cls(spec.m, spec.n, spec.dim)

    @classmethod
    def pure(cls, spec, mono, vindex, coeff=ONE):
        if not 0 <= vindex < spec.dim:
            raise ValueError("vector index out of range")
        mono = (tuple(mono[0]), mono[1])
        out = cls(spec.m, spec.n, spec.dim)
        if coeff:
            out.terms[(mono, vindex)] = Fraction(coeff)
        return out

    @classmethod
    def vacuum(cls, spec, vindex):
        """1 (x) e_vindex."""
        return cls.pure(spec, ((0,) * spec.m, 0), vindex)

    def _like(self, terms):
        out = LinComb._like(self, terms)
        out.dim = self.dim
        return out

    def _check(self, other):
        LinComb._check(self, other)
        if self.dim != other.dim:
            raise ValueError("shape mismatch: dim %d vs %d"
                             % (self.dim, other.dim))

    def __eq__(self, other):
        return LinComb.__eq__(self, other) and self.dim == other.dim

    def tdegree(self):
        return max((mono_tdeg(mono) for mono, _ in self.terms), default=-1)


def tensor_key_sort(key):
    mono, l = key
    return mono_sort_key(mono) + (l,)


# ---------------------------------------------------------------------------
# actions

def act_mono(spec, amono, x: TensorElement) -> TensorElement:
    """Multiply the coefficient part by a monomial on the left."""
    amono = (tuple(amono[0]), amono[1])
    out = TensorElement.zero(spec)
    for (mono, l), c in x.terms.items():
        prod = mono_mul(amono, mono)
        if prod:
            accumulate(out.terms, (prod[0], l), c * prod[1])
    return out


# Every operator atom acts through one memo per spec, spec._act_cache:
# atom -> {tensor key: row}, a row being the image of that one pure tensor
# as ((key, coefficient), ...) with integral coefficients stored as ints.
# An atom is ("w", alpha, imask, kind, idx) for a basis derivation, or
# ("mt", i), ("mx", j), ("dt", i), ("dx", j).  Rows are linear in the
# input, so an element acts term by term through them.

_ATOM_KINDS = frozenset(("w", "mt", "mx", "dt", "dx"))


def _row(terms):
    return tuple((key, c.numerator if c.denominator == 1 else c)
                 for key, c in terms.items())


def _derivation_row(spec, atom, key):
    """One basis derivation on one pure tensor p (x) e_l (the three-piece
    formula)."""
    _, alpha, imask, kind, idx = atom
    p, l = key
    m = spec.m
    out = {}
    gmono = (alpha, imask)
    pp = mono_parity(p)
    gam = 0 if kind == TSLOT else 1  # column parity
    col_even = idx if kind == TSLOT else m + idx
    # 1. twisted action on the coefficient factor
    if kind == TSLOT:
        hit = mono_partial_t(p, idx)
        if hit:
            prod = mono_mul(gmono, hit[0])
            if prod:
                accumulate(out, (prod[0], l), hit[1] * prod[1])
        ai = spec.a[idx - 1]
        if ai:
            prod = mono_mul(gmono, p)
            if prod:
                accumulate(out, (prod[0], l), ai * prod[1])
    else:
        hit = mono_partial_xi(p, idx)
        if hit:
            prod = mono_mul(gmono, hit[0])
            if prod:
                accumulate(out, (prod[0], l), hit[1] * prod[1])
    # 2. even matrix units weighted by the exponents, moved past p:
    #    the unit E_{k, col} has parity gam, hence (-1)^{gam |p|}
    s2 = -1 if (gam & pp) else 1
    for k in range(1, m + 1):
        ak = alpha[k - 1]
        if not ak:
            continue
        a2 = list(alpha)
        a2[k - 1] -= 1
        prod = mono_mul((tuple(a2), imask), p)
        if not prod:
            continue
        base = ak * prod[1] * s2
        for (r, c), f in spec.rep.mats[(k, col_even)].items():
            if c == l:
                accumulate(out, (prod[0], r), base * f)
    # 3. odd matrix units from odd derivatives of the monomial;
    #    E_{m+k, col} has parity 1+gam, hence (-1)^{(1+gam)|p|}, times
    #    (-1)^{|I|-1}
    if imask:
        s3 = -1 if (popcount(imask) - 1 + ((1 ^ gam) & pp)) & 1 else 1
        for k in range(1, spec.n + 1):
            hitg = mono_partial_xi(gmono, k)
            if not hitg:
                continue
            prod = mono_mul(hitg[0], p)
            if not prod:
                continue
            base = s3 * hitg[1] * prod[1]
            for (r, c), f in spec.rep.mats[(m + k, col_even)].items():
                if c == l:
                    accumulate(out, (prod[0], r), base * f)
    return _row(out)


def _atom_row(spec, atom, key):
    kind = atom[0]
    if kind == "w":
        return _derivation_row(spec, atom, key)
    p, l = key
    i = atom[1]
    if kind == "dx":
        hit = mono_partial_xi(p, i)
        return (((hit[0], l), hit[1]),) if hit else ()
    if kind == "dt":
        # twisted: d/dt_i + a_i
        hit = mono_partial_t(p, i)
        out = {(hit[0], l): hit[1]} if hit else {}
        if spec.a[i - 1]:
            out[key] = spec.a[i - 1]
        return _row(out)
    if kind == "mt":
        amono = (tuple(1 if k == i - 1 else 0 for k in range(spec.m)), 0)
    else:
        amono = ((0,) * spec.m, 1 << (i - 1))
    prod = mono_mul(amono, p)
    return (((prod[0], l), prod[1]),) if prod else ()


def _act(spec, atom, terms, out=None, scale=None):
    """Add scale * (atom applied to a raw terms dict) into out (a new dict
    by default) and return out.  Integral values are summed as ints, and
    _element makes them Fractions again."""
    rows = spec._act_cache.get(atom)
    if rows is None:
        if atom[0] not in _ATOM_KINDS:
            raise ValueError("unknown atom %r" % (atom,))
        rows = spec._act_cache[atom] = {}
    if out is None:
        out = {}
    if scale is not None and scale.denominator == 1:
        scale = scale.numerator
    for key, c in terms.items():
        row = rows.get(key)
        if row is None:
            row = rows[key] = _atom_row(spec, atom, key)
        if c.denominator == 1:
            c = c.numerator
        if scale is not None:
            c = c * scale
        for okey, f in row:
            c0 = out.get(okey, 0) + c * f
            if c0:
                out[okey] = c0
            else:
                del out[okey]
    return out


def _element(spec, terms) -> TensorElement:
    out = TensorElement.zero(spec)
    out.terms = as_fractions(terms)
    return out


def _check_shapes(spec, w, x):
    if ((w.m, w.n) != (spec.m, spec.n)
            or (x.m, x.n, x.dim) != (spec.m, spec.n, spec.dim)):
        raise ValueError("shape mismatch")


def act_term(spec, alpha, imask, slot, x: TensorElement) -> TensorElement:
    """One basis derivation on the module."""
    return _element(spec, _act(spec, ("w", tuple(alpha), imask) + tuple(slot),
                               x.terms))


def act_witt(spec, w: WittElement, x: TensorElement) -> TensorElement:
    _check_shapes(spec, w, x)
    out = {}
    for ((alpha, imask), (kind, idx)), c in w.terms.items():
        _act(spec, ("w", alpha, imask, kind, idx), x.terms, out, c)
    return _element(spec, out)


def act_atom(spec, atom, x: TensorElement) -> TensorElement:
    return _element(spec, _act(spec, atom, x.terms))


def act_word(spec, w: OperatorWord, x: TensorElement) -> TensorElement:
    """Words act right to left; the empty word is the identity."""
    _check_shapes(spec, w, x)
    out = {}
    for word, c in w.terms.items():
        if not word:
            for key, v in x.terms.items():
                accumulate(out, key, c * v)
            continue
        y = x.terms
        for atom in reversed(word[1:]):
            if not y:
                break
            y = _act(spec, atom, y)
        if y:  # the word's coefficient scales its last (leftmost) atom
            _act(spec, word[0], y, out, c)
    return _element(spec, out)


def lower_t(spec, i, x: TensorElement) -> TensorElement:
    """(d/dt_i - a_i) on the module = plain d/dt_i on the coefficients."""
    out = TensorElement.zero(spec)
    for (p, l), c in x.terms.items():
        hit = mono_partial_t(p, i)
        if hit:
            accumulate(out.terms, (hit[0], l), c * hit[1])
    return out


# ---------------------------------------------------------------------------
# windows and exact solves

def window_keys(spec, max_deg):
    return [(mono, l) for mono in enumerate_monomials(spec.m, spec.n, max_deg)
            for l in range(spec.dim)]


def _kernel_of_ops(spec, ops, max_deg):
    """Exact joint kernel of linear operators on the degree window.

    ops: callables TensorElement -> TensorElement.  Output support may
    leave the window; every output coordinate of an op becomes one
    equation {window key index: coefficient}.  The kernel is read off in
    window key order, one basis vector per free key.
    """
    keys = window_keys(spec, max_deg)
    ech = linalg.Echelon()
    for op in ops:
        eqs = {}
        for k, (mono, l) in enumerate(keys):
            for okey, c in op(TensorElement.pure(spec, mono, l)).terms.items():
                eqs.setdefault(okey, {})[k] = c
        for eq in eqs.values():
            ech.insert(eq)
    return [TensorElement(spec.m, spec.n, spec.dim,
                          {keys[k]: c for k, c in vec.items()})
            for vec in ech.kernel(range(len(keys)))]


def whittaker_space(spec, max_deg):
    """Basis of the joint kernel of (d/dt_i - a_i) and d/dxi_j on the
    degree window."""
    ops = [lambda x, i=i: lower_t(spec, i, x) for i in range(1, spec.m + 1)]
    ops += [lambda x, j=j: act_atom(spec, ("dx", j), x)
            for j in range(1, spec.n + 1)]
    return _kernel_of_ops(spec, ops, max_deg)


class LeavesWhittaker(ValueError):
    """args (w, col, image): words[w] maps basis[col] to image, not in wh."""


def matrix_column(spec, basis, mat, col) -> TensorElement:
    """Column col of a sparse matrix {(row, col): c} on basis, summed."""
    return sum((c * basis[r] for (r, k), c in mat.items() if k == col),
               TensorElement.zero(spec))


def whittaker_functor(spec, max_deg, words):
    """(basis, mats): basis = whittaker_space(spec, max_deg), and mats
    yields each word's sparse matrix on it in Rep.mats format, each made
    when read, so a caller meets failures in word order.  A basis vector
    is 1 at its free key (its last in window order) and 0 at the
    others', so an image's values there are its coordinates; an image
    that is not their sum raises LeavesWhittaker."""
    index = {key: k for k, key in enumerate(window_keys(spec, max_deg))}
    basis = whittaker_space(spec, max_deg)
    free = [max(x.terms, key=index.get) for x in basis]

    def matrix(w, word):
        mat = {}
        for col, x in enumerate(basis):
            image = act_word(spec, word, x)
            mat.update(((row, col), image.terms[key])
                       for row, key in enumerate(free) if key in image.terms)
            if image != matrix_column(spec, basis, mat, col):
                raise LeavesWhittaker(w, col, image)
        return mat
    return basis, (matrix(w, word) for w, word in enumerate(words))


def generalized_whittaker_space(spec, max_deg, height_bound=0):
    """Joint kernel of (d/dt_i - a_i)^(height_bound+1), no xi condition."""

    def power_op(x, i):
        for _ in range(height_bound + 1):
            x = lower_t(spec, i, x)
        return x
    return _kernel_of_ops(spec, [lambda x, i=i: power_op(x, i)
                                 for i in range(1, spec.m + 1)], max_deg)


def descent(spec, x: TensorElement) -> TensorElement:
    """Project onto the Whittaker space.

    First the odd corrections y -> y - xi_j (d/dxi_j y), then for each
    even index the telescoping sum_k (-1)^k/k! t_i^k (d/dt_i - a_i)^k y up
    to the height.  Linear on any degree window, fixes Whittaker vectors,
    idempotent.
    """
    y = x
    for j in range(1, spec.n + 1):
        dy = act_atom(spec, ("dx", j), y)
        if dy:
            y = y - act_atom(spec, ("mx", j), dy)
    for i in range(1, spec.m + 1):
        if not y:
            break
        acc = TensorElement.zero(spec)
        term = y
        k = 0
        fact = Fraction(1)
        while term:
            piece = term
            for _ in range(k):
                piece = act_atom(spec, ("mt", i), piece)
            sign = -1 if k & 1 else 1
            acc = acc + (sign * fact) * piece
            k += 1
            fact = fact / k
            term = lower_t(spec, i, term)
        y = acc
    return y


# ---------------------------------------------------------------------------
# product-basis rewriting and weight cosets

class PbwRewrite:
    """Transition between the monomial basis of a degree window and the
    products h^s u_j, where h_i = t_i d/dt_i and u_j runs over the
    xi-monomial (x) module basis."""

    __slots__ = ("spec", "keys", "key_index", "cols", "matrix", "inverse")

    def __init__(self, spec, keys, cols, matrix, inverse):
        self.spec = spec
        self.keys = keys
        self.key_index = {key: k for k, key in enumerate(keys)}
        self.cols = cols
        self.matrix = matrix
        self.inverse = inverse

    def to_products(self, x: TensorElement):
        """Coordinates of x in the h^s u_j basis as {(s, (kmask, l)): c}."""
        if not self.key_index.keys() >= x.terms.keys():
            raise ValueError("element leaves the rewrite window")
        return _apply(self.inverse, self.key_index, x.terms, self.cols)

    def from_products(self, coords) -> TensorElement:
        pos = {col: k for k, col in enumerate(self.cols)}
        return _element(self.spec, _apply(self.matrix, pos, coords, self.keys))


def _apply(matrix, index, vec, labels):
    """A dense matrix times the vector {index[key]: c for key, c in vec},
    one column per entry, as {labels[row]: value}, nonzero rows ascending."""
    acc = {}
    for key, c in vec.items():
        k = index[key]
        for r, row in enumerate(matrix):
            if row[k]:
                acc[r] = acc.get(r, ZERO) + row[k] * c
    return {labels[r]: acc[r] for r in sorted(acc) if acc[r]}


def unit_basis(spec):
    """(kmask, l) labels for the xi (x) module basis, ascending."""
    return [(kmask, l) for kmask in range(1 << spec.n)
            for l in range(spec.dim)]


def pbw_basis_rewrite(spec, max_deg) -> PbwRewrite:
    """Expand every h^s u_j (|s| <= max_deg) in monomial coordinates and
    invert the square transition matrix.  Needs every a_i nonzero."""
    if not spec.nonsingular:
        raise ValueError("product basis needs a nonsingular twist vector")
    keys = window_keys(spec, max_deg)
    units = unit_basis(spec)
    cols = [(s, u) for s in enumerate_alphas(spec.m, max_deg) for u in units]
    key_index = {key: k for k, key in enumerate(keys)}
    matrix = [[ZERO] * len(cols) for _ in keys]
    for col, (s, (kmask, l)) in enumerate(cols):
        vec = TensorElement.pure(spec, ((0,) * spec.m, kmask), l)
        for i, si in enumerate(s, start=1):
            h = tuple(int(q == i) for q in range(1, spec.m + 1))  # t_i dt_i
            for _ in range(si):
                vec = act_term(spec, h, 0, (TSLOT, i), vec)
        for key, c in vec.terms.items():
            k = key_index.get(key)
            if k is None:
                raise TransitionSingular("product vector leaves the window")
            matrix[k][col] = c
    if len(cols) != len(keys):
        raise TransitionSingular("window and product count disagree")
    inverse = linalg.invert(matrix)
    if inverse is None:
        raise TransitionSingular("transition matrix is singular")
    return PbwRewrite(spec, keys, cols, matrix, inverse)


def weight_reduce(spec, x: TensorElement, weight) -> TensorElement:
    """The coset of x modulo the weight ideal (h - weight)(A (x) V), as its
    representative sum_j c_j u_j on the unit basis: rewrite in the product
    basis and evaluate each Cartan polynomial at the weight."""
    weight = tuple(Fraction(w) for w in weight)
    if len(weight) != spec.m:
        raise ValueError("weight length != m")
    rewrite = spec.pbw(max(x.tdegree(), 0))
    zero = (0,) * spec.m
    out = {}
    for (s, (kmask, l)), c in rewrite.to_products(x).items():
        for wi, si in zip(weight, s):
            c *= wi ** si
        accumulate(out, ((zero, kmask), l), c)
    return _element(spec, out)


# ---------------------------------------------------------------------------

class TensorSpan:
    """Exact echelonized span of tensor elements, incremental."""

    __slots__ = ("echelon",)

    def __init__(self):
        self.echelon = linalg.Echelon(tensor_key_sort)

    def reduce(self, x: TensorElement) -> TensorElement:
        return x._like(self.echelon.reduce(x.terms))

    def insert(self, x: TensorElement) -> bool:
        """Add to the span; True if the dimension grew."""
        return self.echelon.insert(x.terms)

    def contains(self, x: TensorElement) -> bool:
        return not self.echelon.reduce(x.terms)

    @property
    def dim(self):
        return len(self.echelon.rows)
