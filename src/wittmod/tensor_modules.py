"""Twisted tensor modules: polynomial coefficients tensored with a
finite-dimensional representation of the block matrix superalgebra.

A module is fixed by ModuleSpec(m, n, a, rep): a is the twist vector (the
derivative d/dt_i acts on the coefficient algebra as d/dt_i + a_i), rep
the matrix representation supplying the finite tensor factor.

A basis derivation f d acts on a pure tensor p (x) v in two parts: the
coefficient action f d(p), twisted by a_i f p when d = d/dt_i, and one
first-order loop over the generators g_r of the algebra adding
(df/dg_r) p (x) E(r, col) v with a Koszul sign, col being d's generator.
The loop is the |k| = 1 term of the Taylor sum over all jets.  Both live
in _derivation_row, which gives the image of one pure tensor; each spec
memoises the image of every operator atom, so act_term, act_witt,
act_atom and act_word are loops over memoised rows and are the one
action path.  Everything else (Whittaker solves, descent, weight
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
from .superpoly import (ONE, LinComb, accumulate, as_fractions,
                        enumerate_monomials, exact, mono_mul,
                        mono_parity, mono_partial_t, mono_partial_xi,
                        mono_sort_key, mono_tdeg, popcount)
from .witt import TSLOT, WittElement, _act_basis, slot_parity
from .words import OperatorWord


class TransitionSingular(RuntimeError):
    """A product h^s u_j is not its top key plus lower t-degrees."""


class ModuleSpec:
    """Shape of a twisted tensor module."""

    __slots__ = ("m", "n", "a", "rep", "_pbw_cache", "_act_cache")

    def __init__(self, m: int, n: int, a, rep: Rep):
        if (rep.m, rep.n) != (m, n):
            raise ValueError("representation block shape != (m, n)")
        a = tuple(exact(x) for x in a)
        if len(a) != m:
            raise ValueError("twist vector length != m")
        self.m = m
        self.n = n
        self.a = a
        self.rep = rep
        self._pbw_cache = {}  # (s, (kmask, l)) -> h^s u, see _pbw_column
        self._act_cache = {}  # atom -> {tensor key: row}, see _act

    @property
    def dim(self):
        return self.rep.dim

    @property
    def nonsingular(self) -> bool:
        return all(self.a)

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
            out.terms[(mono, vindex)] = exact(coeff)
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
    """One basis derivation f d on one pure tensor p (x) e_l, d the
    derivative in generator col (t_1..t_m, then xi_1..xi_n):
    (1) the coefficient action f d(p), plus a_i f p when d = d/dt_i;
    (2) for each generator g_r with df/dg_r != 0, the first-order term
        (df/dg_r) p (x) E(r, col) e_l, signed (-1)^{(|g_r| + |d|)|p|}
        and, for odd g_r, also (-1)^{|f| - 1}."""
    _, alpha, imask, kind, idx = atom
    p, l = key
    m = spec.m
    f = (alpha, imask)
    out = {}
    hit = _act_basis((f, (kind, idx)), p)
    if hit:
        out[(hit[0], l)] = hit[1]
    if kind == TSLOT and spec.a[idx - 1]:
        prod = mono_mul(f, p)
        if prod:
            accumulate(out, (prod[0], l), spec.a[idx - 1] * prod[1])
    dpar = slot_parity((kind, idx))
    col = idx + m * dpar
    pp = mono_parity(p)
    for r in range(1, m + spec.n + 1):
        odd = r > m
        hit = mono_partial_xi(f, r - m) if odd else mono_partial_t(f, r)
        if not hit:
            continue
        prod = mono_mul(hit[0], p)
        if not prod:
            continue
        flip = (odd + dpar) * pp + odd * (popcount(imask) - 1)
        base = (-1 if flip & 1 else 1) * hit[1] * prod[1]
        for (row, c), v in spec.rep.mats[(r, col)].items():
            if c == l:
                accumulate(out, (prod[0], row), base * v)
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


def _word(spec, w: OperatorWord, terms, out=None, scale=1):
    """act_word on a raw terms dict, through _act: adds scale * w(terms)
    into out (a new dict by default) and returns out."""
    if out is None:
        out = {}
    for word, c in w.terms.items():
        c = (c.numerator if c.denominator == 1 else c) * scale
        if not word:
            for key, v in terms.items():
                accumulate(out, key, c * v)
            continue
        y = terms
        for atom in reversed(word[1:]):
            if not y:
                break
            y = _act(spec, atom, y)
        if y:  # the word's coefficient scales its last (leftmost) atom
            _act(spec, word[0], y, out, c)
    return out


def act_word(spec, w: OperatorWord, x: TensorElement) -> TensorElement:
    """Words act right to left; the empty word is the identity."""
    _check_shapes(spec, w, x)
    return _element(spec, _word(spec, w, x.terms))


def _lower(i, terms):
    """lower_t on a raw terms dict: the plain d/dt_i on the coefficients,
    in ints where the values are.  It is injective on keys, so nothing
    is summed."""
    out = {}
    for (p, l), c in terms.items():
        hit = mono_partial_t(p, i)
        if hit:
            out[(hit[0], l)] = c * hit[1]
    return out


def lower_t(spec, i, x: TensorElement) -> TensorElement:
    """(d/dt_i - a_i) on the module = plain d/dt_i on the coefficients."""
    return _element(spec, _lower(i, x.terms))


# ---------------------------------------------------------------------------
# windows and exact solves

def window_keys(spec, max_deg):
    return [(mono, l) for mono in enumerate_monomials(spec.m, spec.n, max_deg)
            for l in range(spec.dim)]


def _kernel_of_ops(spec, ops, max_deg):
    """Exact joint kernel of linear operators on the degree window: one
    unit vector {key: 1} per window key that every op sends to zero, in
    window key order.

    ops: callables raw terms dict -> raw terms dict, read on {key: 1}.
    Each op (d/dt_i on the coefficients, its powers, d/dxi_j) sends a
    window key to 0 or to a nonzero multiple of one key, and never two
    keys to the same key.  So the images of the keys an op moves are
    linearly independent, a combination lies in its kernel only if its
    coefficient at each moved key is 0, and the joint kernel is spanned
    by the keys that every op kills.
    """
    return [_element(spec, {key: 1}) for key in window_keys(spec, max_deg)
            if not any(op({key: 1}) for op in ops)]


def whittaker_space(spec, max_deg):
    """Basis of the joint kernel of (d/dt_i - a_i) and d/dxi_j on the
    degree window."""
    ops = [lambda t, i=i: _lower(i, t) for i in range(1, spec.m + 1)]
    ops += [lambda t, j=j: _act(spec, ("dx", j), t)
            for j in range(1, spec.n + 1)]
    return _kernel_of_ops(spec, ops, max_deg)


class LeavesWhittaker(ValueError):
    """args (w, col, image): words[w] maps basis[col] to image, not in wh."""


def whittaker_functor(spec, max_deg, words):
    """(basis, mats): basis = whittaker_space(spec, max_deg), and mats
    yields each word's sparse matrix on it in Rep.mats format, each made
    when read, so a caller meets failures in word order.  Each basis
    vector is one window key, so an image's values at those keys are its
    coordinates; an image holding any other key raises LeavesWhittaker."""
    basis = whittaker_space(spec, max_deg)
    row_of = {key: row for row, x in enumerate(basis) for key in x.terms}

    def matrix(w, word):
        mat = {}
        for col, x in enumerate(basis):
            image = act_word(spec, word, x)
            if image.terms.keys() - row_of.keys():
                raise LeavesWhittaker(w, col, image)
            mat.update(sorted(((row_of[key], col), c)
                              for key, c in image.terms.items()))
        return mat
    return basis, (matrix(w, word) for w, word in enumerate(words))


def generalized_whittaker_space(spec, max_deg, height_bound=0):
    """Joint kernel of (d/dt_i - a_i)^(height_bound+1), no xi condition."""

    def power_op(t, i):
        for _ in range(height_bound + 1):
            t = _lower(i, t)
        return t
    return _kernel_of_ops(spec, [lambda t, i=i: power_op(t, i)
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
    xi-monomial (x) module basis.  It is triangular: window key
    ((s, kmask), l) is the top key of column (s, (kmask, l))."""

    __slots__ = ("spec", "keys")

    def __init__(self, spec, keys):
        self.spec = spec
        self.keys = keys

    def to_products(self, x: TensorElement):
        """Coordinates of x in the h^s u_j basis as {(s, (kmask, l)): c},
        by back-substitution from the last window key down."""
        rest = dict(x.terms)
        coords = []
        for key in reversed(self.keys):
            if key in rest:
                (s, kmask), l = key
                column = _pbw_column(self.spec, (s, (kmask, l)))
                q = rest[key] / column.terms[key]
                coords.append(((s, (kmask, l)), q))
                for okey, f in column.terms.items():
                    accumulate(rest, okey, -q * f)
        if rest:  # no window column reaches these keys
            raise ValueError("element leaves the rewrite window")
        return dict(reversed(coords))

    def from_products(self, coords) -> TensorElement:
        out = {}
        for col, c in coords.items():
            for key, f in _pbw_column(self.spec, col).terms.items():
                accumulate(out, key, c * f)
        terms = {key: out.pop(key) for key in self.keys if key in out}
        if out:
            raise ValueError("coordinates leave the rewrite window")
        return _element(self.spec, terms)


def _pbw_column(spec, col) -> TensorElement:
    """h^s u_j for col = (s, (kmask, l)), memoised on the spec: h_i applied
    to h^(s - e_i) u_j, i the last index with s_i > 0.  h_i acts as a_i t_i
    plus terms that keep the t-degree, so the degree-|s| part must be the
    top key ((s, kmask), l) alone, else TransitionSingular."""
    vec = spec._pbw_cache.get(col)
    if vec is None:
        s, (kmask, l) = col
        i = max((i for i, si in enumerate(s, start=1) if si), default=0)
        if i:
            h = tuple(int(q == i) for q in range(1, spec.m + 1))  # t_i dt_i
            prev = tuple(si - hi for si, hi in zip(s, h))
            vec = act_term(spec, h, 0, (TSLOT, i),
                           _pbw_column(spec, (prev, (kmask, l))))
        else:
            vec = TensorElement.pure(spec, (s, kmask), l)
        top = ((s, kmask), l)
        if top not in vec.terms or any(mono_tdeg(key[0]) >= sum(s)
                                       and key != top for key in vec.terms):
            raise TransitionSingular("product %r is not triangular" % (col,))
        spec._pbw_cache[col] = vec
    return vec


def unit_basis(spec):
    """(kmask, l) labels for the xi (x) module basis, ascending."""
    return [(kmask, l) for kmask in range(1 << spec.n)
            for l in range(spec.dim)]


def pbw_basis_rewrite(spec, max_deg) -> PbwRewrite:
    """The product-basis rewrite on the window of t-degree <= max_deg.
    Needs every a_i nonzero: the diagonal of the transition is a^s."""
    if not spec.nonsingular:
        raise ValueError("product basis needs a nonsingular twist vector")
    return PbwRewrite(spec, window_keys(spec, max_deg))


def weight_reduce(spec, x: TensorElement, weight) -> TensorElement:
    """The coset of x modulo the weight ideal (h - weight)(A (x) V), as its
    representative sum_j c_j u_j on the unit basis: rewrite in the product
    basis and evaluate each Cartan polynomial at the weight."""
    weight = tuple(exact(w) for w in weight)
    if len(weight) != spec.m:
        raise ValueError("weight length != m")
    rewrite = pbw_basis_rewrite(spec, max(x.tdegree(), 0))
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
        return x._like(as_fractions(self.echelon.reduce(x.terms)))

    def insert(self, x: TensorElement) -> bool:
        """Add to the span; True if the dimension grew."""
        return self.echelon.insert(x.terms)

    def contains(self, x: TensorElement) -> bool:
        return not self.echelon.reduce(x.terms)

    @property
    def dim(self):
        return len(self.echelon.rows)
