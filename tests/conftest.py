"""Shared generators for randomized algebra tests.

All randomness is seeded; a failing case reproduces from the seed alone.
"""

import random
from fractions import Fraction

import pytest

from wittmod.config import resolve_rep
from wittmod.expressions import _convert, _one_seg, _seg_mono, _seg_witt
from wittmod.dressed import DressedWittElement
from wittmod.superpoly import (SuperPoly, accumulate, enumerate_monomials,
                               mask_indices, mask_of, merge_sign_masks,
                               mono_mul, popcount)
from wittmod.tensor_modules import (ModuleSpec, TensorElement, act_word,
                                    window_keys)
from wittmod.witt import ExtendedWittElement, WittElement, witt_basis
from wittmod.words import OperatorWord

COEFF_POOL = [Fraction(k) for k in (-3, -2, -1, 1, 2, 3, 5)] \
    + [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 3)]


def canonical(c) -> bool:
    """The package's one coefficient rule: an int, or a Fraction whose
    denominator is not 1; never a float, a bool or an integral Fraction."""
    return type(c) is int or type(c) is Fraction and c.denominator != 1


def rand_coeff(rng: random.Random) -> Fraction:
    return rng.choice(COEFF_POOL)


def rand_superpoly(rng, m, n, max_deg=3, nterms=3) -> SuperPoly:
    pool = enumerate_monomials(m, n, max_deg)
    out = SuperPoly.zero(m, n)
    for _ in range(nterms):
        mono = pool[rng.randrange(len(pool))]
        out = out + SuperPoly.monomial(m, n, mono[0], mono[1],
                                       rand_coeff(rng))
    return out


def witt_keys(m, n, max_deg):
    return [next(iter(el.terms)) for el in witt_basis(m, n, max_deg)]


def rand_witt(rng, m, n, max_deg=2, nterms=2) -> WittElement:
    keys = witt_keys(m, n, max_deg)
    out = WittElement.zero(m, n)
    for _ in range(nterms):
        (mono, slot) = keys[rng.randrange(len(keys))]
        out = out + WittElement.term(m, n, mono[0], mono[1], slot,
                                     rand_coeff(rng))
    return out


def rand_tensor(spec, rng, max_deg=2, nterms=3) -> TensorElement:
    keys = window_keys(spec, max_deg)
    out = TensorElement.zero(spec)
    for _ in range(nterms):
        mono, l = keys[rng.randrange(len(keys))]
        out = out + TensorElement.pure(spec, mono, l, rand_coeff(rng))
    return out


def make_spec(m, n, a=None, rep="natural") -> ModuleSpec:
    if a is None:
        a = (Fraction(1),) * m
    return ModuleSpec(m, n, a, resolve_rep(rep, m, n))


def act_mono(spec, amono, x: TensorElement) -> TensorElement:
    """Multiply the coefficient part by a monomial on the left, through
    mono_mul: a reference apart from the module's mt and mx rows."""
    amono = (tuple(amono[0]), amono[1])
    out = TensorElement.zero(spec)
    for (mono, l), c in x.terms.items():
        prod = mono_mul(amono, mono)
        if prod:
            accumulate(out.terms, (prod[0], l), c * prod[1])
    return out


def act_on_poly(w, p: SuperPoly) -> SuperPoly:
    """A word acting on a polynomial: the algebra is the module with twist
    0 and the trivial rep, so it has no action of its own."""
    spec = make_spec(p.m, p.n, a=(0,) * p.m, rep="trivial")
    x = TensorElement(p.m, p.n, 1, {(mono, 0): c
                                    for mono, c in p.terms.items()})
    y = act_word(spec, w, x)
    return SuperPoly(p.m, p.n, {mono: c for (mono, _), c in y.terms.items()})


# references on the algebra, the abelian extension and words, read by
# tests alone

def merge_sign(I, J):
    """merge_sign_masks on index sequences: merge_sign((2,), (1,)) ==
    (-1, (1, 2))."""
    sign, union = merge_sign_masks(mask_of(I), mask_of(J))
    return sign, mask_indices(union)


def next_generator_sign(a: int, b: int):
    """A planted fault in merge_sign_masks: each generator of b walks past
    only the next generator of a, not every larger one.  It agrees with
    merge_sign_masks at n <= 2, so only three odd generators refute it."""
    if a & b:
        return 0, 0
    inversions = 0
    rest = b
    j = 0
    while rest:
        if rest & 1:
            inversions += popcount((a >> (j + 1)) & 1)
        rest >>= 1
        j += 1
    return (-1 if inversions & 1 else 1), a | b


def homogeneous_parts(x):
    """x split into (even, odd)."""
    ev, od = {}, {}
    for key, c in x.terms.items():
        (od if x.key_parity(key) else ev)[key] = c
    return x._like(ev), x._like(od)


def ext_from_witt(x: WittElement) -> ExtendedWittElement:
    """A derivation as an element of the extension."""
    return ExtendedWittElement(x.m, x.n, x.terms)


def dressed_from_witt(x: WittElement) -> DressedWittElement:
    """A derivation as a dressed element with the unit dressing."""
    unit = ((0,) * x.m, 0)
    return DressedWittElement(x.m, x.n, {(unit, key): c
                                         for key, c in x.terms.items()})


def ext_from_poly(a: SuperPoly) -> ExtendedWittElement:
    """A polynomial as the function part of the extension."""
    return ExtendedWittElement(a.m, a.n, {(mono, None): c
                                          for mono, c in a.terms.items()})


def ext_der(u: ExtendedWittElement) -> WittElement:
    """The derivation part of an extension element."""
    return WittElement(u.m, u.n, {k: c for k, c in u.terms.items() if k[1]})


def ext_fun(u: ExtendedWittElement) -> SuperPoly:
    """The function part of an extension element."""
    return SuperPoly(u.m, u.n, {k[0]: c for k, c in u.terms.items()
                                if not k[1]})


def as_extended(terms, m, n) -> ExtendedWittElement:
    """Parsed terms as an extension element: a segment ending in a slot is
    a derivation term; any other segment (or a bare number) is a monomial
    of the function part."""
    def read(segs, eidx):
        seg = _one_seg(segs, "an extension term is a single segment")
        if seg and seg[-1][0] in ("dt", "dx"):
            return _seg_witt(seg, m, n)
        hit = _seg_mono(seg, m, n)
        return hit and ((hit[0], None), hit[1])
    return _convert(terms, ExtendedWittElement(m, n), "an extension element",
                    read)


def compose(u: OperatorWord, v: OperatorWord) -> OperatorWord:
    """The composition uv: words concatenated, coefficients multiplied."""
    u._check(v)
    acc = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            accumulate(acc, w1 + w2, c1 * c2)
    return u._like(acc)


def word_commutator(u: OperatorWord, v: OperatorWord) -> OperatorWord:
    """Supercommutator uv - (-1)^{|u||v|}vu, split over homogeneous parts."""
    u._check(v)
    out = OperatorWord(u.m, u.n)
    for uh in homogeneous_parts(u):
        if not uh:
            continue
        for vh in homogeneous_parts(v):
            if not vh:
                continue
            sign = -1 if uh.parity() * vh.parity() & 1 else 1
            out = out + compose(uh, vh) - sign * compose(vh, uh)
    return out


@pytest.fixture
def spec11() -> ModuleSpec:
    return make_spec(1, 1)


@pytest.fixture
def spec21() -> ModuleSpec:
    return make_spec(2, 1, a=(Fraction(1), Fraction(-1, 2)))
