"""Superderivations of the supercommutative algebra and their brackets.

A basis derivation is a monomial times a coordinate derivative, stored as
a key ((alpha, imask), slot) where slot is ('t', i) or ('x', j): the one
spelling of a basis derivation, which operator words carry whole in the
atom ('w', key), and check_key its one validator.  The parity of such a
term is |imask| for a t-slot and |imask|+1 for an x-slot.

witt_bracket computes the supercommutator from closed structure-constant
formulas.  Two of those formulas circulate with the factor t^(alpha+beta)
missing from their delta terms; mode="corrected" (default) includes the
factor and mode="verbatim" reproduces the uncorrected table.  The ground
truth either way is bracket_oracle, which expands bilinearly over basis
terms, composes their actions on the coordinate generators through the
monomial primitives and reads the result off those values -- the two
routes are compared mechanically by the verifier and must never be
collapsed into one.

Each bracket is LinComb._bilinear over one basis-pair kernel returning
(key, int) pairs (_bracket_basis, _oracle_basis, _extended_bracket_basis
and dressed._dressed_bracket_basis), so integral coefficients are summed
as ints.  The oracle and dressed kernels read lookup tables of their
sub-kernels (_oracle_tables, dressed._dressed_tables), built per bracket
call or per check and dropped with it: no table is module-level, so one
check never warms another.
"""

from __future__ import annotations

from functools import cache
from operator import add

from .superpoly import (
    LinComb,
    SuperPoly,
    check_mono,
    enumerate_monomials,
    exact,
    merge_sign_masks,
    mono_mul,
    mono_parity,
    mono_partial_t,
    mono_partial_xi,
    mono_sort_key,
)

TSLOT = "t"
XSLOT = "x"


def slot_parity(slot) -> int:
    return 0 if slot[0] == TSLOT else 1


def slot_list(m, n):
    """The slots d/dt_1 .. d/dt_m, then d/dxi_1 .. d/dxi_n."""
    return ([(TSLOT, i) for i in range(1, m + 1)]
            + [(XSLOT, j) for j in range(1, n + 1)])


def term_parity(mono, slot) -> int:
    return (mono_parity(mono) + slot_parity(slot)) & 1


def check_key(m, n, key):
    """ValueError unless key = (mono, (kind, idx)) is a basis derivation
    at shape (m, n): a monomial that check_mono accepts and a slot d/dt_idx
    or d/dxi_idx in range."""
    mono, (kind, idx) = key
    check_mono(m, n, mono)
    if kind == TSLOT and not 1 <= idx <= m:
        raise ValueError("d/dt index %d out of range" % idx)
    if kind == XSLOT and not 1 <= idx <= n:
        raise ValueError("d/dxi index %d out of range" % idx)
    if kind not in (TSLOT, XSLOT):
        raise ValueError("bad slot kind %r" % (kind,))


def term_sort_key(key):
    mono, slot = key
    return mono_sort_key(mono) + (slot_parity(slot), slot[1])


class WittElement(LinComb):
    """Exact linear combination of basis superderivations."""

    __slots__ = ()

    @staticmethod
    def key_parity(key) -> int:
        return term_parity(*key)

    @classmethod
    def term(cls, m, n, alpha, odd_mask, slot, coeff=1):
        key = ((tuple(alpha), odd_mask), tuple(slot))
        check_key(m, n, key)
        x = cls(m, n)
        if coeff:
            x.terms[key] = exact(coeff)
        return x


# ---------------------------------------------------------------------------
# structure constants

def _bracket_basis(m, mono1, slot1, mono2, slot2, corrected=True):
    """[basis term, basis term] as a list of (key, int coefficient); a
    key's slot is the slot argument itself."""
    alpha, imask = mono1
    beta, jmask = mono2
    k1, i = slot1
    k2, j = slot2

    f = 1
    if k1 == XSLOT and k2 == TSLOT:
        # [u,v] = -(-1)^{|u||v|} [v,u], |u| = |I| + 1, |v| = |J|: swap
        f = 1 if (imask.bit_count() + 1) * jmask.bit_count() & 1 else -1
        alpha, imask, i, beta, jmask, j = beta, jmask, j, alpha, imask, i
        k1, k2, slot1, slot2 = k2, k1, slot2, slot1

    out = []
    if k1 == TSLOT and k2 == TSLOT:
        bi, aj = beta[i - 1], alpha[j - 1]
        if imask & jmask or not (bi or aj):
            return out
        sign, union = merge_sign_masks(imask, jmask)
        g = list(map(add, alpha, beta))
        if bi:
            g[i - 1] -= 1
            out.append((((tuple(g), union), slot2), sign * bi))
            g[i - 1] += 1
        if aj:
            g[j - 1] -= 1
            out.append((((tuple(g), union), slot1), -sign * aj))
        return out

    if k1 == TSLOT and k2 == XSLOT:
        bi = beta[i - 1]
        if bi and not imask & jmask:
            sign, union = merge_sign_masks(imask, jmask)
            g = list(map(add, alpha, beta))
            g[i - 1] -= 1
            out.append((((tuple(g), union), slot2), f * sign * bi))
        bit = 1 << (j - 1)
        rest = imask & ~bit
        if imask & bit and not jmask & rest:
            # -(-1)^{|I|(|J|-1)} (-1)^{pos}
            s0 = (1 if (imask.bit_count() * (jmask.bit_count() - 1)
                        + (imask & (bit - 1)).bit_count()) & 1 else -1)
            msign, munion = merge_sign_masks(jmask, rest)
            g = tuple(map(add, alpha, beta)) if corrected else (0,) * m
            out.append((((g, munion), slot1), f * s0 * msign))
        return out

    # both odd slots
    bit_i = 1 << (i - 1)
    rest = jmask & ~bit_i
    if jmask & bit_i and not imask & rest:
        s1 = -1 if (jmask & (bit_i - 1)).bit_count() & 1 else 1
        msign, munion = merge_sign_masks(imask, rest)
        g = tuple(map(add, alpha, beta))
        out.append((((g, munion), slot2), s1 * msign))
    bit_j = 1 << (j - 1)
    rest = imask & ~bit_j
    if imask & bit_j and not jmask & rest:
        s2 = (-1 if ((imask & (bit_j - 1)).bit_count()
                     + (imask.bit_count() - 1) * (jmask.bit_count() - 1)) & 1
              else 1)
        msign, munion = merge_sign_masks(jmask, rest)
        g = tuple(map(add, alpha, beta)) if corrected else (0,) * m
        out.append((((g, munion), slot1), -s2 * msign))
    return out


def witt_bracket(x: WittElement, y: WittElement, mode="corrected") -> WittElement:
    """Supercommutator via the closed structure-constant table.

    mode="verbatim" drops the t^(alpha+beta) factor from the two delta
    terms; it exists only so the verifier can demonstrate that the
    uncorrected table contradicts the derivation-action oracle.
    """
    if mode not in ("corrected", "verbatim"):
        raise ValueError("unknown bracket mode %r" % (mode,))
    m, corrected = x.m, mode == "corrected"
    return x._bilinear(y, lambda k1, k2: _bracket_basis(
        m, k1[0], k1[1], k2[0], k2[1], corrected))


# ---------------------------------------------------------------------------
# action on the polynomial algebra and the independent oracle

def witt_act(x: WittElement, p: SuperPoly) -> SuperPoly:
    """Apply the superderivation: multiply by the coefficient monomial
    after taking the slot derivative."""
    if x.m != p.m or x.n != p.n:
        raise ValueError("shape mismatch between derivation and polynomial")
    out = SuperPoly(x.m, x.n)
    for (mono, slot), c in x.terms.items():
        dp = p.partial_t(slot[1]) if slot[0] == TSLOT else p.partial_xi(slot[1])
        if not dp:
            continue
        front = SuperPoly(x.m, x.n)
        front.terms[mono] = c
        out = out + front * dp
    return out


def _act_basis(key, mono):
    """The basis derivation key applied to a monomial: (mono, int) or None."""
    front, (kind, idx) = key
    hit = (mono_partial_t(mono, idx) if kind == TSLOT
           else mono_partial_xi(mono, idx))
    if hit is None:
        return None
    prod = mono_mul(front, hit[0])
    if prod is None:
        return None
    return prod[0], prod[1] * hit[1]


def _oracle_tables(m, n):
    """Lookups for _oracle_basis at one shape, filled on first use: a key's
    parity and nonzero values on the generators t_i, xi_j as (generator
    slot, mono, int), and _act_basis by (key, mono); none outlives its user."""
    zero = (0,) * m
    gens = [((zero[:i - 1] + (1,) + zero[i:], 0), (TSLOT, i))
            for i in range(1, m + 1)]
    gens += [((zero, 1 << (j - 1)), (XSLOT, j)) for j in range(1, n + 1)]

    def images(key):
        return term_parity(*key), tuple(
            (slot, *hit) for g, slot in gens
            if (hit := _act_basis(key, g)) is not None)
    return cache(images), cache(_act_basis)


def _oracle_basis(tables, k1, k2):
    """[k1, k2] for two basis derivations as a list of (key, int), read off
    x(y(g)) - (-1)^{|x||y|} y(x(g)) on each coordinate generator g (a
    superderivation is determined by those values).  Each basis term is
    homogeneous, so the sign of the composition is fixed per pair."""
    images, act = tables
    (p1, images1), (p2, images2) = images(k1), images(k2)
    sign = 1 if p1 & p2 else -1  # -(-1)^{|x||y|}
    out = []
    for first, second, s in ((images2, k1, 1), (images1, k2, sign)):
        for slot, mono, c in first:
            hit = act(second, mono)
            if hit is not None:
                out.append(((hit[0], slot), s * c * hit[1]))
    return out


def bracket_oracle(x: WittElement, y: WittElement) -> WittElement:
    """Supercommutator computed without structure constants: the bilinear
    extension of _oracle_basis, which composes basis actions on the
    coordinate generators and never reads _bracket_basis."""
    tables = _oracle_tables(x.m, x.n)
    return x._bilinear(y, lambda k1, k2: _oracle_basis(tables, k1, k2))


# ---------------------------------------------------------------------------
# the abelian extension by the algebra itself

class ExtendedWittElement(LinComb):
    """Element of the semidirect sum in which the algebra is an abelian
    ideal acted on by the derivations.  A key is (mono, slot) for a
    derivation term and (mono, None) for a term of the function part."""

    __slots__ = ()

    @staticmethod
    def key_parity(key) -> int:
        mono, slot = key
        return term_parity(mono, slot) if slot else mono_parity(mono)


def _extended_bracket_basis(m, k1, k2):
    """[k1, k2] for two basis keys of the extension as a list of (key,
    int), from [x+a, y+b] = [x,y] + x(b) - (-1)^{|y||a|} y(a); the
    function part is an abelian ideal."""
    (mono1, slot1), (mono2, slot2) = k1, k2
    if slot1 and slot2:
        return _bracket_basis(m, mono1, slot1, mono2, slot2)
    if slot1:
        hit = _act_basis(k1, mono2)
        return [((hit[0], None), hit[1])] if hit else []
    if slot2:
        hit = _act_basis(k2, mono1)
        if hit:
            sign = -1 if term_parity(mono2, slot2) & mono_parity(mono1) else 1
            return [((hit[0], None), -sign * hit[1])]
    return []


def extended_bracket(u: ExtendedWittElement,
                     v: ExtendedWittElement) -> ExtendedWittElement:
    """The bilinear extension of _extended_bracket_basis."""
    m = u.m
    return u._bilinear(v, lambda k1, k2: _extended_bracket_basis(m, k1, k2))


def extended_basis(m, n, max_tdeg):
    """Homogeneous basis of the extension up to a t-degree bound:
    all basis derivations plus all monomials."""
    slots = slot_list(m, n) + [None]
    unit = ExtendedWittElement(m, n)._like  # reduced already
    return [unit({(mono, slot): 1})
            for mono in enumerate_monomials(m, n, max_tdeg) for slot in slots]


def witt_basis(m, n, max_tdeg):
    """All basis derivations with t-degree <= max_tdeg."""
    return [WittElement.term(m, n, mono[0], mono[1], slot)
            for mono in enumerate_monomials(m, n, max_tdeg)
            for slot in slot_list(m, n)]
