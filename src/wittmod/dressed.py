"""Derivations dressed with polynomial coefficients on the left.

A dressed term is a pair (a, x): an algebra monomial a multiplying a basis
superderivation x inside the smash product of the algebra with the
derivations.  The bracket

    [a.x, b.y] = a x(b).y - (-1)^{|a.x||b.y|} b y(a).x + (-1)^{|x||b|} ab.[x,y]

is computed term by term; x(b) means the derivation action on the algebra
and [x,y] the superderivation bracket.

commutant_element builds the alternating binomial dressing of a basis
derivation whose action on twisted tensor modules commutes with every
multiply/derive atom; those elements are what realize the matrix algebra
on the Whittaker vectors.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import comb

from .superpoly import (LinComb, accumulate, check_mono,
                        enumerate_monomials, exact, merge_sign_masks, mono_mul,
                        mono_parity, mono_sort_key, mono_tdeg, popcount)
from .witt import (WittElement, _act_basis, _bracket_basis, check_key,
                   slot_list, term_parity, term_sort_key, XSLOT)
from .words import OperatorWord, make_watom, mono_atoms


def dressed_parity(key) -> int:
    amono, (wmono, slot) = key
    return (mono_parity(amono) + term_parity(wmono, slot)) & 1


class DressedWittElement(LinComb):
    """Linear combination of dressed terms ((amono), (wmono, slot))."""

    __slots__ = ()

    key_parity = staticmethod(dressed_parity)

    @classmethod
    def term(cls, m, n, amono, wmono, slot, coeff=1):
        amono = (tuple(amono[0]), amono[1])
        wkey = ((tuple(wmono[0]), wmono[1]), slot)
        check_mono(m, n, amono)
        check_key(m, n, wkey)
        out = cls(m, n)
        if coeff:
            out.terms[(amono, wkey)] = exact(coeff)
        return out

    def to_word(self) -> OperatorWord:
        """Multiplication atoms for the dressing, then the derivation."""
        out = OperatorWord(self.m, self.n)
        for (amono, wkey), c in self.terms.items():
            accumulate(out.terms, mono_atoms(amono) + (make_watom(wkey),), c)
        return out


def dressed_sort_key(key):
    amono, wkey = key
    return mono_sort_key(amono) + term_sort_key(wkey)


def _dressed_tables(m, corrected):
    """Lookups for _dressed_bracket_basis at one shape and mode, filled on
    first use: _act_basis by (key, mono), mono_mul by monomial pair and
    the derivation bracket by key pair; none outlives its user."""
    return cache(_act_basis), cache(mono_mul), cache(
        lambda xkey, ykey: _bracket_basis(m, xkey[0], xkey[1], ykey[0],
                                          ykey[1], corrected))


def _dressed_bracket_basis(tables, k1, k2):
    """[a.x, b.y] for two dressed basis terms as a list of (key, int),
    read through _dressed_tables.  The four parities are counts read off
    the masks (an x-slot adds one): only the low bits of their products
    are used."""
    act, mul, bracket = tables
    (a, xkey), (b, ykey) = k1, k2
    px = xkey[0][1].bit_count() + (xkey[1][0] == XSLOT)
    py = ykey[0][1].bit_count() + (ykey[1][0] == XSLOT)
    pa, pb = a[1].bit_count(), b[1].bit_count()
    out = []
    # a x(b) . y
    hit = act(xkey, b)
    if hit:
        prod = mul(a, hit[0])
        if prod:
            out.append(((prod[0], ykey), hit[1] * prod[1]))
    # -(-1)^{|a.x||b.y|} b y(a) . x
    hit = act(ykey, a)
    if hit:
        prod = mul(b, hit[0])
        if prod:
            sign = -1 if (pa + px) * (pb + py) & 1 else 1
            out.append(((prod[0], xkey), -sign * hit[1] * prod[1]))
    # (-1)^{|x||b|} ab . [x,y]
    prod = mul(a, b)
    if prod:
        s = -prod[1] if px * pb & 1 else prod[1]
        out.extend(((prod[0], key), s * c) for key, c in bracket(xkey, ykey))
    return out


def dressed_bracket(u: DressedWittElement, v: DressedWittElement,
                    mode="corrected") -> DressedWittElement:
    """The bilinear extension of _dressed_bracket_basis, over tables that
    live for this call."""
    if mode not in ("corrected", "verbatim"):
        raise ValueError("unknown bracket mode %r" % (mode,))
    tables = _dressed_tables(u.m, mode == "corrected")
    return u._bilinear(v, lambda k1, k2: _dressed_bracket_basis(
        tables, k1, k2))


# ---------------------------------------------------------------------------

def _submasks(mask: int):
    """All submasks, ascending-by-value (deterministic)."""
    subs = []
    s = 0
    while True:
        subs.append(s)
        if s == mask:
            break
        s = (s - mask) & mask
    subs.sort()
    return subs


def commutant_element(m, n, alpha, imask, slot) -> DressedWittElement:
    """Alternating binomial dressing of t^alpha xi_I d.

    Sum over 0 <= beta <= alpha (coordinatewise) and J subset I of
        (-1)^{|beta|+|J|+tau(J, I\\J)} C(alpha,beta) (t^beta xi_J).(t^(alpha-beta) xi_(I\\J) d)
    with C the product of coordinatewise binomials and tau(J, K) the
    number of pairs j in J, k in K with j > k.  Defined only when the
    derivation has a nonconstant coefficient (|alpha|+|I| > 0).
    """
    alpha = tuple(alpha)
    if sum(alpha) + popcount(imask) == 0:
        raise ValueError("requires a coefficient monomial in the "
                         "augmentation ideal")
    check_key(m, n, ((alpha, imask), slot))
    out = DressedWittElement(m, n)
    beta_ranges = [range(a + 1) for a in alpha]
    for beta in product(*beta_ranges):
        cbin = 1
        for a, b in zip(alpha, beta):
            cbin *= comb(a, b)
        rest_alpha = tuple(a - b for a, b in zip(alpha, beta))
        for jmask in _submasks(imask):
            kmask = imask & ~jmask
            # (-1)^tau is the Koszul sign of merging the two masks
            sign = merge_sign_masks(jmask, kmask)[0]
            if (sum(beta) + popcount(jmask)) & 1:
                sign = -sign
            key = ((beta, jmask), ((rest_alpha, kmask), slot))
            accumulate(out.terms, key, cbin * sign)
    return out


def commutant_of_witt(x: WittElement) -> DressedWittElement:
    """Linear extension of commutant_element over a combination whose
    coefficient monomials all lie in the augmentation ideal."""
    out = DressedWittElement(x.m, x.n)
    for (mono, slot), c in x.terms.items():
        out = out + c * commutant_element(x.m, x.n, mono[0], mono[1], slot)
    return out


def dressed_basis(m, n, max_tdeg):
    """Dressed basis terms with combined t-degree <= max_tdeg."""
    return [DressedWittElement.term(m, n, amono, wmono, slot)
            for amono in enumerate_monomials(m, n, max_tdeg)
            for wmono in enumerate_monomials(m, n,
                                             max_tdeg - mono_tdeg(amono))
            for slot in slot_list(m, n)]
