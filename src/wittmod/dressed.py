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

from fractions import Fraction
from itertools import product
from math import comb

from .superpoly import (ONE, LinComb, accumulate, merge_sign_masks,
                        mono_mul, mono_parity, mono_sort_key, mono_tdeg,
                        popcount)
from .witt import (WittElement, _act_basis, _bracket_basis, term_parity,
                   term_sort_key, TSLOT, XSLOT)
from .words import OperatorWord, make_watom, mono_atoms


def dressed_parity(key) -> int:
    amono, (wmono, slot) = key
    return (mono_parity(amono) + term_parity(wmono, slot)) & 1


class DressedWittElement(LinComb):
    """Linear combination of dressed terms ((amono), (wmono, slot))."""

    __slots__ = ()

    key_parity = staticmethod(dressed_parity)

    @classmethod
    def from_witt(cls, x: WittElement):
        unit = ((0,) * x.m, 0)
        out = cls(x.m, x.n)
        out.terms = {(unit, key): c for key, c in x.terms.items()}
        return out

    @classmethod
    def term(cls, m, n, amono, wmono, slot, coeff=ONE):
        WittElement.term(m, n, wmono[0], wmono[1], slot)  # validates
        out = cls(m, n)
        if coeff:
            out.terms[((tuple(amono[0]), amono[1]),
                       ((tuple(wmono[0]), wmono[1]), slot))] = Fraction(coeff)
        return out

    def to_word(self) -> OperatorWord:
        """Multiplication atoms for the dressing, then the derivation."""
        out = OperatorWord(self.m, self.n)
        for (amono, (wmono, slot)), c in self.terms.items():
            word = mono_atoms(amono) + (make_watom(wmono[0], wmono[1], slot),)
            accumulate(out.terms, word, c)
        return out


def dressed_sort_key(key):
    amono, wkey = key
    return mono_sort_key(amono) + term_sort_key(wkey)


def dressed_bracket(u: DressedWittElement, v: DressedWittElement,
                    mode="corrected") -> DressedWittElement:
    u._check(v)
    corrected = mode == "corrected"
    if mode not in ("corrected", "verbatim"):
        raise ValueError("unknown bracket mode %r" % (mode,))
    acc = {}
    for (a, xkey), cu in u.terms.items():
        xmono, xslot = xkey
        px = term_parity(xmono, xslot)
        pa = mono_parity(a)
        for (b, ykey), cv in v.terms.items():
            ymono, yslot = ykey
            py = term_parity(ymono, yslot)
            pb = mono_parity(b)
            c0 = cu * cv
            # a x(b) . y
            hit = _act_basis(xkey, b)
            if hit:
                mono, c1 = hit
                prod = mono_mul(a, mono)
                if prod:
                    accumulate(acc, (prod[0], ykey), c0 * c1 * prod[1])
            # -(-1)^{|a.x||b.y|} b y(a) . x
            hit = _act_basis(ykey, a)
            if hit:
                mono, c1 = hit
                prod = mono_mul(b, mono)
                if prod:
                    sign = -1 if (pa + px) * (pb + py) & 1 else 1
                    accumulate(acc, (prod[0], xkey),
                               -sign * c0 * c1 * prod[1])
            # (-1)^{|x||b|} ab . [x,y]
            prod = mono_mul(a, b)
            if prod:
                sign = -1 if px * pb & 1 else 1
                cab = c0 * prod[1] * sign
                for key, c2 in _bracket_basis(u.m, xmono, xslot, ymono,
                                              yslot, corrected):
                    accumulate(acc, (prod[0], key), cab * c2)
    return u._like(acc)


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
    WittElement.term(m, n, alpha, imask, slot)  # validates shape
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
            accumulate(out.terms, key, Fraction(cbin * sign))
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
    from .superpoly import enumerate_monomials
    out = []
    for amono in enumerate_monomials(m, n, max_tdeg):
        rem = max_tdeg - mono_tdeg(amono)
        for wmono in enumerate_monomials(m, n, rem):
            for i in range(1, m + 1):
                out.append(DressedWittElement.term(m, n, amono, wmono,
                                                   (TSLOT, i)))
            for j in range(1, n + 1):
                out.append(DressedWittElement.term(m, n, amono, wmono,
                                                   (XSLOT, j)))
    return out
