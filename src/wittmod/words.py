"""Words of operator atoms and Weyl-superalgebra normal ordering.

An atom is a pair, one of
    ('mt', i)   multiply by t_i
    ('mx', j)   multiply by xi_j
    ('dt', i)   d/dt_i
    ('dx', j)   d/dxi_j
    ('w', key)  the basis superderivation of a Witt key
                ((alpha, imask), (kind, idx)), as every element type
                spells it, with a nontrivial coefficient monomial

A word is a tuple of atoms read left to right in composition order: the
rightmost atom acts first.  make_watom stores a derivation with trivial
monomial as the plain ('dt',i)/('dx',j) atom -- on every module this
package exposes the two act identically, and the normalization keeps
printing unambiguous.  OperatorWord.from_word checks each atom, a key
through witt.check_key, and takes a derivation in that spelling only.

OperatorWord is a formal Q-linear combination of words; equality is exact
equality of the combinations, never equality of operators.  Deciding
operator equality for pure multiply/derive words is what
weyl_normal_order is for.
"""

from __future__ import annotations

from math import comb

from .superpoly import (LinComb, accumulate, exact, mask_indices,
                        merge_sign_masks, popcount)
from .witt import TSLOT, check_key, term_parity


def make_watom(key):
    """The derivation atom ('w', key) of a Witt key, collapsing the
    trivial-monomial case to the plain dt/dx atom."""
    (alpha, imask), (kind, idx) = key
    if not any(alpha) and imask == 0:
        return ("dt" if kind == TSLOT else "dx", idx)
    return ("w", key)


def mono_atoms(mono, kinds=("mt", "mx")) -> tuple:
    """The monomial t^alpha xi_I as a word: the t atoms, then the xi atoms
    in ascending order.  kinds=("dt", "dx") spells the derivative
    monomial dt^alpha dxi_I the same way."""
    alpha, imask = mono
    tkind, xkind = kinds
    return (tuple((tkind, i) for i, e in enumerate(alpha, start=1)
                  for _ in range(e))
            + tuple((xkind, j) for j in mask_indices(imask)))


def atom_parity(atom) -> int:
    kind = atom[0]
    if kind in ("mt", "dt"):
        return 0
    if kind in ("mx", "dx"):
        return 1
    return term_parity(*atom[1])


def word_parity(word) -> int:
    return sum(atom_parity(a) for a in word) & 1


class OperatorWord(LinComb):
    """Formal linear combination of composition words."""

    __slots__ = ()

    key_parity = staticmethod(word_parity)

    @classmethod
    def identity(cls, m, n):
        return cls(m, n)._like({(): 1})

    @classmethod
    def from_word(cls, m, n, word, coeff=1):
        word = tuple(word)
        for atom in word:
            kind, arg = atom
            if kind == "w":
                check_key(m, n, arg)
                if make_watom(arg)[0] != "w":
                    raise ValueError("a derivation with trivial monomial is "
                                     "the atom %r" % (make_watom(arg),))
            elif kind in ("mt", "dt"):
                if not 1 <= arg <= m:
                    raise ValueError("t index %d out of range" % arg)
            elif kind in ("mx", "dx"):
                if not 1 <= arg <= n:
                    raise ValueError("xi index %d out of range" % arg)
            else:
                raise ValueError("unknown atom kind %r" % (kind,))
        coeff = exact(coeff)
        return cls(m, n)._like({word: coeff} if coeff else {})


# ---------------------------------------------------------------------------
# normal ordering in the algebra of polynomial differential operators

def _nf_append(terms, atom):
    """Multiply every term (alpha, imask, gamma, kmask) -> c, standing for
    c t^alpha xi_imask dt^gamma dxi_kmask, on the right by one atom."""
    kind, idx = atom[0], atom[1]
    acc = {}
    for (alpha, imask, gamma, kmask), c in terms.items():
        if kind == "mt":
            # dt^g t = t dt^g + g dt^(g-1); t passes the dxi block freely
            a2 = list(alpha)
            a2[idx - 1] += 1
            accumulate(acc, (tuple(a2), imask, gamma, kmask), c)
            g = gamma[idx - 1]
            if g:
                g2 = list(gamma)
                g2[idx - 1] -= 1
                accumulate(acc, (alpha, imask, tuple(g2), kmask), c * g)
        elif kind == "mx":
            bit = 1 << (idx - 1)
            # branch where xi passes the whole dxi block
            pass_sign = -1 if popcount(kmask) & 1 else 1
            s, union = merge_sign_masks(imask, bit)
            if s:
                accumulate(acc, (alpha, union, gamma, kmask),
                           c * pass_sign * s)
            # contraction: dxi_idx passes the factors after it, xi_idx -> 1
            if kmask & bit:
                s2 = -1 if popcount(kmask >> idx) & 1 else 1
                accumulate(acc, (alpha, imask, gamma, kmask & ~bit), c * s2)
        elif kind == "dt":
            g2 = list(gamma)
            g2[idx - 1] += 1
            accumulate(acc, (alpha, imask, tuple(g2), kmask), c)
        elif kind == "dx":
            bit = 1 << (idx - 1)
            if kmask & bit:
                continue  # dxi^2 = 0
            s = -1 if popcount(kmask >> idx) & 1 else 1
            accumulate(acc, (alpha, imask, gamma, kmask | bit), c * s)
        else:
            raise ValueError("normal ordering is defined for multiply and "
                             "derive atoms only, got %r" % (atom,))
    return acc


def weyl_normal_order(w: OperatorWord) -> OperatorWord:
    """The normal form of a multiply/derive word: words t^alpha xi_I
    dt^gamma dxi_K, each odd run ascending, which are their own normal
    order.  Raises on derivation atoms with a coefficient monomial ('w'
    atoms); expand those through a module action instead."""
    zero_key_alpha = (0,) * w.m
    total = {}
    for word, c in w.terms.items():
        terms = {(zero_key_alpha, 0, zero_key_alpha, 0): c}
        for atom in word:
            terms = _nf_append(terms, atom)
            if not terms:
                break
        for key, cc in terms.items():
            accumulate(total, key, cc)
    return w._like({mono_atoms((alpha, imask))
                    + mono_atoms((gamma, kmask), ("dt", "dx")): c
                    for (alpha, imask, gamma, kmask), c in total.items()})


def weyl_equal(w1: OperatorWord, w2: OperatorWord) -> bool:
    """Operator equality for multiply/derive words."""
    return weyl_normal_order(w1) == weyl_normal_order(w2)


# ---------------------------------------------------------------------------
# alternating finite-difference words of paired derivations

def difference_word(m, n, alpha, beta, imask, jmask, r, j, slot1, slot2):
    """The r-th alternating difference along t_j of the product word
    (t^(alpha+(r-i)e_j) xi_I d1) (t^(beta+i e_j) xi_J d2), i = 0..r,
    with binomial weights (-1)^i C(r,i).

    Satisfies the shift recurrence
        D(alpha+e_j, beta; r) - D(alpha, beta+e_j; r) = D(alpha, beta; r+1)
    exactly as formal sums.
    """
    if r < 0:
        raise ValueError("difference order must be >= 0")
    if not 1 <= j <= m:
        raise ValueError("t index %d out of range" % j)
    alpha = tuple(alpha)
    beta = tuple(beta)
    terms = {}  # the words differ in i, so no weight adds to another
    for i in range(r + 1):
        a = list(alpha)
        a[j - 1] += r - i
        b = list(beta)
        b[j - 1] += i
        c = comb(r, i)
        terms[make_watom(((tuple(a), imask), slot1)),
              make_watom(((tuple(b), jmask), slot2))] = -c if i & 1 else c
    return OperatorWord(m, n)._like(terms)
