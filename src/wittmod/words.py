"""Words of operator atoms and Weyl-superalgebra normal ordering.

An atom is one of
    ('mt', i)   multiply by t_i
    ('mx', j)   multiply by xi_j
    ('dt', i)   d/dt_i
    ('dx', j)   d/dxi_j
    ('w', alpha, imask, kind, idx)   basis superderivation with a
                                     nontrivial coefficient monomial

A word is a tuple of atoms read left to right in composition order: the
rightmost atom acts first.  A derivation atom with trivial monomial is
always stored as the plain ('dt',i)/('dx',j) atom -- on every module this
package exposes the two act identically, and the normalization keeps
printing unambiguous.

OperatorWord is a formal Q-linear combination of words; equality is exact
equality of the combinations, never equality of operators.  Deciding
operator equality for pure multiply/derive words is what
weyl_normal_order is for.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .superpoly import (ONE, LinComb, accumulate, mask_indices,
                        merge_sign_masks, popcount)


def make_watom(alpha, imask, slot):
    """Derivation atom, collapsing the trivial-monomial case."""
    alpha = tuple(alpha)
    if not any(alpha) and imask == 0:
        return ("dt" if slot[0] == "t" else "dx", slot[1])
    return ("w", alpha, imask, slot[0], slot[1])


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
    return (popcount(atom[2]) + (atom[3] == "x")) & 1


def word_parity(word) -> int:
    return sum(atom_parity(a) for a in word) & 1


class OperatorWord(LinComb):
    """Formal linear combination of composition words."""

    __slots__ = ()

    key_parity = staticmethod(word_parity)

    @classmethod
    def identity(cls, m, n):
        return cls(m, n, {(): ONE})

    @classmethod
    def from_word(cls, m, n, word, coeff=ONE):
        word = tuple(word)
        for atom in word:
            kind = atom[0]
            if kind in ("mt", "dt") and not 1 <= atom[1] <= m:
                raise ValueError("t index %d out of range" % atom[1])
            elif kind in ("mx", "dx") and not 1 <= atom[1] <= n:
                raise ValueError("xi index %d out of range" % atom[1])
            elif kind == "w":
                if len(atom[1]) != m or atom[2] >> n:
                    raise ValueError("derivation atom shape mismatch")
        return cls(m, n, {word: Fraction(coeff)})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LinComb.__mul__(self, other)
        # composition: concatenate words
        self._check(other)
        acc = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(acc, w1 + w2, c1 * c2)
        return self._like(acc)


def word_commutator(u: OperatorWord, v: OperatorWord) -> OperatorWord:
    """Supercommutator uv - (-1)^{|u||v|}vu, split over homogeneous parts."""
    u._check(v)
    out = OperatorWord(u.m, u.n)
    for uh in u.homogeneous_parts():
        if not uh:
            continue
        for vh in v.homogeneous_parts():
            if not vh:
                continue
            sign = -1 if uh.parity() * vh.parity() & 1 else 1
            out = out + uh * vh - sign * (vh * uh)
    return out


# ---------------------------------------------------------------------------
# normal ordering in the algebra of polynomial differential operators

class WeylNormalForm(LinComb):
    """Multiplications left of derivatives, indices ascending.

    terms maps (alpha, imask, gamma, kmask) -> Fraction, standing for
    t^alpha xi_imask dt^gamma dxi_kmask with both odd products ascending.
    """

    __slots__ = ()

    def to_word(self) -> OperatorWord:
        out = OperatorWord(self.m, self.n)
        for (alpha, imask, gamma, kmask), c in self.terms.items():
            word = (mono_atoms((alpha, imask))
                    + mono_atoms((gamma, kmask), ("dt", "dx")))
            out.terms[word] = c
        return out


def _nf_append(terms, m, atom):
    """Multiply every normal-form term on the right by one atom."""
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
            # contraction branch: dxi_idx xi_idx -> 1
            if kmask & bit:
                hops = popcount(kmask >> idx)  # factors to the right
                s2 = -1 if hops & 1 else 1
                accumulate(acc, (alpha, imask, gamma, kmask & ~bit),
                           c * s2)
        elif kind == "dt":
            g2 = list(gamma)
            g2[idx - 1] += 1
            accumulate(acc, (alpha, imask, tuple(g2), kmask), c)
        elif kind == "dx":
            bit = 1 << (idx - 1)
            if kmask & bit:
                continue  # dxi^2 = 0
            hops = popcount(kmask >> idx)
            s = -1 if hops & 1 else 1
            accumulate(acc, (alpha, imask, gamma, kmask | bit), c * s)
        else:
            raise ValueError("normal ordering is defined for multiply and "
                             "derive atoms only, got %r" % (atom,))
    return acc


def weyl_normal_order(w: OperatorWord) -> WeylNormalForm:
    """Rewrite a multiply/derive word into normal form.

    Idempotent: normal-ordering to_word() of a normal form returns the
    same normal form.  Raises on derivation atoms with a coefficient
    monomial ('w' atoms); expand those through a module action instead.
    """
    zero_key_alpha = (0,) * w.m
    total = {}
    for word, c in w.terms.items():
        terms = {(zero_key_alpha, 0, zero_key_alpha, 0): c}
        for atom in word:
            terms = _nf_append(terms, w.m, atom)
            if not terms:
                break
        for key, cc in terms.items():
            accumulate(total, key, cc)
    return WeylNormalForm(w.m, w.n, total)


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
    out = OperatorWord(m, n)
    for i in range(r + 1):
        a = list(alpha)
        a[j - 1] += r - i
        b = list(beta)
        b[j - 1] += i
        word = (make_watom(a, imask, slot1), make_watom(b, jmask, slot2))
        coeff = Fraction(comb(r, i)) * (-1 if i & 1 else 1)
        accumulate(out.terms, word, coeff)
    return out
