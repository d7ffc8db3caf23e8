"""Differential operator words and normal ordering."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittmod.superpoly import SuperPoly, accumulate, enumerate_monomials
from wittmod.verifier import _difference_sweep
from wittmod.witt import TSLOT, XSLOT
from wittmod.words import (OperatorWord, atom_parity, difference_word,
                           make_watom, weyl_equal, weyl_normal_order)

from conftest import (act_on_poly, canonical, rand_coeff, rand_superpoly,
                      word_commutator)

M, N = 1, 2


def word(*atoms, coeff=Fraction(1)):
    return OperatorWord.from_word(M, N, atoms, coeff)


def test_heisenberg_relation():
    # [d/dt, t] = 1
    comm = word(("dt", 1), ("mt", 1)) - word(("mt", 1), ("dt", 1))
    assert weyl_equal(comm, OperatorWord.identity(M, N))


def test_clifford_relation_orientation():
    # d/dxi_k xi_l + xi_l d/dxi_k = delta_{k,l}
    for k in (1, 2):
        for l in (1, 2):
            anti = word(("dx", k), ("mx", l)) + word(("mx", l), ("dx", k))
            want = OperatorWord.identity(M, N) if k == l \
                else OperatorWord(M, N)
            assert weyl_equal(anti, want)


def test_odd_squares_vanish():
    for atom in (("mx", 1), ("dx", 1), ("mx", 2), ("dx", 2)):
        assert not weyl_normal_order(word(atom, atom))


def test_disjoint_atoms_commute_with_koszul_sign():
    # odd with odd anticommutes, odd with even commutes
    assert weyl_equal(word(("mx", 1), ("mx", 2)),
                      -1 * word(("mx", 2), ("mx", 1)))
    assert weyl_equal(word(("mt", 1), ("dx", 2)),
                      word(("dx", 2), ("mt", 1)))


atoms_pool = [("mt", 1), ("dt", 1), ("mx", 1), ("mx", 2), ("dx", 1),
              ("dx", 2)]
words_strategy = st.lists(st.sampled_from(atoms_pool), min_size=1,
                          max_size=6)


@given(w=words_strategy, seed=st.integers(min_value=0, max_value=999))
@settings(max_examples=200, deadline=None)
def test_normal_order_idempotent(w, seed):
    rng = random.Random(seed)
    u = OperatorWord.from_word(M, N, tuple(w), rand_coeff(rng))
    nf = weyl_normal_order(u)
    # the normal form is a word, its own normal order
    assert type(nf) is OperatorWord
    assert weyl_normal_order(nf) == nf


@given(w=words_strategy, seed=st.integers(min_value=0, max_value=999))
@settings(max_examples=150, deadline=None)
def test_normal_order_preserves_the_action(w, seed):
    # the faithful action on polynomials is the oracle for rewriting
    rng = random.Random(seed)
    u = OperatorWord.from_word(M, N, tuple(w), rand_coeff(rng))
    p = rand_superpoly(rng, M, N, max_deg=3, nterms=2)
    assert act_on_poly(u, p) == act_on_poly(weyl_normal_order(u), p)


def test_word_commutator_against_action():
    rng = random.Random(3)
    for _ in range(40):
        u = OperatorWord.from_word(
            M, N, tuple(rng.choice(atoms_pool)
                        for _ in range(rng.randint(1, 3))), rand_coeff(rng))
        v = OperatorWord.from_word(
            M, N, tuple(rng.choice(atoms_pool)
                        for _ in range(rng.randint(1, 3))), rand_coeff(rng))
        p = rand_superpoly(rng, M, N, max_deg=3, nterms=2)
        s = -1 if u.parity() and v.parity() else 1
        want = act_on_poly(u, act_on_poly(v, p)) \
            - s * act_on_poly(v, act_on_poly(u, p))
        assert act_on_poly(word_commutator(u, v), p) == want


def test_word_constructors_match_accumulated_construction():
    assert OperatorWord.identity(M, N) == OperatorWord(M, N, {(): Fraction(1)})
    atoms = (("dt", 1), ("mx", 2), make_watom((((1,), 1), (XSLOT, 2))))
    for coeff in (1, -2, Fraction(3, 4), Fraction(-1, 2)):
        got = OperatorWord.from_word(M, N, atoms, coeff)
        assert got == OperatorWord(M, N, {atoms: Fraction(coeff)})
        assert all(canonical(c) and c
                   for w in (got, OperatorWord.identity(M, N))
                   for c in w.terms.values())
    for zero in (0, Fraction(0)):
        assert OperatorWord.from_word(M, N, atoms, zero).terms == {}


def test_atom_parity():
    assert atom_parity(("mt", 1)) == 0
    assert atom_parity(("dt", 1)) == 0
    assert atom_parity(("mx", 2)) == 1
    assert atom_parity(("dx", 1)) == 1
    # a derivation atom's parity is its key's: |I|, plus 1 on an x-slot
    assert atom_parity(make_watom((((1,), 0), (XSLOT, 1)))) == 1
    assert atom_parity(make_watom((((0,), 3), (XSLOT, 1)))) == 1
    assert atom_parity(make_watom((((0,), 1), (TSLOT, 1)))) == 1
    assert atom_parity(make_watom((((2,), 3), (TSLOT, 1)))) == 0


# a bad atom fails when the word is built, not when it acts or prints; a
# derivation key is checked field by field, as WittElement.term checks it,
# and one with a trivial monomial has one spelling, the plain dt/dx atom
@pytest.mark.parametrize("atom,message", [
    (("w", (((1,), 0), (TSLOT, 2))), "d/dt index 2 out of range"),
    (("w", (((1,), 0), (XSLOT, 3))), "d/dxi index 3 out of range"),
    (("w", (((1,), 0), ("q", 1))), "bad slot kind 'q'"),
    (("w", (((-1,), 0), (TSLOT, 1))), r"bad exponent tuple \(-1,\)"),
    (("w", (((1, 0), 0), (TSLOT, 1))), r"bad exponent tuple \(1, 0\)"),
    (("w", (((1,), 4), (XSLOT, 1))), "odd index out of range for n=2"),
    (("zz", 1), "unknown atom kind 'zz'"),
    (("w", (1,), 0, TSLOT, 1), "too many values to unpack"),
    (("w", (((0,), 0), (XSLOT, 2))), r"is the atom \('dx', 2\)"),
], ids=["slot-index", "odd-slot-index", "slot-kind", "negative-exponent",
        "exponent-count", "odd-mask", "atom-kind", "flattened",
        "trivial-monomial"])
def test_from_word_rejects_a_bad_atom(atom, message):
    with pytest.raises(ValueError, match=message):
        OperatorWord.from_word(M, N, [("mt", 1), atom])


def test_difference_word_recurrence_formal():
    # D(alpha + e_j, beta) - D(alpha, beta + e_j) = D(alpha, beta; r + 1),
    # exactly as raw words, before any rewriting
    for r in range(3):
        for s1 in ((TSLOT, 1), (XSLOT, 1)):
            for s2 in ((TSLOT, 1), (XSLOT, 2)):
                lhs = difference_word(M, N, (1,), (0,), 0, 0, r, 1, s1, s2) \
                    - difference_word(M, N, (0,), (1,), 0, 0, r, 1, s1, s2)
                rhs = difference_word(M, N, (0,), (0,), 0, 0, r + 1, 1,
                                      s1, s2)
                assert lhs == rhs


def test_difference_word_shape():
    # order r has r + 1 alternating two-atom products with binomial weights
    w0 = difference_word(M, N, (1,), (1,), 0, 0, 0, 1, (TSLOT, 1),
                         (TSLOT, 1))
    assert len(w0.terms) == 1
    assert all(len(k) == 2 for k in w0.terms)
    assert list(w0.terms.values()) == [Fraction(1)]
    w3 = difference_word(M, N, (0,), (0,), 0, 0, 3, 1, (TSLOT, 1),
                         (XSLOT, 1))
    assert len(w3.terms) == 4
    assert sorted(w3.terms.values()) == [Fraction(-3), Fraction(-1),
                                         Fraction(1), Fraction(3)]


def _frozen_difference_word(m, n, alpha, beta, imask, jmask, r, j, slot1,
                            slot2):
    """difference_word as it was before it summed its weights as ints:
    one Fraction product and one Fraction accumulation per term."""
    out = OperatorWord(m, n)
    for i in range(r + 1):
        a = list(alpha)
        a[j - 1] += r - i
        b = list(beta)
        b[j - 1] += i
        word = (make_watom(((tuple(a), imask), slot1)),
                make_watom(((tuple(b), jmask), slot2)))
        coeff = Fraction(comb(r, i)) * (-1 if i & 1 else 1)
        accumulate(out.terms, word, coeff)
    return out


def test_difference_word_matches_its_frozen_reference():
    # the same terms in the same order, every coefficient under the rule
    for m, n, deg in ((1, 1, 2), (2, 1, 1)):
        for item in _difference_sweep(m, n, deg):
            alpha, beta, imask, jmask, j, s1, s2 = item
            for r in range(6):
                got = difference_word(m, n, alpha, beta, imask, jmask, r, j,
                                      s1, s2)
                want = _frozen_difference_word(m, n, alpha, beta, imask,
                                               jmask, r, j, s1, s2)
                assert list(got.terms.items()) == list(want.terms.items())
                assert all(canonical(c) for c in got.terms.values())
