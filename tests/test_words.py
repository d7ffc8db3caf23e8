"""Differential operator words and normal ordering."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wittmod.superpoly import SuperPoly, enumerate_monomials
from wittmod.witt import TSLOT, XSLOT
from wittmod.words import (OperatorWord, atom_parity, difference_word,
                           weyl_equal, weyl_normal_order, word_commutator)

from conftest import act_on_poly, rand_coeff, rand_superpoly

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
    assert weyl_normal_order(nf.to_word()) == nf


@given(w=words_strategy, seed=st.integers(min_value=0, max_value=999))
@settings(max_examples=150, deadline=None)
def test_normal_order_preserves_the_action(w, seed):
    # the faithful action on polynomials is the oracle for rewriting
    rng = random.Random(seed)
    u = OperatorWord.from_word(M, N, tuple(w), rand_coeff(rng))
    p = rand_superpoly(rng, M, N, max_deg=3, nterms=2)
    assert act_on_poly(u, p) == \
        act_on_poly(weyl_normal_order(u).to_word(), p)


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


def test_atom_parity():
    assert atom_parity(("mt", 1)) == 0
    assert atom_parity(("dt", 1)) == 0
    assert atom_parity(("mx", 2)) == 1
    assert atom_parity(("dx", 1)) == 1


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
