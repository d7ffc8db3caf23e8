"""Supercommutative polynomial arithmetic: signs, derivatives, Leibniz."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (make_spec, rand_coeff, rand_superpoly, rand_tensor,
                      rand_witt)
from wittmod.dressed import DressedWittElement
from wittmod.superpoly import (SuperPoly, enumerate_monomials, mask_of,
                               merge_sign, merge_sign_masks, mono_mul,
                               mono_parity, mono_partial_xi)
from wittmod.tensor_modules import TensorElement
from wittmod.witt import WittElement
from wittmod.words import OperatorWord

M, N = 2, 2
MONOS = enumerate_monomials(M, N, 3)

coeffs = st.sampled_from([Fraction(k) for k in (-3, -1, 1, 2, 5)]
                         + [Fraction(1, 2), Fraction(-2, 3)])


def _build(items):
    p = SuperPoly.zero(M, N)
    for mono, c in items:
        p = p + SuperPoly.monomial(M, N, mono[0], mono[1], c)
    return p


polys = st.lists(st.tuples(st.sampled_from(MONOS), coeffs),
                 min_size=0, max_size=4).map(_build)
monomials = st.tuples(st.sampled_from(MONOS), coeffs).map(
    lambda mc: SuperPoly.monomial(M, N, mc[0][0], mc[0][1], mc[1]))


def t(i):
    return SuperPoly.monomial(M, N, tuple(int(k == i)
                                          for k in range(1, M + 1)))


def xi(j):
    return SuperPoly.monomial(M, N, (0,) * M, (j,))


def test_odd_squares_vanish():
    assert not xi(1) * xi(1)
    assert not xi(2) * xi(2)


def test_odd_variables_anticommute():
    assert xi(1) * xi(2) == -(xi(2) * xi(1))


def test_even_variables_commute():
    assert t(1) * t(2) == t(2) * t(1)
    assert t(1) * xi(1) == xi(1) * t(1)


def test_merge_sign_values():
    assert merge_sign((1,), (2,)) == (1, (1, 2))
    assert merge_sign((2,), (1,)) == (-1, (1, 2))
    assert merge_sign((1, 2), (1,))[0] == 0
    assert merge_sign_masks(mask_of((1, 3)), mask_of((2,))) == (
        -1, mask_of((1, 2, 3)))


def test_known_product():
    # (2 t1 xi1) * (3 t1 xi2) = 6 t1^2 xi1 xi2
    p = SuperPoly.monomial(M, N, (1, 0), (1,), Fraction(2))
    q = SuperPoly.monomial(M, N, (1, 0), (2,), Fraction(3))
    want = SuperPoly.monomial(M, N, (2, 0), (1, 2), Fraction(6))
    assert p * q == want
    assert q * p == -want


def test_partial_t_power_rule():
    p = SuperPoly.monomial(M, N, (3, 1), ())
    assert p.partial_t(1) == SuperPoly.monomial(M, N, (2, 1), (),
                                                Fraction(3))


def test_partial_xi_left_derivative():
    p = SuperPoly.monomial(M, N, (0, 0), (1, 2))
    assert p.partial_xi(1) == SuperPoly.monomial(M, N, (0, 0), (2,))
    assert p.partial_xi(2) == -SuperPoly.monomial(M, N, (0, 0), (1,))


def test_mono_partial_xi_kills_absent_index():
    assert mono_partial_xi(((0, 0), mask_of((1,))), 2) is None


@given(f=polys, g=polys, h=polys)
@settings(max_examples=150, deadline=None)
def test_associativity(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(f=polys, g=polys, h=polys)
@settings(max_examples=150, deadline=None)
def test_distributivity(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(p=monomials, q=monomials)
@settings(max_examples=200, deadline=None)
def test_supercommutativity(p, q):
    sp, sq = p.parity(), q.parity()
    sign = -1 if (sp and sq) else 1
    assert p * q == sign * (q * p)


@given(f=polys, g=polys)
@settings(max_examples=150, deadline=None)
def test_partial_t_leibniz(f, g):
    lhs = (f * g).partial_t(1)
    assert lhs == f.partial_t(1) * g + f * g.partial_t(1)


@given(p=monomials, g=polys)
@settings(max_examples=200, deadline=None)
def test_partial_xi_super_leibniz(p, g):
    # the slot is odd: moving it past a homogeneous f costs (-1)^{|f|}
    sign = -1 if p.parity() else 1
    lhs = (p * g).partial_xi(2)
    assert lhs == p.partial_xi(2) * g + sign * (p * g.partial_xi(2))


def test_mixed_derivatives_supercommute():
    rngs = [SuperPoly.monomial(M, N, (2, 1), (1, 2), Fraction(5, 3))]
    for p in rngs:
        assert p.partial_xi(1).partial_xi(2) == \
            -p.partial_xi(2).partial_xi(1)
        assert p.partial_t(1).partial_xi(1) == p.partial_xi(1).partial_t(1)


def test_parity_and_degree_bookkeeping():
    p = SuperPoly.monomial(M, N, (2, 0), (1,))
    assert p.parity() == 1
    assert p.tdegree() == 2
    q = SuperPoly.monomial(M, N, (0, 1), (1, 2))
    assert q.parity() == 0
    assert mono_parity(((0, 1), mask_of((1, 2)))) == 0


def test_mono_mul_overlap_is_none():
    assert mono_mul(((0, 0), 1), ((0, 0), 1)) is None


# ---------------------------------------------------------------------------
# the shared linear-combination core, over every element type

def _dressed(rng):
    x = DressedWittElement.from_witt(rand_witt(rng, 1, 1, nterms=3))
    return x + DressedWittElement.term(1, 1, ((1,), 1), ((0,), 0), ("t", 1),
                                       rand_coeff(rng))


def _word(rng):
    atoms = [("mt", 1), ("mx", 1), ("dt", 1), ("dx", 1)]
    out = OperatorWord(1, 1)
    for _ in range(4):
        word = [atoms[rng.randrange(4)] for _ in range(rng.randrange(4))]
        out = out + OperatorWord.from_word(1, 1, word, rand_coeff(rng))
    return out


# type -> (random element, an even element, an odd element); the module
# elements carry no grading of their own
LINCOMB_TYPES = {
    "SuperPoly": (lambda rng: rand_superpoly(rng, 1, 1, nterms=4),
                  SuperPoly.monomial(1, 1, (1,)),
                  SuperPoly.monomial(1, 1, (0,), (1,))),
    "WittElement": (lambda rng: rand_witt(rng, 1, 1, nterms=4),
                    WittElement.term(1, 1, (1,), 0, ("t", 1)),
                    WittElement.term(1, 1, (0,), 0, ("x", 1))),
    "DressedWittElement": (
        _dressed,
        DressedWittElement.term(1, 1, ((1,), 0), ((0,), 0), ("t", 1)),
        DressedWittElement.term(1, 1, ((0,), 1), ((1,), 0), ("t", 1))),
    "OperatorWord": (_word,
                     OperatorWord.from_word(1, 1, [("mt", 1), ("dt", 1)]),
                     OperatorWord.from_word(1, 1, [("dx", 1)])),
    "TensorElement": (lambda rng: rand_tensor(make_spec(1, 1), rng, nterms=4),
                      None, None),
}


@pytest.mark.parametrize("kind", sorted(LINCOMB_TYPES))
def test_lincomb_core(kind):
    make, even, odd = LINCOMB_TYPES[kind]
    rng = random.Random(11)
    for _ in range(20):
        x, y = make(rng), make(rng)
        results = [x + y, x - y, -x, 0 * x, x * 0, x - x, (x + y) - y]
        for r in results:
            assert type(r) is type(x)
            assert all(c != 0 for c in r.terms.values())
        assert not (x - x) and not 0 * x
        assert (x + y) - y == x
        if even is None:
            continue
        assert (even.parity(), odd.parity()) == (0, 1)
        # random coefficients have denominators dividing 6, so these
        # two terms cannot cancel
        mixed = x + Fraction(1, 7) * even + Fraction(1, 7) * odd
        assert mixed.parity() is None
        ev, od = mixed.homogeneous_parts()
        assert ev + od == mixed
        assert (ev.parity(), od.parity()) == (0, 1)
    zero = 0 * x
    for other, (make_other, _, _) in LINCOMB_TYPES.items():
        if other != kind:
            assert zero != 0 * make_other(rng)
    if kind == "TensorElement":
        assert zero != TensorElement.zero(make_spec(1, 1, rep="trivial:3"))
