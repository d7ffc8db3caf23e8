"""Supercommutative polynomial arithmetic: signs, derivatives, Leibniz."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (canonical, dressed_from_witt, homogeneous_parts,
                      make_spec,
                      merge_sign, next_generator_sign, rand_coeff,
                      rand_superpoly, rand_tensor, rand_witt)
from wittmod.dressed import DressedWittElement
from wittmod.config import parse_twist
from wittmod.linalg import Echelon
from wittmod.superpoly import (SuperPoly, divide, enumerate_monomials, exact,
                               mask_of, merge_sign_masks, mono_mul,
                               mono_parity, mono_partial_xi)
from wittmod.glmn import Rep, natural_rep
from wittmod.tensor_modules import (ModuleSpec, TensorElement, act_word,
                                    lower_t, pbw_basis_rewrite, weight_reduce)
from wittmod.witt import TSLOT, WittElement, witt_bracket
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


# a reference for the one sign premise that both routes of every check
# share: the Koszul sign counted pair by pair on index lists
SUBSETS_4 = [I for k in range(5) for I in combinations(range(1, 5), k)]


def _inversion_sign(I, J):
    """The sign of xi_I * xi_J for ascending index lists: 0 when they
    share an index, else -1 to the number of pairs i in I, j in J, i > j."""
    if set(I) & set(J):
        return 0
    return (-1) ** sum(1 for i in I for j in J if i > j)


def _mask(indices):
    return sum(2 ** (i - 1) for i in indices)


def _sign_disagreements(merge):
    """The pairs (I, J) at n <= 4 on which merge differs from the count."""
    bad = []
    for I in SUBSETS_4:
        for J in SUBSETS_4:
            sign = _inversion_sign(I, J)
            want = (sign, _mask(set(I) | set(J)) if sign else 0)
            if merge(_mask(I), _mask(J)) != want:
                bad.append((I, J))
    return bad


def test_merge_sign_masks_is_the_inversion_count():
    assert len(SUBSETS_4) == 16
    assert _sign_disagreements(merge_sign_masks) == []


def test_inversion_count_refutes_the_next_generator_fault():
    # xi_2 xi_3 * xi_1: xi_1 passes two generators, the fault counts one
    assert _inversion_sign((2, 3), (1,)) == 1
    assert next_generator_sign(_mask((2, 3)), _mask((1,))) == (-1, 7)
    bad = _sign_disagreements(next_generator_sign)
    assert ((2, 3), (1,)) in bad
    # the fault needs three odd generators: no pair within xi_1, xi_2
    assert all(max(I + J) >= 3 for I, J in bad)


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
    x = dressed_from_witt(rand_witt(rng, 1, 1, nterms=3))
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
        ev, od = homogeneous_parts(mixed)
        assert ev + od == mixed
        assert (ev.parity(), od.parity()) == (0, 1)
    zero = 0 * x
    for other, (make_other, _, _) in LINCOMB_TYPES.items():
        if other != kind:
            assert zero != 0 * make_other(rng)
    if kind == "TensorElement":
        assert zero != TensorElement.zero(make_spec(1, 1, rep="trivial:3"))


def _twisted_t1(weight):
    spec = make_spec(1, 1)
    return weight_reduce(spec, TensorElement.pure(spec, ((1,), 0), 0), weight)


# every constructor or function that turns a caller's value into a
# Fraction, as value -> what it stores
EXACT_SITES = {
    "ModuleSpec.a": lambda v: ModuleSpec(1, 1, [v], natural_rep(1, 1)).a,
    "weight_reduce": lambda v: _twisted_t1([v]),
    "Rep": lambda v: Rep(1, 0, 1, (0,), {(1, 1): {(0, 0): v}}),
    "SuperPoly.monomial": lambda v: SuperPoly.monomial(1, 1, (1,), (), v),
    "WittElement.term": lambda v: WittElement.term(1, 1, (1,), 0,
                                                   (TSLOT, 1), v),
    "DressedWittElement.term": lambda v: DressedWittElement.term(
        1, 1, ((1,), 0), ((0,), 0), (TSLOT, 1), v),
    "TensorElement.pure": lambda v: TensorElement.pure(
        make_spec(1, 1), ((1,), 0), 0, v),
    "OperatorWord.from_word": lambda v: OperatorWord.from_word(
        1, 1, (("mt", 1),), v),
}


@pytest.mark.parametrize("site", sorted(EXACT_SITES))
def test_caller_values_are_exact(site):
    # a float is refused, as in 0.5 * element; everything else that
    # Fraction reads is stored exactly
    make = EXACT_SITES[site]
    with pytest.raises(TypeError):
        make(0.1)
    assert make("1/10") == make(Fraction(1, 10)) != make(Fraction(1, 5))


F_HALF = Fraction(1, 2)


def _stored(obj):
    """Every coefficient that a site's result holds."""
    if isinstance(obj, tuple):
        return list(obj)
    if isinstance(obj, Rep):
        return [c for mat in obj.mats.values() for c in mat.values()]
    return list(obj.terms.values())


@pytest.mark.parametrize("site", sorted(EXACT_SITES))
def test_caller_values_follow_the_one_rule(site):
    # an integral value is stored as an int however it is spelt, any
    # other as a Fraction
    make = EXACT_SITES[site]
    for value in (2, Fraction(4, 2), "6/3", Fraction(1, 3), "-1/2"):
        assert all(canonical(c) for c in _stored(make(value))), value
    assert make(Fraction(4, 2)) == make("6/3") == make(2)


def test_exact_and_divide_follow_the_one_rule():
    for value, want in ((Fraction(6, 3), 2), (True, 1), ("3/6", F_HALF),
                        (-4, -4), (Fraction(-1, 2), -F_HALF)):
        got = exact(value)
        assert canonical(got) and got == want, value
    for a, b, want in ((4, 2, 2), (1, -2, -F_HALF), (-7, 7, -1),
                       (F_HALF, Fraction(1, 4), 2), (Fraction(3, 2), 3, F_HALF),
                       (3, F_HALF, 6), (0, Fraction(-5, 3), 0)):
        got = divide(a, b)
        assert canonical(got) and got == want, (a, b)
    with pytest.raises(ZeroDivisionError):
        divide(1, 0)
    with pytest.raises(ZeroDivisionError):
        divide(F_HALF, 0)
    assert parse_twist("1, -1/2, 4/2", 3) == (1, -F_HALF, 2)
    assert [type(x) for x in parse_twist("1, -1/2, 4/2", 3)] \
        == [int, Fraction, int]
    assert [type(x) for x in parse_twist([Fraction(2), 1], 2)] == [int, int]


def test_fraction_arithmetic_that_lands_on_an_integer_gives_an_int():
    # each loop that sums or scales coefficients: halves summed, scaled
    # or multiplied into an integer leave an int, never Fraction(n, 1)
    half = SuperPoly.monomial(1, 1, (2,), (), F_HALF)
    spec = make_spec(1, 1, a=(2,))
    x = TensorElement.pure(spec, ((2,), 0), 0, F_HALF)
    dt = WittElement.term(1, 1, (0,), 0, (TSLOT, 1), F_HALF)
    results = {
        "sum": half + half,
        "scalar": 4 * half,
        "product": half * SuperPoly.monomial(1, 1, (0,), (), 2),
        "partial": half.partial_t(1),
        "constructor": SuperPoly(1, 1, [(((1,), 0), F_HALF)] * 2),
        "bracket": witt_bracket(dt, WittElement.term(1, 1, (2,), 0,
                                                     (TSLOT, 1))),
        "act": act_word(spec, OperatorWord.from_word(1, 1, [("dt", 1)], 2),
                        x),
        "lower": lower_t(spec, 1, x),
        "weight": weight_reduce(spec, x, [10]),  # (10-1)(10-2)/(2*2^2)
    }
    for name, got in results.items():
        values = list(got.terms.values())
        assert values and all(type(c) is int for c in values), (name, values)
    coords = pbw_basis_rewrite(make_spec(1, 1), 2, x)
    assert coords and all(canonical(c) for c in coords.values())
    ech = Echelon()
    ech.insert({0: F_HALF, 1: Fraction(3, 2)})
    ech.insert({1: Fraction(2, 3), 0: Fraction(2, 3)})
    assert ech.rows == {0: {0: 1}, 1: {1: 1}}
    assert all(type(c) is int for row in ech.rows.values()
               for c in row.values())
