"""Superderivation bracket: table vs oracle, gradings, the extension."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittmod.expressions import parse_expr, as_witt, print_expr
from wittmod.superpoly import SuperPoly
from wittmod.witt import (ExtendedWittElement, WittElement, bracket_oracle,
                          extended_bracket, witt_act, witt_bracket)

from conftest import rand_superpoly, rand_witt, witt_keys


def W(text, m=1, n=1):
    return as_witt(parse_expr(text), m, n)


def test_kernel_example():
    # [d/dt, t d/dt] = d/dt
    assert witt_bracket(W("dt1"), W("t1*dt1")) == W("dt1")


def test_bracket_matches_oracle_exhaustive_11():
    keys = witt_keys(1, 1, 2)
    for k1 in keys:
        x = WittElement.term(1, 1, k1[0][0], k1[0][1], k1[1])
        for k2 in keys:
            y = WittElement.term(1, 1, k2[0][0], k2[0][1], k2[1])
            assert witt_bracket(x, y) == bracket_oracle(x, y)


def test_verbatim_table_contradicts_oracle():
    # pinned counterexample: the delta terms need the full monomial factor
    x, y = W("dx1"), W("t1*x1*dt1")
    assert witt_bracket(x, y, mode="verbatim") == W("dt1")
    assert bracket_oracle(x, y) == W("t1*dt1")
    assert witt_bracket(x, y) == W("t1*dt1")


def test_corrected_vs_verbatim_hand_case():
    x, y = W("t1*x1*dt1"), W("t1*dx1")
    assert witt_bracket(x, y) == W("t1^2*dt1 + t1*x1*dx1")
    assert witt_bracket(x, y, mode="verbatim") == W("dt1 + t1*x1*dx1")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        witt_bracket(W("dt1"), W("dt1"), mode="fancy")


def test_extended_element_rejects_a_non_int_shape():
    # the removed (der, fun) constructor's call shape must not build an
    # empty element
    with pytest.raises(TypeError):
        ExtendedWittElement(WittElement(1, 0), SuperPoly(1, 0))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        witt_bracket(W("dt1"), W("dt1", m=2))


seeds = st.integers(min_value=0, max_value=10 ** 6)


@given(seed=seeds)
@settings(max_examples=120, deadline=None)
def test_super_antisymmetry(seed):
    rng = random.Random(seed)
    m, n = rng.choice([(1, 1), (2, 1), (1, 2)])
    keys = witt_keys(m, n, 2)
    k1, k2 = rng.choice(keys), rng.choice(keys)
    x = WittElement.term(m, n, k1[0][0], k1[0][1], k1[1])
    y = WittElement.term(m, n, k2[0][0], k2[0][1], k2[1])
    sign = -1 if x.parity() and y.parity() else 1
    assert witt_bracket(x, y) == -sign * witt_bracket(y, x)


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_jacobi_fuzz(seed):
    rng = random.Random(seed)
    m, n = rng.choice([(1, 1), (2, 1), (1, 2)])
    keys = witt_keys(m, n, 2)
    picks = [rng.choice(keys) for _ in range(3)]
    x, y, z = (WittElement.term(m, n, k[0][0], k[0][1], k[1])
               for k in picks)
    s = -1 if x.parity() and y.parity() else 1
    defect = (witt_bracket(x, witt_bracket(y, z))
              - witt_bracket(witt_bracket(x, y), z)
              - s * witt_bracket(y, witt_bracket(x, z)))
    assert not defect


@given(seed=seeds)
@settings(max_examples=100, deadline=None)
def test_action_is_a_superderivation(seed):
    # the oracle identity: x(fg) = x(f) g + (-1)^{|x||f|} f x(g)
    rng = random.Random(seed)
    keys = witt_keys(1, 2, 2)
    k = rng.choice(keys)
    x = WittElement.term(1, 2, k[0][0], k[0][1], k[1])
    f = rand_superpoly(rng, 1, 2, max_deg=2, nterms=1)
    g = rand_superpoly(rng, 1, 2, max_deg=2, nterms=2)
    sign = -1 if x.parity() and f.parity() else 1
    assert witt_act(x, f * g) == witt_act(x, f) * g + sign * (f * witt_act(x, g))


def test_bracket_of_actions_equals_action_of_bracket():
    rng = random.Random(5)
    for _ in range(30):
        x = rand_witt(rng, 2, 1, max_deg=2, nterms=1)
        y = rand_witt(rng, 2, 1, max_deg=2, nterms=1)
        f = rand_superpoly(rng, 2, 1, max_deg=2, nterms=2)
        sign = -1 if x.parity() and y.parity() else 1
        lhs = witt_act(witt_bracket(x, y), f)
        rhs = witt_act(x, witt_act(y, f)) - sign * witt_act(y, witt_act(x, f))
        assert lhs == rhs


def test_extension_function_part_is_abelian():
    a = ExtendedWittElement.from_poly(SuperPoly.t_var(1, 1, 1))
    b = ExtendedWittElement.from_poly(SuperPoly.xi_var(1, 1, 1))
    assert not extended_bracket(a, b)


def test_extension_mixed_bracket_is_the_action():
    x = ExtendedWittElement.from_witt(W("t1*dt1"))
    f = ExtendedWittElement.from_poly(SuperPoly.monomial(1, 1, (2,), ()))
    out = extended_bracket(x, f)
    assert not out.der
    assert out.fun == SuperPoly.monomial(1, 1, (2,), (), Fraction(2))
    # and antisymmetrically
    back = extended_bracket(f, x)
    assert back.fun == -out.fun


def test_extension_jacobi_sample():
    rng = random.Random(9)
    from wittmod.witt import extended_basis
    basis = extended_basis(1, 1, 2)
    for _ in range(60):
        x, y, z = (rng.choice(basis) for _ in range(3))
        px = x.der.parity() if x.der else x.fun.parity()
        py = y.der.parity() if y.der else y.fun.parity()
        s = -1 if px and py else 1
        defect = (extended_bracket(x, extended_bracket(y, z))
                  - extended_bracket(extended_bracket(x, y), z)
                  - s * extended_bracket(y, extended_bracket(x, z)))
        assert not defect


def test_print_names_are_stable():
    assert print_expr(W("dt1")) == "dt1"
    assert print_expr(witt_bracket(W("t1*x1*dt1"), W("t1*dx1"))) \
        == "t1*x1*dx1 + t1^2*dt1"
