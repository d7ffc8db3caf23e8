"""Superderivation bracket: table vs oracle, gradings, the extension."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittmod import witt
from wittmod.expressions import parse_expr, as_witt, print_expr
from wittmod.superpoly import SuperPoly
from wittmod.verifier import run_check
from wittmod.witt import (TSLOT, XSLOT, ExtendedWittElement, WittElement,
                          bracket_oracle, extended_bracket, witt_act,
                          witt_basis, witt_bracket)

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


def composition_reference(x, y):
    """[x, y] by witt_act on SuperPoly generators, one homogeneous part
    of each side at a time: the oracle's route before it ran on terms."""
    m, n = x.m, x.n
    gens = [(SuperPoly.monomial(m, n, tuple(int(k == i)
                                            for k in range(1, m + 1))),
             (TSLOT, i)) for i in range(1, m + 1)]
    gens += [(SuperPoly.monomial(m, n, (0,) * m, (j,)), (XSLOT, j))
             for j in range(1, n + 1)]
    out = WittElement(m, n)
    for xh in x.homogeneous_parts():
        for yh in y.homogeneous_parts():
            if xh and yh:
                sign = -1 if xh.parity() * yh.parity() & 1 else 1
                for g, slot in gens:
                    val = (witt_act(xh, witt_act(yh, g))
                           - sign * witt_act(yh, witt_act(xh, g)))
                    out = out + WittElement(m, n, {
                        (mono, slot): c for mono, c in val.terms.items()})
    return out


def rand_mixed_witt(rng, m, n):
    while True:
        x = rand_witt(rng, m, n, max_deg=2, nterms=3)
        if x.parity() is None:
            return x


def test_oracle_matches_composition_reference():
    basis = witt_basis(2, 2, 2)
    for x in basis:
        for y in basis:
            assert bracket_oracle(x, y) == composition_reference(x, y)
    rng = random.Random(8)
    for _ in range(200):
        m, n = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
        x, y = rand_mixed_witt(rng, m, n), rand_mixed_witt(rng, m, n)
        assert bracket_oracle(x, y) == composition_reference(x, y)


def test_oracle_answers_without_the_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("the oracle read the structure constants")
    monkeypatch.setattr(witt, "_bracket_basis", no_table)
    basis = witt_basis(2, 2, 2)
    with pytest.raises(AssertionError):
        witt_bracket(basis[0], basis[-1])
    rng = random.Random(11)
    for _ in range(300):
        x, y = rng.choice(basis), rng.choice(basis)
        assert bracket_oracle(x, y) == composition_reference(x, y)


def test_table_fault_is_caught_by_the_oracle(monkeypatch):
    m, n = 2, 2
    keys = witt_keys(m, n, 1)
    rng = random.Random(4)
    pairs = [(k1, k2) for k1 in keys for k2 in keys
             if witt._bracket_basis(m, *k1, *k2)]
    target = pairs[rng.randrange(len(pairs))]
    table = witt._bracket_basis

    def negated(m, mono1, slot1, mono2, slot2, corrected=True):
        out = table(m, mono1, slot1, mono2, slot2, corrected)
        if ((mono1, slot1), (mono2, slot2)) == target:
            return [(key, -c) for key, c in out]
        return out
    monkeypatch.setattr(witt, "_bracket_basis", negated)

    report = run_check("bracket_oracle", {"m": m, "n": n, "deg": 1})
    assert report.status == "fail"
    cex = report.counterexample
    x = as_witt(parse_expr(cex["x"]), m, n)
    y = as_witt(parse_expr(cex["y"]), m, n)
    # a t-slot/x-slot fault also reaches its swapped pair via the flip
    assert {next(iter(x.terms)), next(iter(y.terms))} == set(target)
    assert print_expr(witt_bracket(x, y)) == cex["table"]
    assert print_expr(composition_reference(x, y)) == cex["oracle"]
    assert cex["table"] != cex["oracle"]


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
    a = ExtendedWittElement.from_poly(SuperPoly.monomial(1, 1, (1,)))
    b = ExtendedWittElement.from_poly(SuperPoly.monomial(1, 1, (0,), (1,)))
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
