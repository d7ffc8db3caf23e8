"""Shared generators for randomized algebra tests.

All randomness is seeded; a failing case reproduces from the seed alone.
"""

import random
from fractions import Fraction

import pytest

from wittmod.config import resolve_rep
from wittmod.superpoly import SuperPoly, enumerate_monomials
from wittmod.tensor_modules import (ModuleSpec, TensorElement, act_word,
                                    window_keys)
from wittmod.witt import WittElement, witt_basis

COEFF_POOL = [Fraction(k) for k in (-3, -2, -1, 1, 2, 3, 5)] \
    + [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 3)]


def rand_coeff(rng: random.Random) -> Fraction:
    return rng.choice(COEFF_POOL)


def rand_superpoly(rng, m, n, max_deg=3, nterms=3) -> SuperPoly:
    pool = enumerate_monomials(m, n, max_deg)
    out = SuperPoly.zero(m, n)
    for _ in range(nterms):
        mono = pool[rng.randrange(len(pool))]
        out = out + SuperPoly.monomial(m, n, mono[0], mono[1],
                                       rand_coeff(rng))
    return out


def witt_keys(m, n, max_deg):
    return [next(iter(el.terms)) for el in witt_basis(m, n, max_deg)]


def rand_witt(rng, m, n, max_deg=2, nterms=2) -> WittElement:
    keys = witt_keys(m, n, max_deg)
    out = WittElement.zero(m, n)
    for _ in range(nterms):
        (mono, slot) = keys[rng.randrange(len(keys))]
        out = out + WittElement.term(m, n, mono[0], mono[1], slot,
                                     rand_coeff(rng))
    return out


def rand_tensor(spec, rng, max_deg=2, nterms=3) -> TensorElement:
    keys = window_keys(spec, max_deg)
    out = TensorElement.zero(spec)
    for _ in range(nterms):
        mono, l = keys[rng.randrange(len(keys))]
        out = out + TensorElement.pure(spec, mono, l, rand_coeff(rng))
    return out


def make_spec(m, n, a=None, rep="natural") -> ModuleSpec:
    if a is None:
        a = (Fraction(1),) * m
    return ModuleSpec(m, n, a, resolve_rep(rep, m, n))


def act_on_poly(w, p: SuperPoly) -> SuperPoly:
    """A word acting on a polynomial: the algebra is the module with twist
    0 and the trivial rep, so it has no action of its own."""
    spec = make_spec(p.m, p.n, a=(0,) * p.m, rep="trivial")
    x = TensorElement(p.m, p.n, 1, {(mono, 0): c
                                    for mono, c in p.terms.items()})
    y = act_word(spec, w, x)
    return SuperPoly(p.m, p.n, {mono: c for (mono, _), c in y.terms.items()})


@pytest.fixture
def spec11() -> ModuleSpec:
    return make_spec(1, 1)


@pytest.fixture
def spec21() -> ModuleSpec:
    return make_spec(2, 1, a=(Fraction(1), Fraction(-1, 2)))
