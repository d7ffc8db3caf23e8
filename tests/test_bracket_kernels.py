"""Basis-pair bracket kernels and the int lane of the brackets built on them.

The _reference_* functions are the element brackets as they were before
each became a bilinear loop over a kernel: Fraction arithmetic
throughout, the extension through witt_act.  Every bracket must equal its
reference and hand out coefficients under the package's one rule (an int
when integral, else a Fraction); every kernel must return ints and
agree with its element bracket on each pair of basis terms.  The
_frozen_* kernels are _bracket_basis and _dressed_bracket_basis as they
were before they tested mask overlap first and read parities off the
masks; the kernels must return their lists term for term, in order.
"""

import random
from fractions import Fraction
from functools import cache, partial

import pytest

from wittmod.dressed import (_dressed_bracket_basis, _dressed_tables,
                             dressed_basis, dressed_bracket)
from wittmod.superpoly import (accumulate, merge_sign_masks, mono_mul,
                               mono_parity, popcount, xi_position)
from wittmod.witt import (TSLOT, XSLOT, _act_basis, _bracket_basis,
                          _extended_bracket_basis, _oracle_basis,
                          _oracle_tables, bracket_oracle, extended_basis,
                          extended_bracket, term_parity, witt_act,
                          witt_basis, witt_bracket)

from conftest import canonical, ext_der, ext_fun, homogeneous_parts


def _reference_witt_bracket(x, y, mode="corrected"):
    x._check(y)
    corrected = mode == "corrected"
    acc = {}
    for (mono1, slot1), c1 in x.terms.items():
        for (mono2, slot2), c2 in y.terms.items():
            c12 = c1 * c2
            for key, c in _bracket_basis(x.m, mono1, slot1, mono2, slot2,
                                         corrected):
                accumulate(acc, key, c12 * c)
    return x._like(acc)


def _reference_bracket_oracle(x, y):
    x._check(y)
    m = x.m
    zero = (0,) * m
    gens = [((zero[:i - 1] + (1,) + zero[i:], 0), (TSLOT, i))
            for i in range(1, m + 1)]
    gens += [((zero, 1 << (j - 1)), (XSLOT, j)) for j in range(1, x.n + 1)]
    out = {}
    for k1, c1 in x.terms.items():
        p1 = term_parity(*k1)
        for k2, c2 in y.terms.items():
            c12 = c1 * c2
            sign = -1 if p1 & term_parity(*k2) else 1
            pair = ((k2, k1, c12), (k1, k2, -sign * c12))
            for g, slot in gens:
                for first, second, c in pair:
                    hit = _act_basis(first, g)
                    if hit is None:
                        continue
                    hit2 = _act_basis(second, hit[0])
                    if hit2 is not None:
                        accumulate(out, (hit2[0], slot),
                                   c * (hit[1] * hit2[1]))
    return x._like(out)


def _reference_extended_bracket(u, v):
    u._check(v)
    x, y, a = ext_der(u), ext_der(v), ext_fun(u)
    fun = witt_act(x, ext_fun(v))
    if y and a:
        for yh in homogeneous_parts(y):
            for ah in homogeneous_parts(a):
                if yh and ah:
                    sign = -1 if yh.parity() * ah.parity() & 1 else 1
                    fun = fun - sign * witt_act(yh, ah)
    terms = _reference_witt_bracket(x, y).terms
    terms.update(((mono, None), c) for mono, c in fun.terms.items())
    return u._like(terms)


def _reference_dressed_bracket(u, v, mode="corrected"):
    u._check(v)
    corrected = mode == "corrected"
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
            hit = _act_basis(xkey, b)
            if hit:
                mono, c1 = hit
                prod = mono_mul(a, mono)
                if prod:
                    accumulate(acc, (prod[0], ykey), c0 * c1 * prod[1])
            hit = _act_basis(ykey, a)
            if hit:
                mono, c1 = hit
                prod = mono_mul(b, mono)
                if prod:
                    sign = -1 if (pa + px) * (pb + py) & 1 else 1
                    accumulate(acc, (prod[0], xkey),
                               -sign * c0 * c1 * prod[1])
            prod = mono_mul(a, b)
            if prod:
                sign = -1 if px * pb & 1 else 1
                cab = c0 * prod[1] * sign
                for key, c2 in _bracket_basis(u.m, xmono, xslot, ymono,
                                              yslot, corrected):
                    accumulate(acc, (prod[0], key), cab * c2)
    return u._like(acc)


# name: (basis, bracket, its reference, mode or None)
BRACKETS = {
    "witt-corrected": (witt_basis, witt_bracket, _reference_witt_bracket,
                       "corrected"),
    "witt-verbatim": (witt_basis, witt_bracket, _reference_witt_bracket,
                      "verbatim"),
    "oracle": (witt_basis, bracket_oracle, _reference_bracket_oracle, None),
    "extended": (extended_basis, extended_bracket,
                 _reference_extended_bracket, None),
    "dressed-corrected": (dressed_basis, dressed_bracket,
                          _reference_dressed_bracket, "corrected"),
    "dressed-verbatim": (dressed_basis, dressed_bracket,
                         _reference_dressed_bracket, "verbatim"),
}

COEFFS = [Fraction(1), Fraction(2), Fraction(3, 2), Fraction(-1, 3),
          Fraction(-1)]


def _mode(mode):
    return {} if mode is None else {"mode": mode}


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)],
                         ids=["11", "21", "12"])
@pytest.mark.parametrize("name", list(BRACKETS))
def test_int_lane_never_leaks(name, m, n):
    basis_of, bracket, reference, mode = BRACKETS[name]
    basis = basis_of(m, n, 2)
    keys = [next(iter(b.terms)) for b in basis]
    rng = random.Random(1000 * m + 10 * n + len(name))
    denominators = set()
    for _ in range(8):
        x, y = (basis[0]._like({
            key: rng.choice(COEFFS)
            for key in rng.sample(keys, rng.choice((3, 4)))})
            for _ in range(2))
        out = bracket(x, y, **_mode(mode))
        assert all(canonical(c) and c for c in out.terms.values()), \
            out.terms
        assert out == reference(x, y, **_mode(mode))
        denominators.update(c.denominator for c in out.terms.values())
    # both lanes ran: integral and non-integral output values
    assert 1 in denominators and len(denominators) > 1


@pytest.mark.parametrize("corrected", [True, False],
                         ids=["corrected", "verbatim"])
def test_x_slot_t_slot_is_the_swapped_pair(corrected):
    # -(-1)^{|u||v|} [v, u], term for term and in the same order
    for m, n in ((1, 2), (2, 2), (2, 3)):
        keys = [next(iter(b.terms)) for b in witt_basis(m, n, 2)]
        xs = [k for k in keys if k[1][0] == XSLOT]
        ts = [k for k in keys if k[1][0] == TSLOT]
        nonzero = 0
        for u in xs:
            for v in ts:
                s = 1 if term_parity(*u) & term_parity(*v) else -1
                got = _bracket_basis(m, *u, *v, corrected)
                assert got == [(key, s * c) for key, c in
                               _bracket_basis(m, *v, *u, corrected)], (u, v)
                nonzero += bool(got)
        assert nonzero > len(keys)


# name: (basis, kernel(m, n) -> kernel(k1, k2), its element bracket); a
# kernel that reads tables reads one set for every pair of a test
KERNELS = {
    "oracle": (witt_basis,
               lambda m, n: partial(_oracle_basis, _oracle_tables(m, n)),
               _reference_bracket_oracle),
    "extended": (extended_basis,
                 lambda m, n: partial(_extended_bracket_basis, m),
                 _reference_extended_bracket),
    "dressed-corrected": (
        dressed_basis,
        lambda m, n: partial(_dressed_bracket_basis,
                             _dressed_tables(m, True)),
        _reference_dressed_bracket),
    "dressed-verbatim": (
        dressed_basis,
        lambda m, n: partial(_dressed_bracket_basis,
                             _dressed_tables(m, False)),
        lambda u, v: _reference_dressed_bracket(u, v, "verbatim")),
}


# every basis pair at (1,1) deg 2, and at (1,2) deg 1, where the odd
# variables give the kernels their Koszul signs
@pytest.mark.parametrize("m,n,deg", [(1, 1, 2), (1, 2, 1)],
                         ids=["11-deg2", "12-deg1"])
@pytest.mark.parametrize("name", list(KERNELS))
def test_kernel_matches_element_bracket(name, m, n, deg):
    basis_of, make_kernel, reference = KERNELS[name]
    basis = basis_of(m, n, deg)
    kernel = make_kernel(m, n)
    nonzero = 0
    for x in basis:
        (k1,) = x.terms
        for y in basis:
            (k2,) = y.terms
            pairs = kernel(k1, k2)
            assert all(type(c) is int and c for _, c in pairs), pairs
            summed = {}
            for key, c in pairs:
                accumulate(summed, key, Fraction(c))
            assert summed == reference(x, y).terms, (k1, k2)
            nonzero += bool(summed)
    assert nonzero > len(basis)


# ---------------------------------------------------------------------------
# the kernels against frozen copies of themselves

def _frozen_bracket_basis(m, mono1, slot1, mono2, slot2, corrected=True):
    alpha, imask = mono1
    beta, jmask = mono2
    k1, i = slot1
    k2, j = slot2

    f = 1
    if k1 == XSLOT and k2 == TSLOT:
        f = 1 if (popcount(imask) + 1) * popcount(jmask) & 1 else -1
        alpha, imask, i, beta, jmask, j = beta, jmask, j, alpha, imask, i
        k1, k2 = k2, k1

    out = []
    if k1 == TSLOT and k2 == TSLOT:
        sign, union = merge_sign_masks(imask, jmask)
        if sign:
            bi = beta[i - 1]
            if bi:
                g = list(a + b for a, b in zip(alpha, beta))
                g[i - 1] -= 1
                out.append((((tuple(g), union), (TSLOT, j)), sign * bi))
            aj = alpha[j - 1]
            if aj:
                g = list(a + b for a, b in zip(alpha, beta))
                g[j - 1] -= 1
                out.append((((tuple(g), union), (TSLOT, i)), -sign * aj))
        return out

    if k1 == TSLOT and k2 == XSLOT:
        sign, union = merge_sign_masks(imask, jmask)
        if sign:
            bi = beta[i - 1]
            if bi:
                g = list(a + b for a, b in zip(alpha, beta))
                g[i - 1] -= 1
                out.append((((tuple(g), union), (XSLOT, j)), f * sign * bi))
        bit = 1 << (j - 1)
        if imask & bit:
            pI = popcount(imask)
            pJ = popcount(jmask)
            s0 = 1 if (pI * (pJ - 1) + xi_position(imask, j)) & 1 else -1
            msign, munion = merge_sign_masks(jmask, imask & ~bit)
            if msign:
                g = (tuple(a + b for a, b in zip(alpha, beta))
                     if corrected else (0,) * m)
                out.append((((g, munion), (TSLOT, i)), f * s0 * msign))
        return out

    bit_i = 1 << (i - 1)
    if jmask & bit_i:
        s1 = -1 if xi_position(jmask, i) & 1 else 1
        msign, munion = merge_sign_masks(imask, jmask & ~bit_i)
        if msign:
            g = tuple(a + b for a, b in zip(alpha, beta))
            out.append((((g, munion), (XSLOT, j)), s1 * msign))
    bit_j = 1 << (j - 1)
    if imask & bit_j:
        pI = popcount(imask)
        pJ = popcount(jmask)
        s2 = -1 if (xi_position(imask, j) + (pI - 1) * (pJ - 1)) & 1 else 1
        msign, munion = merge_sign_masks(jmask, imask & ~bit_j)
        if msign:
            g = (tuple(a + b for a, b in zip(alpha, beta))
                 if corrected else (0,) * m)
            out.append((((g, munion), (XSLOT, i)), -s2 * msign))
    return out


def _frozen_dressed_bracket_basis(tables, k1, k2):
    act, mul, bracket = tables
    (a, xkey), (b, ykey) = k1, k2
    px, py = term_parity(*xkey), term_parity(*ykey)
    pa, pb = mono_parity(a), mono_parity(b)
    out = []
    hit = act(xkey, b)
    if hit:
        prod = mul(a, hit[0])
        if prod:
            out.append(((prod[0], ykey), hit[1] * prod[1]))
    hit = act(ykey, a)
    if hit:
        prod = mul(b, hit[0])
        if prod:
            sign = -1 if (pa + px) * (pb + py) & 1 else 1
            out.append(((prod[0], xkey), -sign * hit[1] * prod[1]))
    prod = mul(a, b)
    if prod:
        s = -prod[1] if px * pb & 1 else prod[1]
        out.extend(((prod[0], key), s * c) for key, c in bracket(xkey, ykey))
    return out


def _frozen_dressed_tables(m, corrected):
    return cache(_act_basis), cache(mono_mul), cache(
        lambda xkey, ykey: _frozen_bracket_basis(m, *xkey, *ykey, corrected))


def _assert_same_lists(keys, kernel, frozen, support=True):
    """kernel and frozen give the same list on every ordered pair of keys,
    and with support on every ordered pair of a key and a key of a
    key-pair bracket's support, the pairs a Jacobi sweep reads; returns
    the count of nonzero lists."""
    others = list(keys)
    if support:
        others += sorted({key for k1 in keys for k2 in keys
                          for key, _ in frozen(k1, k2)}.difference(keys))
    nonzero = 0
    for k1 in keys:
        for k2 in others:
            for pair in ((k1, k2), (k2, k1)):
                got = kernel(*pair)
                assert got == frozen(*pair), pair
                nonzero += bool(got)
    return nonzero


SHAPES = [(1, 0), (1, 1), (2, 1), (2, 2)]


@pytest.mark.parametrize("corrected", [True, False],
                         ids=["corrected", "verbatim"])
@pytest.mark.parametrize("m,n", SHAPES, ids=["10", "11", "21", "22"])
def test_bracket_basis_equals_its_frozen_copy(m, n, corrected):
    # every key of t-degree <= 3 and every key of their brackets
    keys = [next(iter(b.terms)) for b in witt_basis(m, n, 3)]
    assert _assert_same_lists(
        keys, lambda k1, k2: _bracket_basis(m, *k1, *k2, corrected),
        lambda k1, k2: _frozen_bracket_basis(m, *k1, *k2, corrected))


# (degree, with support): the dressed kernel reads its parities off the
# masks and slot kinds, and every combination of those is already in the
# degree-1 basis; at (2,1) and (2,2) the support pairs number 0.3 and 0.6
# million, so the basis pairs alone are read there
DRESSED = {(1, 0): (3, True), (1, 1): (3, True), (2, 1): (2, False),
           (2, 2): (1, False)}


@pytest.mark.parametrize("corrected", [True, False],
                         ids=["corrected", "verbatim"])
@pytest.mark.parametrize("m,n", SHAPES, ids=["10", "11", "21", "22"])
def test_dressed_bracket_basis_equals_its_frozen_copy(m, n, corrected):
    deg, support = DRESSED[m, n]
    keys = [next(iter(b.terms)) for b in dressed_basis(m, n, deg)]
    assert _assert_same_lists(
        keys, partial(_dressed_bracket_basis, _dressed_tables(m, corrected)),
        partial(_frozen_dressed_bracket_basis,
                _frozen_dressed_tables(m, corrected)), support)
