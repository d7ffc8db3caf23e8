"""Coefficient-dressed derivations and the commutant construction."""

import random
from fractions import Fraction
from math import comb

import pytest

from wittmod.dressed import (DressedWittElement, commutant_element,
                             commutant_of_witt, dressed_basis,
                             dressed_bracket)
from wittmod.expressions import parse_expr, as_dressed, as_witt, print_expr
from wittmod.verifier import tau_flipped
from wittmod.witt import TSLOT, XSLOT, witt_bracket
from wittmod.words import OperatorWord, word_commutator

from conftest import act_on_poly, rand_superpoly


def D(text, m=1, n=1):
    return as_dressed(parse_expr(text), m, n)


def test_witt_embedding_preserves_brackets():
    pairs = [("t1*dt1", "x1*dx1"), ("dt1", "t1^2*dt1"), ("x1*dt1", "t1*dx1")]
    for s1, s2 in pairs:
        u, v = D(s1), D(s2)
        x, y = as_witt(parse_expr(s1), 1, 1), as_witt(parse_expr(s2), 1, 1)
        assert dressed_bracket(u, v) == DressedWittElement.from_witt(
            witt_bracket(x, y))


def _weyl_expand(w):
    """Rewrite derivation atoms t^a*xi^I*d as multiply atoms plus d."""
    out = OperatorWord(w.m, w.n)
    for word, c in w.terms.items():
        atoms = []
        for atom in word:
            if atom[0] != "w":
                atoms.append(atom)
                continue
            _, alpha, imask, slotkind, k = atom
            for i, e in enumerate(alpha, start=1):
                atoms.extend([("mt", i)] * e)
            for j in range(1, w.n + 1):
                if imask & (1 << (j - 1)):
                    atoms.append(("mx", j))
            atoms.append(("dt" if slotkind == TSLOT else "dx", k))
        out = out + OperatorWord.from_word(w.m, w.n, tuple(atoms), c)
    return out


def test_bracket_against_operator_action():
    # the word action on polynomials adjudicates the product signs
    rng = random.Random(4)
    basis = dressed_basis(1, 1, 2)
    for _ in range(40):
        u, v = rng.choice(basis), rng.choice(basis)
        p = rand_superpoly(rng, 1, 1, max_deg=3, nterms=2)
        via_table = act_on_poly(
            _weyl_expand(dressed_bracket(u, v).to_word()), p)
        via_words = act_on_poly(word_commutator(
            _weyl_expand(u.to_word()), _weyl_expand(v.to_word())), p)
        assert via_table == via_words


def test_dressed_jacobi_sample():
    rng = random.Random(8)
    basis = dressed_basis(1, 1, 2)
    for _ in range(60):
        x, y, z = (rng.choice(basis) for _ in range(3))
        s = -1 if x.parity() and y.parity() else 1
        defect = (dressed_bracket(x, dressed_bracket(y, z))
                  - dressed_bracket(dressed_bracket(x, y), z)
                  - s * dressed_bracket(y, dressed_bracket(x, z)))
        assert not defect


def test_dressing_separates_coefficient_from_slot():
    # t1 . dt1 multiplies after deriving; bracket with a pure slot sees it
    u = D("t1 . dt1")
    v = D("dt1")
    assert dressed_bracket(v, u) == D("dt1")


def test_commutant_element_shape():
    w = commutant_element(1, 1, (1,), 0, (TSLOT, 1))
    assert w.m == 1 and w.n == 1
    assert w  # nonzero
    word = w.to_word()
    assert word


def test_commutant_flipped_tau_differs():
    # the verifier's flipped merge convention is a fault, not an alias
    std = commutant_element(1, 2, (0,), 3, (XSLOT, 1))
    flp = tau_flipped(std)
    assert std != flp


def test_commutant_of_witt_linear():
    x = as_witt(parse_expr("2*t1*dt1 + x1*dx1"), 1, 1)
    w = commutant_of_witt(x)
    w1 = commutant_of_witt(as_witt(parse_expr("t1*dt1"), 1, 1))
    w2 = commutant_of_witt(as_witt(parse_expr("x1*dx1"), 1, 1))
    assert w == 2 * w1 + w2


def test_print_round_trip_dressed():
    for text in ("t1 . dt1", "x1 . dx1", "t1^2*x1 . t1*dt1",
                 "dt1 + t1 . dx1"):
        obj = D(text)
        assert D(print_expr(obj)) == obj


def _inversions(first, second):
    """#{(j, k) : j in first, k in second, j > k}, counted pair by pair."""
    return sum(1 for j in first for k in second if j > k)


@pytest.mark.parametrize("tau_mode", ["standard", "flipped"])
def test_commutant_signs_match_inversion_count(tau_mode):
    # every odd mask at n <= 3, with and without an even factor
    for n in (1, 2, 3):
        for imask in range(1 << n):
            for alpha in ((0,), (1,), (2,)):
                if not imask and not alpha[0]:
                    continue
                got = commutant_element(1, n, alpha, imask, (XSLOT, 1))
                if tau_mode == "flipped":
                    got = tau_flipped(got)
                got = got.terms
                want = {}
                bits = [j for j in range(n) if imask >> j & 1]
                for b in range(alpha[0] + 1):
                    for jmask in range(1 << n):
                        if jmask & ~imask:
                            continue
                        J = [j for j in bits if jmask >> j & 1]
                        K = [j for j in bits if not jmask >> j & 1]
                        tau = _inversions(J, K) if tau_mode == "standard" \
                            else _inversions(K, J)
                        sign = (-1) ** (b + len(J) + tau)
                        key = (((b,), jmask),
                               (((alpha[0] - b,), imask & ~jmask),
                                (XSLOT, 1)))
                        want[key] = Fraction(sign * comb(alpha[0], b))
                assert got == want, (n, imask, alpha)
