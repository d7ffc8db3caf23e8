"""Block-graded matrix superalgebra and its representations."""

from fractions import Fraction

import pytest

from wittmod.glmn import (Rep, basis_parity, custom_rep, direct_sum_rep,
                          mat_add, mat_sub, natural_rep, supercommutator,
                          tensor_rep, trivial_rep, verify_rep)

F = Fraction


def test_elementary_bracket():
    # [E12, E21] = E11 - E22 in the even part
    e = natural_rep(2, 0).mats
    got = supercommutator(e[(1, 2)], e[(2, 1)], 0, 0)
    assert got == mat_sub(e[(1, 1)], e[(2, 2)])


def test_odd_odd_bracket_is_anticommutator():
    # both units odd: [x, y] = xy + yx
    m = 1
    e = natural_rep(m, 1).mats
    assert basis_parity(m, 1, 2) == 1
    assert basis_parity(m, 1, 1) == 0
    got = supercommutator(e[(1, 2)], e[(2, 1)], 1, 1)
    assert got == mat_add(e[(1, 1)], e[(2, 2)])


def test_natural_rep_verifies():
    for (m, n) in ((1, 1), (2, 1), (2, 2)):
        assert verify_rep(natural_rep(m, n))


def test_trivial_and_sums_verify():
    assert verify_rep(trivial_rep(1, 1))
    assert verify_rep(trivial_rep(2, 1, dim=3))
    assert verify_rep(direct_sum_rep(trivial_rep(1, 1), natural_rep(1, 1)))


def test_tensor_rep_verifies():
    v = natural_rep(1, 1)
    assert verify_rep(tensor_rep(v, v))
    assert tensor_rep(v, v).dim == 4


def test_sign_mutated_natural_rejected():
    base = natural_rep(1, 1)
    mats = dict(base.mats)
    bad = [list(row) for row in mats[(1, 2)]]
    for r in range(len(bad)):
        for c in range(len(bad)):
            bad[r][c] = -bad[r][c]
    mats[(1, 2)] = tuple(tuple(row) for row in bad)
    with pytest.raises(ValueError, match="do not define a representation"):
        custom_rep(1, 1, base.dim, base.parities, mats)
    check = verify_rep(Rep(1, 1, base.dim, base.parities, mats))
    assert not check
    assert ("bracket", (1, 2), (2, 1)) in check.failures


def test_custom_rep_validation():
    base = natural_rep(1, 1)
    mats = dict(base.mats)
    del mats[(1, 1)]
    with pytest.raises(ValueError):
        custom_rep(1, 1, base.dim, base.parities, mats)
    with pytest.raises(ValueError):
        custom_rep(1, 1, 3, (0, 1), dict(base.mats))


def test_weight_basis_detection():
    assert natural_rep(2, 1).has_weight_basis()
    assert trivial_rep(1, 1, dim=2).has_weight_basis()


def test_gl_jacobi_small():
    m, n = 1, 1
    e = natural_rep(m, n).mats
    units = [(e[(i, j)], basis_parity(m, i, j))
             for i in (1, 2) for j in (1, 2)]
    for a, pa in units:
        for b, pb in units:
            ab = supercommutator(a, b, pa, pb)
            for c, pc in units:
                # [a,[b,c]] = [[a,b],c] + (-1)^{|a||b|} [b,[a,c]]
                lhs = supercommutator(a, supercommutator(b, c, pb, pc),
                                      pa, pb ^ pc)
                first = supercommutator(ab, c, pa ^ pb, pc)
                second = supercommutator(b, supercommutator(a, c, pa, pc),
                                         pb, pa ^ pc)
                if pa and pb:
                    assert lhs == mat_sub(first, second)
                else:
                    assert lhs == mat_add(first, second)
