"""Twisted tensor modules: action axioms, Whittaker vectors, descent,
product basis, weight reduction."""

import random
from fractions import Fraction

import pytest

from wittmod import linalg
from wittmod.superpoly import (accumulate, mono_mul, mono_parity,
                                mono_partial_t, mono_partial_xi, popcount)
from wittmod.verifier import odd_rows_negated
from wittmod.tensor_modules import (TensorElement, TensorSpan, act_mono,
                                    act_term, act_witt, act_word, descent,
                                    generalized_whittaker_space, lower_t,
                                    pbw_basis_rewrite, act_atom, weight_act,
                                    weight_reduce, whittaker_space,
                                    window_keys)
from wittmod.witt import TSLOT, WittElement, witt_bracket, witt_act
from wittmod.words import OperatorWord, make_watom

from conftest import (make_spec, rand_coeff, rand_superpoly, rand_tensor,
                      rand_witt, witt_keys)

F = Fraction


def _witt_elem(m, n, key, coeff=1):
    (mono, slot) = key
    return WittElement.term(m, n, mono[0], mono[1], slot, coeff)


def test_bracket_compatibility_sweep_11():
    # [X,Y] acting = X acting Y acting - sign Y acting X acting
    spec = make_spec(1, 1)
    keys = witt_keys(1, 1, 2)
    wkeys = window_keys(spec, 2)
    for k1 in keys:
        x = _witt_elem(1, 1, k1)
        for k2 in keys:
            y = _witt_elem(1, 1, k2)
            s = -1 if x.parity() and y.parity() else 1
            b = witt_bracket(x, y)
            for wk in wkeys:
                v = TensorElement.pure(spec, wk[0], wk[1])
                lhs = act_witt(spec, b, v)
                rhs = act_witt(spec, x, act_witt(spec, y, v)) \
                    - s * act_witt(spec, y, act_witt(spec, x, v))
                assert lhs == rhs


def test_flipped_odd_row_sign_breaks_the_axioms():
    # the module_axioms control: odd-row matrix units negated
    spec = odd_rows_negated(make_spec(1, 1))
    keys = witt_keys(1, 1, 2)
    wkeys = window_keys(spec, 2)
    broken = 0
    for k1 in keys:
        x = _witt_elem(1, 1, k1)
        for k2 in keys:
            y = _witt_elem(1, 1, k2)
            s = -1 if x.parity() and y.parity() else 1
            b = witt_bracket(x, y)
            for wk in wkeys:
                v = TensorElement.pure(spec, wk[0], wk[1])
                lhs = act_witt(spec, b, v)
                rhs = act_witt(spec, x, act_witt(spec, y, v)) \
                    - s * act_witt(spec, y, act_witt(spec, x, v))
                if lhs != rhs:
                    broken += 1
    assert broken > 0


def test_mixed_law_with_coefficient_multiplication():
    # x . (f v) - (-1)^{|x||f|} f . (x v) = (untwisted x(f)) v
    spec = make_spec(1, 1, a=(F(2),))
    rng = random.Random(6)
    keys = witt_keys(1, 1, 2)
    for _ in range(60):
        key = rng.choice(keys)
        x = _witt_elem(1, 1, key)
        f = rand_superpoly(rng, 1, 1, max_deg=1, nterms=1)
        if not f:
            continue
        v = rand_tensor(spec, rng, max_deg=1, nterms=2)
        fm = next(iter(f.terms))
        fc = f.terms[fm]
        s = -1 if x.parity() and (popcount(fm[1]) & 1) else 1
        lhs = act_witt(spec, x, fc * act_mono(spec, fm, v)) \
            - s * fc * act_mono(spec, fm, act_witt(spec, x, v))
        xf = witt_act(x, f)
        rhs = TensorElement.zero(spec)
        for mono, c in xf.terms.items():
            rhs = rhs + c * act_mono(spec, mono, v)
        assert lhs == rhs


def test_whittaker_dimension_equals_rep_dimension():
    for rep, dim in (("natural", 2), ("trivial", 1), ("trivial:3", 3)):
        spec = make_spec(1, 1, rep=rep)
        for D in (2, 3):
            assert len(whittaker_space(spec, D)) == dim


def test_whittaker_vectors_are_killed():
    spec = make_spec(2, 1, a=(F(2), F(3)), rep="natural")
    for x in whittaker_space(spec, 3):
        for i in (1, 2):
            assert not lower_t(spec, i, x)
        assert not act_atom(spec, ("dx", 1), x)


def test_generalized_whittaker_dimensions():
    spec = make_spec(1, 1)
    # height 0 drops the odd conditions: 2^n * dimV
    assert len(generalized_whittaker_space(spec, 3, 0)) == 4
    # height 1 adds one t-layer per even direction
    assert len(generalized_whittaker_space(spec, 3, 1)) == 8


def _dense_kernel_of_ops(spec, ops, keys):
    """Second route for the window solves: one dense row over the window
    keys per output coordinate of each op, dense Gauss-Jordan, and one
    kernel vector per free key in window order."""
    rows = []
    for op in ops:
        images = [op(TensorElement.pure(spec, mono, l)) for mono, l in keys]
        out_keys = {k for img in images for k in img.terms}
        rows += [[img.terms.get(okey, F(0)) for img in images]
                 for okey in out_keys]
    rows = [r for r in rows if any(r)]
    pivots = []
    for c in range(len(keys)):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(len(keys)) if c not in pivots):
        terms = {keys[fc]: F(1)}
        for r, pc in enumerate(pivots):
            if rows[r][fc]:
                terms[keys[pc]] = -rows[r][fc]
        basis.append(TensorElement(spec.m, spec.n, spec.dim, terms))
    return basis


@pytest.mark.parametrize("m,n,rep,D,hb", [
    (1, 1, "natural", 3, None),
    (2, 1, "tensor(natural,natural)", 3, None),
    (2, 2, "natural", 4, None),
    (2, 1, "natural", 4, 1),
], ids=["1x1", "2x1-tensor", "2x2-D4", "2x1-height1"])
def test_window_solves_match_dense_route(m, n, rep, D, hb):
    spec = make_spec(m, n, a=tuple(F(i + 2, i + 1) for i in range(m)),
                     rep=rep)
    keys = window_keys(spec, D)
    if hb is None:
        got = whittaker_space(spec, D)
        ops = [lambda x, i=i: lower_t(spec, i, x) for i in range(1, m + 1)]
        ops += [lambda x, j=j: act_atom(spec, ("dx", j), x)
                for j in range(1, n + 1)]
    else:
        got = generalized_whittaker_space(spec, D, height_bound=hb)

        def power(i):
            def op(x):
                for _ in range(hb + 1):
                    x = lower_t(spec, i, x)
                return x
            return op
        ops = [power(i) for i in range(1, m + 1)]
    assert got == _dense_kernel_of_ops(spec, ops, keys)
    assert len(got) == spec.dim * (1 if hb is None else (hb + 1) ** m * 2 ** n)


def test_descent_fixes_whittaker_vectors():
    spec = make_spec(1, 1)
    for x in whittaker_space(spec, 3):
        assert descent(spec, x) == x


def test_descent_lands_in_whittaker_space_and_is_idempotent():
    spec = make_spec(2, 1, a=(F(1), F(-1, 2)))
    rng = random.Random(13)
    for _ in range(25):
        x = rand_tensor(spec, rng, max_deg=2, nterms=3)
        y = descent(spec, x)
        for i in (1, 2):
            assert not lower_t(spec, i, y)
        assert not act_atom(spec, ("dx", 1), y)
        assert descent(spec, y) == y


def test_descent_kills_augmentation_multiples():
    spec = make_spec(1, 1)
    vac = TensorElement.vacuum(spec, 0)
    assert not descent(spec, act_mono(spec, ((1,), 0), vac))


def test_pbw_roundtrip():
    spec = make_spec(1, 1, a=(F(3),))
    rewrite = pbw_basis_rewrite(spec, 3)
    rng = random.Random(2)
    for _ in range(20):
        x = rand_tensor(spec, rng, max_deg=3, nterms=3)
        assert rewrite.from_products(rewrite.to_products(x)) == x


def test_pbw_needs_nonsingular_twist():
    spec = make_spec(1, 1, a=(F(0),))
    with pytest.raises(ValueError):
        pbw_basis_rewrite(spec, 2)


def _rank(rows):
    return len(linalg.rref(rows)[1])


def test_weight_space_dimension():
    # every weight slice of the window has dimension 2^n * dimV
    spec = make_spec(1, 1)
    big = window_keys(spec, 3)
    small = window_keys(spec, 2)
    col = {key: k for k, key in enumerate(big)}
    h = WittElement.term(1, 1, (1,), 0, ("t", 1))
    for r in (-2, -1, 0, 1, 2):
        rows = []
        for key in small:
            img = act_witt(spec, h, TensorElement.pure(spec, key[0], key[1])) \
                - F(r) * TensorElement.pure(spec, key[0], key[1])
            row = [F(0)] * len(big)
            for k2, c in img.terms.items():
                row[col[k2]] = c
            rows.append(row)
        assert len(big) - _rank(rows) == 4


def test_weight_reduce_is_representation_like():
    spec = make_spec(1, 1)
    rng = random.Random(21)
    h = WittElement.term(1, 1, (1,), 0, ("t", 1))
    for r in (F(-1), F(2), F(1, 2)):
        x = rand_tensor(spec, rng, max_deg=1, nterms=2)
        coset = weight_reduce(spec, x, (r,))
        acted = weight_act(spec, h, coset)
        assert acted.weight == (r,)
        assert acted.coords == tuple(r * c for c in coset.coords)


def test_tensor_span():
    spec = make_spec(1, 1)
    span = TensorSpan()
    v1 = TensorElement.vacuum(spec, 0)
    v2 = TensorElement.vacuum(spec, 1)
    assert span.insert(v1)
    assert not span.insert(2 * v1)
    assert span.insert(v1 + v2)
    assert span.contains(v2)
    assert span.dim == 2
    assert not span.reduce(v1 - 3 * v2)


def test_tensor_span_matches_rank():
    # second route: rank of the coordinate matrix over the window keys
    rng = random.Random(23)
    for m, n in [(1, 1), (2, 1), (1, 2)]:
        spec = make_spec(m, n)
        keys = window_keys(spec, 2)
        for _ in range(10):
            elems = [rand_tensor(spec, rng, 2, rng.randint(1, 3))
                     for _ in range(rng.randint(1, 8))]
            elems += [elems[0] - 2 * elems[-1]]
            coords = [[x.terms.get(k, 0) for k in keys] for x in elems]
            span = TensorSpan()
            grew = [span.insert(x) for x in elems]
            assert span.dim == sum(grew) == _rank(coords)
            for y in (rand_tensor(spec, rng, 2, 2), elems[1] + elems[0]):
                row = [y.terms.get(k, 0) for k in keys]
                inside = _rank(coords + [row]) == _rank(coords)
                assert span.contains(y) == inside
                assert (not span.reduce(y)) == inside


def test_shape_mismatch_rejected():
    spec = make_spec(1, 1)
    with pytest.raises(ValueError):
        act_witt(spec, WittElement.term(2, 1, (1, 0), 0, ("t", 1)),
                 TensorElement.vacuum(spec, 0))


# ---------------------------------------------------------------------------
# the memoised action table against the unmemoised three-piece formula

def _reference_act_term(spec, alpha, imask, slot, x):
    """The three-piece formula on a whole element, no memo: the twisted
    action on the coefficient, the even units weighted by the exponents,
    the odd units from the odd derivatives of the monomial."""
    alpha = tuple(alpha)
    m = spec.m
    kind, idx = slot
    out = {}
    gmono = (alpha, imask)
    s3 = -1 if (popcount(imask) - 1) & 1 else 1
    gam = 0 if kind == TSLOT else 1
    col_even = idx if kind == TSLOT else m + idx
    for (p, l), c in x.terms.items():
        pp = mono_parity(p)
        if kind == TSLOT:
            hit = mono_partial_t(p, idx)
            if hit:
                prod = mono_mul(gmono, hit[0])
                if prod:
                    accumulate(out, (prod[0], l), c * hit[1] * prod[1])
            ai = spec.a[idx - 1]
            if ai:
                prod = mono_mul(gmono, p)
                if prod:
                    accumulate(out, (prod[0], l), c * ai * prod[1])
        else:
            hit = mono_partial_xi(p, idx)
            if hit:
                prod = mono_mul(gmono, hit[0])
                if prod:
                    accumulate(out, (prod[0], l), c * hit[1] * prod[1])
        s2 = -1 if (gam & pp) else 1
        for k in range(1, m + 1):
            ak = alpha[k - 1]
            if not ak:
                continue
            a2 = list(alpha)
            a2[k - 1] -= 1
            prod = mono_mul((tuple(a2), imask), p)
            if not prod:
                continue
            mat = spec.rep.mats[(k, col_even)]
            for r in range(spec.dim):
                if mat[r][l]:
                    accumulate(out, (prod[0], r),
                               c * ak * prod[1] * s2 * mat[r][l])
        if imask:
            s3p = s3 * (-1 if ((1 ^ gam) & pp) else 1)
            for k in range(1, spec.n + 1):
                hitg = mono_partial_xi(gmono, k)
                if not hitg:
                    continue
                prod = mono_mul(hitg[0], p)
                if not prod:
                    continue
                mat = spec.rep.mats[(m + k, col_even)]
                for r in range(spec.dim):
                    if mat[r][l]:
                        accumulate(out, (prod[0], r),
                                   c * s3p * hitg[1] * prod[1] * mat[r][l])
    return TensorElement(spec.m, spec.n, spec.dim, out)


def _reference_act_atom(spec, atom, x):
    kind = atom[0]
    if kind == "w":
        return _reference_act_term(spec, atom[1], atom[2],
                                   (atom[3], atom[4]), x)
    i = atom[1]
    if kind == "mt":
        return act_mono(spec, (tuple(int(k == i - 1)
                                     for k in range(spec.m)), 0), x)
    if kind == "mx":
        return act_mono(spec, ((0,) * spec.m, 1 << (i - 1)), x)
    out = {}
    for (p, l), c in x.terms.items():
        hit = mono_partial_t(p, i) if kind == "dt" else \
            mono_partial_xi(p, i)
        if hit:
            accumulate(out, (hit[0], l), c * hit[1])
    y = TensorElement(spec.m, spec.n, spec.dim, out)
    return y + spec.a[i - 1] * x if kind == "dt" else y


def _reference_act_witt(spec, w, x):
    out = TensorElement.zero(spec)
    for (mono, slot), c in w.terms.items():
        out = out + c * _reference_act_term(spec, mono[0], mono[1], slot, x)
    return out


def _reference_act_word(spec, w, x):
    out = TensorElement.zero(spec)
    for word, c in w.terms.items():
        y = x
        for atom in reversed(word):
            y = _reference_act_atom(spec, atom, y)
        out = out + c * y
    return out


def _rand_word(spec, rng, keys, nterms=3, length=3):
    atoms = [make_watom(mono[0], mono[1], slot) for mono, slot in keys]
    atoms += [(kind, i) for kind in ("mt", "dt") for i in range(1, spec.m + 1)]
    atoms += [(kind, j) for kind in ("mx", "dx") for j in range(1, spec.n + 1)]
    out = OperatorWord(spec.m, spec.n)
    for _ in range(nterms):
        word = [rng.choice(atoms) for _ in range(rng.randrange(length + 1))]
        out = out + OperatorWord.from_word(spec.m, spec.n, word,
                                           rand_coeff(rng))
    return out


TABLE_SPECS = [
    (1, 1, (F(3, 2),), "natural"),
    (2, 1, (F(1, 2), F(-2)), "tensor(natural,natural)"),
    (2, 2, (F(-1, 3), F(2)), "natural"),
    # the coefficient algebra itself, the module that weyl_relations acts on
    (1, 1, (F(0),), "trivial"),
    (2, 2, (F(0), F(0)), "trivial"),
]


@pytest.mark.parametrize("m,n,a,rep", TABLE_SPECS,
                         ids=["%d%d-%s" % (m, n, rep)
                              for m, n, a, rep in TABLE_SPECS])
def test_action_table_matches_the_formula(m, n, a, rep):
    spec = make_spec(m, n, a=a, rep=rep)
    rng = random.Random(90 + 10 * m + n)
    keys = witt_keys(m, n, 2)
    # twice over the same elements: the second pass reads filled rows
    elems = [rand_tensor(spec, rng, max_deg=2, nterms=4) for _ in range(6)]
    for _ in range(2):
        for x in elems:
            for (alpha, imask), slot in keys:
                assert act_term(spec, alpha, imask, slot, x) == \
                    _reference_act_term(spec, alpha, imask, slot, x)
    for _ in range(2):
        for x in elems:
            w = rand_witt(rng, m, n, max_deg=2, nterms=3)
            assert act_witt(spec, w, x) == _reference_act_witt(spec, w, x)
            word = _rand_word(spec, rng, keys)
            assert act_word(spec, word, x) == \
                _reference_act_word(spec, word, x)


def test_negated_odd_rows_get_a_table_of_their_own():
    spec = make_spec(2, 1, a=(F(1, 2), F(-2)))
    neg = odd_rows_negated(spec)
    rng = random.Random(7)
    keys = witt_keys(2, 1, 2)
    elems = [rand_tensor(spec, rng, max_deg=2, nterms=3) for _ in range(6)]
    # fill the table of spec first
    for x in elems:
        for (alpha, imask), slot in keys:
            act_term(spec, alpha, imask, slot, x)
    differ = 0
    for x in elems:
        for (alpha, imask), slot in keys:
            got = act_term(neg, alpha, imask, slot, x)
            assert got == _reference_act_term(neg, alpha, imask, slot, x)
            differ += got != act_term(spec, alpha, imask, slot, x)
    assert differ > 0


def test_empty_word_is_the_identity_and_zero_maps_to_zero():
    spec = make_spec(2, 2, a=(F(-1, 3), F(2)))
    rng = random.Random(5)
    x = rand_tensor(spec, rng, max_deg=2, nterms=4)
    zero = TensorElement.zero(spec)
    assert act_word(spec, OperatorWord.identity(2, 2), x) == x
    assert act_word(spec, F(-2, 3) * OperatorWord.identity(2, 2), x) == \
        F(-2, 3) * x
    assert act_word(spec, OperatorWord.identity(2, 2), zero) == zero
    word = _rand_word(spec, rng, witt_keys(2, 2, 2))
    assert word
    assert act_word(spec, word, zero) == zero
    assert act_word(spec, OperatorWord(2, 2), x) == zero
    w = rand_witt(rng, 2, 2)
    assert w
    assert act_witt(spec, w, zero) == zero
    assert act_witt(spec, WittElement.zero(2, 2), x) == zero
    assert act_term(spec, (1, 0), 1, (TSLOT, 2), zero) == zero
