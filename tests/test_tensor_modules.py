"""Twisted tensor modules: action axioms, Whittaker vectors, descent,
product basis, weight reduction."""

import random
from fractions import Fraction

import pytest

from wittmod import linalg
from wittmod.superpoly import popcount
from wittmod.verifier import odd_rows_negated
from wittmod.tensor_modules import (TensorElement, TensorSpan, act_mono,
                                    act_witt, descent,
                                    generalized_whittaker_space, height,
                                    lower_t, pbw_basis_rewrite,
                                    act_atom, weight_act, weight_reduce,
                                    whittaker_space, window_keys)
from wittmod.witt import WittElement, witt_bracket, witt_act

from conftest import make_spec, rand_superpoly, rand_tensor, witt_keys

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


def test_height_function():
    spec = make_spec(1, 1)
    vac = TensorElement.vacuum(spec, 0)
    assert height(spec, vac, 1) == 0
    t_vac = act_mono(spec, ((1,), 0), vac)
    assert height(spec, t_vac, 1) == 1


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
