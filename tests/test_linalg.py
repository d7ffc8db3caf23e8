"""Exact elimination over the rationals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittmod.linalg import Echelon, invert, rref

F = Fraction


def _mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)]
            for row in a]


def _rand_matrix(rng, rows, cols):
    return [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)]


def _dense_rref(rows):
    """Reference route: dense Gauss-Jordan, first nonzero pivot, then the
    zero rows.  Independent of the sparse engine it checks."""
    a = [[F(x) for x in r] for r in rows]
    nc = len(a[0]) if a else 0
    pivots = []
    for c in range(nc):
        r = len(pivots)
        pick = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pick is None:
            continue
        a[r], a[pick] = a[pick], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def _dense_kernel(rows, ncols):
    """Reference kernel read off `_dense_rref`: one vector per free column,
    increasing, with 1 there and minus the reduced entry at each pivot."""
    red, pivots = _dense_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return free, basis


def _rank(rows):
    return len(rref(rows)[1])


def _row_kernel(ech, ncols):
    """The kernel that ech's stored rows determine over columns
    0..ncols-1, as dense vectors: one per free column, increasing, with 1
    there and minus each row's entry there at that row's pivot."""
    rows = ech.rows
    return [[F(1) if c == fc else -F(rows[c].get(fc, 0)) if c in rows
             else F(0) for c in range(ncols)]
            for fc in range(ncols) if fc not in rows]


def _kernel(rows, ncols):
    """The kernel of rows over columns 0..ncols-1, read off the Echelon
    they span."""
    ech = Echelon()
    for r in rows:
        ech.insert(dict(enumerate(r)))
    return _row_kernel(ech, ncols)


def _sparse_matrix(rng, rows, cols):
    """Mixed int and Fraction entries, mostly zero, with whole rows and
    columns of zeros mixed in."""
    density = rng.choice([0.0, 0.2, 0.5, 1.0])
    dead_cols = {c for c in range(cols) if rng.random() < 0.2}
    out = []
    for _ in range(rows):
        if rng.random() < 0.15:
            out.append([0] * cols)
            continue
        row = []
        for c in range(cols):
            if c in dead_cols or rng.random() >= density:
                row.append(rng.choice([0, F(0)]))
            elif rng.random() < 0.5:
                row.append(rng.randint(-3, 3))
            else:
                row.append(F(rng.randint(-4, 4), rng.randint(1, 3)))
        out.append(row)
    return out


SHAPES = [(0, 0), (1, 0), (3, 0), (1, 1), (2, 7), (3, 9), (7, 2), (9, 3),
          (5, 5), (6, 6), (8, 5)]


def test_rref_known():
    m = [[F(2), F(4)], [F(1), F(2)]]
    r, pivots = rref(m)
    assert r == [[F(1), F(2)], [F(0), F(0)]]
    assert pivots == [0]


def test_rank_examples():
    assert len(rref([[F(1), F(0)], [F(0), F(1)]])[1]) == 2
    assert len(rref([[F(1), F(2)], [F(2), F(4)]])[1]) == 1
    assert len(rref([])[1]) == 0


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _rand_matrix(rng, rows, cols)
        ker = _kernel(m, cols)
        assert len(ker) == cols - _rank(m)
        for v in ker:
            assert [sum((f * x for f, x in zip(row, v)), F(0))
                    for row in m] == [F(0)] * rows


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d" % s)
def test_rref_matches_dense_reference(shape):
    rng = random.Random(1000 + 17 * shape[0] + shape[1])
    for _ in range(60):
        m = _sparse_matrix(rng, *shape)
        red, pivots = rref(m)
        assert (red, pivots) == _dense_rref(m)
        assert len(red) == len(m)
        assert all(type(x) is F for row in red for x in row)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d" % s)
def test_echelon_kernel_matches_dense_reference(shape):
    rng = random.Random(2000 + 17 * shape[0] + shape[1])
    ncols = shape[1]
    for _ in range(60):
        m = _sparse_matrix(rng, *shape)
        ech = Echelon()
        for r in m:
            ech.insert(dict(enumerate(r)))
        free, ref = _dense_kernel(m, ncols)
        # the same free columns, and the same vectors read off the rows
        assert [c for c in range(ncols) if c not in ech.rows] == free
        assert _row_kernel(ech, ncols) == ref


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(40):
        m = _sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                            for x in map(F, r)] for r in m])
        ref, ref_pivots = sm.rref()
        red, pivots = rref(m)
        assert pivots == list(ref_pivots)
        assert red == [[F(int(x.p), int(x.q)) for x in ref.row(i)]
                       for i in range(ref.rows)]


def test_invert_roundtrip():
    rng = random.Random(7)
    hits = 0
    while hits < 10:
        d = rng.randint(1, 4)
        m = _rand_matrix(rng, d, d)
        if _rank(m) < d:
            continue
        hits += 1
        inv = invert(m)
        ident = [[F(1) if i == j else F(0) for j in range(d)]
                 for i in range(d)]
        assert _mat_mul(m, inv) == ident
        assert _mat_mul(inv, m) == ident


def test_invert_singular_is_none():
    assert invert([[F(1), F(2)], [F(2), F(4)]]) is None


def test_echelon_membership_and_order_independence():
    rng = random.Random(3)
    for _ in range(40):
        m = _sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ech = Echelon()
        grew = [ech.insert(dict(enumerate(r))) for r in m]
        assert sum(grew) == _rank(m)
        # fully reduced: pivot 1, least key, absent from every other row
        for p, row in ech.rows.items():
            assert row[p] == 1 and min(row) == p
            assert all(p not in other for q, other in ech.rows.items()
                       if q != p)
        # the same span in reverse order and under a reversed key order
        back = Echelon(key=lambda k: -k)
        for r in reversed(m):
            back.insert(dict(enumerate(r)))
        assert len(back.rows) == len(ech.rows)
        v = dict(enumerate(_sparse_matrix(rng, 1, len(m[0]))[0]))
        inside = _rank(m) == _rank(m + [[v[k] for k in range(len(m[0]))]])
        assert (not ech.reduce(v)) == (not back.reduce(v)) == inside
        for row in list(ech.rows.values()):
            assert not ech.insert(dict(row))


def test_exactness_no_drift():
    # a matrix engineered to wreck floating point keeps exact pivots
    m = [[F(1, 3), F(1, 7)], [F(1, 11), F(1, 13)]]
    inv = invert(m)
    assert _mat_mul(m, inv) == [[F(1), F(0)], [F(0), F(1)]]


# ---------------------------------------------------------------------------
# the engine's invariants under any insertion order

def _assert_echelon_invariants(ech, inserted, ncols):
    """ech holds the fully reduced span of inserted (dicts over columns
    0..ncols-1), and its rows and rref agree with the dense reference in
    Fractions."""
    rows = ech.rows
    for p, row in rows.items():
        assert row[p] == 1 and min(row) == p and all(row.values())
        assert all(p not in other for q, other in rows.items() if q != p)
    dense = [[r.get(c, 0) for c in range(ncols)] for r in inserted]
    red, pivots = _dense_rref(dense)
    assert sorted(rows) == pivots
    assert [[rows[p].get(c, 0) for c in range(ncols)] for p in pivots] \
        == red[:len(pivots)]
    got, got_pivots = rref(dense)
    assert (got, got_pivots) == (red, pivots)
    assert all(type(x) is F for row in got for x in row)


_values = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(F, st.integers(-4, 4).filter(bool), st.integers(2, 3)))


@st.composite
def _sparse_rows(draw):
    ncols = draw(st.integers(1, 7))
    row = st.dictionaries(st.integers(0, ncols - 1), _values, max_size=4)
    return ncols, draw(st.lists(row, max_size=8))


@given(case=_sparse_rows(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_echelon_invariants_in_any_order(case, data):
    ncols, rows = case
    order = data.draw(st.permutations(rows))
    ech = Echelon()
    for i, row in enumerate(order):
        ech.insert(row)
        _assert_echelon_invariants(ech, order[:i + 1], ncols)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_late_pivot_back_substitutes_into_every_holder(data):
    # rows 0..3 all hold column 4 (and some hold 5); the last row makes 4
    # a pivot, which must leave every earlier row
    early = [{p: data.draw(_values), 4: data.draw(_values),
              5: data.draw(st.sampled_from([0, 1, F(1, 2)]))}
             for p in range(4)]
    late = {4: data.draw(_values), 5: data.draw(_values),
            6: data.draw(_values)}
    order = data.draw(st.permutations(early)) + [late]
    ech = Echelon()
    for row in order:
        assert ech.insert(row)
    _assert_echelon_invariants(ech, order, 7)
    assert [p for p, row in ech.rows.items() if 4 in row] == [4]
    assert sorted(p for p, row in ech.rows.items() if 6 in row) \
        == [0, 1, 2, 3, 4]


def test_integral_rows_stay_integral():
    # a pivot that divides its row keeps the row in ints; another pivot
    # scales it by a Fraction, which then reaches the rows holding it
    ech = Echelon()
    ech.insert({0: 1, 2: 3, 3: -2})
    ech.insert({1: -1, 2: 2})
    assert ech.rows == {0: {0: 1, 2: 3, 3: -2}, 1: {1: 1, 2: -2}}
    assert all(type(c) is int for row in ech.rows.values()
               for c in row.values())
    ech.insert({2: 2, 3: 1})
    assert ech.rows == {0: {0: 1, 3: F(-7, 2)}, 1: {1: 1, 3: 1},
                        2: {2: 1, 3: F(1, 2)}}
    assert [type(c) for c in ech.rows[0].values()] == [int, F]
