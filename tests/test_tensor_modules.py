"""Twisted tensor modules: action axioms, Whittaker vectors, descent,
product basis, weight reduction."""

import random
from fractions import Fraction

import pytest

from wittmod import linalg, tensor_modules
from wittmod.config import resolve_rep
from wittmod.glmn import custom_rep, mat_mul, natural_rep, verify_rep
from wittmod.superpoly import (accumulate, enumerate_alphas, mono_mul,
                                mono_parity, mono_partial_t, mono_partial_xi,
                                popcount)
from wittmod.dressed import commutant_element
from wittmod.expressions import print_expr
from wittmod.verifier import odd_rows_negated, run_check
from wittmod.tensor_modules import (LeavesWhittaker, ModuleSpec,
                                    TensorElement, TensorSpan,
                                    TransitionSingular, act_term,
                                    act_witt, act_word, descent,
                                    generalized_whittaker_space, lower_t,
                                    pbw_basis_rewrite, act_atom,
                                    weight_reduce, whittaker_functor,
                                    whittaker_space, window_keys)
from wittmod.witt import TSLOT, XSLOT, WittElement, witt_bracket, witt_act
from wittmod.words import OperatorWord, make_watom

from conftest import (act_mono, canonical, make_spec, rand_coeff,
                      rand_superpoly, rand_tensor, rand_witt, witt_keys)
from test_linalg import _dense_kernel

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


def _old_route_ops(spec, hb=None):
    """The Whittaker operators on TensorElements, for the dense route:
    lower_t and act_atom for wh, or the powers of lower_t up to height
    hb + 1."""
    if hb is None:
        ops = [lambda x, i=i: lower_t(spec, i, x)
               for i in range(1, spec.m + 1)]
        return ops + [lambda x, j=j: act_atom(spec, ("dx", j), x)
                      for j in range(1, spec.n + 1)]

    def power(i):
        def op(x):
            for _ in range(hb + 1):
                x = lower_t(spec, i, x)
            return x
        return op
    return [power(i) for i in range(1, spec.m + 1)]


def _dense_kernel_of_ops(spec, ops, keys):
    """Second route for the Whittaker spaces: one TensorElement per window
    key, one dense row over the window keys per output coordinate of each
    op, and the dense Gauss-Jordan kernel of tests/test_linalg.py, one
    vector per free key in window order."""
    rows = []
    for op in ops:
        images = [op(TensorElement.pure(spec, mono, l)) for mono, l in keys]
        out_keys = {k for img in images for k in img.terms}
        rows += [[img.terms.get(okey, F(0)) for img in images]
                 for okey in out_keys]
    _, vectors = _dense_kernel(rows, len(keys))
    return [TensorElement(spec.m, spec.n, spec.dim,
                          {key: c for key, c in zip(keys, v) if c})
            for v in vectors]


def _solve(spec, D, hb):
    if hb is None:
        return whittaker_space(spec, D)
    return generalized_whittaker_space(spec, D, height_bound=hb)


@pytest.mark.parametrize("m,n,rep,D,hb", [
    (1, 1, "natural", 3, None),
    (2, 1, "tensor(natural,natural)", 3, None),
    (2, 2, "natural", 4, None),
    (2, 1, "natural", 4, 1),
], ids=["1x1", "2x1-tensor", "2x2-D4", "2x1-height1"])
def test_window_solves_match_dense_route(m, n, rep, D, hb):
    spec = make_spec(m, n, a=tuple(F(i + 2, i + 1) for i in range(m)),
                     rep=rep)
    got = _solve(spec, D, hb)
    assert got == _dense_kernel_of_ops(spec, _old_route_ops(spec, hb),
                                       window_keys(spec, D))
    assert len(got) == spec.dim * (1 if hb is None else (hb + 1) ** m * 2 ** n)


@pytest.mark.parametrize("hb", [None, 0, 1], ids=["wh", "height0",
                                                  "height1"])
@pytest.mark.parametrize("m,n,a", [
    (1, 1, None), (2, 1, None), (2, 2, None), (2, 1, (F(3), F(-1, 2))),
], ids=["1x1", "2x1", "2x2", "2x1-twist3,-1/2"])
def test_window_solves_build_no_element_per_key(monkeypatch, m, n, a, hb):
    # the only TensorElements the closed forms build are their basis
    # vectors, each coefficient under the one rule
    spec = make_spec(m, n, a=a)
    keys = window_keys(spec, 3)
    want = _dense_kernel_of_ops(spec, _old_route_ops(spec, hb), keys)
    built = []
    init = TensorElement.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(TensorElement, "__init__", counting_init)
    got = _solve(spec, 3, hb)
    monkeypatch.undo()
    assert len(built) == len(got) < len(keys)
    assert got == want
    assert all(canonical(c) for x in got for c in x.terms.values())


# whittaker_dimension derives the closed forms by a scan of the window
# keys; the premise that makes the scan exact is pinned below on the
# operators it reads

FILTER_SHAPES = [(1, 1, "natural"), (0, 2, "natural"), (2, 2, "natural"),
                 (2, 1, "tensor(natural,natural)")]
FILTER_IDS = ["1x1", "0x2", "2x2", "2x1-tensor"]


@pytest.mark.parametrize("m,n,rep", FILTER_SHAPES, ids=FILTER_IDS)
def test_window_solves_need_no_elimination(monkeypatch, m, n, rep):
    spec = make_spec(m, n, a=tuple(F(i + 2, i + 1) for i in range(m)),
                     rep=rep)
    keys = window_keys(spec, 3)
    want = {hb: _dense_kernel_of_ops(spec, _old_route_ops(spec, hb), keys)
            for hb in (None, 0, 1)}
    units, _ = _gl_words(m, n)

    def no_echelon(*args, **kwargs):
        raise AssertionError("a window solve built an Echelon")
    monkeypatch.setattr(linalg, "Echelon", no_echelon)
    got = {hb: _solve(spec, 3, hb) for hb in want}
    basis, mats = whittaker_functor(spec, 3, list(units.values()))
    mats = list(mats)
    monkeypatch.undo()
    assert got == want
    assert basis == want[None]
    assert dict(zip(units, mats)) == spec.rep.mats


def _window_ops(spec, height):
    """name -> raw op, for every operator whittaker_dimension's scan reads
    up to height: the powers 1..height+1 of the plain d/dt_i, and
    d/dxi_j."""
    def power(i, k):
        def op(terms):
            for _ in range(k):
                terms = tensor_modules._lower(i, terms)
            return terms
        return op
    ops = {"dt%d^%d" % (i, k): power(i, k) for i in range(1, spec.m + 1)
           for k in range(1, height + 2)}
    ops.update({"dx%d" % j: lambda t, j=j: tensor_modules._act(
        spec, ("dx", j), t) for j in range(1, spec.n + 1)})
    return ops


@pytest.mark.parametrize("m,n,rep", FILTER_SHAPES, ids=FILTER_IDS)
def test_window_operators_are_injective_on_keys(m, n, rep):
    # each op maps a window key to 0 or to a nonzero multiple of one key,
    # and no two keys to the same key, so its kernel on the window is
    # spanned by the keys it kills
    spec = make_spec(m, n, rep=rep)
    for D in range(5):
        keys = window_keys(spec, D)
        for name, op in _window_ops(spec, 2).items():
            source = {}
            for key in keys:
                image = op({key: 1})
                assert len(image) <= 1 and all(image.values()), (name, key)
                for okey in image:
                    assert source.setdefault(okey, key) == key, (name, key)


# ---------------------------------------------------------------------------
# the Whittaker functor: wh(M) and the operator action read off it

def _gl_words(m, n):
    """The commutant word of every matrix unit E(row, col), built from the
    unit (t_row or xi_(row-m) times the col-th derivative), then the
    commutant words of every degree-2 derivation."""
    units = {}
    for row in range(1, m + n + 1):
        alpha = tuple(int(q == row - 1) for q in range(m))
        imask = 0 if row <= m else 1 << (row - m - 1)
        for col in range(1, m + n + 1):
            slot = (TSLOT, col) if col <= m else (XSLOT, col - m)
            units[(row, col)] = commutant_element(m, n, alpha, imask,
                                                  slot).to_word()
    twos = [commutant_element(m, n, *mono, slot).to_word()
            for mono, slot in witt_keys(m, n, 2)
            if sum(mono[0]) + popcount(mono[1]) == 2]
    return units, twos


@pytest.mark.parametrize("m,n,a,rep", [
    (1, 1, (F(1, 2),), "natural"),
    (2, 1, (F(1), F(-2)), "sum(natural,trivial)"),
    (1, 2, (F(3),), "tensor(natural,natural)"),
    (2, 2, None, "natural"),
    (0, 2, (), "natural"),
], ids=["1x1", "2x1-sum", "1x2-tensor", "2x2", "0x2"])
def test_functor_recovers_the_rep(m, n, a, rep):
    spec = make_spec(m, n, a=a, rep=rep)
    units, twos = _gl_words(m, n)
    basis, mats = whittaker_functor(spec, 2, list(units.values()) + twos)
    mats = list(mats)
    assert basis == whittaker_space(spec, 2)
    assert dict(zip(units, mats)) == spec.rep.mats
    assert mats[len(units):] == [{}] * len(twos)


def test_functor_raises_when_a_word_leaves_wh():
    spec = make_spec(1, 1)
    word = OperatorWord.from_word(1, 1, (("mt", 1),))
    _, mats = whittaker_functor(spec, 2, [word])
    with pytest.raises(LeavesWhittaker) as info:
        list(mats)
    w, col, image = info.value.args
    assert (w, col) == (0, 0)
    assert print_expr(image) == "t1 @ e1"


def test_functor_reads_negated_odd_rows():
    spec = make_spec(1, 1)
    bad = odd_rows_negated(spec)
    units, _ = _gl_words(1, 1)
    _, mats = whittaker_functor(bad, 2, list(units.values()))
    got = dict(zip(units, mats))
    assert got[(2, 1)] != spec.rep.mats[(2, 1)]
    assert got == bad.rep.mats


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


def _telescoped_descent(spec, x):
    """descent by element operations, the reference for its closed form:
    the odd corrections y - xi_j (d/dxi_j y), then for each even index the
    telescoping sum_k (-1)^k/k! t_i^k (d/dt_i - a_i)^k y."""
    y = x
    for j in range(1, spec.n + 1):
        dy = act_atom(spec, ("dx", j), y)
        if dy:
            y = y - act_atom(spec, ("mx", j), dy)
    for i in range(1, spec.m + 1):
        acc = TensorElement.zero(spec)
        term, k, fact = y, 0, F(1)
        while term:
            piece = term
            for _ in range(k):
                piece = act_atom(spec, ("mt", i), piece)
            acc = acc + ((-1) ** k * fact) * piece
            k += 1
            fact /= k
            term = lower_t(spec, i, term)
        y = acc
    return y


DESCENT_REPS = ["natural", "trivial", "tensor(natural,natural)",
                "sum(natural,trivial)"]


@pytest.mark.parametrize("rep", DESCENT_REPS)
@pytest.mark.parametrize("m,n", [(1, 0), (1, 1), (2, 1), (1, 2), (2, 2),
                                 (0, 2)])
def test_descent_is_the_telescoped_projection(m, n, rep):
    rng = random.Random(31 * m + n)
    for a in (tuple(F(2 * i + 3, i + 2) for i in range(m)), (0,) * m):
        spec = make_spec(m, n, a=a, rep=rep)
        for _ in range(6):
            x = rand_tensor(spec, rng, max_deg=3, nterms=4)
            assert descent(spec, x) == _telescoped_descent(spec, x)


@pytest.mark.parametrize("m,n,rep", FILTER_SHAPES, ids=FILTER_IDS)
def test_whittaker_side_applies_no_operator(monkeypatch, m, n, rep):
    spec = make_spec(m, n, a=tuple(F(i + 2, i + 1) for i in range(m)),
                     rep=rep)
    keys = window_keys(spec, 3)
    want = {hb: _dense_kernel_of_ops(spec, _old_route_ops(spec, hb), keys)
            for hb in (None, 0, 1, 2)}
    rng = random.Random(7)
    xs = [rand_tensor(spec, rng, max_deg=3, nterms=4) for _ in range(8)]
    projected = [_telescoped_descent(spec, x) for x in xs]

    def no_operator(*args, **kwargs):
        raise AssertionError("the Whittaker side applied an operator")
    for name in ("_lower", "_act", "act_atom", "lower_t"):
        monkeypatch.setattr(tensor_modules, name, no_operator)
    got = {hb: _solve(spec, 3, hb) for hb in want}
    got_projected = [descent(spec, x) for x in xs]
    monkeypatch.undo()
    assert got == want
    assert got_projected == projected


def _dense_apply(matrix, vec):
    """A dense matrix times a vector, one Fraction sum per row: the
    dense inverse applied to an element's coordinates."""
    return [sum((f * x for f, x in zip(row, vec) if f and x), F(0))
            for row in matrix]


def _dense_reference(spec, max_deg):
    """(keys, cols, matrix, inverse): the square transition matrix of the
    products h^s u_j in the monomial basis of the window, each column
    built with act_term, and its inverse by dense elimination."""
    keys = window_keys(spec, max_deg)
    cols = [(s, (kmask, l)) for s in enumerate_alphas(spec.m, max_deg)
            for kmask in range(1 << spec.n) for l in range(spec.dim)]
    matrix = [[F(0)] * len(cols) for _ in keys]
    for col, (s, (kmask, l)) in enumerate(cols):
        vec = TensorElement.pure(spec, ((0,) * spec.m, kmask), l)
        for i, si in enumerate(s, start=1):
            h = tuple(int(q == i) for q in range(1, spec.m + 1))
            for _ in range(si):
                vec = act_term(spec, h, 0, (TSLOT, i), vec)
        for key, c in vec.terms.items():
            matrix[keys.index(key)][col] = c
    return keys, cols, matrix, linalg.invert(matrix)


def _dense_to_products(ref, x):
    keys, cols, _, inverse = ref
    vec = [F(0)] * len(keys)
    for key, c in x.terms.items():
        vec[keys.index(key)] = c
    sol = _dense_apply(inverse, vec)
    return {cols[k]: c for k, c in enumerate(sol) if c}


@pytest.mark.parametrize("m,n,deg", [(1, 1, 2), (2, 1, 2), (1, 2, 2),
                                     (2, 2, 2), (2, 1, 4)],
                         ids=["11", "21", "12", "22", "21-deg4"])
def test_pbw_matches_dense_reference(m, n, deg):
    # the triangular solve against the dense inverse it replaced
    spec = make_spec(m, n, a=(F(3), F(-1, 2))[:m])
    ref = _dense_reference(spec, deg)
    rng = random.Random(100 * m + n + 1000 * (deg - 2))
    for _ in range(50):
        x = rand_tensor(spec, rng, max_deg=deg, nterms=rng.randint(1, 4))
        got = pbw_basis_rewrite(spec, deg, x)
        want = _dense_to_products(ref, x)
        assert got == want and list(got) == list(want)
        assert all(canonical(c) for c in got.values())


def test_pbw_builds_only_the_columns_a_solve_reaches(monkeypatch):
    # every column h^s u_j with s != 0 is one act_term on the one below it
    calls = []
    real = tensor_modules.act_term
    monkeypatch.setattr(tensor_modules, "act_term",
                        lambda *args: calls.append(args) or real(*args))
    spec = make_spec(2, 2, a=(F(3), F(-1, 2)))
    x = TensorElement.pure(spec, ((1, 1), 0b10), 2)
    coords = pbw_basis_rewrite(spec, 2, x)
    assert coords[((1, 1), (0b10, 2))] == F(-2, 3)
    assert 0 < len(calls) < len(window_keys(spec, 2))


def test_weight_reduce_applies_no_operator(monkeypatch):
    def no_operator(*args, **kwargs):
        raise AssertionError("weight_reduce applied an operator")
    for name in ("act_term", "_act", "_pbw_column"):
        monkeypatch.setattr(tensor_modules, name, no_operator)
    spec = make_spec(2, 2, a=(F(3), F(-1, 2)))
    x = TensorElement.pure(spec, ((1, 1), 0b10), 2)
    # t1 t2 u = h1 h2 u / (a1 a2), and h acts on the coset as the weight
    assert weight_reduce(spec, x, (F(1), F(-2))) \
        == F(4, 3) * TensorElement.pure(spec, ((0, 0), 0b10), 2)


def _conjugated_natural(m, n):
    """natural conjugated by g = 1 + E_12: E_11 becomes E_11 - E_12, so
    the Cartan matrices are not diagonal on this basis."""
    nat = natural_rep(m, n)
    g = {(r, r): F(1) for r in range(nat.dim)}
    inv = dict(g)
    g[(0, 1)], inv[(0, 1)] = F(1), F(-1)
    return custom_rep(m, n, nat.dim, nat.parities,
                      {ij: mat_mul(mat_mul(g, a), inv)
                       for ij, a in nat.mats.items()})


@pytest.mark.parametrize("m,n,rep", [
    (1, 0, "natural"), (1, 1, "natural"), (2, 1, "natural"),
    (1, 2, "tensor(natural,natural)"), (2, 1, "sum(natural,trivial)"),
    (2, 2, "natural"), (2, 1, "trivial:2"),
    (2, 1, "conjugated"), (2, 2, "conjugated")])
def test_weight_reduce_is_the_product_basis_evaluation(m, n, rep):
    # the closed form against the reference route: x = sum c h^s u_j
    # reduces at weight w to sum c w^s u_j
    if rep == "conjugated":
        rep = _conjugated_natural(m, n)
        assert verify_rep(rep).ok and not rep.has_weight_basis()
    else:
        rep = resolve_rep(rep, m, n)
    rng = random.Random(10 * m + n)
    for a in [(F(1),) * m, (F(3), F(-1, 2))[:m]]:
        spec = ModuleSpec(m, n, a, rep)
        for _ in range(15):
            x = rand_tensor(spec, rng, max_deg=3, nterms=rng.randint(1, 4))
            weight = tuple(rand_coeff(rng) for _ in range(m))
            want = TensorElement.zero(spec)
            for (s, (kmask, l)), c in pbw_basis_rewrite(spec, 3, x).items():
                for w, si in zip(weight, s):
                    c *= w ** si
                want = want + TensorElement.pure(spec, ((0,) * m, kmask), l, c)
            assert weight_reduce(spec, x, weight) == want


def test_pbw_untwisted_top_raises_transition_singular(monkeypatch):
    # a planted fault: h acts without its twist, so no product reaches
    # its top key; the solve reports it, it does not assume triangularity
    real = tensor_modules.act_term

    def untwisted(spec, alpha, imask, slot, x):
        plain = ModuleSpec(spec.m, spec.n, (0,) * spec.m, spec.rep)
        return real(plain, alpha, imask, slot, x)
    monkeypatch.setattr(tensor_modules, "act_term", untwisted)
    spec = make_spec(1, 1, a=(F(3),))
    x = TensorElement.pure(spec, ((1,), 0), 0)
    with pytest.raises(TransitionSingular):
        pbw_basis_rewrite(spec, 1, x)
    report = run_check("descent_roundtrip", {"m": 1, "n": 1})
    assert report.status == "fail"
    assert "not triangular" in report.counterexample["error"]


def test_pbw_needs_nonsingular_twist():
    spec = make_spec(1, 1, a=(F(0),))
    with pytest.raises(ValueError):
        pbw_basis_rewrite(spec, 2, TensorElement.vacuum(spec, 0))


@pytest.mark.parametrize("D", [0, 1, 2])
def test_pbw_rejects_an_element_outside_the_window(D):
    # x of t-degree D + 1 has a key no column of window D clears
    spec = make_spec(2, 1, a=(F(3), F(-1, 2)))
    x = TensorElement.vacuum(spec, 0) \
        + TensorElement.pure(spec, ((D + 1, 0), 1), 1)
    with pytest.raises(ValueError, match="leaves the rewrite window"):
        pbw_basis_rewrite(spec, D, x)
    assert pbw_basis_rewrite(spec, D + 1, x)


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
    # the Cartan operator acts on the coset at weight r as r: act on the
    # unit-basis representative, reduce again at the same weight
    spec = make_spec(1, 1)
    rng = random.Random(21)
    h = WittElement.term(1, 1, (1,), 0, ("t", 1))
    for r in (F(-1), F(2), F(1, 2)):
        x = rand_tensor(spec, rng, max_deg=1, nterms=2)
        coset = weight_reduce(spec, x, (r,))
        assert coset.tdegree() <= 0
        assert weight_reduce(spec, act_witt(spec, h, coset), (r,)) \
            == r * coset


@pytest.mark.parametrize("g,shift", [
    (WittElement.term(2, 1, (2, 0), 0, ("t", 1)), (1, 0)),
    (WittElement.term(2, 1, (0, 0), 0, ("t", 1)), (-1, 0)),
    (WittElement.term(2, 1, (0, 0), 0, ("x", 1)), (0, 0))],
    ids=["t1^2*dt1", "dt1", "dx1"])
def test_coset_action_is_well_defined(spec21, g, shift):
    # a derivation of Cartan shift mu maps the weight ideal at lambda into
    # the one at lambda + mu, so acting on cosets needs no representative
    rng = random.Random(37)
    for _ in range(15):
        lam = tuple(rand_coeff(rng) for _ in range(2))
        x = rand_tensor(spec21, rng, max_deg=1, nterms=2)
        y = rand_tensor(spec21, rng, max_deg=1, nterms=2)
        i = rng.randrange(2)
        h = WittElement.term(2, 1, tuple(int(q == i) for q in range(2)), 0,
                             ("t", i + 1))
        other = x + act_witt(spec21, h, y) - lam[i] * y
        target = tuple(l + s for l, s in zip(lam, shift))
        assert weight_reduce(spec21, act_witt(spec21, g, other), target) \
            == weight_reduce(spec21, act_witt(spec21, g, x), target)


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
    assert span.contains(v1 - 3 * v2)


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


def test_shape_mismatch_rejected():
    spec = make_spec(1, 1)
    with pytest.raises(ValueError):
        act_witt(spec, WittElement.term(2, 1, (1, 0), 0, ("t", 1)),
                 TensorElement.vacuum(spec, 0))


# an atom is checked by OperatorWord.from_word when it first enters a
# spec's action table, whichever entry brings it: an index out of the
# shape would act as another generator, as zero or raise IndexError, and
# a trivial-monomial "w" atom would get a second row family beside dt's
BAD_ATOMS = [
    (("mt", 0), "t index 0 out of range"),
    (("mt", 2), "t index 2 out of range"),
    (("dt", 0), "t index 0 out of range"),
    (("dt", 2), "t index 2 out of range"),
    (("dx", 2), "xi index 2 out of range"),
    (("w", (((0,), 0), (TSLOT, 1))),
     "a derivation with trivial monomial is the atom ('dt', 1)"),
]


@pytest.mark.parametrize("atom,message", BAD_ATOMS,
                         ids=["mt0", "mt2", "dt0", "dt2", "dx2", "w-dt1"])
def test_action_table_rejects_a_bad_atom(atom, message):
    spec = make_spec(1, 1, a=(F(2),))
    x = TensorElement.pure(spec, ((1,), 0), 0)  # t1 @ e1
    with pytest.raises(ValueError) as built:
        OperatorWord.from_word(1, 1, [atom])
    raw_word = OperatorWord(1, 1)._like({(("mx", 1), atom): F(1)})
    for act in (lambda: act_atom(spec, atom, x),
                lambda: act_word(spec, raw_word, x),
                lambda: tensor_modules._act(spec, atom, x.terms)):
        with pytest.raises(ValueError) as err:
            act()
        assert str(err.value) == str(built.value) == message
    assert spec._act_cache == {}


def test_act_term_and_act_witt_reject_a_slot_out_of_range():
    spec = make_spec(1, 1, a=(F(2),))
    x = TensorElement.pure(spec, ((1,), 0), 0)
    raw = WittElement(1, 1)._like({(((0,), 0), (XSLOT, 2)): F(1)})
    with pytest.raises(ValueError, match="t index 2 out of range"):
        act_term(spec, (0,), 0, (TSLOT, 2), x)
    with pytest.raises(ValueError, match="xi index 2 out of range"):
        act_witt(spec, raw, x)
    assert spec._act_cache == {}


def test_an_atom_is_checked_once_per_table(monkeypatch):
    checked = []
    real = OperatorWord.from_word.__func__

    def counting(cls, m, n, word, coeff=F(1)):
        checked.append(tuple(word))
        return real(cls, m, n, word, coeff)
    monkeypatch.setattr(OperatorWord, "from_word", classmethod(counting))
    spec = make_spec(1, 1, a=(F(2),))
    x = TensorElement.pure(spec, ((1,), 1), 0)  # t1*x1 @ e1
    for _ in range(3):
        act_atom(spec, ("dt", 1), x)
        act_term(spec, (1,), 0, (TSLOT, 1), x)
        act_term(spec, (0,), 0, (XSLOT, 1), x)
    assert checked == [(("dt", 1),), (("w", (((1,), 0), (TSLOT, 1))),),
                       (("dx", 1),)]
    assert list(spec._act_cache) == [atom for (atom,) in checked]


def test_every_action_rejects_an_element_of_another_shape():
    spec = make_spec(1, 1)  # natural: dim 2
    wide = TensorElement(1, 1, 3, {(((1,), 1), 2): F(1)})  # t1*x1 @ e3
    other = TensorElement.vacuum(make_spec(2, 1, rep="trivial:2"), 0)
    actions = [
        lambda x: act_atom(spec, ("dx", 1), x),
        lambda x: act_atom(spec, ("w", (((1,), 0), (TSLOT, 1))), x),
        lambda x: act_term(spec, (1,), 0, (TSLOT, 1), x),
        lambda x: lower_t(spec, 1, x),
        lambda x: descent(spec, x),
    ]
    for x in (wide, other):
        for act in actions:
            with pytest.raises(ValueError, match="shape mismatch"):
                act(x)


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
                if (r, l) in mat:
                    accumulate(out, (prod[0], r),
                               c * ak * prod[1] * s2 * mat[(r, l)])
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
                    if (r, l) in mat:
                        accumulate(out, (prod[0], r),
                                   c * s3p * hitg[1] * prod[1] * mat[(r, l)])
    return TensorElement(spec.m, spec.n, spec.dim, out)


def _reference_act_atom(spec, atom, x):
    kind = atom[0]
    if kind == "w":
        (alpha, imask), slot = atom[1]
        return _reference_act_term(spec, alpha, imask, slot, x)
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
    atoms = [make_watom(key) for key in keys]
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
    # no t-generator at all, and |I| = 2 coefficients (the (-1)^{|f|-1}
    # factor of an odd generator's term)
    (0, 2, (), "natural"),
    (1, 2, (F(-2),), "tensor(natural,natural)"),
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


# every element handed out holds coefficients under the one rule (an int
# when integral, else a Fraction), and the same values as the formula gives
LANE_SPECS = [
    (1, 1, (F(1),)),
    (2, 1, (F(2), F(-1))),
    (1, 1, (F(1, 2),)),
    (2, 1, (F(1, 2), F(-3))),
]


def _canonical(x):
    assert all(canonical(c) and c for c in x.terms.values()), x.terms
    return x


@pytest.mark.parametrize("m,n,a", LANE_SPECS,
                         ids=["%d%d-%s" % (m, n, ",".join(map(str, a)))
                              for m, n, a in LANE_SPECS])
@pytest.mark.parametrize("coeff", [F(2), F(3, 2)], ids=["int", "3/2"])
def test_int_lane_never_leaks(m, n, a, coeff):
    spec = make_spec(m, n, a=a)
    rng = random.Random(11)
    keys = witt_keys(m, n, 2)
    atoms = [make_watom(key) for key in keys]
    atoms += [(kind, i) for kind in ("mt", "dt") for i in range(1, m + 1)]
    atoms += [(kind, j) for kind in ("mx", "dx") for j in range(1, n + 1)]
    wkeys = window_keys(spec, 2)
    for _ in range(4):
        x = TensorElement.zero(spec)
        for mono, l in rng.sample(wkeys, 3):
            x = x + TensorElement.pure(spec, mono, l, rng.choice([coeff, -1]))
        for (alpha, imask), slot in keys:
            assert _canonical(act_term(spec, alpha, imask, slot, x)) \
                == _reference_act_term(spec, alpha, imask, slot, x)
        for atom in atoms:
            assert _canonical(act_atom(spec, atom, x)) == \
                _reference_act_atom(spec, atom, x)
        w = sum((_witt_elem(m, n, key, rng.choice([coeff, 1, -2]))
                 for key in rng.sample(keys, 3)), WittElement.zero(m, n))
        assert _canonical(act_witt(spec, w, x)) == \
            _reference_act_witt(spec, w, x)
        word = OperatorWord(m, n)
        for length in (0, 1, 2, 3):
            word = word + OperatorWord.from_word(
                m, n, rng.sample(atoms, length), rng.choice([coeff, 3]))
        assert _canonical(act_word(spec, word, x)) == \
            _reference_act_word(spec, word, x)
