"""The package's re-exports: served lazily, each the defining module's
own object; every definition in src/ has a reader in src/; and the
library's own rejections name their fault."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import wittmod
from wittmod import dressed, glmn, superpoly, tensor_modules, witt, words
from wittmod.config import CHECKS

from conftest import make_spec

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_is_its_defining_modules_object():
    for name in wittmod.__all__:
        value = getattr(wittmod, name)
        if name == "__version__":
            assert value == "0.1.0"
            continue
        layer = importlib.import_module("wittmod." + wittmod._EXPORTS[name])
        assert getattr(layer, name) is value, name
        # the map names the module that defines the name
        assert getattr(value, "__module__", layer.__name__) == \
            layer.__name__, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from wittmod import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == \
        sorted(wittmod.__all__)
    for name in wittmod.__all__:
        assert namespace[name] is getattr(wittmod, name)


def test_dir_lists_every_name():
    assert set(wittmod.__all__) <= set(dir(wittmod))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'witt_brackett'"):
        wittmod.witt_brackett
    assert not hasattr(wittmod, "_no_such_name")


def test_every_src_definition_has_a_reader():
    # a def or class that no src/ code names (docstrings do not count) is
    # dead or read by tests alone; the exemptions are read from outside:
    # the checks through REGISTRY, the exports, the benchmark's probes
    tracer = ROOT / "perfbench" / "tracer.py"
    if not tracer.exists():
        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    exempt = ({"check_" + cid for cid in CHECKS} | set(wittmod.__all__)
              | {probe[1].rsplit(".", 1)[-1] for probe in mod.PROBES})
    defined, read = {}, set()
    for path in sorted((ROOT / "src" / "wittmod").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, path.name)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {name: where for name, where in defined.items()
              if name not in read | exempt
              and not (name.startswith("__") and name.endswith("__"))}
    assert not unread


def test_every_derivation_atom_is_built_by_make_watom():
    # a ("w", key) built by hand may hold a trivial monomial, which the
    # action would then compute through a second row beside dt's or dx's
    found, definitions = [], 0
    for path in sorted((ROOT / "src" / "wittmod").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(inner) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "make_watom" for inner in ast.walk(node)}
        definitions += bool(allowed)
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Tuple) and len(node.elts) == 2
                  and isinstance(node.elts[0], ast.Constant)
                  and node.elts[0].value == "w" and id(node) not in allowed]
    assert definitions == 1  # the walk read src/, where words defines it
    assert not found


# every true division is superpoly.divide's: an int / int elsewhere would
# make a float where an exact quotient was meant.  A power of an int base
# stays an int only for an exponent that cannot be negative; each site
# names why its exponent cannot be
POWERS = {
    ("tensor_modules.py", "(-ai) ** si"):
        "si is a monomial exponent, a nonnegative int (check_mono)",
    ("verifier.py", "size ** 3"): "a constant exponent",
    ("verifier.py", "len(keys) ** 2"): "a constant exponent",
    ("verifier.py", "(p.height + 1) ** p.m"):
        "p.m is a shape, a nonnegative int (CheckParams)",
    ("verifier.py", "w ** si"):
        "si is a monomial exponent, a nonnegative int (check_mono)",
}


def test_every_division_is_the_exact_helper_and_every_power_is_listed():
    divisions, powers, helpers = [], set(), 0
    for path in sorted((ROOT / "src" / "wittmod").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(inner) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "divide" for inner in ast.walk(node)}
        helpers += bool(allowed)
        for node in ast.walk(tree):
            op = getattr(node, "op", None)
            if isinstance(op, ast.Div) and id(node) not in allowed:
                divisions.append("%s:%d" % (path.name, node.lineno))
            if isinstance(node, ast.BinOp) and isinstance(op, ast.Pow):
                powers.add((path.name, ast.unparse(node)))
    assert helpers == 1  # the walk read src/, where superpoly defines it
    assert not divisions
    assert powers == set(POWERS)


# ---------------------------------------------------------------------------
# the library's own rejections: each row reaches one `raise ValueError` of
# src/ that no command reaches (or the error type a fourth item names), and
# pins its message

LIBRARY_REJECTIONS = [
    ("mask_of-base", lambda: superpoly.mask_of([0]),
     "odd indices are 1-based"),
    ("mask_of-repeat", lambda: superpoly.mask_of([2, 2]),
     "repeated odd index 2"),
    ("monomial-exponents",
     lambda: superpoly.SuperPoly.monomial(2, 0, (1, -1)),
     "bad exponent tuple (1, -1) for m=2"),
    ("monomial-odd", lambda: superpoly.SuperPoly.monomial(1, 1, (0,), (2,)),
     "odd index out of range for n=1"),
    ("monomial-float-exponent",
     lambda: superpoly.SuperPoly.monomial(1, 0, (1.5,)),
     "bad exponent tuple (1.5,) for m=1"),
    ("mono-bool-exponent", lambda: superpoly.check_mono(1, 1, ((True,), 0)),
     "bad exponent tuple (True,) for m=1"),
    ("mono-float-mask", lambda: superpoly.check_mono(1, 1, ((1,), 1.0)),
     "odd mask 1.0 is not an int"),
    ("mono-bool-mask", lambda: superpoly.check_mono(1, 1, ((1,), True)),
     "odd mask True is not an int"),
    ("exact-float", lambda: superpoly.exact(2.0),
     "exact values only, got the float 2.0", TypeError),
    ("partial", lambda: superpoly.SuperPoly(1, 1).partial_xi(2),
     "xi index 2 out of range"),
    ("spec-shape",
     lambda: tensor_modules.ModuleSpec(1, 1, [1], glmn.natural_rep(1, 0)),
     "representation block shape != (m, n)"),
    ("spec-twist",
     lambda: tensor_modules.ModuleSpec(1, 1, [1, 2], glmn.natural_rep(1, 1)),
     "twist vector length != m"),
    ("pure", lambda: tensor_modules.TensorElement.pure(
        make_spec(1, 1), ((0,), 0), 2), "vector index out of range"),
    ("pure-exponents", lambda: tensor_modules.TensorElement.pure(
        make_spec(1, 1), ((-3,), 0), 0), "bad exponent tuple (-3,) for m=1"),
    ("dressing-exponents", lambda: dressed.DressedWittElement.term(
        1, 1, ((1, 2), 8), ((1,), 0), ("t", 1)),
     "bad exponent tuple (1, 2) for m=1"),
    ("dressing-odd", lambda: dressed.DressedWittElement.term(
        1, 1, ((1,), 2), ((1,), 0), ("t", 1)),
     "odd index out of range for n=1"),
    ("tensor-dim", lambda: tensor_modules.TensorElement(1, 1, 2)
     + tensor_modules.TensorElement(1, 1, 3), "shape mismatch: dim 2 vs 3"),
    ("act-atom", lambda: tensor_modules._act(make_spec(1, 1), ("zz", 1), {}),
     "unknown atom kind 'zz'"),
    ("weight-length", lambda: tensor_modules.weight_reduce(
        make_spec(1, 1), tensor_modules.TensorElement(1, 1, 2), [1, 2]),
     "weight length != m"),
    ("weight-singular", lambda: tensor_modules.weight_reduce(
        make_spec(1, 1, [0]), tensor_modules.TensorElement(1, 1, 2), [1]),
     "weight cosets need a nonsingular twist vector"),
    ("from_word-t", lambda: words.OperatorWord.from_word(1, 1, [("dt", 2)]),
     "t index 2 out of range"),
    ("from_word-xi", lambda: words.OperatorWord.from_word(1, 1, [("mx", 0)]),
     "xi index 0 out of range"),
    ("normal-order-w", lambda: words.weyl_normal_order(
        words.OperatorWord.from_word(1, 0, [("w", (((1,), 0), ("t", 1)))])),
     "normal ordering is defined for multiply and derive atoms only, got "
     "('w', (((1,), 0), ('t', 1)))"),
    ("difference-order", lambda: words.difference_word(
        1, 0, (0,), (0,), 0, 0, -1, 1, ("t", 1), ("t", 1)),
     "difference order must be >= 0"),
    ("difference-index", lambda: words.difference_word(
        1, 0, (0,), (0,), 0, 0, 1, 2, ("t", 1), ("t", 1)),
     "t index 2 out of range"),
    ("dressed-mode", lambda: dressed.dressed_bracket(
        dressed.DressedWittElement(1, 0), dressed.DressedWittElement(1, 0),
        mode="mutated"), "unknown bracket mode 'mutated'"),
    ("commutant-trivial",
     lambda: dressed.commutant_element(1, 0, (0,), 0, ("t", 1)),
     "requires a coefficient monomial in the augmentation ideal"),
    ("rep-parity-count", lambda: glmn.Rep(1, 0, 2, [0], {(1, 1): {}}),
     "parity list length != dim"),
    ("rep-parities", lambda: glmn.Rep(1, 0, 1, [2], {(1, 1): {}}),
     "parities must be 0/1"),
    ("tensor_rep-shape", lambda: glmn.tensor_rep(
        glmn.natural_rep(1, 0), glmn.natural_rep(1, 1)),
     "block shape mismatch"),
    ("direct_sum_rep-shape", lambda: glmn.direct_sum_rep(
        glmn.natural_rep(1, 0), glmn.natural_rep(1, 1)),
     "block shape mismatch"),
    ("witt_act-shape", lambda: witt.witt_act(
        witt.WittElement(1, 0), superpoly.SuperPoly(1, 1)),
     "shape mismatch between derivation and polynomial"),
]


@pytest.mark.parametrize("call,message,error", [
    (row + (ValueError,))[1:4] for row in LIBRARY_REJECTIONS],
    ids=[row[0] for row in LIBRARY_REJECTIONS])
def test_each_library_rejection_names_its_fault(call, message, error):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
