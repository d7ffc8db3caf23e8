"""The package's re-exports: served lazily, each the defining module's
own object; and every definition in src/ has a reader in src/."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import wittmod
from wittmod.config import CHECKS

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
