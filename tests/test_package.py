"""The package's re-exports: served lazily, each the defining module's
own object."""

import importlib

import pytest

import wittmod


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
