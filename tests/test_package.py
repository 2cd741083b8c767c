import importlib

import pytest

import lpmch


def test_every_public_name_is_its_submodules_object():
    for name in lpmch.__all__:
        value = getattr(lpmch, name)
        if name in lpmch._EXPORTS:
            assert value is importlib.import_module(f"lpmch.{name}")
        else:
            module = importlib.import_module(f"lpmch.{lpmch._SOURCE[name]}")
            assert value is getattr(module, name)


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from lpmch import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(lpmch.__all__)
    # The submodules are public names, as when the package imported them all.
    assert {"core", "sampling", "errors"} <= set(namespace)
    assert set(lpmch.__all__) <= set(dir(lpmch))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lpmch.no_such_name


def test_each_submodule_lists_its_row_of_the_export_table():
    # A submodule's star-import is its row of the package's table: no name
    # is lost on either side, and every listed name exists.
    declared = []
    for module, names in lpmch._EXPORTS.items():
        submodule = importlib.import_module(f"lpmch.{module}")
        if hasattr(submodule, "__all__"):
            declared.append(module)
            assert tuple(submodule.__all__) == names, module
            assert all(hasattr(submodule, name) for name in names), module
    assert declared == ["cholesky", "geometry", "biggroup", "algebra", "ssrpm", "sampling",
                        "inequalities"]
    for name in ("KLEIN_MAPS", "DEFAULT_CAP", "WalkStats"):
        assert name in lpmch.__all__
