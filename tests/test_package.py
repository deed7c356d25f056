"""The package's export table: lazy names, dir() and star-import."""

import importlib

import pytest

import growingtrees


def test_each_export_is_its_submodules_object():
    listed = [name for names in growingtrees._EXPORTS.values() for name in names]
    assert sorted(listed) == growingtrees.__all__  # each name listed once
    for module, names in growingtrees._EXPORTS.items():
        owner = importlib.import_module(f"growingtrees.{module}")
        for name in names:
            assert getattr(growingtrees, name) is getattr(owner, name), name


def test_dir_lists_all_exports():
    assert set(growingtrees.__all__) <= set(dir(growingtrees))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'growingtrees' has no attribute 'no_such_name'"):
        growingtrees.no_such_name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from growingtrees import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == growingtrees.__all__
