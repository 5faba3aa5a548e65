"""The package namespace: each public name is its defining module's."""

from importlib import import_module

import pytest

import crashbench


def test_every_public_name_is_its_modules_object():
    for module, names in crashbench._PUBLIC.items():
        defining = import_module(f"crashbench.{module}")
        for name in names:
            assert getattr(crashbench, name) is getattr(defining, name), name
    assert set(crashbench.__all__) == {
        *(name for names in crashbench._PUBLIC.values() for name in names),
        "__version__",
    }


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from crashbench import *", namespace)
    assert set(crashbench.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(crashbench.__all__) <= set(dir(crashbench))


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'crashbench' has no attribute 'nope'"):
        crashbench.nope


def test_public_name_count():
    # The size of the public surface is tracked (ROADMAP aim 2).
    assert len(crashbench.__all__) == 54
