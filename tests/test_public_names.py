"""Every name a module lists in `__all__` exists, so a name removed from the
code but left listed fails here rather than at a user's import."""

import importlib
import pkgutil

import pytest

import mooremix

MODULES = ["mooremix"] + [f"mooremix.{m.name}" for m in pkgutil.iter_modules(mooremix.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed), name
    assert [x for x in listed if not hasattr(module, x)] == []

