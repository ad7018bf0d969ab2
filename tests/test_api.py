"""Every name a capwave module exports in __all__ resolves."""

import importlib
import pkgutil

import pytest

import capwave

MODULES = [name for _, name, _ in pkgutil.iter_modules(capwave.__path__)
           if name != "__main__"]


def test_modules_found():
    assert {"harmonics", "transforms", "vector_field"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"capwave.{name}")
    assert not [n for n in module.__all__ if not hasattr(module, n)]
