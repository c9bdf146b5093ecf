"""Every name a lineact module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import lineact

MODULES = [m.name for m in pkgutil.iter_modules(lineact.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"lineact.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing
