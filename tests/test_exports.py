"""Every name a surfflow module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import surfflow

MODULES = ["surfflow"] + sorted(
    f"surfflow.{m.name}" for m in pkgutil.iter_modules(surfflow.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists missing names {missing}"
