import importlib
import pkgutil

import pytest

import cavens

MODULES = ["cavens"] + [f"cavens.{m.name}" for m in pkgutil.iter_modules(cavens.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_exist(name):
    """Every name a module exports exists, so a star import of it works."""
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    exec(f"from {name} import *", {})
