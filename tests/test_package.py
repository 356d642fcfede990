"""Package-level checks of the public surface."""
import importlib
import pkgutil

import pytest

import ssmean

MODULES = ["ssmean"] + [f"ssmean.{info.name}" for info in pkgutil.iter_modules(ssmean.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
