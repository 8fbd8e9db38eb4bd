"""Every name a module lists in __all__ exists, and the package top
level exposes its submodules only."""

import importlib
import inspect

import pytest

MODULES = ["geoflow", "geoflow.asymptotics", "geoflow.catalog",
           "geoflow.cli", "geoflow.exact", "geoflow.expr", "geoflow.flag",
           "geoflow.geometry", "geoflow.hamiltonian", "geoflow.rho"]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__
               if not hasattr(module, entry)]
    assert missing == []


def test_top_level_lists_only_submodules():
    import geoflow
    assert all(inspect.ismodule(getattr(geoflow, entry))
               for entry in geoflow.__all__)
    assert not [name for name, value in vars(geoflow).items()
                if not name.startswith("_") and not inspect.ismodule(value)]
