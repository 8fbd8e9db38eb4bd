"""Every name a module lists in __all__ exists."""

import importlib

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
