"""Every exported name resolves."""

import importlib
import pkgutil

import pytest

import fluidrisk

MODULES = [fluidrisk] + [
    importlib.import_module(f"fluidrisk.{info.name}")
    for info in pkgutil.iter_modules(fluidrisk.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []
