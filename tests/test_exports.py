from __future__ import annotations

import importlib

import pytest

MODULES = [
    "ngonstab",
    "ngonstab.charges",
    "ngonstab.gamma0",
    "ngonstab.compat",
    "ngonstab.sheaves",
    "ngonstab.hn",
    "ngonstab.moduli",
    "ngonstab.schemas",
    "ngonstab.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert missing == []
