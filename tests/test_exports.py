from __future__ import annotations

import importlib

import pytest

MODULES = ["slp", "_compile", "tracker", "linalg", "monodromy", "groups", "problems"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"monogal.{name}")
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
