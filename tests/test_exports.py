"""Every name a package exports resolves, so a deleted name cannot stay
behind in ``__all__``."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["matrixopt", "matrixopt.harness"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
