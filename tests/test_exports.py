"""Each public package's __all__ names only what the package defines, so a
deleted function cannot linger as a stale export."""

import importlib

import pytest

PACKAGES = ["hotk.kernel", "hotk.models", "hotk.proofkit"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_succeeds(package):
    exec(f"from {package} import *", {})
