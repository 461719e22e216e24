"""Every name a package exports must exist (no stale ``__all__`` entry)."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["repro.ordbms", "repro.store", "repro.xslt"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
