"""Every name a proctherm module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import proctherm

MODULES = sorted(m.name for m in pkgutil.iter_modules(proctherm.__path__, "proctherm."))


def test_every_module_found():
    assert "proctherm.simulate" in MODULES and "proctherm.verify" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
