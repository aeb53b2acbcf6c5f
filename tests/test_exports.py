"""Every name a module exports must exist, so a deletion cannot leave a stale one."""

import importlib
import pkgutil

import pytest

import nbcq

MODULES = [
    info.name
    for info in pkgutil.iter_modules(nbcq.__path__, "nbcq.")
    if info.name != "nbcq.__main__"  # importing it is harmless, but it has no API
]


def test_every_module_is_checked():
    assert "nbcq.transform" in MODULES and "nbcq.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} declares no __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
