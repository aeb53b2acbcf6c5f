"""Every name a module exports must exist, so a deletion cannot leave a
stale one, and a module uses another only through names it exports."""

import ast
import importlib
import pkgutil
import types

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


# names the import system binds on every package
IMPORT_SYSTEM = {
    "__name__", "__doc__", "__package__", "__loader__", "__spec__",
    "__path__", "__file__", "__cached__", "__builtins__",
}


def test_package_root_binds_only_the_version_and_submodules():
    # one import path per name: everything else comes from its submodule
    for name in MODULES:
        importlib.import_module(name)
    extra = [
        name
        for name, value in vars(nbcq).items()
        if name not in IMPORT_SYSTEM | {"__version__"}
        and not (isinstance(value, types.ModuleType) and value.__name__ == f"nbcq.{name}")
    ]
    assert extra == []
    assert isinstance(nbcq.__version__, str)


@pytest.mark.parametrize("name", MODULES)
def test_no_private_name_imported_from_another_module(name):
    module = importlib.import_module(name)
    tree = ast.parse(open(module.__file__, encoding="utf-8").read())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "nbcq")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []
