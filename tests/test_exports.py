"""Every exported name resolves, so a deleted function leaves no stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import netar

MODULES = [m.name for m in pkgutil.iter_modules(netar.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"netar.{name}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert missing == [], f"netar.{name}.__all__ names {missing}"


def test_package_reexports_resolve():
    tree = ast.parse(Path(netar.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"netar.{node.module}")
            for alias in node.names:
                assert hasattr(mod, alias.name), (node.module, alias.name)
                assert getattr(netar, alias.name) is getattr(mod, alias.name)
                assert alias.name in getattr(mod, "__all__", [alias.name]), (node.module, alias.name)
