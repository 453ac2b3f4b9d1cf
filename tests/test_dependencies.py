"""The package imports only the standard library, numpy and itself.

numpy is the one runtime dependency pyproject.toml declares; any other
import would pass where it happens to be installed and fail on a clean one.
"""

import ast
import sys
from pathlib import Path

import pytest

import netar

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "netar"}
SOURCES = sorted(Path(netar.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_declared_dependencies(path):
    foreign = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert foreign == [], f"{path.name} imports undeclared packages: {foreign}"
