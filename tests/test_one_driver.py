"""Only model.py steps the recursion.

``model._run_recursion`` is the one time loop of the AR recursion and
``model._nar_step`` its one step; a second module that steps the recursion
itself would be a second driver, free to drift from the first bit by bit.
"""

import ast
from pathlib import Path

import pytest

import netar

OTHERS = sorted(p for p in Path(netar.__file__).parent.glob("*.py") if p.name != "model.py")


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_only_model_steps_the_recursion(path):
    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        uses += [f"line {node.lineno}" for n in names if n == "_nar_step"]
    assert uses == [], f"{path.name} steps the recursion itself at {uses}"
