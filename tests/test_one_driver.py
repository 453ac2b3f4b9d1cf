"""Only model.py steps the recursion, and the fits evaluate G only through the series.

``model._run_recursion`` is the one time loop of the AR recursion and
``model._nar_step`` its one step; a second module that steps the recursion
itself would be a second driver, free to drift from the first bit by bit.
Likewise every fit reads G from the one evaluation an ``AdjacencySeries``
keeps (``_modulation``); a fit-side module that called the kernel itself
would be a second sharing path.
"""

import ast
from pathlib import Path

import pytest

import netar

PACKAGE = Path(netar.__file__).parent
OTHERS = sorted(p for p in PACKAGE.glob("*.py") if p.name != "model.py")
FIT_SIDE = [PACKAGE / name for name in ("estimate.py", "harness.py", "cli.py")]


def uses(path, name):
    """The lines of ``path`` that name ``name``, as a variable, attribute or import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}" for n in names if n == name]
    return found


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_only_model_steps_the_recursion(path):
    found = uses(path, "_nar_step")
    assert found == [], f"{path.name} steps the recursion itself at {found}"


@pytest.mark.parametrize("path", FIT_SIDE, ids=lambda p: p.name)
def test_fits_evaluate_g_only_through_the_series(path):
    found = uses(path, "apply_neighborhood_fn")
    assert found == [], f"{path.name} evaluates G itself at {found}"
