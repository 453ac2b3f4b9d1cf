"""Only model.py steps the recursion, the fits evaluate G only through the series,
G has one evaluation path, and the front ends fit through one procedure.

``model._run_recursion`` is the one time loop of the AR recursion and
``model._nar_step`` its one step; a second module that steps the recursion
itself would be a second driver, free to drift from the first bit by bit.
Likewise every fit reads G from what an ``AdjacencySeries`` keeps of its one
chunked pass over the snapshots (``_g_parts``); a fit-side module that called
the kernel itself would be a second sharing path.  And the variant bodies, ``netdyn._evaluate``,
run only on the chunks and result slices ``apply_neighborhood_fn`` hands them;
a second caller would be a second G path with its own layout and aliasing rules.
The harness, the panel pipeline and ``netar fit`` select the order, build the
network mask and refit only through ``estimate._fit_by_bic``; a front end that
named the selection, a fit or the series' parts of G itself would be a second recipe.
"""

import ast
from pathlib import Path

import pytest

import netar

PACKAGE = Path(netar.__file__).parent
OTHERS = sorted(p for p in PACKAGE.glob("*.py") if p.name != "model.py")
FIT_SIDE = [PACKAGE / name for name in ("estimate.py", "harness.py", "cli.py")]
NETDYN = PACKAGE / "netdyn.py"
FRONT_ENDS = [PACKAGE / name for name in ("harness.py", "cli.py")]
FIT_RECIPE = ("select_order_bic", "fit_nar", "fit_lnar", "fit_var", "_g_parts")


def uses(path, name):
    """The lines of ``path`` that name ``name``, as a variable, attribute or import."""
    return named_in(ast.parse(path.read_text()), name)


def named_in(tree, name):
    """The lines under an AST node that name ``name``, as a variable, attribute or import."""
    found = []
    for node in ast.walk(tree):
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


def test_g_is_evaluated_only_by_apply_neighborhood_fn():
    # the top-level functions, methods and module-level statements of netdyn
    # that name the variant bodies: the kernel, and their own recursion
    scopes = {getattr(node, "name", "module level")
              for top in ast.parse(NETDYN.read_text()).body
              for node in (top.body if isinstance(top, ast.ClassDef) else [top])
              if named_in(node, "_evaluate")}
    assert scopes - {"_evaluate"} == {"apply_neighborhood_fn"}


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {NETDYN}),
                         ids=lambda p: p.name)
def test_no_other_module_names_the_variant_bodies(path):
    found = uses(path, "_evaluate")
    assert found == [], f"{path.name} names netdyn._evaluate at {found}"


@pytest.mark.parametrize("name", FIT_RECIPE)
@pytest.mark.parametrize("path", FRONT_ENDS, ids=lambda p: p.name)
def test_front_ends_fit_only_through_the_one_procedure(path, name):
    found = uses(path, name)
    assert found == [], f"{path.name} names {name} at {found}, not estimate._fit_by_bic"
