"""Dead code and ownership checks on the package source, with the
standard library's ast.

Every import in a module of src/risktraj is used in that module, and
every module-level single-underscore name is referenced somewhere in the
package, so a deletion cannot leave an unused import or helper behind.
Only trajectory.py rounds a time to a sample index: TimeGrid owns that
arithmetic and the exactness it needs far from t = 0. The integrator
takes one path: every system hook has a default, so no hook is tested
for None.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "risktraj"
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}
PRIVATE = re.compile(r"_[^_]")


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names a tree reads: bare names and attributes."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = MODULES[module]
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    assert bound - {"annotations"} - _loaded_names(tree) == set()


def test_every_private_module_name_is_referenced():
    defined = set()
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined |= {(module, name) for name in names if PRIVATE.match(name)}
    referenced = set().union(*map(_loaded_names, MODULES.values())) | {
        alias.name for tree in MODULES.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {(module, name) for module, name in defined if name not in referenced} == set()


def _is_math_rounding(node: ast.AST) -> bool:
    """A call math.floor(...) or math.ceil(...)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("floor", "ceil")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "math")


def test_only_the_time_grid_rounds_times_to_samples():
    found = [f"{module}:{node.lineno}"
             for module, tree in MODULES.items() if module != "trajectory.py"
             for node in ast.walk(tree) if _is_math_rounding(node)
             if any(isinstance(sub, ast.Attribute) and sub.attr == "dt"
                    for arg in node.args for sub in ast.walk(arg))]
    assert found == []


def _none_tests(function: ast.FunctionDef) -> list[str]:
    """The comparisons with None in a function's body, as source text."""
    return [ast.unparse(node) for node in ast.walk(function)
            if isinstance(node, ast.Compare)
            and any(isinstance(side, ast.Constant) and side.value is None
                    for side in (node.left, *node.comparators))]


def test_the_integrator_tests_no_hook_for_none():
    functions = {node.name: node for node in MODULES["dynamics.py"].body
                 if isinstance(node, ast.FunctionDef)}
    # the short-pulse warning asks whether there is a pulse, not a hook
    assert _none_tests(functions["integrate"]) == ["disturbance.window is not None"]
    assert _none_tests(functions["_flight"]) == []
