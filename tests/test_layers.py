"""The package's modules import downward only.

The layers, from the bottom: circle -> spaces -> duality -> kernels -> cli.
A module imports only layers below its own, at module top; ``errors`` and
``tolerances`` are leaves that every layer may import, and ``corpus``,
``__main__`` and the package's ``__init__`` stand aside.  The source is
read, not imported, so a cycle shows here before it shows as an import
error.
"""

import ast
import inspect
from pathlib import Path

from hardydual import duality, kernels

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hardydual"
LAYERS = ("circle", "spaces", "duality", "kernels", "cli")
LEAVES = ("errors", "tolerances")


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def _relative_targets(node):
    """The package modules a relative import reads: ``from .spaces import x``
    reads spaces, ``from . import cli`` reads cli, ``from . import
    __version__`` reads the package itself (None)."""
    if node.module is not None:
        return [node.module.split(".")[0]]
    return [alias.name if alias.name in LAYERS + LEAVES else None for alias in node.names]


def test_no_import_inside_a_function():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_layers_import_only_layers_below():
    upward = []
    for rank, name in enumerate(LAYERS):
        for node in ast.walk(_tree(name)):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            for target in _relative_targets(node):
                allowed = target in LEAVES or target in LAYERS[:rank]
                if not allowed and not (name == "cli" and target is None):
                    upward.append(f"{name}.py:{node.lineno} imports {target or 'the package'}")
    assert upward == []


def test_sandwich_convention_default_is_the_unitary_name():
    default = inspect.signature(kernels.sandwich_check).parameters["convention"].default
    assert default == duality.UNITARY
    # spelled as the name, so the two cannot drift apart
    (func,) = [node for node in _tree("kernels").body
               if isinstance(node, ast.FunctionDef) and node.name == "sandwich_check"]
    spelled = func.args.defaults[-1]
    assert isinstance(spelled, ast.Name) and spelled.id == "UNITARY"
