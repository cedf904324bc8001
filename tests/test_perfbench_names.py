"""The benchmark's traced names and workload calls exist in the library.

``perfbench/tracer.py`` wraps a fixed list of library functions, and
``perfbench/workloads.py`` calls the library as ``hd.<name>``.  A name that
the library drops would break the benchmark only when it runs, so both
files are read here, without being changed or run.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import hardydual
import hardydual.cli  # workloads.py reads hd.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_resolve_in_their_modules():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, name) for module, funcs in tracer.LAYERS.values()
             if module is not None  # the linalg layer names numpy and scipy
             for name in funcs]
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing


def _chain(node):
    """('hd', 'cli', 'run') for the expression hd.cli.run, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "hd":
        return tuple(reversed(parts))
    return None


def _resolves(chain):
    try:
        functools.reduce(getattr, chain, hardydual)
    except AttributeError:
        return False
    return True


def test_workload_names_exist_on_hardydual():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    chains = {chain for node in ast.walk(tree) if (chain := _chain(node))}
    imports = {(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("hardydual")
               for alias in node.names}
    assert chains and imports
    assert sorted(".".join(chain) for chain in chains if not _resolves(chain)) == []
    missing = [f"{module}.{name}" for module, name in sorted(imports)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
