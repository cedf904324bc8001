"""The benchmark's traced names and workload calls fit the library.

``perfbench/tracer.py`` wraps a fixed list of library functions, and its
counters read their arguments by name or position; ``perfbench/workloads.py``
calls the library as ``hd.<name>``.  A name that the library drops, or a
parameter that it removes or moves, would break the benchmark or skew its
counts only when it runs, so both files are read here, without being
changed or run.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

import hardydual
import hardydual.cli  # workloads.py reads hd.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _workloads():
    return ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))


def test_traced_functions_resolve_in_their_modules():
    tracer = _tracer()
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
    tree = _workloads()
    chains = {chain for node in ast.walk(tree) if (chain := _chain(node))}
    imports = {(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("hardydual")
               for alias in node.names}
    assert chains and imports
    assert sorted(".".join(chain) for chain in chains if not _resolves(chain)) == []
    missing = [f"{module}.{name}" for module, name in sorted(imports)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def _identifier(node):
    """'degree' for the argument degree or self.degree, else None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_workload_calls_bind_to_their_signatures():
    # each hd.<fn>(...) call binds with its positional count and keywords,
    # and a positional argument spelled as a parameter's name lands on that
    # parameter.  A removed parameter shifts the arguments after it: were
    # sandwich_check's n removed, sandwich_check(space, 1, 0.5, 0, degree)
    # would still bind, since convention follows degree: 0 to degree and
    # degree to convention, which the name check catches.  With no
    # parameter left after degree it would fail to bind, one argument too
    # many
    calls = [(node, chain) for node in ast.walk(_workloads())
             if isinstance(node, ast.Call) and (chain := _chain(node.func))]
    assert calls
    wrong = []
    for node, chain in calls:
        name = f"line {node.lineno}: hd.{'.'.join(chain)}"
        assert not any(isinstance(arg, ast.Starred) for arg in node.args), name
        assert all(keyword.arg for keyword in node.keywords), name
        signature = inspect.signature(functools.reduce(getattr, chain, hardydual))
        try:
            signature.bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            wrong.append(f"{name}: {exc}")
            continue
        params = list(signature.parameters)
        wrong += [f"{name}: argument {ident} lands on {param}"
                  for arg, param in zip(node.args, params)
                  if (ident := _identifier(arg)) in params and ident != param]
    assert not wrong


def _counter_reads(counter):
    """(name, index) of every kwargs.get(name, args[index] ...) in ``counter``."""
    reads = set()
    for node in ast.walk(ast.parse(inspect.getsource(counter))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "kwargs"):
            key, fallback = node.args
            index = next(sub.slice.value for sub in ast.walk(fallback)
                         if isinstance(sub, ast.Subscript)
                         and isinstance(sub.value, ast.Name) and sub.value.id == "args")
            reads.add((key.value, index))
    return reads


def test_tracer_counters_find_their_arguments():
    # a counter reads an argument by keyword, else at a fixed position
    tracer = _tracer()
    reads = {}
    for span, counter in tracer.COUNTERS.items():
        layer, func = span.split(".")
        params = list(inspect.signature(
            getattr(importlib.import_module(tracer.LAYERS[layer][0]), func)).parameters)
        reads[span] = _counter_reads(counter)
        for name, index in reads[span]:
            assert params[index] == name, (span, name, index, params)
    assert reads["spaces.hankel_block"] == {("exponents", 1), ("truncation", 2)}
    assert reads["circle.evaluate_analytic"] == {("coeffs", 0), ("z", 1)}
    assert reads["cli.write_report"] == {("out_dir", 1)}
