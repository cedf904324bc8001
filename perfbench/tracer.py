"""Layer spans for the traced benchmark run.

The tracer wraps the public functions of each hardydual module, plus the
numpy/scipy factorizations they call (the ``linalg`` layer), and records one
span (name, start, end, parent) per call.  Modules import each other's
functions by name, so every module namespace that binds a wrapped function
gets the wrapper, not only the defining module.  Spans stay in memory until
the run ends; counters for exact work counts are taken at the same call
boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _hankel_flops(counts, args, kwargs, result):
    exponents = kwargs.get("exponents", args[1] if len(args) > 1 else None)
    truncation = kwargs.get("truncation", args[2] if len(args) > 2 else None)
    counts["spaces.hankel_block.flops"] += 8 * int(truncation) * np.size(exponents) ** 2


def _analytic_coeffs(counts, args, kwargs, result):
    coeffs = kwargs.get("coeffs", args[0] if args else None)
    z = kwargs.get("z", args[1] if len(args) > 1 else None)
    counts["circle.evaluate_analytic.coeffs"] += (np.size(coeffs) // 2) * max(1, np.size(z))


def _report_bytes(counts, args, kwargs, result):
    out_dir = Path(kwargs.get("out_dir", args[1] if len(args) > 1 else None))
    counts["cli.write_report.bytes"] += sum(
        path.stat().st_size for path in out_dir.iterdir()
        if path.suffix == ".csv" or path.name == "summary.json")


def _study_timings(counts, args, kwargs, result):
    _, report = result
    if report is not None:
        for study, seconds in report.timings.items():
            counts[f"cli.study.{study}_s"] += seconds


# layer -> (module that defines the functions, function names)
LAYERS = {
    "circle": ("hardydual.circle", ("build_outer", "build_blaschke",
                                    "evaluate_analytic", "riesz_project_values")),
    "spaces": ("hardydual.spaces", ("effective_data", "hankel_block",
                                    "build_gram_analytic", "build_gram_laurent",
                                    "embed_h2")),
    "linalg": (None, ("eigvalsh", "cho_factor", "cho_solve", "null_space")),
    "kernels": ("hardydual.kernels", ("kernel_at_point", "asymptotic_sweep",
                                      "orthonormal_system", "sandwich_check")),
    "duality": ("hardydual.duality", ("build_dual", "canonical_vector", "apply_tau",
                                      "l2_inner", "check_hat_membership",
                                      "theorem_check", "duality_identity")),
    "cli": ("hardydual.cli", ("parse_config", "build_space", "run", "write_report")),
}

# the linalg layer lives in numpy/scipy; these are the namespaces the library
# reaches it through (``np.linalg.eigvalsh``, ``scipy.linalg.cho_factor`` ...)
_LINALG_HOMES = {"eigvalsh": "numpy.linalg", "cho_factor": "scipy.linalg",
                 "cho_solve": "scipy.linalg", "null_space": "scipy.linalg"}

COUNTERS = {
    "spaces.hankel_block": _hankel_flops,
    "circle.evaluate_analytic": _analytic_coeffs,
    "cli.write_report": _report_bytes,
    "cli.run": _study_timings,
}

STUDIES = ("asymptotics", "duality", "sandwich", "theorem", "tau", "convergence")


def span_names():
    return [f"{layer}.{func}" for layer, (_, funcs) in LAYERS.items() for func in funcs]


def layer_metric_names():
    """Every per-layer metric the traced run reports, in order."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s"]
    names += ["circle.evaluate_analytic.coeffs", "spaces.hankel_block.flops",
              "spaces.grams_per_op", "cli.write_report.bytes"]
    names += [f"cli.study.{study}_s" for study in STUDIES]
    names += ["trace.op_s", "trace.overhead_frac", "trace.unattributed_s", "fail_frac"]
    return names


class Tracer:
    """In-memory span recorder; ``install`` swaps the wrappers in, ``uninstall`` back."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []       # (namespace, attribute, original)

    def _wrap(self, name, func):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        namespaces = [module for key, module in sorted(sys.modules.items())
                      if key == "hardydual" or key.startswith("hardydual.")]
        for layer, (home, funcs) in LAYERS.items():
            for func_name in funcs:
                module = importlib.import_module(home or _LINALG_HOMES[func_name])
                original = getattr(module, func_name)
                wrapper = self._wrap(f"{layer}.{func_name}", original)
                targets = [module] + [ns for ns in namespaces if ns is not module]
                for namespace in targets:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def extend(self, spans, counts):
        """Append spans and counts recorded by another process."""
        offset = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1))
        for key, value in counts.items():
            self.counts[key] += value

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)

    def layer_metrics(self, op_times, untraced_p50):
        """Per-op means of calls, self time and counts; see ``layer_metric_names``."""
        n_ops = len(op_times)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        top_level = 0.0
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top_level += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += (end - start) - child_time[index]

        metrics = {}
        for span in span_names():
            metrics[f"{span}.calls"] = calls[span] / n_ops
            metrics[f"{span}.self_s"] = self_time[span] / n_ops
        for key in ("circle.evaluate_analytic.coeffs", "spaces.hankel_block.flops",
                    "cli.write_report.bytes"):
            metrics[key] = self.counts[key] / n_ops
        metrics["spaces.grams_per_op"] = (calls["spaces.build_gram_analytic"]
                                          + calls["spaces.build_gram_laurent"]) / n_ops
        for study in STUDIES:
            metrics[f"cli.study.{study}_s"] = self.counts[f"cli.study.{study}_s"] / n_ops
        metrics["trace.op_s"] = sum(op_times) / n_ops
        metrics["trace.overhead_frac"] = float(np.median(op_times)) / untraced_p50 - 1.0
        metrics["trace.unattributed_s"] = (sum(op_times) - top_level) / n_ops
        return metrics
