"""The benchmark workloads: inputs drawn from the seed, one op, and its checks.

Each workload has the same interface:

- ``make_input(i)`` builds the inputs of op ``i`` from the benchmark seed
  (outside the timed region) and returns an :class:`OpInput` with a one-line
  summary of the data;
- ``run_op(inp)`` is the timed op;
- ``check(inp, out)`` returns the op's gates, each with its value and
  threshold.  An op fails when it raises or any gate fails.

The library receives only the built ``SpaceData`` (or, for ``readme_cli``, the
config file); all random draws happen here.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hardydual as hd
import hardydual.cli
from hardydual.corpus import BY_NAME, mass_single_trace

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# Thresholds of the existing gates: ``cli._DEFAULT_GATES`` (identity,
# asymptotics, theorem, tau), the orthonormality tolerance of acceptance
# criterion 7, ``TOL_ORDER`` for the sandwich margins, and the closed-form
# single-mass trace.  Copied, so that a change to the library's defaults
# cannot loosen the benchmark's checks.
GATE_IDENTITY = 1e-6
GATE_ASYMPTOTICS = 1e-3
GATE_THEOREM = 1e-6
GATE_TAU = 1e-8
GATE_ORTHONORMAL = 1e-7
GATE_ORDER = 1e-10
GATE_CLOSED_FORM = 1e-12

SMOKE_SIZE = (1024, 16)


@dataclass
class Gate:
    name: str
    value: float
    threshold: float
    passed: bool


def below(name, value, threshold):
    value = float(value)
    return Gate(name, value, threshold, bool(value < threshold))


@dataclass
class OpInput:
    index: int
    summary: str
    data: object


def _fmt(z):
    z = complex(z)
    return f"{z.real:.4g}{z.imag:+.4g}j"


def _hankel_mb(grid_size, degree, n_exponents):
    """Bytes of the complex Hankel rows J x n at the default truncation."""
    return (grid_size // 2 - degree) * n_exponents * 16 / 1e6


class _InProcess:
    """Workloads whose ops are library calls in the benchmark process."""

    @contextlib.contextmanager
    def tracing(self, tracer):
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ShiftSweep(_InProcess):
    """One corpus data pair at 16384/256 through every Gram-heavy routine."""

    name = "shift_sweep"
    nominal_op_s = 8.3
    cycle = 1             # the three cases cost about the same
    cases = ("mass_single", "mixed_rational", "mixed_two_mass")
    jitter = 0.2          # mass weights times U(1 - jitter, 1 + jitter)
    n_max = 16
    shifts = range(5)

    def __init__(self, seed, smoke=False, workdir=None):
        self.seed = seed
        self.grid_size, self.degree = SMOKE_SIZE if smoke else (16384, 256)

    def data_ranges(self):
        return {"cases": list(self.cases), "weight_jitter": [1 - self.jitter, 1 + self.jitter],
                "grid": self.grid_size, "degree": self.degree}

    def working_set(self):
        m = self.degree + max(self.shifts)
        return {"hankel_rows_mb": _hankel_mb(self.grid_size, m, m + 1),
                "gram_mb": (m + 1) ** 2 * 16 / 1e6,
                "grid_vector_mb": self.grid_size * 16 / 1e6}

    def make_input(self, i):
        name = self.cases[i % len(self.cases)]
        base = BY_NAME[name].space(self.grid_size)   # a fresh symbol per op
        rng = np.random.default_rng([self.seed, i])
        factors = 1.0 + self.jitter * rng.uniform(-1.0, 1.0, base.masses.count)
        masses = hd.MassSet(base.masses.points, base.masses.weights * factors)
        summary = f"{name} masses=[" + ", ".join(
            f"({_fmt(p)}, w={w:.6g})" for p, w in zip(masses.points, masses.weights)) + "]"
        return OpInput(i, summary, (name, hd.SpaceData(base.symbol, masses)))

    def run_op(self, inp):
        _, space = inp.data
        degree = self.degree
        trace = hd.asymptotic_sweep(space, self.n_max, degree)
        sandwich = hd.sandwich_check(space, 1, 0.5, 0, degree)
        identity = hd.duality_identity(space, hd.dual_of(space), degree)
        system = hd.orthonormal_system(space, self.shifts, degree)
        return trace, sandwich, identity, system

    def check(self, inp, out):
        name, space = inp.data
        trace, sandwich, identity, system = out
        worst_margin = min(sandwich.margin_cutoff, sandwich.margin_scaled,
                           sandwich.psd_margin_cutoff, sandwich.psd_margin_scaled)
        gates = [
            below("asymptotics.final_deviation", trace.deviations[-1], GATE_ASYMPTOTICS),
            Gate("sandwich.worst_margin", float(worst_margin), -GATE_ORDER,
                 bool(worst_margin >= -GATE_ORDER)),
            below("sandwich.identity_residual",
                  max(sandwich.identity_residuals.values()), GATE_IDENTITY),
            below("duality.identity_residual", identity.residual, GATE_IDENTITY),
            below("orthonormal.defect", system.orthonormality_defect, GATE_ORTHONORMAL),
        ]
        if name == "mass_single":
            point, weight = complex(space.masses.points[0]), float(space.masses.weights[0])
            expected = np.array([mass_single_trace(int(n), point, weight)
                                 for n in trace.shifts])
            gates.append(below("asymptotics.closed_form_error",
                               np.abs(trace.values - expected).max(), GATE_CLOSED_FORM))
        return gates


class RandomPairs(_InProcess):
    """A fresh random data pair at 16384/64 per op: dual, identity, theorem, tau."""

    name = "random_pairs"
    nominal_op_s = 3.4
    # Op i has mass_counts[i % 5] masses.  Cost grows with the mass count, so
    # a run holds whole cycles (the same mix every run) and the median op
    # falls inside the 2-mass ops rather than between two counts.
    mass_counts = (0, 1, 2, 3, 2)
    cycle = len(mass_counts)
    max_power = 4          # symbol coefficients at |p| <= max_power
    sup_modulus = 0.8
    radius = (0.1, 0.7)    # mass points in this annulus ...
    spacing = 0.1          # ... at least this far apart
    weights = (0.5, 3.0)
    n_vectors = 20

    def __init__(self, seed, smoke=False, workdir=None):
        self.seed = seed
        self.grid_size, self.degree = SMOKE_SIZE if smoke else (16384, 64)

    def data_ranges(self):
        return {"coefficients": "1-3 at |p| <= %d, sup|R| = %g" % (self.max_power,
                                                                  self.sup_modulus),
                "masses": "0-3, %g <= |zeta| <= %g, spacing >= %g, weights in [%g, %g]"
                          % (*self.radius, self.spacing, *self.weights),
                "tau_vectors": self.n_vectors, "grid": self.grid_size, "degree": self.degree}

    def working_set(self):
        m = self.degree
        return {"hankel_rows_mb": _hankel_mb(self.grid_size, m, 2 * m + 1),
                "gram_mb": (2 * m + 4) ** 2 * 16 / 1e6,
                "grid_vector_mb": self.grid_size * 16 / 1e6,
                "tau_vectors_mb": 2 * self.n_vectors * self.grid_size * 16 / 1e6}

    def make_input(self, i):
        rng = np.random.default_rng([self.seed, i])
        grid = hd.CircleGrid(self.grid_size)
        powers = rng.choice(np.arange(-self.max_power, self.max_power + 1),
                            size=1 + i % 3, replace=False)
        coeffs = rng.standard_normal(powers.size) + 1j * rng.standard_normal(powers.size)
        raw = hd.symbol_from_coefficients(grid, dict(zip(powers.tolist(), coeffs)))
        coeffs = coeffs * (self.sup_modulus / raw.sup_modulus)
        entries = dict(zip(powers.tolist(), coeffs))
        symbol = hd.symbol_from_coefficients(grid, entries)

        points = []
        while len(points) < self.mass_counts[i % self.cycle]:
            r = np.sqrt(rng.uniform(self.radius[0] ** 2, self.radius[1] ** 2))
            z = r * np.exp(2j * np.pi * rng.uniform())
            if all(abs(z - q) >= self.spacing for q in points):
                points.append(z)
        weights = rng.uniform(*self.weights, len(points))
        masses = hd.MassSet(np.array(points, dtype=complex), weights)

        band = min(self.degree, self.grid_size // 8)
        exponents = np.arange(-band, band + 1)
        vectors = []
        for _ in range(self.n_vectors):
            full = np.zeros(self.grid_size, dtype=complex)
            full[exponents % self.grid_size] = (
                rng.standard_normal(exponents.size)
                + 1j * rng.standard_normal(exponents.size)) * 0.8 ** np.abs(exponents)
            values = rng.standard_normal(masses.count) + 1j * rng.standard_normal(masses.count)
            vectors.append((full, values))

        summary = ("coeffs={" + ", ".join(f"{p}: {_fmt(c)}" for p, c in sorted(entries.items()))
                   + "} masses=[" + ", ".join(f"({_fmt(p)}, w={w:.4g})"
                                              for p, w in zip(points, weights)) + "]")
        return OpInput(i, summary, (hd.SpaceData(symbol, masses), vectors))

    def run_op(self, inp):
        space, vectors = inp.data
        dual = hd.dual_of(space)
        identity = hd.duality_identity(space, dual, self.degree)
        theorem = hd.theorem_check(space, dual, self.degree)

        dual_back = hd.dual_of(dual.dual_space())
        symbol, masses = dual.symbol, dual.masses
        worst_unit = worst_inv = 0.0
        for full, values in vectors:
            vec = hd.canonical_vector(symbol, symbol.grid.values(full), values)
            norm = hd.l2_norm(vec, symbol, masses)
            image = hd.apply_tau(vec, dual)
            norm_image = hd.l2_norm(image, dual.dual_symbol, dual.dual_masses)
            back = hd.apply_tau(image, dual_back)
            diff = hd.TauVector(back.f1 - vec.f1, back.f2 - vec.f2,
                                back.mass_values - vec.mass_values)
            worst_unit = max(worst_unit, abs(norm_image ** 2 - norm ** 2) / norm ** 2)
            worst_inv = max(worst_inv, hd.l2_norm(diff, symbol, masses) / norm)
        return identity, theorem, worst_unit, worst_inv

    def check(self, inp, out):
        identity, theorem, worst_unit, worst_inv = out
        return [
            below("duality.identity_residual", identity.residual, GATE_IDENTITY),
            below("theorem.membership_residual",
                  max(theorem.forward_hardy_residual, theorem.forward_mass_residual),
                  GATE_THEOREM),
            below("theorem.converse_orthogonality", theorem.converse_orthogonality,
                  GATE_THEOREM),
            below("tau.unitarity", worst_unit, GATE_TAU),
            below("tau.involution", worst_inv, GATE_TAU),
        ]


def child_env():
    """The caller's environment (thread settings as found) with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class ReadmeCli:
    """One fresh ``python -m hardydual run`` on the README config per op."""

    name = "readme_cli"
    nominal_op_s = 1.8
    cycle = 1
    outputs = ("*.csv", "summary.json")   # the byte-identical part of a report

    def __init__(self, seed, smoke=False, workdir=None):
        raw = json.loads((BENCH_DIR / "readme_config.json").read_text(encoding="utf-8"))
        raw["seed"] = seed   # seeds the tau study's random vectors
        hd.cli.parse_config(raw)
        self.workdir = Path(workdir)
        self.config = self.workdir / "config.json"
        self.config.write_text(json.dumps(raw, indent=2), encoding="utf-8")
        self.seed = seed
        self.extra = ["--grid", str(SMOKE_SIZE[0]), "--degree", str(SMOKE_SIZE[1])] \
            if smoke else []
        self.grid_size = SMOKE_SIZE[0] if smoke else raw["grid"]
        self.degree = SMOKE_SIZE[1] if smoke else raw["degree"]
        self.reference = None
        self.child_rss_kb = []
        self._tracer = None

    def data_ranges(self):
        return {"config": "perfbench/readme_config.json", "seed": self.seed,
                "grid": self.grid_size, "degree": self.degree}

    def working_set(self):
        m = self.degree
        return {"hankel_rows_mb": _hankel_mb(self.grid_size, m, 2 * m + 1),
                "gram_mb": (2 * m + 2) ** 2 * 16 / 1e6,
                "grid_vector_mb": self.grid_size * 16 / 1e6}

    @contextlib.contextmanager
    def tracing(self, tracer):
        self._tracer = tracer
        try:
            yield
        finally:
            self._tracer = None

    def peak_rss_mb(self):
        return max(self.child_rss_kb) / 1024.0

    def make_input(self, i):
        return OpInput(i, f"README config, seed {self.seed}", self.workdir / f"op{i}")

    def run_op(self, inp):
        out_dir = inp.data
        argv = ["run", str(self.config), "--out", str(out_dir), *self.extra]
        spans = self.workdir / f"spans{inp.index}.json"
        if self._tracer is None:
            argv = [sys.executable, "-m", "hardydual", *argv]
        else:
            argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans), *argv]
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL,
                                    stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        if self._tracer is not None and spans.exists():
            recorded = json.loads(spans.read_text(encoding="utf-8"))
            self._tracer.extend(recorded["spans"], recorded["counts"])
            spans.unlink()
        files = {path.name: path.read_bytes()
                 for pattern in self.outputs for path in sorted(out_dir.glob(pattern))}
        shutil.rmtree(out_dir, ignore_errors=True)
        return proc.returncode, files, err_path.read_text(encoding="utf-8").strip()

    def check(self, inp, out):
        code, files, stderr = out
        if self.reference is None:
            self.reference = files
        gates = [Gate("exit_code" + (f" ({stderr.splitlines()[-1]})" if stderr else ""),
                      code, 0, code == 0)]
        differing = sorted(set(files) ^ set(self.reference)
                           | {name for name in files if files[name] != self.reference.get(name)})
        gates.append(Gate("outputs.identical_to_first_op"
                          + (f" (differ: {', '.join(differing)})" if differing else ""),
                          len(differing), 1, not differing))
        if "summary.json" in files:
            for gate in json.loads(files["summary.json"])["gates"]:
                value = gate["value"]
                gates.append(Gate(gate["name"], float("nan") if value is None else value,
                                  gate["threshold"], bool(gate["passed"])))
        return gates


WORKLOADS = {cls.name: cls for cls in (ReadmeCli, ShiftSweep, RandomPairs)}
