"""Batch experiment runner.

Reads a JSON experiment configuration, executes the requested studies
(asymptotics, duality, sandwich, theorem, tau, convergence), and writes one
CSV per table plus a machine-readable ``summary.json``.  The pipeline is
deterministic: identical configuration (including the seed) produces
byte-identical CSV and JSON outputs.  Wall-clock timings go to ``run.log``,
which is outside the determinism contract.

The configuration alone sets a run: ``--grid`` and ``--degree`` are written
into it, ``--out`` names the output directory, and :func:`parse_config` judges
it once, before any study, by the library's own judges; a symbol is judged on
each grid the run realizes: the config grid and each convergence level's.

Exit codes: 0 all gates pass, 2 configuration error (mass points at a
pseudo-hyperbolic separation below TOL_BLASCHKE included), 3 data failure
(any library error raised by a study, e.g. a symbol touching |R| = 1 or a
Gram that is not positive definite or beyond double precision in scale, and
a refused allocation), 4 tolerance-gate failure (the report is still written).

Every ordering the run judges holds within the tolerance of the Grams its
values come from, which the library reports.  The convergence gate records the
identity residual's largest rise over the levels against their Grams' largest.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import random
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .circle import CircleGrid, MassSet, _band_top, _grid_size, _integer, \
    symbol_from_coefficients, symbol_from_expression, symbol_from_samples, validate_szego
from .duality import CONVERSE_POWERS, UNITARY, _pairing, apply_tau, dual_of, \
    duality_identity, l2_norm, canonical_vector, theorem_check, TauVector
from .errors import ConfigError, GridMismatch, HardyDualError, SzegoViolation
from .kernels import asymptotic_sweep, kernel_at_origin, largest_rise, order_tolerance, \
    sandwich_check
from .spaces import SpaceData, regularized_grams
from .tolerances import TOL_ORDER

SCHEMA_VERSION = 1
STUDY_ORDER = ("asymptotics", "duality", "sandwich", "theorem", "tau", "convergence")
TAU_VECTORS = 20  # random vectors drawn by the tau study

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_GATE = 4

_DEFAULT_GATES = {
    "identity": 1e-6,
    "asymptotics": 1e-3,
    "theorem": 1e-6,
    "tau": 1e-8,
}


@dataclasses.dataclass
class ExperimentConfig:
    label: str
    seed: int
    grid: int
    degree: int
    symbols: dict   # grid size -> the symbol realized and judged on that grid
    masses: MassSet
    n_max: int
    rho_list: list
    cutoff_list: list | None
    convention: str
    gates: dict
    studies: list
    convergence: dict | None
    out_dir: str
    raw: dict


@dataclasses.dataclass
class Gate:
    name: str
    value: float
    threshold: float
    passed: bool


def _below(name, value, threshold):
    value = float(value)
    return Gate(name, value, threshold, value < threshold)


@dataclasses.dataclass
class RunReport:
    config: ExperimentConfig
    tables: dict
    gates: list
    scalars: dict
    timings: dict

    @property
    def all_passed(self) -> bool:
        return all(g.passed for g in self.gates)


# ---------------------------------------------------------------------------
# configuration parsing


def _expect(condition, message):
    if not condition:
        raise ConfigError(message)


def _judged(judge, *args, **bounds):  # a library judge's ValueError, as a config error
    try:
        return judge(*args, **bounds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _is_real(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_path(value):  # printable: no NUL, newline or lone surrogate
    return isinstance(value, str) and value.isprintable() and value != ""


def _as_complex(pair, what):
    if _is_real(pair):
        return complex(pair)
    _expect(isinstance(pair, list) and len(pair) == 2 and all(map(_is_real, pair)),
            f"{what} must be a number or a [re, im] pair")
    return complex(pair[0], pair[1])


_TOP_KEYS = {"label", "seed", "grid", "degree", "symbol", "masses", "n_max", "rho_list",
             "N_list", "convention", "gates", "studies", "convergence", "output"}


def parse_config(raw: dict) -> ExperimentConfig:
    _expect(isinstance(raw, dict), "configuration must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    _expect(not unknown, f"unknown configuration keys: {sorted(unknown)}")

    label = raw.get("label", "experiment")
    _expect(isinstance(label, str), "label must be a string")
    seed = _judged(_integer, raw.get("seed", 20260809), "seed", low=0)

    grid = _judged(_grid_size, raw.get("grid", 4096), "grid")
    degree = _judged(_band_top, raw.get("degree", 48), "degree", grid)

    symbol_spec = raw.get("symbol", {"kind": "coefficients", "entries": {}})
    _expect(isinstance(symbol_spec, dict) and "kind" in symbol_spec,
            "symbol must be an object with a 'kind'")
    kind = symbol_spec["kind"]
    _expect(kind in ("coefficients", "expression", "samples"),
            f"unknown symbol kind {kind!r}")
    allowed = {"coefficients": {"kind", "entries"},
               "expression": {"kind", "formula"},
               "samples": {"kind", "values", "path"}}[kind]
    _expect(set(symbol_spec) <= allowed,
            f"unknown symbol keys: {sorted(set(symbol_spec) - allowed)}")
    entries = symbol_spec.get("entries", {})
    _expect(isinstance(entries, dict), "symbol entries must be an object")
    for key in entries:  # as str(int(key)) writes it: not "-01", "+1", " 1" or "1_0"
        _expect(isinstance(key, str) and re.fullmatch("0|-?[1-9][0-9]*", key),
                f"coefficient key {key!r} is not an integer in canonical decimal form")
    formula = symbol_spec.get("formula")
    _expect(kind != "expression" or (isinstance(formula, str) and formula != ""),
            "symbol formula must be a nonempty string")
    _expect("path" not in symbol_spec or _is_path(symbol_spec["path"]),
            "symbol path must be a nonempty printable string")
    _expect(not {"values", "path"} <= set(symbol_spec),
            "a samples symbol takes 'values' or 'path', not both")

    mass_spec = raw.get("masses", [])
    _expect(isinstance(mass_spec, list), "masses must be a list")
    for item in mass_spec:
        _expect(isinstance(item, dict) and set(item) == {"point", "weight"},
                "each mass needs exactly the keys 'point' and 'weight'")
        _expect(_is_real(item["weight"]), "mass weights must be numbers")
    # MassSet judges the points, weights and separation; a MemoryError goes to main
    try:
        masses = MassSet([_as_complex(m["point"], "mass point") for m in mass_spec],
                         [m["weight"] for m in mass_spec])
    except (ValueError, OverflowError, HardyDualError) as exc:
        raise ConfigError(f"invalid masses: {exc}") from exc

    n_max = _judged(_integer, raw.get("n_max", 16), "n_max", low=1)

    studies = raw.get("studies", ["duality"])
    _expect(isinstance(studies, list) and studies
            and all(s in STUDY_ORDER for s in studies),
            f"studies must be a nonempty subset of {STUDY_ORDER}")

    # the top exponents of the sweep's one Gram and of the theorem's dual monomials
    for study, top, what in (("asymptotics", degree + n_max, "degree + n_max"),
                             ("theorem", CONVERSE_POWERS, "the theorem study's converse power")):
        if study in studies:
            _judged(_band_top, top, f"{what} on a size-{grid} grid", grid)

    rho_list = raw.get("rho_list", [0.5])
    _expect(isinstance(rho_list, list) and rho_list
            and all(_is_real(r) and 0 < r < 1 for r in rho_list),
            "rho_list entries must lie strictly between 0 and 1")
    cutoff_list = raw.get("N_list")
    if cutoff_list is not None:
        _expect(isinstance(cutoff_list, list) and cutoff_list, "N_list must be a nonempty list")
        cutoff_list = [_judged(_integer, n, "N_list entry", low=0) for n in cutoff_list]
        _expect(max(cutoff_list) <= masses.count,
                "N_list entries must not exceed the number of masses")
    _expect(set(studies) <= {"asymptotics"} or not masses.has_origin,
            "duality-type studies need origin-free mass points")

    convention = _judged(_pairing, raw.get("convention", UNITARY))

    gates = dict(_DEFAULT_GATES)
    gate_raw = raw.get("gates", {})
    _expect(isinstance(gate_raw, dict), "gates must be an object")
    _expect(set(gate_raw) <= set(gates),
            f"unknown gate keys: {sorted(set(gate_raw) - set(gates))}")
    _expect(all(_is_real(v) and 0 < v <= sys.float_info.max for v in gate_raw.values()),
            "gate thresholds must be positive finite numbers")
    gates.update({k: float(v) for k, v in gate_raw.items()})

    convergence = raw.get("convergence")  # checked whenever given, run or not
    if "convergence" in studies or "convergence" in raw:
        _expect(isinstance(convergence, dict)
                and set(convergence) <= {"grids", "degrees"},
                "convergence needs an object with 'grids' and 'degrees'")
        grids = convergence.get("grids", [])
        degrees = convergence.get("degrees", [])
        _expect(isinstance(grids, list) and isinstance(degrees, list)
                and len(grids) >= 2 and len(degrees) == len(grids),
                "convergence needs at least two (grid, degree) refinement levels")
        for g, d in zip(grids, degrees):
            g = _judged(_grid_size, g, "convergence grid")
            top = _judged(_integer, d, "convergence degree", low=0) + n_max
            _judged(_band_top, top, f"convergence degree + n_max on a size-{g} grid", g)
        for (g0, d0), (g1, d1) in zip(zip(grids, degrees), zip(grids[1:], degrees[1:])):
            _expect(g0 <= g1 and d0 <= d1 and (g0, d0) != (g1, d1),
                    f"convergence level ({g1}, {d1}) does not refine ({g0}, {d0})")

    output = raw.get("output", {})
    _expect(isinstance(output, dict) and set(output) <= {"dir"},
            "output supports only the key 'dir'")
    out_dir = output.get("dir", "out")
    _expect(_is_path(out_dir), "output dir must be a nonempty printable string")

    levels = convergence["grids"] if "convergence" in studies else []
    return ExperimentConfig(
        label=label, seed=seed, grid=grid, degree=degree,
        symbols=_realize(symbol_spec, dict.fromkeys([grid, *levels])),
        masses=masses, n_max=n_max, rho_list=[float(r) for r in rho_list],
        cutoff_list=cutoff_list, convention=convention, gates=gates,
        studies=list(studies), convergence=convergence, out_dir=out_dir, raw=raw,
    )


def _realize(spec: dict, grid_sizes) -> dict:
    """The configured symbol on each of ``grid_sizes``, built by the library's
    constructors and judged by :func:`validate_szego`, as config errors."""
    symbols = {}
    # inf or NaN from an overflow in the samples or their FFT is reported by
    # validate_szego in one line, not first by numpy's warnings
    with np.errstate(all="ignore"):
        try:
            if spec["kind"] == "coefficients":
                entries = {int(k): _as_complex(v, "coefficient")
                           for k, v in spec.get("entries", {}).items()}
                build = functools.partial(symbol_from_coefficients, entries=entries)
            elif spec["kind"] == "expression":
                build = functools.partial(symbol_from_expression, formula=spec["formula"])
            else:
                values = spec.get("values")
                if "path" in spec:
                    with open(spec["path"], encoding="utf-8") as handle:
                        values = json.load(handle)
                _expect(isinstance(values, list), "samples must be a list")
                samples = np.array([_as_complex(v, "sample") for v in values])
                build = functools.partial(symbol_from_samples, values=samples)
            for size in grid_sizes:
                symbols[size] = build(CircleGrid(size))
                validate_szego(symbols[size])
        # a samples file nested past the decoder's depth raises a RecursionError
        except (ValueError, OverflowError, OSError, RecursionError, GridMismatch) as exc:
            raise ConfigError(f"cannot build symbol: {exc}") from exc
        except SzegoViolation as exc:
            raise ConfigError(str(exc)) from exc
    return symbols


def build_space(config: ExperimentConfig, grid_size: int | None = None) -> SpaceData:
    """The configured data pair on a grid the run reads: the symbol
    :func:`parse_config` realized there, with the masses."""
    return SpaceData(config.symbols[grid_size or config.grid], config.masses)


# ---------------------------------------------------------------------------
# studies


def _study_asymptotics(config, space, shared_dual):
    trace = asymptotic_sweep(space, config.n_max, config.degree)
    rows = [{"n": int(n), "kernel_value": float(v), "abs_deviation": float(d)}
            for n, v, d in zip(trace.shifts, trace.values, trace.deviations)]
    gates = [_below("asymptotics.final_deviation", trace.deviations[-1],
                    config.gates["asymptotics"])]
    scalars = {"converged_at": trace.converged_at(config.gates["asymptotics"]),
               "tail_monotone": trace.tail_monotone()}
    return {"tables": {"asymptotics": rows}, "gates": gates, "scalars": scalars}


def _study_duality(config, space, shared_dual):
    dual = shared_dual()
    report = duality_identity(space, dual, config.degree)
    gates = [_below("duality.identity_residual", report.residual, config.gates["identity"])]
    return {"tables": {"duality": [dataclasses.asdict(report)]}, "gates": gates,
            "scalars": {"convention": dual.provenance}}


def _study_sandwich(config, space, shared_dual):
    cutoffs = config.cutoff_list or [space.masses.count]
    pairs = [(cutoff, rho) for cutoff in cutoffs for rho in config.rho_list]
    reports = [sandwich_check(space, cutoff, rho, 0, config.degree, config.convention)
               for cutoff, rho in pairs]
    # every report field in its order, each identity residual a column
    rows = []
    for (cutoff, rho), rep in zip(pairs, reports):
        fields = dataclasses.asdict(rep)
        residuals = fields.pop("identity_residuals")
        rows.append({"cutoff": cutoff, "rho": rho, **fields,
                     **{f"identity_residual_{label}": v for label, v in residuals.items()}})
    # a row whose orderings fail gets a gate of its own, with its own numbers
    gates = [Gate(f"sandwich.order[N={cutoff},rho={rho}]", float(rep.worst_margin),
                  -rep.tolerance, False)
             for (cutoff, rho), rep in zip(pairs, reports) if rep.worst_margin < -rep.tolerance]
    worst_margin = float(min(rep.worst_margin for rep in reports))
    tolerance = max(rep.tolerance for rep in reports)
    # a tolerance from a Gram's roundoff is a numpy float: bool() keeps each
    # verdict of the run a type json can write
    gates.append(Gate("sandwich.worst_margin", worst_margin, -tolerance,
                      bool(worst_margin >= -tolerance)))
    gates.append(_below("sandwich.identity_residual",
                        max(max(rep.identity_residuals.values()) for rep in reports),
                        config.gates["identity"]))
    return {"tables": {"sandwich": rows}, "gates": gates, "scalars": {}}


def _study_theorem(config, space, shared_dual):
    rep = theorem_check(space, shared_dual(), config.degree)
    worst = max(rep.forward_hardy_residual, rep.forward_mass_residual)
    gates = [_below("theorem.membership_residual", worst, config.gates["theorem"]),
             _below("theorem.converse_orthogonality", rep.converse_orthogonality,
                    config.gates["theorem"])]
    return {"tables": {"theorem": [dataclasses.asdict(rep)]}, "gates": gates,
            "scalars": {}}


def _complex_normals(rng: random.Random, count: int) -> np.ndarray:
    """``count`` complex numbers with independent standard normal real and
    imaginary parts: Box-Muller on 53-bit uniforms from ``rng``'s bytes."""
    bits = np.frombuffer(rng.randbytes(16 * count), dtype="<u8") >> np.uint64(11)
    uniform = bits * 2.0 ** -53  # on [0, 1), so log1p(-u) stays finite
    return (np.sqrt(-2.0 * np.log1p(-uniform[:count]))
            * np.exp(2j * np.pi * uniform[count:]))


def _random_vector(rng, symbol, masses, band):
    grid = symbol.grid
    exponents = np.arange(-band, band + 1)
    normals = _complex_normals(rng, exponents.size + masses.count)
    full = np.zeros(grid.size, dtype=complex)
    full[exponents % grid.size] = normals[:exponents.size] * 0.8 ** np.abs(exponents)
    return canonical_vector(symbol, grid.values(full), normals[exponents.size:])


def _study_tau(config, space, shared_dual):
    # the standard library's generator: numpy.random alone would add about
    # 6 MB and 14 ms to a run's import
    rng = random.Random(config.seed)
    dual = shared_dual()
    symbol, masses = dual.symbol, dual.masses
    band = min(config.degree, symbol.grid.size // 8)
    rows = []
    worst_unit = worst_inv = 0.0
    for index in range(TAU_VECTORS):
        vec = _random_vector(rng, symbol, masses, band)
        norm = l2_norm(vec, symbol, masses)
        image = apply_tau(vec, dual)
        norm_image = l2_norm(image, dual.dual_symbol, dual.dual_masses)
        unit_res = abs(norm_image ** 2 - norm ** 2) / norm ** 2
        back = apply_tau(image, dual.back)
        diff = TauVector(back.f1 - vec.f1, back.f2 - vec.f2,
                         back.mass_values - vec.mass_values)
        inv_res = l2_norm(diff, symbol, masses) / norm
        rows.append({"vector": index, "unitarity_residual": unit_res,
                     "involution_residual": inv_res})
        worst_unit = max(worst_unit, unit_res)
        worst_inv = max(worst_inv, inv_res)
    gates = [_below("tau.unitarity", worst_unit, config.gates["tau"]),
             _below("tau.involution", worst_inv, config.gates["tau"])]
    return {"tables": {"tau": rows}, "gates": gates, "scalars": {}}


def _study_convergence(config, base_space, shared_dual):
    """Refinement table for the identity residual and the kernel deviation."""
    rows, reports = [], []
    for grid_size, degree in zip(config.convergence["grids"], config.convergence["degrees"]):
        space = build_space(config, grid_size=grid_size)
        rep = duality_identity(space, dual_of(space, convention=config.convention), degree)
        trace = asymptotic_sweep(space, config.n_max, degree)
        rows.append({"grid": grid_size, "degree": degree,
                     "identity_residual": rep.residual,
                     "final_deviation": float(trace.deviations[-1])})
        reports.append(rep)

    # K(alpha), each K(rho) and each K(N), from the Grams of one Gamma
    m = base_space.masses.count
    rhos = sorted(config.rho_list)
    cutoffs = sorted(config.cutoff_list or [m])
    pairs = [(1.0, m)] + [(rho, m) for rho in rhos] + [(1.0, n) for n in cutoffs]
    k, k_tolerances = {}, []
    for pair, gram in regularized_grams(base_space, config.degree, pairs):
        k_tolerances.append(order_tolerance(gram))
        k[pair] = kernel_at_origin(gram).norm
    rho_rows = [{"rho": rho, "k_scaled": k[rho, m]} for rho in rhos]
    cutoff_rows = [{"cutoff": n, "k_cutoff": k[1.0, n]} for n in cutoffs]
    # K(rho) rises to K(alpha) as rho grows, and K(N) falls to it as N grows
    rho_values = [k[rho, m] for rho in rhos + [1.0]]
    cut_values = [k[1.0, n] for n in cutoffs + [m]]
    # the record is the rule: the largest rise against the largest tolerance
    rise = largest_rise([rep.residual for rep in reports])
    tolerance = max(rep.tolerance for rep in reports)
    gates = [Gate("convergence.residual_monotone", rise, tolerance, bool(rise <= tolerance))]
    scalars = {"rho_sweep_monotone": bool(largest_rise(rho_values[::-1]) <= max(k_tolerances)),
               "cutoff_sweep_monotone": bool(largest_rise(cut_values) <= max(k_tolerances)),
               "k_unregularized": k[1.0, m]}
    return {"tables": {"convergence_refinement": rows,
                       "convergence_rho": rho_rows,
                       "convergence_cutoff": cutoff_rows},
            "gates": gates, "scalars": scalars}


_STUDY_FUNCS = {
    "asymptotics": _study_asymptotics,
    "duality": _study_duality,
    "sandwich": _study_sandwich,
    "theorem": _study_theorem,
    "tau": _study_tau,
    "convergence": _study_convergence,
}


# ---------------------------------------------------------------------------
# report persistence


def _fmt_cell(value):
    return format(value, ".17g") if isinstance(value, float) else str(value)


def write_csv(path: Path, rows):
    """``rows``, a nonempty list of dicts with the same keys, as CSV."""
    fields = list(rows[0])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt_cell(row[k]) for k in fields])


def write_report(report: RunReport, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, rows in sorted(report.tables.items()):
        write_csv(out_dir / f"{name}.csv", rows)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "label": report.config.label,
        "config": report.config.raw,
        "convention": report.config.convention,
        "tolerances": {"order": TOL_ORDER},  # the sandwich tolerances' floor
        # a gate with no finite value is null, so the file stays strict JSON
        "gates": [{**dataclasses.asdict(g),
                   "value": g.value if math.isfinite(g.value) else None}
                  for g in report.gates],
        "scalars": report.scalars,
        "all_passed": report.all_passed,
        "versions": {"hardydual": __version__, "numpy": np.__version__},
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    with open(out_dir / "run.log", "w", encoding="utf-8") as handle:
        for study in STUDY_ORDER:
            if study in report.timings:
                handle.write(f"{study}: {report.timings[study]:.3f} s\n")


# ---------------------------------------------------------------------------
# the runner


def run(config: ExperimentConfig, out_dir: str | None = None) -> tuple[int, RunReport | None]:
    """Execute the configured studies and persist the report."""
    tables, gates, scalars, timings = {}, [], {}, {}
    study = None
    try:
        space = build_space(config)
        # the duality, theorem and tau studies share one DualData (and its
        # cached dual side), built when the first of them asks for it
        shared_dual = functools.cache(lambda: dual_of(space, convention=config.convention))
        for study in (s for s in STUDY_ORDER if s in config.studies):
            start = time.perf_counter()
            # an overflow or 0/0 raises: the data's scale is beyond double range
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                out = _STUDY_FUNCS[study](config, space, shared_dual)
            timings[study] = time.perf_counter() - start
            tables.update(out["tables"])
            gates.extend(out["gates"])
            if out["scalars"]:
                scalars[study] = out["scalars"]
    except (HardyDualError, MemoryError, FloatingPointError, ValueError) as exc:
        # a MemoryError may carry no message; a ValueError from a study comes
        # from derived data, such as a shifted weight nu |zeta|^2 that underflows
        if isinstance(exc, FloatingPointError):
            exc = f"{exc}: the data's scale is beyond double range"
            if space.masses.count:
                exc += f"; the largest mass weight is {np.max(space.masses.weights):.3e}"
        where = f" ({study} study)" if study else ""
        print(f"data failure: {str(exc) or 'out of memory'}{where}", file=sys.stderr)
        return EXIT_DATA, None

    report = RunReport(config, tables, gates, scalars, timings)
    try:
        write_report(report, Path(out_dir or config.out_dir))
    except OSError as exc:
        raise ConfigError(f"cannot write the report: {exc}") from exc
    return (EXIT_OK if report.all_passed else EXIT_GATE), report


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections, in its subparsers too, are
    config errors: one line and exit 2, not a usage message and SystemExit."""

    def error(self, message):
        # an unrecognized argument is quoted as given, newlines and all
        raise ConfigError(message.replace("\n", "\\n"))


def main(argv=None) -> int:
    parser = _Parser(
        prog="hardydual",
        description="Perturbed-Hardy-space experiments: kernels, asymptotics, duality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a JSON experiment configuration")
    run_parser.add_argument("config", help="path to the configuration file")
    run_parser.add_argument("--out", help="output directory (overrides config)")
    run_parser.add_argument("--grid", type=int, help="override the grid size")
    run_parser.add_argument("--degree", type=int, help="override the basis degree")

    try:
        args = parser.parse_args(argv)
        try:
            with open(args.config, encoding="utf-8") as handle:
                raw = json.load(handle)
        # a file that is not UTF-8 or not JSON raises a ValueError, one
        # nested past the decoder's depth a RecursionError
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(str(exc)) from exc
        # the overrides write into the config, so its type is checked first
        _expect(isinstance(raw, dict), "configuration must be a JSON object")
        overrides = {"grid": args.grid, "degree": args.degree}
        raw.update({key: value for key, value in overrides.items() if value is not None})
        config = parse_config(raw)
        code, _ = run(config, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:  # refused outside run(), e.g. while parse_config builds the masses
        print("data failure: out of memory", file=sys.stderr)
        return EXIT_DATA
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
