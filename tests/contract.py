"""The output contract: what the README config writes and what the sandwich
check reports on the corpus, against the files committed in ``tests/golden/``.

``readme_config.json`` holds the SHA-256 of each CSV and of ``summary.json``
that ``hardydual run perfbench/readme_config.json`` writes, with their
contents (CSV cells as written, ``summary.json`` as parsed).  The CSV rows
are compared keyed by their header (:func:`readme_differences`), so a column
added or removed is named in the header and in each row, and every other
cell is still compared.
``sandwich.json`` holds every ``SandwichReport`` field, as a 17-digit repr,
on the 7 corpus cases at 4096/48 for each cutoff 0..m, rho 0.5, 0.9 and 1,
and shift n 0 and 1.  ``sweep_identity.json`` holds, on the same cases at
4096/48, the ``asymptotic_sweep`` values K^{alpha_n}(0) for n = 0..16 and
every ``IdentityReport`` field of ``duality_identity``, as 17-digit reprs.

Each file records the numpy version, the BLAS core and SIMD features numpy
chose on the CPU, the machine and the C library it was made with
(:func:`record`).  Where the
record matches, every value compares bit for bit: the hashes, and the
reprs as strings (:func:`bitwise`).  A record whose OpenBLAS config could
not be read, from a numpy that does not bundle OpenBLAS in ``numpy.libs``,
does not say which core the BLAS chose, so it never compares bit for bit.
Elsewhere every number compares within ``BOUND`` times
max(1, |value|), every other value exactly, and ``summary.json``'s
``versions`` block, which the record states, not at all.  The quantities
are kernel values near 1 and margins, slacks and residuals of such values,
whose roundoff at degree 48 is about 1e-14 on any BLAS.

A change that moves digits on purpose regenerates the files and commits
them, so their diff shows what moved:

    PYTHONPATH=src python tests/contract.py

which also prints each path that moved against the files it replaces
(:func:`differences`, bit for bit).
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import hashlib
import io
import itertools
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from hardydual import asymptotic_sweep, dual_of, duality_identity, sandwich_check
from hardydual.cli import main
from hardydual.corpus import CASES

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
README_CONFIG = REPO / "perfbench" / "readme_config.json"
GRID, DEGREE = 4096, 48
RHOS = (0.5, 0.9, 1.0)
SHIFTS = (0, 1)
N_MAX = 16
BOUND = 1e-10


def _openblas_config():
    """The config line of the OpenBLAS bundled with numpy, which names the
    core it chose for this CPU (or ``OPENBLAS_CORETYPE``) at load time, or
    None for a numpy that bundles none."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy loaded: dlopen reuses it
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_char_p
                return func().decode()
    return None


def record() -> dict:
    """What decides the bits: numpy, the BLAS core and the SIMD kernels it
    dispatches to on this CPU, the machine, and the C library's math."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": _openblas_config()},
        "simd": config.get("SIMD Extensions"),
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
    }


def bitwise(golden_record: dict) -> bool:
    """Whether values made under ``golden_record`` compare bit for bit here:
    the records match and name the BLAS core."""
    here = record()
    return golden_record == here and here["blas"]["config"] is not None


def readme_outputs() -> dict:
    """SHA-256 and contents of each file the README config writes, but
    ``run.log``, whose wall-clock times are outside the contract."""
    with tempfile.TemporaryDirectory() as out:
        code = main(["run", str(README_CONFIG), "--out", out])
        if code != 0:
            raise RuntimeError(f"the README config exited {code}")
        files = {}
        for path in sorted(Path(out).iterdir()):
            if path.name == "run.log":
                continue
            data = path.read_bytes()
            text = data.decode("utf-8")
            content = json.loads(text) if path.suffix == ".json" \
                else list(csv.reader(io.StringIO(text)))
            files[path.name] = {"sha256": hashlib.sha256(data).hexdigest(),
                                "content": content}
    return files


def report_fields(report) -> dict:
    """Every field of a report as a 17-digit repr, each of a SandwichReport's
    identity residuals under its own name."""
    fields = {field.name: getattr(report, field.name)
              for field in dataclasses.fields(report)}
    residuals = fields.pop("identity_residuals", {})
    fields.update({f"identity_residual_{label}": value for label, value in residuals.items()})
    return {name: format(float(value), ".17g") for name, value in fields.items()}


def sandwich_values() -> dict:
    values = {}
    for case in CASES:
        space = case.space(GRID)
        for cutoff in range(space.masses.count + 1):
            for rho in RHOS:
                for n in SHIFTS:
                    report = sandwich_check(space, cutoff, rho, n, DEGREE)
                    values[f"{case.name} cutoff={cutoff} rho={rho} n={n}"] = \
                        report_fields(report)
    return values


def sweep_identity_values() -> dict:
    values = {}
    for case in CASES:
        space = case.space(GRID)
        trace = asymptotic_sweep(space, N_MAX, DEGREE)
        report = duality_identity(space, dual_of(space), DEGREE)
        values[case.name] = {"sweep": [format(float(v), ".17g") for v in trace.values],
                             "identity": report_fields(report)}
    return values


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def differences(expected, actual, bound=None, where="") -> list:
    """Where two JSON-like values differ: every leaf exactly with no
    ``bound``; otherwise numbers, and strings that parse as numbers, within
    ``bound`` times max(1, |value|), and other leaves exactly.  A key in
    only one of two dicts is named as removed or added."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        unmatched = [f"{where}/{key}: {'removed' if key in expected else 'added'}"
                     for key in sorted(expected.keys() ^ actual.keys())]
        return unmatched + [line for key in expected if key in actual
                            for line in differences(expected[key], actual[key], bound,
                                                    f"{where}/{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(expected)} entries != {len(actual)}"]
        return [line for i, (e, a) in enumerate(zip(expected, actual))
                for line in differences(e, a, bound, f"{where}[{i}]")]
    e, a = _number(expected), _number(actual)
    if bound is not None and e is not None and a is not None:
        same = abs(e - a) <= bound * max(1.0, abs(e), abs(a))
    else:
        same = type(expected) is type(actual) and expected == actual
    return [] if same else [f"{where}: {expected!r} != {actual!r}"]


def _keyed(files: dict) -> dict:
    """Each CSV's content as its header and its rows, each row a dict keyed by
    the header (a missing cell reads None, a cell past the header has key None)."""
    return {name: dict(entry, content={
                "header": entry["content"][0],
                "rows": [dict(itertools.zip_longest(entry["content"][0], row))
                         for row in entry["content"][1:]]})
            if name.endswith(".csv") else entry
            for name, entry in files.items()}


def _contents(files: dict) -> dict:
    """Each file's contents, ``summary.json``'s without its versions block."""
    return {name: {key: value for key, value in entry["content"].items() if key != "versions"}
            if name == "summary.json" else entry["content"]
            for name, entry in files.items()}


def readme_differences(golden: dict, files: dict, bitwise: bool) -> list:
    """Bit for bit, the hashes and the contents; otherwise the contents
    within BOUND.  CSV rows compare keyed by their header (:func:`_keyed`)."""
    golden, files = _keyed(golden), _keyed(files)
    if bitwise:
        return differences(golden, files)
    return differences(_contents(golden), _contents(files), BOUND)


def value_differences(golden: dict, values: dict, bitwise: bool) -> list:
    """Bit for bit, or within BOUND."""
    return differences(golden, values, None if bitwise else BOUND)


def load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


FILES = {"readme_config.json": readme_outputs,
         "sandwich.json": sandwich_values,
         "sweep_identity.json": sweep_identity_values}
COMPARE = {"readme_config.json": readme_differences,
           "sandwich.json": value_differences,
           "sweep_identity.json": value_differences}


def regenerate(name: str) -> list:
    """Write ``name`` from this tree, and return each path in its values
    that moved against the file it replaces, compared bit for bit."""
    values = FILES[name]()
    path = GOLDEN / name
    moved = COMPARE[name](load(name)["values"], values, bitwise=True) if path.exists() else []
    text = json.dumps({"record": record(), "values": values}, indent=1, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")
    return moved


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in FILES:
        moved = regenerate(name)
        print(f"{name}: {len(moved)} paths moved")
        for line in moved:
            print(f"  {line}")
