"""Benchmark of hardydual: end-to-end metrics per workload, or per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: readme_cli, shift_sweep, random_pairs (see perfbench/README.md).
One client runs one op at a time in a closed loop; thread settings are left
as found.  Every op's output is checked.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures for S seconds and reports setup_s, op_p50_s,
ops_per_s and peak_rss_mb.  ``--trace 1`` runs a fixed number of ops (about
S seconds' worth), each once untraced and once with layer spans recorded,
and reports the per-layer metrics.  ``--scale smoke`` runs one op at 1024/16.
Records of the run (machine, per-op data, residuals, failures, spans) go to
perfbench/.out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / ".out"

WORKLOAD_NAMES = ("readme_cli", "shift_sweep", "random_pairs")
SETUP_REPEATS = 3
SETUP_OPS = 3               # inputs built by each set-up probe
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
THREAD_VARS = ("HARDYDUAL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def unit_of(metric):
    if metric in ("setup_s", "op_p50_s"):
        return "s"
    if metric == "ops_per_s":
        return "1/s"
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith((".calls", ".coeffs", "grams_per_op")):
        return "count"
    if metric.endswith(".flops"):
        return "flop"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith("_s"):
        return "s"
    raise ValueError(f"no unit for metric {metric!r}")


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _last_level_cache():
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        if level and size and kind != "Instruction" and (best is None or int(level) >= best[0]):
            best = (int(level), size)
    return None if best is None else f"L{best[0]} {best[1]}"


def machine_record():
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "llc": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env_as_found": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def percentile_line(times):
    """Sample count, median and the highest percentile with >= 10 samples beyond it."""
    n = len(times)
    line = f"op time: n={n} p50={statistics.median(times):.6f} s"
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(times, n=1000, method="inclusive")[round(p * 10) - 1]
            return line + f" p{p:g}={q:.6f} s"
    return line + " (too few ops for a percentile with 10 samples beyond it)"


def setup_probe(args):
    """In a fresh process: import hardydual and build the first ops' inputs."""
    start = time.perf_counter()
    import hardydual  # noqa: F401
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale == "smoke", workdir)
        for i in range(SETUP_OPS):
            workload.make_input(i)
        print(time.perf_counter() - start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args, repeats):
    from workloads import child_env

    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
            "--scale", args.scale]
    times = []
    for _ in range(repeats):
        done = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def run_one(workload, i, records, tracer=None):
    """Build op i's inputs, run it timed (and traced), check it; append the record."""
    inp = workload.make_input(i)
    with workload.tracing(tracer) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            out, error = workload.run_op(inp), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if error is None:
        gates = workload.check(inp, out)
    else:
        gates = [{"name": "raised", "value": error, "threshold": None, "passed": False}]
    gates = [g if isinstance(g, dict) else vars(g) for g in gates]
    record = {"op": i, "seconds": elapsed, "data": inp.summary, "gates": gates,
              "failed": not all(g["passed"] for g in gates)}
    records.append(record)
    status = "FAIL" if record["failed"] else "ok"
    print(f"op {i}: {elapsed:.4f} s {status}  {inp.summary}")


def run_untraced(workload, seconds, max_ops):
    """Ops back to back until ``seconds`` have passed at the end of a whole cycle."""
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        run_one(workload, i, records)
        i += 1
        wall = time.perf_counter() - start
        if (wall >= seconds and i % workload.cycle == 0) or i == max_ops:
            return records, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hardydual" / "__init__.py").is_file():
        print(f"error: the hardydual sources are missing (no {SRC / 'hardydual'}); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    smoke = args.scale == "smoke"
    machine = machine_record()
    print("machine:", json.dumps(machine))
    if not args.trace:
        setup_s, setup_times = measure_setup(args, 1 if smoke else SETUP_REPEATS)
        print(f"setup: median {setup_s:.6f} s of {[round(t, 6) for t in setup_times]}")

    from tracer import Tracer
    from workloads import WORKLOADS

    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, smoke, workdir)
        print(f"seed {args.seed}, data ranges:", json.dumps(workload.data_ranges()))
        print("working set:", json.dumps(workload.working_set()), "vs LLC", machine["llc"])
        if args.trace:
            cycles = round(args.seconds / (2 * workload.nominal_op_s * workload.cycle))
            n_ops = 1 if smoke else workload.cycle * max(1, cycles)
            # each op runs untraced, then traced, so machine drift hits both alike
            tracer = Tracer()
            untraced, traced = [], []
            for i in range(n_ops):
                run_one(workload, i, untraced)
                run_one(workload, i, traced, tracer)
            untraced_p50 = statistics.median(r["seconds"] for r in untraced)
            records = untraced + traced
            metrics = tracer.layer_metrics([r["seconds"] for r in traced], untraced_p50)
            tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.json")
        else:
            records, wall = run_untraced(workload, args.seconds, 1 if smoke else None)
            times = [r["seconds"] for r in records]
            print(percentile_line(times))
            metrics = {"setup_s": setup_s, "op_p50_s": statistics.median(times),
                       "ops_per_s": len(records) / wall,
                       "peak_rss_mb": workload.peak_rss_mb()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r["failed"]]
    fail_frac = len(failed) / len(records)
    if args.trace:
        metrics["fail_frac"] = fail_frac
    print(f"fail_frac: {len(failed)}/{len(records)} = {fail_frac:g}")
    for record in failed:
        for gate in record["gates"]:
            if not gate["passed"]:
                print(f"FAILED op {record['op']}: {gate['name']} = {gate['value']} "
                      f"(threshold {gate['threshold']})  {record['data']}")

    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "scale": args.scale, "machine": machine,
                   "data_ranges": workload.data_ranges(),
                   "working_set": workload.working_set(),
                   "metrics": metrics, "ops": records}, handle, indent=1)
    print(json.dumps({
        "correct": not failed, "attempted": len(records), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
