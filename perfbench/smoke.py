"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs each workload for one op at 1024/16 (``--scale smoke``), untraced and
traced, and checks that:

- the last line of output has exactly the keys correct/attempted/failed/metrics;
- the metric names and units are those of BENCHMARK.json (end_to_end when
  untraced, per_layer when traced);
- two traced runs give the same exact work counts;
- per-layer self times plus trace.unattributed_s add up to trace.op_s.

Gates are not expected to pass at this size, so ``correct`` is not checked.
Exits 1 with one line per problem, 0 when all checks hold.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COUNT_SUFFIXES = (".calls", ".coeffs", ".flops", ".bytes", "grams_per_op")


def run(workload, trace):
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            where = f"{workload} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
                    and isinstance(result["failed"], int)):
                problems.append(f"{where}: attempted/failed {result['attempted']}/{result['failed']}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                units = sorted(n for n in set(printed) & set(expected[trace])
                               if printed[n] != expected[trace][n])
                problems.append(f"{where}: missing {missing}, extra {extra}, unit {units}")
            if any(not math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{where}: non-finite metric value")
            if trace:
                values = {n: m["value"] for n, m in result["metrics"].items()}
                parts = sum(v for n, v in values.items() if n.endswith(".self_s"))
                total = parts + values["trace.unattributed_s"]
                if not math.isclose(total, values["trace.op_s"], rel_tol=1e-9):
                    problems.append(f"{where}: self times + unattributed = {total} "
                                    f"!= trace.op_s = {values['trace.op_s']}")
                again = run(workload, 1)["metrics"]
                drift = sorted(n for n in values if n.endswith(COUNT_SUFFIXES)
                               and values[n] != again[n]["value"])
                if drift:
                    problems.append(f"{where}: counts differ between two runs: {drift}")
            print(f"{where}: checked {len(result['metrics'])} metrics")
    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
