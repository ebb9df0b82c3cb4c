#!/usr/bin/env python3
"""Smoke self-test: every workload at a tiny size prints every metric.

Run from the repository root::

    python3 perfbench/smoke.py

For each workload and each of ``--trace 0`` / ``--trace 1`` it runs
``run.py --tiny --seconds 1`` and asserts that the run exits 0, that the
last line is the result object with exactly the expected keys, and that
every metric ``BENCHMARK.json`` names for that mode is printed, with its
unit, both on its own line and in the result object.  The serve-mixed
runs take about 40 s each, most of it the server's shutdown drain.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, expected: list[dict]) -> list[str]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("attempted", 0) < 1:
        problems.append(
            f"{label}: correct={result.get('correct')} attempted={result.get('attempted')}"
        )
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3:
            printed[fields[0]] = fields[2]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"{label}: metrics {sorted(metrics)} differ from BENCHMARK.json")
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        if printed.get(name) != unit:
            problems.append(f"{label}: {name} not printed with unit {unit}")
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), float):
            problems.append(f"{label}: {name} in the result is {entry}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            found = check_run(workload, trace, spec[key])
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
