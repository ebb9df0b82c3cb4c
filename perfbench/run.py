#!/usr/bin/env python3
"""Benchmark of the planner stack: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 15 --trace 0

Workloads are ``plan-cold``, ``explore-warm`` and ``serve-mixed`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of standard
output is a JSON object carrying every end-to-end metric; with
``--trace 1`` the same workload runs with layer spans recorded and the
line carries every per-layer metric instead.  Each metric is also printed
on its own line with its unit and sample count, and the full result, with
the host's facts and the output digest, is written under ``.perfbench/``.

The exit code is 1 when any op failed or any output differed from its
check, and 2 when the program under test is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from time import perf_counter

from common import E2E_METRICS, LAYER_METRICS, host_facts, output_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
WORKLOADS = ("plan-cold", "explore-warm", "serve-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 records layer spans and reports per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest configs, for the smoke self-test")
    return parser.parse_args(argv)


def run_workload(args):
    if args.workload == "serve-mixed":
        from service import run_serve_mixed

        return run_serve_mixed(args.seed, args.seconds, bool(args.trace), args.tiny, SRC, RESULTS)
    # Importing the library is part of set-up: work moved to import time
    # must show in setup_s.  It happens once per process, so it is one
    # sample added to the median of the repeated set-up.
    start = perf_counter()
    import library

    import_s = perf_counter() - start
    run = library.run_plan_cold if args.workload == "plan-cold" else library.run_explore_warm
    return run(args.seed, args.seconds, bool(args.trace), args.tiny, import_s)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Keep temporary files of this process and the server inside the
    # checkout.
    tmp = RESULTS / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    out = run_workload(args)

    catalogue = LAYER_METRICS if args.trace else E2E_METRICS
    values = out.layers if args.trace else out.e2e
    metrics = {}
    for name, unit in catalogue:
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
    failed = len(out.failures)
    digest = output_digest(out.outputs)

    for failure in out.failures:
        print(f"FAILED: {failure}")
    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:14.6g} {entry['unit']}")
    counts = ", ".join(f"{k}={v}" for k, v in sorted(out.samples.items()))
    print(f"samples: {counts}")
    print(f"failed_share: {failed}/{out.attempted}  output digest: {digest}")
    if "raw" in out.notes:
        raw = ", ".join(f"{k}={v:.6g}" for k, v in sorted(out.notes["raw"].items()))
        print(f"host speed: {out.notes['host_speed']:.3f} of reference; raw: {raw}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "host": host_facts(),
        "attempted": out.attempted,
        "failed": failed,
        "failed_share": failed / out.attempted if out.attempted else 0.0,
        "failures": out.failures,
        "output_digest": digest,
        "samples": out.samples,
        "e2e": out.e2e,
        "layers": out.layers,
        "notes": out.notes,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # A terminated run unwinds like an interrupted one, so the serve
    # workload's clean-up stops the server it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
