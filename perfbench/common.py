"""Shared pieces of the benchmark: metric catalogue, statistics, host
speed, host facts."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

#: End-to-end metrics every workload reports with ``--trace 0``.
E2E_METRICS = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
)

#: Per-layer metrics every workload reports with ``--trace 1``; a layer
#: a workload never reaches reads 0.
LAYER_METRICS = (
    ("scheduling.generate.calls", "count"),
    ("scheduling.generate.self_ms", "ms"),
    ("scheduling.validate.calls", "count"),
    ("scheduling.validate.self_ms", "ms"),
    ("harness.schedule_cache.hit_ratio", "ratio"),
    ("harness.graph_cache.hit_ratio", "ratio"),
    ("sim.compile.calls", "count"),
    ("sim.compile.self_ms", "ms"),
    ("sim.compile.nodes", "count"),
    ("sim.refine.calls", "count"),
    ("sim.refine.self_ms", "ms"),
    ("sim.memory.calls", "count"),
    ("sim.memory.self_ms", "ms"),
    ("sim.replay.calls", "count"),
    ("sim.replay.self_ms", "ms"),
    ("sim.nodes_per_s", "1/s"),
    ("sim.delta.calls", "count"),
    ("sim.delta.self_ms", "ms"),
    ("sim.batch.rows", "count"),
    ("sim.batch.self_ms", "ms"),
    ("scenarios.perturb.calls", "count"),
    ("scenarios.perturb.self_ms", "ms"),
    ("planner.estimate.calls", "count"),
    ("planner.estimate.self_ms", "ms"),
    ("planner.digest.calls", "count"),
    ("planner.digest.self_ms", "ms"),
    ("planner.probe_cache.hit_ratio", "ratio"),
    ("planner.cache.hit_ratio", "ratio"),
    ("planner.simulated_share", "ratio"),
    ("optimize.score.calls", "count"),
    ("optimize.score.self_ms", "ms"),
    ("optimize.rewrite.calls", "count"),
    ("optimize.rewrite.self_ms", "ms"),
    ("optimize.improved_share", "ratio"),
    ("explore.whatif_p50_ms", "ms"),
    ("explore.rerank_p50_ms", "ms"),
    ("explore.robust_p50_ms", "ms"),
    ("explore.optimize_evals_per_s", "1/s"),
    ("service.hot_p50_ms", "ms"),
    ("service.latency_p99_ms", "ms"),
    ("service.compute_p50_ms", "ms"),
    ("service.computed_per_fresh", "ratio"),
    ("service.lru.hit_ratio", "ratio"),
    ("service.coalesced", "count"),
    ("service.shed", "count"),
    ("service.late_p90_ms", "ms"),
    ("service.server_errors", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
)


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``e2e`` and ``layers`` map metric names to values; ``samples`` gives
    the sample count behind every timing; ``failures`` describes each
    failed, refused or wrong op; ``outputs`` feeds the output digest.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear between order statistics."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def windowed_percentile(windows, q: float) -> float:
    """Mean over ``windows`` of each window's ``q``-th percentile.

    A percentile over a whole run jumps between the slow and the fast
    cluster as the share of the run the host spent slow crosses its rank;
    the mean of short windows' percentiles moves only in proportion to
    that share, as a throughput does.
    """
    values = [percentile(window, q) for window in windows if window]
    return sum(values) / len(values) if values else 0.0


#: Seconds one ``calibration_work`` takes on the 2-vCPU host the
#: benchmark was defined on, at that host's usual speed.  Measured times
#: are reported at this speed.
REFERENCE_CALIBRATION_S = 0.008
#: ``calibration_work`` runs per host-speed sample; the sample is their
#: median.
CALIBRATION_RUNS = 3


def calibration_work() -> float:
    """A fixed interpreter-bound task of dict lookups and float
    arithmetic.  It holds no new objects from one step to the next, so
    its speed cannot depend on how much free heap the program left
    behind."""
    table = dict.fromkeys(range(257), 0.0)
    total = 0.0
    for i in range(30_000):
        key = (i * 7919) % 257
        table[key] += i * 0.5
        total += table[key] / (key + 1)
    return total


class HostSpeed:
    """The host's speed, sampled between the timed stretches of a run.

    On a shared host the machine's speed shifts by up to 1.7× for seconds
    to minutes at a time, alike for pure-Python and NumPy code and in CPU
    time as in wall time, so a run's raw times follow its neighbours'
    load.  ``measure`` times ``calibration_work`` with the garbage
    collector off, so the program's heap does not bill it; times taken
    between two samples are scaled to the reference speed by the
    reference time over the mean of the two.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def measure(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            runs = []
            for _ in range(CALIBRATION_RUNS):
                start = perf_counter()
                calibration_work()
                runs.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(statistics.median(runs))

    def factors(self) -> list[float]:
        """One scale factor per stretch between consecutive samples."""
        pairs = zip(self.samples, self.samples[1:])
        return [2 * REFERENCE_CALIBRATION_S / (before + after) for before, after in pairs]


def window_timings(windows, walls) -> dict[str, float]:
    """Throughput and windowed p50/p90 of timed windows: ``windows``
    holds each window's op latencies and ``walls`` its wall time, in
    seconds."""
    windows_ms = [[t * 1e3 for t in window] for window in windows]
    return {
        "ops_per_s": ratio(sum(map(len, windows)), sum(walls)),
        "latency_p50_ms": windowed_percentile(windows_ms, 50),
        "latency_p90_ms": windowed_percentile(windows_ms, 90),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def output_digest(outputs) -> str:
    """SHA-256 over the canonical JSON of every recorded output."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def self_peak_rss_mib() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_facts() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": platform.platform(),
    }
