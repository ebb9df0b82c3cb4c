"""Pinned outputs of the rewrite search.

``optimize_golden.json`` holds, per case and with every float as its
``repr``: the start and optimized times, the speedup, the ``evaluations``
spent, every trace step, the peak memory, the emitted schedule's metadata
and a sha256 digest of its canonical integer orders
(:meth:`~repro.scheduling.orders.OrderTable.key`).  The cases cover
searches from vocab-1, vhalf-vocab-1, interlaced and baseline starts,
each nominal and under ``slow-node``, a search that splits twice (split
4) and one that does not split.

A change to the optimizer's internals must leave every case unchanged.
Re-record only for an intended change to the search::

    PYTHONPATH=src python tests/optimize/test_optimize_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro.sim.compiled as compiled
from repro.api import PlanCache, PlannerConstraints, optimize
from repro.config import ParallelConfig
from repro.harness.experiments import clear_structural_caches
from repro.harness.settings import model_for_1f1b, parallel_for
from repro.planner.sweep import model_for_devices
from repro.service.requests import OptimizeRequest

FIXTURE_PATH = Path(__file__).with_name("optimize_golden.json")


def _config(name: str):
    if name == "cli":  # the CLI's defaults (the CI smoke's config)
        payload = {"devices": 8, "vocab_size": 128 * 1024}
        return OptimizeRequest.from_payload(payload).resolve()[:2]
    if name == "tab":  # the paper's 8-GPU Table 1 shape at a 64k vocabulary
        return model_for_1f1b(8, 2048, 64 * 1024), parallel_for(8, 16)
    return (
        model_for_devices(4, 1024, 64 * 1024),
        ParallelConfig(pipeline_size=4, num_microbatches=8, microbatch_size=1),
    )


#: name -> (config, start family or None for the best, scenario, seed,
#: budget).
OPTIMIZE_CASES = {
    "cli-slow-node-greedy": ("cli", None, "slow-node", 0, 96),
    "tab-slow-node-greedy": ("tab", None, "slow-node", 0, 24),
    "tab-nominal-greedy": ("tab", None, None, 1, 48),
    "vocab-1-nominal-greedy": ("small", "vocab-1", None, 0, 48),
    "vocab-1-slow-node-greedy": ("small", "vocab-1", "slow-node", 0, 48),
    "vhalf-vocab-1-nominal-greedy": ("small", "vhalf-vocab-1", None, 3, 48),
    "vhalf-vocab-1-slow-node-greedy": ("small", "vhalf-vocab-1", "slow-node", 0, 48),
    "interlaced-nominal-greedy": ("small", "interlaced", None, 0, 48),
    "interlaced-slow-node-greedy": ("small", "interlaced", "slow-node", 0, 48),
    "baseline-slow-node-greedy-split-4": ("small", "baseline", "slow-node", 0, 48),
}

CASES = sorted(OPTIMIZE_CASES)
SMALL_CASES = [name for name in CASES if OPTIMIZE_CASES[name][0] == "small"]


def _encode(value):
    """JSON-ready with floats as ``repr`` (exact round trip)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _orders_digest(schedule) -> str:
    streams, codes = schedule.order_table().key()
    body = json.dumps([[[t.value, d, c] for t, d, c in streams], codes])
    return hashlib.sha256(body.encode()).hexdigest()


def _schedule_fields(schedule) -> dict:
    return {
        "num_microbatches": schedule.num_microbatches,
        "metadata": schedule.metadata,
        "orders_sha256": _orders_digest(schedule),
    }


def _record_case(name: str) -> dict:
    clear_structural_caches()
    config, method, scenario, seed, budget = OPTIMIZE_CASES[name]
    model, parallel = _config(config)
    constraints = PlannerConstraints(methods=None if method is None else (method,))
    result = optimize(
        model, parallel, constraints, cache=PlanCache(), scenario=scenario,
        seed=seed, budget=budget,
    )
    return _encode({**result.as_dict(), **_schedule_fields(result.schedule)})


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE_PATH.read_text())


@pytest.fixture(autouse=True)
def fresh_caches():
    yield
    clear_structural_caches()


@pytest.mark.parametrize("name", CASES)
def test_matches_golden(name, golden):
    assert _record_case(name) == golden[name]


@pytest.mark.skipif(compiled._np is None, reason="already the pure-Python path")
@pytest.mark.parametrize("name", SMALL_CASES)
def test_matches_golden_without_numpy(name, golden, monkeypatch):
    monkeypatch.setattr(compiled, "_np", None)
    assert _record_case(name) == golden[name]


def test_cases_cover_the_rules(golden):
    rules = {step["rule"] for case in golden.values() for step in case["trace"]}
    assert rules == {"token-split"}
    assert {case["metadata"].get("token_split", 1) for case in golden.values()} == {1, 2, 4}


if __name__ == "__main__":
    record = {name: _record_case(name) for name in CASES}
    FIXTURE_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(record)} optimize cases to {FIXTURE_PATH}\n")
