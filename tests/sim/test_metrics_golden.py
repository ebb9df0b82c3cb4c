"""Pinned end-to-end outputs of the simulator-backed entry points.

``metrics_golden.json`` holds, with every float as its ``repr``:

* every :class:`~repro.harness.experiments.MethodMetrics` field of
  :func:`~repro.harness.experiments.run_method` for all eight schedule
  families × {nominal, ``slow-node``, ``high-jitter``} × ``refine`` ∈
  {True, False} × (p, m) ∈ {(4, 8), (8, 16)} — a family the generator
  cannot instantiate is recorded as its error message;
* the candidate summaries of four ``plan()`` calls shaped like the
  ``plan-cold`` benchmark's configs;
* one ``optimize(..., budget=4)`` result.

The fixture was recorded before compiled results became views over the
graph's node times; every change since is meant to be exact, so the
outputs must match to the last bit, with NumPy and without it.
Re-record only on a version bump::

    PYTHONPATH=src python tests/sim/test_metrics_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import repro.scenarios.perturb as perturb
import repro.sim.compiled as compiled
from repro.api import PlanCache, PlannerConstraints, optimize, plan
from repro.config import ParallelConfig
from repro.harness.experiments import KNOWN_METHODS, run_method
from repro.planner.sweep import model_for_devices
from repro.scenarios import get_scenario

FIXTURE_PATH = Path(__file__).with_name("metrics_golden.json")

SCENARIOS = (None, "slow-node", "high-jitter")
SHAPES = ((4, 8), (8, 16))
#: (devices, vocab, seq, microbatches), inside the plan-cold ranges.
PLAN_CONFIGS = (
    (4, 50_000, 2048, 32),
    (8, 131_072, 4096, 32),
    (16, 90_000, 2048, 32),
    (8, 220_000, 2048, 64),
)
OPTIMIZE_CONFIG = (4, 64 * 1024, 2048, 16)


def _encode(value):
    """JSON-ready with floats as ``repr`` (exact round trip)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _resolve(devices, vocab, seq, microbatches):
    model = model_for_devices(devices, seq, vocab)
    parallel = ParallelConfig(
        pipeline_size=devices, num_microbatches=microbatches, microbatch_size=1
    )
    return model, parallel


def _method_id(case) -> str:
    method, scenario, refine, (p, m) = case
    return f"{method}-{scenario or 'nominal'}-{'refined' if refine else 'raw'}-p{p}m{m}"


METHOD_CASES = [
    (method, scenario, refine, shape)
    for shape in SHAPES
    for scenario in SCENARIOS
    for refine in (True, False)
    for method in KNOWN_METHODS
]


def _method_metrics(case) -> dict:
    method, scenario, refine, (p, m) = case
    model, parallel = _resolve(p, 64 * 1024, 1024, m)
    try:
        metrics = run_method(
            method,
            model,
            parallel,
            refine=refine,
            scenario=None if scenario is None else get_scenario(scenario),
        )
    except ValueError as exc:
        return {"error": str(exc)}
    return _encode(dataclasses.asdict(metrics))


def _plan_summary(config) -> dict:
    model, parallel = _resolve(*config)
    plans = plan(model, parallel, cache=PlanCache())
    fields = (
        "method", "feasible", "source", "reason", "iteration_time",
        "peak_memory_gb", "mfu", "estimated_time", "estimated_peak_gb",
    )
    return _encode(
        {
            "memory_budget_gib": plans.memory_budget_gib,
            "ranked": [[getattr(c, f) for f in fields] for c in plans.ranked],
            "rejected": [[getattr(c, f) for f in fields] for c in plans.rejected],
        }
    )


def _optimize_summary() -> dict:
    model, parallel = _resolve(*OPTIMIZE_CONFIG)
    result = optimize(
        model,
        parallel,
        PlannerConstraints(),
        cache=PlanCache(),
        scenario="slow-node",
        seed=0,
        budget=4,
    )
    return _encode(result.as_dict())


def _record() -> dict:
    return {
        "methods": {_method_id(c): _method_metrics(c) for c in METHOD_CASES},
        "plans": {
            "-".join(map(str, config)): _plan_summary(config)
            for config in PLAN_CONFIGS
        },
        "optimize": _optimize_summary(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE_PATH.read_text())


@pytest.mark.parametrize("case", METHOD_CASES, ids=_method_id)
def test_run_method_matches_golden(case, golden):
    assert _method_metrics(case) == golden["methods"][_method_id(case)]


@pytest.mark.parametrize("config", PLAN_CONFIGS, ids=lambda c: "-".join(map(str, c)))
def test_plan_matches_golden(config, golden):
    assert _plan_summary(config) == golden["plans"]["-".join(map(str, config))]


def test_optimize_matches_golden(golden):
    assert _optimize_summary() == golden["optimize"]


@pytest.mark.skipif(compiled._np is None, reason="already the pure-Python path")
@pytest.mark.parametrize(
    "case",
    [c for c in METHOD_CASES if c[3] == (4, 8) and c[1] != "high-jitter"],
    ids=_method_id,
)
def test_run_method_matches_golden_without_numpy(case, golden, monkeypatch):
    monkeypatch.setattr(perturb, "_np", None)
    monkeypatch.setattr(compiled, "_np", None)
    assert _method_metrics(case) == golden["methods"][_method_id(case)]


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(_record(), indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(METHOD_CASES)} method cases to {FIXTURE_PATH}\n")
