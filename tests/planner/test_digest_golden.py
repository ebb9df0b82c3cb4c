"""Pinned cache-key digests for every key builder.

``digests.json`` maps one case per key builder variant to the SHA-256
it produced when recorded: :func:`plan_cache_key` (nominal, scenario,
robustness, calibrated cost model), the planner's budget-independent
aux keys (estimate, metrics, Monte Carlo), the what-if and resident
graph keys, :func:`optimize_cache_key` and every service request's
``digest()``.  Digests name disk-cache files and stamp envelope
``meta.digest``, so they must stay byte-identical across changes to
how :func:`~repro.planner.cache.config_digest` renders its parts —
whether each case builds fresh config instances, reuses one set of
instances, or runs on several threads at once.

Beyond the pinned cases, the joined per-part encodings are checked
against one ``json.dumps`` over awkward parts, and mutable, list-holding
and slotted dataclasses are shown to be rendered on every call.

Equal-but-differently-typed inputs (``memory_budget_gib=40`` vs
``40.0``, an integer ``peak_flops``) compare and hash equal as
dataclasses but render differently, so they pin distinct digests.

Re-record only when a cache-key version constant is bumped on purpose::

    PYTHONPATH=src python tests/planner/test_digest_golden.py
"""

import enum
import hashlib
import json
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.config import ModelConfig, ParallelConfig
from repro.costmodel.hardware import A100_SXM_80G, HardwareModel
from repro.costmodel.memory import MemoryModel
from repro.optimize.optimizer import OPTIMIZER_VERSION, optimize_cache_key
from repro.planner.cache import _canonical, config_digest
from repro.planner.planner import (
    PLANNER_VERSION,
    PlannerConstraints,
    _estimate_digest,
    _metrics_digest,
    _robust_digest,
    plan_cache_key,
)
from repro.planner.sweep import model_for_devices
from repro.planner.whatif import _graph_digest, whatif_cache_key
from repro.scenarios import get_scenario
from repro.scenarios.perturb import RobustnessObjective
from repro.service.requests import (
    OptimizeRequest,
    PlanRequest,
    ScenarioRequest,
    SweepRequest,
    WhatifRequest,
)

FIXTURE_PATH = Path(__file__).with_name("digests.json")

#: A synthetic structure signature: the aux builders only ``repr`` it.
SIGNATURE = ("vhalf-vocab-1", 8, 32, ((0, 1), (2, 3)), 1.5, None)


def _objects() -> SimpleNamespace:
    """Fresh instances of every config object the cases digest."""
    return SimpleNamespace(
        model=model_for_devices(8, 2048, 128 * 1024),
        model_small=ModelConfig(
            num_layers=8, hidden_size=512, num_attention_heads=8,
            seq_length=256, vocab_size=4096, tie_embeddings=True,
        ),
        parallel=ParallelConfig(pipeline_size=8, num_microbatches=32),
        parallel_small=ParallelConfig(
            pipeline_size=4, num_microbatches=16, devices_per_node=2
        ),
        constraints=PlannerConstraints(),
        budget_int=PlannerConstraints(memory_budget_gib=40),
        budget_float=PlannerConstraints(memory_budget_gib=40.0),
        restricted=PlannerConstraints(
            methods=("baseline", "vhalf-vocab-1"), simulate_top_k=None, refine=False
        ),
        calibrated=PlannerConstraints(cost_model="a100-sim"),
        hardware=HardwareModel(),
        hardware_int=HardwareModel(peak_flops=312 * 10**12),
        hardware_two_tier=HardwareModel(
            name="H100", inter_node_latency=25e-6, inter_node_bandwidth=50e9
        ),
        memory=MemoryModel(),
        memory_int=MemoryModel(train_state_factor=7),
        robustness=RobustnessObjective(rank_by="p95"),
        slow_node=get_scenario("slow-node"),
    )


CASES = {
    "plan/nominal": lambda o: plan_cache_key(o.model, o.parallel),
    "plan/explicit-defaults": lambda o: plan_cache_key(
        o.model, o.parallel, o.constraints, hardware=A100_SXM_80G,
        memory_model=o.memory,
    ),
    "plan/budget-int": lambda o: plan_cache_key(o.model, o.parallel, o.budget_int),
    "plan/budget-float": lambda o: plan_cache_key(
        o.model, o.parallel, o.budget_float
    ),
    "plan/restricted": lambda o: plan_cache_key(
        o.model_small, o.parallel_small, o.restricted, pass_overhead=0.0
    ),
    "plan/pass-overhead-int": lambda o: plan_cache_key(
        o.model_small, o.parallel_small, o.restricted, pass_overhead=0
    ),
    "plan/hardware-int": lambda o: plan_cache_key(
        o.model, o.parallel, hardware=o.hardware_int
    ),
    "plan/hardware-two-tier": lambda o: plan_cache_key(
        o.model, o.parallel, hardware=o.hardware_two_tier, memory_model=o.memory_int
    ),
    "plan/scenario-slow-node": lambda o: plan_cache_key(
        o.model, o.parallel, scenario="slow-node"
    ),
    "plan/scenario-object": lambda o: plan_cache_key(
        o.model, o.parallel, o.budget_int, scenario=o.slow_node
    ),
    "plan/robustness-p95": lambda o: plan_cache_key(
        o.model, o.parallel, scenario="high-jitter", robustness="p95"
    ),
    "plan/robustness-object": lambda o: plan_cache_key(
        o.model, o.parallel, scenario="high-jitter", robustness=o.robustness
    ),
    "plan/cost-model-a100-sim": lambda o: plan_cache_key(
        o.model, o.parallel, o.calibrated
    ),
    "estimate/default": lambda o: _estimate_digest(
        "vhalf-vocab-1", o.model, o.parallel, o.hardware, o.memory, None, "abc123"
    ),
    "estimate/memory-int": lambda o: _estimate_digest(
        "vhalf-vocab-1", o.model, o.parallel, o.hardware, o.memory_int, None, "abc123"
    ),
    "estimate/hardware-int": lambda o: _estimate_digest(
        "baseline", o.model_small, o.parallel_small, o.hardware_int, o.memory, 2e-5,
        "abc123",
    ),
    "metrics/nominal": lambda o: _metrics_digest(
        "vhalf-vocab-1", SIGNATURE, o.model, o.parallel, o.hardware, o.memory,
        None, True,
    ),
    "metrics/scenario": lambda o: _metrics_digest(
        "vhalf-vocab-1", SIGNATURE, o.model, o.parallel, o.hardware_two_tier,
        o.memory, 1e-5, False, o.slow_node.signature(),
    ),
    "robust/p95": lambda o: _robust_digest(
        "interlaced", SIGNATURE, o.model, o.parallel, o.hardware, None, True,
        o.slow_node.signature(), o.robustness,
    ),
    "whatif/nominal": lambda o: whatif_cache_key(
        o.model, o.parallel, method="vocab-1", device=3, factor=1.5
    ),
    "whatif/negative-device": lambda o: whatif_cache_key(
        o.model, o.parallel, method="vocab-1", device=-5, factor=1.5
    ),
    "whatif/scenario": lambda o: whatif_cache_key(
        o.model_small, o.parallel_small, method="vhalf-baseline", device=0, factor=2,
        hardware=o.hardware_two_tier, pass_overhead=0.0, scenario="slow-node",
        refine=False,
    ),
    "graph/nominal": lambda o: _graph_digest(
        o.model, o.parallel, "vocab-1", o.hardware, None, None, True
    ),
    "graph/scenario": lambda o: _graph_digest(
        o.model_small, o.parallel_small, "vhalf-baseline", o.hardware_int, 0.0,
        o.slow_node.signature(), False,
    ),
    "optimize/nominal": lambda o: optimize_cache_key(o.model, o.parallel),
    "optimize/budget-int": lambda o: optimize_cache_key(
        o.model, o.parallel, o.budget_int, memory_model=o.memory_int,
        scenario="slow-node", seed=3, budget=40,
    ),
    "optimize/budget-float": lambda o: optimize_cache_key(
        o.model, o.parallel, o.budget_float, hardware=o.hardware_two_tier,
        pass_overhead=1e-5,
    ),
    "request/plan": lambda o: PlanRequest.from_payload(
        {"devices": 8, "vocab_size": "128k", "microbatches": 32}
    ).digest(),
    "request/plan-budget-int": lambda o: PlanRequest.from_payload(
        {"devices": 8, "vocab_size": "128k", "microbatches": 32,
         "memory_budget_gib": 40}
    ).digest(),
    "request/plan-budget-float": lambda o: PlanRequest.from_payload(
        {"devices": 8, "vocab_size": "128k", "microbatches": 32,
         "memory_budget_gib": 40.0}
    ).digest(),
    "request/plan-robust": lambda o: PlanRequest.from_payload(
        {"devices": 4, "vocab_size": 65536, "microbatches": 16,
         "scenario": "high-jitter", "robustness": "p95",
         "methods": ["baseline", "vhalf-vocab-1"], "cost_model": "a100-sim"}
    ).digest(),
    "request/sweep": lambda o: SweepRequest.from_payload(
        {"devices": [4, 8], "vocab_sizes": ["32k", 131072],
         "microbatches": [16], "memory_budgets_gib": [None, 40],
         "scenarios": [None, "slow-node"]}
    ).digest(),
    "request/whatif": lambda o: WhatifRequest.from_payload(
        {"devices": 8, "vocab_size": "128k", "microbatches": 32,
         "method": "vhalf-vocab-1", "device": -1, "factor": 2}
    ).digest(),
    "request/scenarios": lambda o: ScenarioRequest.from_payload(
        {"scenario": "straggler-device", "method": "vocab-1", "devices": 8,
         "samples": 64, "seed": 7}
    ).digest(),
    "request/optimize": lambda o: OptimizeRequest.from_payload(
        {"devices": 4, "vocab_size": "64k", "memory_budget_gib": 40,
         "scenario": "slow-node", "seed": 2,
         "budget": 20, "pass_overhead": 0}
    ).digest(),
}

#: Pairs that compare equal as inputs but must keep distinct digests.
DISTINCT = [
    ("plan/budget-int", "plan/budget-float"),
    ("plan/restricted", "plan/pass-overhead-int"),
    ("plan/nominal", "plan/hardware-int"),
    ("estimate/default", "estimate/memory-int"),
    ("request/plan-budget-int", "request/plan-budget-float"),
]


def _record() -> dict:
    return {
        "planner_version": PLANNER_VERSION,
        "optimizer_version": OPTIMIZER_VERSION,
        "digests": {name: case(_objects()) for name, case in CASES.items()},
    }


FIXTURE = json.loads(FIXTURE_PATH.read_text()) if FIXTURE_PATH.exists() else None
GOLDEN = FIXTURE["digests"] if FIXTURE else {}


def test_fixture_matches_versions():
    assert FIXTURE is not None, f"record {FIXTURE_PATH.name} first"
    assert (FIXTURE["planner_version"], FIXTURE["optimizer_version"]) == (
        PLANNER_VERSION, OPTIMIZER_VERSION,
    ), "a cache-key version was bumped: re-record the fixture"
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_instances(name):
    assert CASES[name](_objects()) == GOLDEN[name]


def test_reused_instances():
    objects = _objects()
    for order in (sorted(CASES), sorted(CASES, reverse=True), sorted(CASES)):
        assert {name: CASES[name](objects) for name in order} == GOLDEN


def test_equal_inputs_keep_distinct_digests():
    objects = _objects()
    assert objects.budget_int == objects.budget_float
    assert objects.hardware_int == objects.hardware
    assert objects.memory_int == objects.memory
    for left, right in DISTINCT:
        assert GOLDEN[left] != GOLDEN[right]
        assert CASES[left](objects) != CASES[right](objects)


def test_concurrent_digests():
    """Threads racing on one shared set of instances (even-numbered
    calls) and on fresh ones (odd) all produce the pinned digests."""
    shared = _objects()
    calls = list(enumerate(sorted(CASES) * 8))

    def run(call):
        index, name = call
        return name, CASES[name](_objects() if index % 2 else shared)

    with ThreadPoolExecutor(max_workers=4) as pool:
        for name, digest in pool.map(run, calls):
            assert digest == GOLDEN[name], name


def _reference_digest(*parts) -> str:
    """The single ``json.dumps`` over every part that digests are pinned to."""
    payload = json.dumps([_canonical(part) for part in parts], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _Level(enum.IntEnum):
    HIGH = 3


def test_joined_fragments_match_one_json_dumps():
    objects = _objects()
    parts = [
        "ünïcode, \"quoted\"", "", 1.5, float("nan"), float("inf"), -0.0,
        True, False, None, 10**30, _Level.HIGH, [1, {"b": 2, "a": [None]}],
        {"z": 1, 3: "x"}, (1, (2.0, "3")), objects.model, objects.budget_int,
        objects.model, SIGNATURE,
    ]
    for _ in range(2):
        assert config_digest(*parts) == _reference_digest(*parts)
    assert config_digest() == _reference_digest()


def test_mutable_and_slotted_parts_render_every_call():
    @dataclass
    class Knobs:
        budget: float

    @dataclass(frozen=True)
    class Holder:
        items: list

    @dataclass(frozen=True, slots=True)
    class Slotted:
        budget: float

    knobs, holder, slotted = Knobs(40.0), Holder([1]), Slotted(40.0)
    before = [config_digest(part) for part in (knobs, holder, slotted)]
    knobs.budget = 80.0
    holder.items.append(2)
    after = [config_digest(part) for part in (knobs, holder, slotted)]
    assert after[0] == _reference_digest(Knobs(80.0)) != before[0]
    assert after[1] == _reference_digest(Holder([1, 2])) != before[1]
    assert after[2] == before[2] == _reference_digest(Slotted(40.0))


def test_pickle_bytes_unchanged_by_digesting():
    objects = _objects()
    before = {name: pickle.dumps(value) for name, value in vars(objects).items()}
    for case in CASES.values():
        case(objects)
    after = {name: pickle.dumps(value) for name, value in vars(objects).items()}
    assert after == before
    clone = pickle.loads(before["budget_int"])
    assert plan_cache_key(objects.model, objects.parallel, clone) == GOLDEN[
        "plan/budget-int"
    ]


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(_record(), indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(CASES)} digests to {FIXTURE_PATH}\n")
