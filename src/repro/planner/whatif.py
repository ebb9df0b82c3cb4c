"""What-if queries over a resident compiled graph.

:func:`plan` answers "which schedule family should I run?"; this module
answers the follow-up an operator actually asks mid-incident: *"what
happens to my chosen schedule if device 7 slows down 30 %?"*.  A full
re-plan would re-enumerate, re-estimate and re-simulate every family.
:func:`whatif` instead keeps the method's compiled graph resident, with
its unperturbed sweep checkpointed
(:meth:`~repro.sim.compiled.CompiledGraph.checkpoint`) as the baseline,
and prices each perturbation with one sweep of the perturbed duration
rows (:meth:`~repro.sim.compiled.CompiledGraph.execute_delta_summary`):
no schedule generation, lowering or refinement, and the same exact
longest-path sweep a fresh simulation of the perturbed binding runs.

The result digest (:func:`whatif_cache_key`) follows the same
normalization discipline as :func:`~repro.planner.planner.plan_cache_key`
so serving-layer cache tiers (the service's in-process LRU, the
disk-backed :class:`~repro.planner.cache.PlanCache`) can address a
what-if without computing it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from repro.config import ModelConfig, ParallelConfig
from repro.costmodel.hardware import A100_SXM_80G, HardwareModel
from repro.harness.experiments import (
    KNOWN_METHODS,
    build_schedule,
    compiled_graph_for,
)
from repro.lru import LRU
from repro.planner.cache import PlanCache, config_digest
from repro.planner.planner import PLANNER_VERSION, default_plan_cache
from repro.scenarios import ClusterScenario, get_scenario
from repro.sim import RuntimeModel, SimulationSetup

#: Resident compiled graphs with their baseline checkpoints, keyed on the
#: binding digest.  Small on purpose: each entry pins a full graph plus
#: its baseline summary; the serving layer's request mix concentrates on a
#: handful of (model, method) bindings at a time.
_RESIDENT = LRU(8)
#: One lock guards the resident table and each query against a resident
#: graph: the graph's lazily built caches (topological order, the
#: baseline checkpoint) are filled on first use, so two threads sharing
#: a graph must not race to build them.  A query is one sweep of the
#: perturbed rows, so the critical section stays short.
_RESIDENT_LOCK = threading.Lock()


def clear_whatif_graphs() -> None:
    """Drop every resident graph/checkpoint (tests, memory pressure)."""
    with _RESIDENT_LOCK:
        _RESIDENT.clear()


@dataclass(frozen=True)
class WhatifResult:
    """Outcome of one :func:`whatif` query.

    ``baseline_*`` describe the unperturbed schedule (the resident
    checkpoint); ``whatif_*`` the same schedule with the perturbation
    applied.  Both come from the same compiled graph, so the numbers
    are directly comparable — ``slowdown`` is the headline answer.
    ``support`` counts the perturbed pass durations and ``device`` is
    the normalized (non-negative) device index.
    """

    method: str
    device: int
    factor: float
    baseline_time: float
    whatif_time: float
    baseline_bubble: float
    whatif_bubble: float
    support: int
    cache_key: str = ""

    @property
    def slowdown(self) -> float:
        """Perturbed / baseline iteration time (1.0 = unaffected)."""
        return self.whatif_time / self.baseline_time

    def as_dict(self) -> dict:
        """JSON-ready view (the service's response body)."""
        return {
            "method": self.method,
            "device": self.device,
            "factor": self.factor,
            "baseline_time": self.baseline_time,
            "whatif_time": self.whatif_time,
            "slowdown": self.slowdown,
            "baseline_bubble": self.baseline_bubble,
            "whatif_bubble": self.whatif_bubble,
            "support": self.support,
            "cache_key": self.cache_key,
        }


def _normalize_device(device: int, num_devices: int) -> int:
    if not -num_devices <= device < num_devices:
        raise ValueError(
            f"device must be in [-{num_devices}, {num_devices}), got {device}"
        )
    return device % num_devices


def whatif_cache_key(
    model: ModelConfig,
    parallel: ParallelConfig,
    *,
    method: str,
    device: int,
    factor: float,
    hardware: HardwareModel = A100_SXM_80G,
    pass_overhead: float | None = None,
    scenario: ClusterScenario | str | None = None,
    refine: bool = True,
) -> str:
    """The digest :func:`whatif` stores its result under.

    Public for the same reason as
    :func:`~repro.planner.planner.plan_cache_key`: serving-layer cache
    tiers address entries without computing them.  Inputs are
    normalized exactly as :func:`whatif` normalizes them — the scenario
    resolved by name, the device index made non-negative — so
    ``device=-1`` and ``device=p-1`` share one entry.
    """
    if method not in KNOWN_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {KNOWN_METHODS}"
        )
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError(f"factor must be finite and positive, got {factor}")
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    device = _normalize_device(device, parallel.pipeline_size)
    scenario_sig = None if scenario is None else scenario.signature()
    return config_digest(
        "whatif", method, model, parallel, hardware, pass_overhead,
        scenario_sig, refine, device, factor, PLANNER_VERSION,
    )


def _graph_digest(
    model: ModelConfig,
    parallel: ParallelConfig,
    method: str,
    hardware: HardwareModel,
    pass_overhead: float | None,
    scenario_sig: tuple | None,
    refine: bool,
) -> str:
    """Key of the resident binding — everything but (device, factor)."""
    return config_digest(
        "whatif-graph", method, model, parallel, hardware, pass_overhead,
        scenario_sig, refine, PLANNER_VERSION,
    )


def _resident_graph(
    graph_key: str,
    method: str,
    setup: SimulationSetup,
    scenario: ClusterScenario | None,
    refine: bool,
):
    """Compiled graph for the binding, checkpoint resident across calls.

    Caller must hold :data:`_RESIDENT_LOCK`.  Distinct from the
    structural cache behind
    :func:`~repro.harness.experiments.compiled_graph_for`: that cache
    re-binds (a fresh clone, no checkpoint) on every hit, which is
    right for batch replay but would force a baseline sweep per
    what-if.  Here the *bound* graph itself stays resident, so repeated
    queries against one binding pay only their perturbed sweep.
    """
    graph = _RESIDENT.get(graph_key)
    if graph is not None:
        return graph
    schedule = build_schedule(method, setup, refine=refine, scenario=scenario)
    if scenario is None:
        runtime = RuntimeModel(setup, schedule)
    else:
        # runtime_for wants the scenario setup (interconnect priced in);
        # device speeds then land in the wrapper.
        runtime = scenario.runtime_for(scenario.setup_for(setup), schedule)
    graph = compiled_graph_for(schedule, runtime)
    graph.checkpoint()
    _RESIDENT.put(graph_key, graph)
    return graph


def whatif(
    model: ModelConfig,
    parallel: ParallelConfig,
    *,
    method: str,
    device: int,
    factor: float,
    hardware: HardwareModel = A100_SXM_80G,
    pass_overhead: float | None = None,
    scenario: ClusterScenario | str | None = None,
    refine: bool = True,
    cache: PlanCache | None = None,
) -> WhatifResult:
    """Price one single-device perturbation against a resident graph.

    Scales every pass of ``device`` (negative indexes from the end of
    the pipeline) by ``factor`` and returns baseline vs perturbed
    iteration time and mean bubble fraction for ``method``'s schedule
    on the given binding.  The first call for a binding compiles and
    checkpoints the schedule's graph; every call — any device, any
    factor — then costs one sweep of the perturbed rows, bit-identical
    to a fresh simulation of the perturbed binding.

    ``scenario`` prices the *baseline* on a non-ideal cluster first
    (same semantics as :func:`~repro.planner.planner.plan`); the
    what-if factor then applies on top of the scenario's device speeds.
    Results are cached in ``cache`` (default: the process-wide
    :class:`~repro.planner.cache.PlanCache`) under
    :func:`whatif_cache_key`, in the ``"whatif"`` auxiliary namespace.
    """
    cache = cache if cache is not None else default_plan_cache()
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    key = whatif_cache_key(
        model, parallel, method=method, device=device, factor=factor,
        hardware=hardware, pass_overhead=pass_overhead, scenario=scenario,
        refine=refine,
    )
    cached = cache.get_aux("whatif", key)
    if cached is not None:
        return cached
    device = _normalize_device(device, parallel.pipeline_size)
    scenario_sig = None if scenario is None else scenario.signature()
    setup_kwargs = {} if pass_overhead is None else {"pass_overhead": pass_overhead}
    setup = SimulationSetup(model, parallel, hardware=hardware, **setup_kwargs)
    graph_key = _graph_digest(
        model, parallel, method, hardware, pass_overhead, scenario_sig, refine
    )
    with _RESIDENT_LOCK:
        graph = _resident_graph(graph_key, method, setup, scenario, refine)
        baseline = graph.checkpoint()
        perturbation = graph.device_perturbation(device, factor)
        summary = graph.execute_delta_summary(perturbation)
    result = WhatifResult(
        method=method,
        device=device,
        factor=factor,
        baseline_time=baseline.iteration_time,
        whatif_time=summary.iteration_time,
        baseline_bubble=baseline.mean_bubble_fraction(),
        whatif_bubble=summary.mean_bubble_fraction(),
        support=perturbation.support,
        cache_key=key,
    )
    cache.put_aux("whatif", key, result)
    return result
