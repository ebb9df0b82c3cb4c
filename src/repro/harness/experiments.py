"""Run one method on one setting: the paper's §6 measurement pipeline.

For each method the runner (1) profiles pass durations from the cost
model (the paper's §6.1 profiling step), (2) generates the schedule
from its building block, (3) refines the order through a
work-conserving simulation pass, (4) executes in-order, and (5) reports
MFU, peak memory, balance and bubble metrics.  OOM configurations are
reported with ``oom=True`` rather than being dropped, so sweeps can
mark them the way the paper's figures do.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.config import ModelConfig, ParallelConfig, layers_per_stage
from repro.costmodel.memory import GiB, MemoryModel
from repro.costmodel.mfu import mfu
from repro.scheduling import (
    Schedule,
    generate_1f1b,
    generate_1f1b_vocab,
    generate_interlaced,
    generate_vhalf,
    generate_vhalf_vocab,
    redistribute_layers,
)
from repro.sim import (
    ExecutionResult,
    PassTimings,
    RuntimeModel,
    SimulationSetup,
    compile_schedule,
    execute_schedule,
    memory_report,
    refine_schedule_order,
    simulation_engine,
)

#: All method names understood by :func:`run_method`.
KNOWN_METHODS = (
    "baseline",
    "redis",
    "vocab-1",
    "vocab-2",
    "interlaced",
    "vhalf-baseline",
    "vhalf-vocab-1",
    "vhalf-vocab-2",
)


@dataclass
class MethodMetrics:
    """Everything Tables 5/6 and Figures 11–14 report for one run."""

    method: str
    mfu: float
    iteration_time: float
    peak_memory_gb: float
    per_device_peak_gb: list[float]
    memory_spread_gb: float
    mean_bubble: float
    oom: bool

    @property
    def mfu_percent(self) -> float:
        return 100.0 * self.mfu


# ---------------------------------------------------------------------------
# Structural caches: schedule generation and compiled-graph lowering are
# pure functions of a small structural key, so both are memoized
# process-wide.  A sweep whose grid points share a schedule structure
# (same family/model/parallel shape, different memory budgets or
# pass-overhead bindings) then builds each structure once and re-prices
# it per binding via CompiledGraph.rebind / execute_many.  Three memos
# of seed-independent work on warm structures sit beside them: refined
# schedules (build_schedule), robust plans' nominal bindings
# (robust_nominal) and the optimizer's scored start states.
# ---------------------------------------------------------------------------

_CACHE_LOCK = threading.Lock()
_SCHEDULE_CACHE: OrderedDict[tuple, Schedule] = OrderedDict()
_GRAPH_CACHE: OrderedDict[tuple, object] = OrderedDict()
#: ``build_schedule(refine=True)`` results, keyed on the full runtime
#: binding (refined orders depend on every duration, not only on the
#: generator's timing scalars).
_REFINED_CACHE: OrderedDict[tuple, Schedule] = OrderedDict()
#: ``method_robustness``'s seed-independent half (see :func:`robust_nominal`).
_ROBUST_CACHE: OrderedDict[tuple, object] = OrderedDict()
#: The optimizer's scored start candidates (see :func:`search_start`).
_START_CACHE: OrderedDict[tuple, object] = OrderedDict()
_SCHEDULE_CACHE_LIMIT = 256
_GRAPH_CACHE_LIMIT = 64
_REFINED_CACHE_LIMIT = 64
_ROBUST_CACHE_LIMIT = 64
_START_CACHE_LIMIT = 8
_CACHE_STATS = {
    "schedule_hits": 0,
    "schedule_misses": 0,
    "graph_hits": 0,
    "graph_misses": 0,
    "refined_hits": 0,
    "refined_misses": 0,
    "robust_hits": 0,
    "robust_misses": 0,
    "start_hits": 0,
    "start_misses": 0,
    "child_hits": 0,
    "child_misses": 0,
}


def _cache_get(cache: OrderedDict, kind: str, key):
    """``cache[key]`` or ``None``, counting a hit as ``<kind>_hits``."""
    with _CACHE_LOCK:
        value = cache.get(key)
        if value is not None:
            _CACHE_STATS[f"{kind}_hits"] += 1
            cache.move_to_end(key)
    return value


def _cache_put(cache: OrderedDict, kind: str, key, value, limit: int) -> None:
    """Store a freshly built value, counting a ``<kind>_misses`` and
    evicting the least recently used entries beyond ``limit``."""
    with _CACHE_LOCK:
        _CACHE_STATS[f"{kind}_misses"] += 1
        cache[key] = value
        while len(cache) > limit:
            cache.popitem(last=False)


def structural_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the process-wide structural caches (a copy)."""
    with _CACHE_LOCK:
        return dict(_CACHE_STATS)


def clear_derived_caches() -> None:
    """Drop the memoized refined schedules, robust nominal bindings and
    optimizer start states.

    Generated schedules and compiled graphs stay, so the next refined
    build, robust plan or :func:`~repro.optimize.optimize` call pays its
    refinement, nominal binding and start scoring again on warm
    structures.
    """
    with _CACHE_LOCK:
        _REFINED_CACHE.clear()
        _ROBUST_CACHE.clear()
        _START_CACHE.clear()


def clear_structural_caches() -> None:
    """Drop every process-wide structural cache and reset the counters:
    generated schedules, compiled graphs, refined schedules
    (:func:`build_schedule`), robust nominal bindings
    (:func:`robust_nominal`) and optimizer start states
    (:func:`search_start`) with the children memoized on them
    (:func:`start_child`)."""
    with _CACHE_LOCK:
        caches = (_SCHEDULE_CACHE, _GRAPH_CACHE, _REFINED_CACHE, _ROBUST_CACHE, _START_CACHE)
        for cache in caches:
            cache.clear()
        for key in _CACHE_STATS:
            _CACHE_STATS[key] = 0


def search_start(key: tuple, build):
    """The optimizer's scored start state under ``key``, memoized.

    ``build()`` makes it on a miss (a ``None`` result is not stored).
    The start of a search is a pure function of the optimize inputs
    without the strategy, seed and budget, so every seed searched on
    one structure shares it.  It lives here, beside the other
    structural caches, so that :func:`clear_structural_caches` and
    :func:`structural_cache_stats` cover it;
    :mod:`repro.optimize.optimizer` defines what it holds.
    """
    value = _cache_get(_START_CACHE, "start", key)
    if value is None:
        value = build()
        if value is not None:
            _cache_put(_START_CACHE, "start", key, value, _START_CACHE_LIMIT)
    return value


def start_child(children: dict, key, build) -> tuple[object, bool]:
    """``(children[key], hit)``, calling ``build()`` on a miss.

    ``children`` is a memoized start state's own memo of the scored
    candidates the search derives from it identically for every seed
    (any result, ``None`` included, is kept).  It lives and dies with
    its :func:`search_start` entry — evicted with it, dropped by
    :func:`clear_structural_caches` and :func:`clear_derived_caches` —
    and :func:`structural_cache_stats` counts it as ``child_hits`` /
    ``child_misses``.
    """
    with _CACHE_LOCK:
        hit = key in children
        if hit:
            _CACHE_STATS["child_hits"] += 1
            return children[key], True
    value = build()
    with _CACHE_LOCK:
        _CACHE_STATS["child_misses"] += 1
        children[key] = value
    return value, False


def _generation_timings(method: str, setup: SimulationSetup) -> tuple[float, ...]:
    """The timing scalars ``method``'s generator consumes, in order.

    These are the *only* hardware-dependent inputs of schedule
    generation — the generators place passes from a handful of nominal
    durations — so (method, model, parallel shape, these scalars) is an
    exact cache key: two setups mapping to the same scalars generate
    identical schedules, whatever hardware produced them.

    KEEP IN SYNC with :func:`_generate_method_schedule_uncached`: if a
    generator starts consuming another setup-dependent input, it must
    be added here too, or the cache will conflate setups that differ in
    that input and silently return the wrong schedule.
    """
    model = setup.model
    parallel = setup.parallel
    p = parallel.pipeline_size
    timings = PassTimings(setup)
    if method in ("baseline", "redis", "vocab-1", "vocab-2", "interlaced"):
        per_stage = layers_per_stage(model, parallel)
        scalars = [
            timings.transformer_forward_time(per_stage),
            timings.transformer_backward_time(per_stage, split_weight=False),
        ]
        if method in ("vocab-1", "vocab-2"):
            algorithm = 1 if method == "vocab-1" else 2
            scalars += [timings.s_pass_time(algorithm), timings.t_pass_time(algorithm)]
        elif method == "interlaced":
            scalars += [timings.interlaced_vf_time(), timings.interlaced_vb_time()]
    elif method in ("vhalf-baseline", "vhalf-vocab-1", "vhalf-vocab-2"):
        if model.num_layers % (2 * p) != 0:
            raise ValueError(
                f"V-Half needs layers divisible by 2p; got {model.num_layers}, p={p}"
            )
        per_chunk = model.num_layers // (2 * p)
        scalars = [
            timings.transformer_forward_time(per_chunk),
            timings.transformer_backward_time(per_chunk, split_weight=True),
            timings.transformer_weight_time(per_chunk),
        ]
        if method != "vhalf-baseline":
            algorithm = 1 if method == "vhalf-vocab-1" else 2
            scalars += [timings.s_pass_time(algorithm), timings.t_pass_time(algorithm)]
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {KNOWN_METHODS}")
    return tuple(scalars)


def generate_method_schedule(method: str, setup: SimulationSetup) -> Schedule:
    """Generate the nominal (unrefined) schedule for a method.

    Memoized process-wide on the structural generation key (method,
    model, parallel shape, generator timing scalars); hits return a
    defensive copy of the cached schedule, so repeated planner/sweep
    calls over the same structure skip generation entirely.
    """
    key = (
        method,
        setup.model,
        setup.parallel.pipeline_size,
        setup.parallel.num_microbatches,
        setup.parallel.microbatch_size,
        _generation_timings(method, setup),
    )
    cached = _cache_get(_SCHEDULE_CACHE, "schedule", key)
    if cached is not None:
        return cached.copy()
    schedule = _generate_method_schedule_uncached(method, setup)
    _cache_put(_SCHEDULE_CACHE, "schedule", key, schedule.copy(), _SCHEDULE_CACHE_LIMIT)
    return schedule


def _generate_method_schedule_uncached(
    method: str, setup: SimulationSetup
) -> Schedule:
    """The actual schedule construction (one per structural key)."""
    model = setup.model
    parallel = setup.parallel
    p = parallel.pipeline_size
    m = parallel.num_microbatches
    timings = PassTimings(setup)
    if method in ("baseline", "redis", "vocab-1", "vocab-2", "interlaced"):
        per_stage = layers_per_stage(model, parallel)
        t_f = timings.transformer_forward_time(per_stage)
        t_b = timings.transformer_backward_time(per_stage, split_weight=False)
        if method == "baseline":
            schedule = generate_1f1b(
                p, m, num_layers=model.num_layers, t_forward=t_f, t_backward=t_b
            )
        elif method == "redis":
            plan = redistribute_layers(model, p, parallel.microbatch_size)
            schedule = generate_1f1b(
                p,
                m,
                layout=plan.layout(),
                t_forward=t_f,
                t_backward=t_b,
                name="1f1b-redis",
            )
            schedule.metadata["redistribution"] = plan
        elif method in ("vocab-1", "vocab-2"):
            algorithm = 1 if method == "vocab-1" else 2
            schedule = generate_1f1b_vocab(
                p,
                m,
                model.num_layers,
                algorithm,
                t_forward=t_f,
                t_backward=t_b,
                t_s=timings.s_pass_time(algorithm),
                t_t=timings.t_pass_time(algorithm),
            )
        else:
            schedule = generate_interlaced(
                p,
                m,
                model.num_layers,
                t_forward=t_f,
                t_backward=t_b,
                t_vf=timings.interlaced_vf_time(),
                t_vb=timings.interlaced_vb_time(),
            )
    elif method in ("vhalf-baseline", "vhalf-vocab-1", "vhalf-vocab-2"):
        if model.num_layers % (2 * p) != 0:
            raise ValueError(
                f"V-Half needs layers divisible by 2p; got {model.num_layers}, p={p}"
            )
        per_chunk = model.num_layers // (2 * p)
        f_c = timings.transformer_forward_time(per_chunk)
        b_c = timings.transformer_backward_time(per_chunk, split_weight=True)
        w_c = timings.transformer_weight_time(per_chunk)
        if method == "vhalf-baseline":
            schedule = generate_vhalf(
                p,
                m,
                model.num_layers,
                t_forward_chunk=f_c,
                t_backward_chunk=b_c,
                t_weight_chunk=w_c,
            )
        else:
            algorithm = 1 if method == "vhalf-vocab-1" else 2
            schedule = generate_vhalf_vocab(
                p,
                m,
                model.num_layers,
                algorithm=algorithm,
                t_forward_chunk=f_c,
                t_backward_chunk=b_c,
                t_weight_chunk=w_c,
                t_s=timings.s_pass_time(algorithm),
                t_t=timings.t_pass_time(algorithm),
            )
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {KNOWN_METHODS}")
    return schedule


def _scenario_setup(setup: SimulationSetup, scenario) -> SimulationSetup:
    """Apply a cluster scenario's interconnect transform exactly once.

    ``scenario`` is duck-typed (a
    :class:`~repro.scenarios.cluster.ClusterScenario` or anything with
    the same ``setup_for``/``wrap_runtime``/``signature`` surface), so
    this module never imports :mod:`repro.scenarios` — the dependency
    points the other way.
    """
    return setup if scenario is None else scenario.setup_for(setup)


def _scenario_runtime(
    setup: SimulationSetup, schedule: Schedule, scenario
) -> RuntimeModel:
    """Runtime binding for ``schedule``, scenario speeds applied on top.

    ``setup`` must already be the scenario setup
    (:func:`_scenario_setup`) so interconnect tiers are priced in.
    """
    runtime = RuntimeModel(setup, schedule)
    return runtime if scenario is None else scenario.wrap_runtime(runtime)


def _scenario_signature(scenario) -> tuple | None:
    """Cache-key component for a scenario (``None`` = nominal)."""
    return None if scenario is None else scenario.signature()


def _wants_refinement(schedule: Schedule) -> bool:
    # Baseline/Redis orders are the canonical 1F1B already; the
    # interlaced schedule is a rigid synchronous design (Figure 15b)
    # with nothing flexible to reorder.  The Vocabulary Parallelism
    # schedules profit from the profiling-style refinement; the V-Half
    # family additionally allows F/B reordering (zero-bubble design).
    return schedule.vocab_algorithm is not None or schedule.has_weight_passes


def _refine_mode(schedule: Schedule) -> str:
    return "zero-bubble" if schedule.has_weight_passes else "strict"


def _compile_cached(schedule: Schedule, runtime: RuntimeModel):
    """Compiled graph for ``schedule``, re-bound from the structural cache.

    Keyed on :meth:`~repro.scheduling.schedule.Schedule.structure_key`:
    the first request lowers the graph, later requests for the same
    structure (any runtime binding) reuse the lowering — and its cached
    topological order — via :meth:`~repro.sim.compiled.CompiledGraph.rebind`.
    """
    key = schedule.structure_key()
    cached = _cache_get(_GRAPH_CACHE, "graph", key)
    if cached is not None:
        return cached.rebind(runtime, schedule=schedule)
    graph = compile_schedule(schedule, runtime)
    _cache_put(_GRAPH_CACHE, "graph", key, graph, _GRAPH_CACHE_LIMIT)
    return graph


def compiled_graph_for(schedule: Schedule, runtime):
    """Public handle on the structural compiled-graph cache.

    Returns a :class:`~repro.sim.compiled.CompiledGraph` for
    ``schedule`` bound to ``runtime`` — re-lowering only on the first
    request per :meth:`~repro.scheduling.schedule.Schedule.structure_key`.
    The binding is always the caller's: a hit is re-priced through
    :meth:`~repro.sim.compiled.CompiledGraph.rebind`, so a graph cached
    under one runtime (a homogeneous binding, say) is never served
    with its old durations to a different one (a cluster scenario).
    """
    return _compile_cached(schedule, runtime)


def build_schedule(
    method: str,
    setup: SimulationSetup,
    refine: bool = True,
    scenario=None,
) -> Schedule:
    """Generate (and optionally order-refine) the schedule for a method.

    ``scenario`` (a :class:`~repro.scenarios.cluster.ClusterScenario`)
    perturbs the runtime the refinement pass prices against — a
    straggler-aware refinement can legitimately choose a different
    order.  ``setup`` is the nominal setup; the scenario transform is
    applied here.

    With ``refine`` the result is memoized process-wide on (method,
    setup, scenario signature, engine) — refinement is a pure function
    of the schedule and its full runtime binding — and hits return a
    copy, as :func:`generate_method_schedule` does.  The planner's
    cold path refines through :func:`_simulate` instead and never
    touches this memo.
    """
    engine = simulation_engine()
    key = (method, setup, _scenario_signature(scenario), engine)
    if refine:
        cached = _cache_get(_REFINED_CACHE, "refined", key)
        if cached is not None:
            return cached.copy()
    bound = _scenario_setup(setup, scenario)
    schedule = generate_method_schedule(method, bound)
    if refine and _wants_refinement(schedule):
        runtime = _scenario_runtime(bound, schedule, scenario)
        if engine == "reference":
            schedule = refine_schedule_order(
                schedule, runtime, mode=_refine_mode(schedule)
            )
        else:
            schedule, _, _ = _compile_cached(schedule, runtime).refine(
                mode=_refine_mode(schedule)
            )
    if refine:
        _cache_put(_REFINED_CACHE, "refined", key, schedule.copy(), _REFINED_CACHE_LIMIT)
    return schedule


def robust_nominal(method: str, setup: SimulationSetup, scenario, refine: bool, build):
    """The seed-independent half of
    :func:`~repro.scenarios.perturb.method_robustness`, memoized.

    ``build()`` makes it on a miss: the method's scenario-bound graph,
    its nominal time and bubble fraction, and which slots jitter.  It
    is keyed on (method, nominal setup, scenario signature, refine,
    engine) — everything the binding depends on, and not the Monte
    Carlo seed or sample count — so a warm robust plan under any seed
    re-binds and re-sweeps nothing.  Entries are never mutated by their
    readers.
    """
    key = (method, setup, _scenario_signature(scenario), refine, simulation_engine())
    value = _cache_get(_ROBUST_CACHE, "robust", key)
    if value is None:
        value = build()
        _cache_put(_ROBUST_CACHE, "robust", key, value, _ROBUST_CACHE_LIMIT)
    return value


def _simulate(
    schedule: Schedule, setup: SimulationSetup, refine: bool, scenario=None
) -> tuple[Schedule, ExecutionResult]:
    """Refine (optionally) and execute in-order, sharing one compiled graph.

    Under the compiled engine the schedule is lowered once.  Refinement
    runs the dataflow simulation on that graph and takes the refined
    schedule's in-order result from the same run; the original order is
    swept once, for the zero-bubble memory caps and the before/after
    check.  The result returned is the winner's, so metrics collection
    executes nothing again — where the pre-compiled flow executed the
    schedule up to five times from scratch.  The reference engine keeps
    the original execute-from-scratch behaviour for oracle comparisons.
    ``setup`` must already be the scenario setup when ``scenario`` is
    given (callers go through :func:`_scenario_setup`).
    """
    runtime = _scenario_runtime(setup, schedule, scenario)
    wants_refine = refine and _wants_refinement(schedule)
    if simulation_engine() == "reference":
        if wants_refine:
            schedule = refine_schedule_order(
                schedule, runtime, mode=_refine_mode(schedule)
            )
            runtime = _scenario_runtime(setup, schedule, scenario)
        return schedule, execute_schedule(schedule, runtime)
    graph = _compile_cached(schedule, runtime)
    if wants_refine:
        schedule, result, _ = graph.refine(mode=_refine_mode(schedule))
        return schedule, result
    return schedule, graph.execute()


def _metrics_from(
    method: str,
    model: ModelConfig,
    parallel: ParallelConfig,
    setup: SimulationSetup,
    memory_model: MemoryModel | None,
    result: ExecutionResult,
) -> MethodMetrics:
    """Assemble :class:`MethodMetrics` from one execution result."""
    report = memory_report(result, setup, memory_model)
    return MethodMetrics(
        method=method,
        mfu=mfu(model, parallel, setup.hardware, result.iteration_time),
        iteration_time=result.iteration_time,
        peak_memory_gb=report.peak / GiB,
        per_device_peak_gb=[b / GiB for b in report.per_device_peak],
        memory_spread_gb=report.spread / GiB,
        mean_bubble=result.mean_bubble_fraction(),
        oom=not report.fits(setup.hardware.memory_bytes),
    )


def run_method_bindings(
    method: str,
    model: ModelConfig,
    parallel: ParallelConfig,
    setups: list[SimulationSetup],
    memory_model: MemoryModel | None = None,
    refine: bool = True,
    scenario=None,
) -> list[MethodMetrics]:
    """Simulate one method under many runtime bindings in one batch.

    All ``setups`` must share ``model`` and ``parallel`` and differ only
    in their runtime binding (hardware, efficiency, ``pass_overhead``).
    Bindings whose generated schedules share a
    :meth:`~repro.scheduling.schedule.Schedule.structure_key` are priced
    through one compiled graph and executed together with
    :meth:`~repro.sim.compiled.CompiledGraph.execute_many`.  Bindings
    that want order refinement fall back to :func:`run_method` — the
    refinement's work-conserving run is a stateful per-binding
    simulation that cannot be batched — as does the reference engine.
    ``scenario`` applies one cluster scenario to every binding
    (nominal ``setups``; transformed here).
    """
    for setup in setups:
        if setup.model != model or setup.parallel != parallel:
            raise ValueError(
                "run_method_bindings requires every setup to share the "
                "model and parallel configuration; only the runtime "
                "binding may differ"
            )
    metrics: list[MethodMetrics | None] = [None] * len(setups)
    bound_setups = [_scenario_setup(setup, scenario) for setup in setups]
    schedules = [
        generate_method_schedule(method, setup) for setup in bound_setups
    ]
    batchable: dict[tuple, list[int]] = {}
    for index, schedule in enumerate(schedules):
        if (refine and _wants_refinement(schedule)) or (
            simulation_engine() == "reference"
        ):
            metrics[index] = run_method(
                method,
                model,
                parallel,
                setup=setups[index],
                memory_model=memory_model,
                refine=refine,
                scenario=scenario,
            )
        else:
            batchable.setdefault(schedule.structure_key(), []).append(index)
    for indices in batchable.values():
        first = indices[0]
        runtimes = [
            _scenario_runtime(bound_setups[i], schedules[i], scenario)
            for i in indices
        ]
        graph = _compile_cached(schedules[first], runtimes[0])
        results = graph.execute_bindings(runtimes)
        for i, result in zip(indices, results):
            metrics[i] = _metrics_from(
                method, model, parallel, bound_setups[i], memory_model, result
            )
    return metrics  # type: ignore[return-value]


def run_method(
    method: str,
    model: ModelConfig,
    parallel: ParallelConfig,
    setup: SimulationSetup | None = None,
    memory_model: MemoryModel | None = None,
    refine: bool = True,
    sim_cache: dict | None = None,
    scenario=None,
) -> MethodMetrics:
    """Simulate one method end-to-end and collect its metrics.

    ``sim_cache`` (any mutable mapping) deduplicates structurally
    identical candidates: when two methods generate schedules with equal
    :meth:`~repro.scheduling.schedule.Schedule.structure_key` — e.g.
    Redis degenerating to the baseline layout on a small vocabulary —
    the second simulation is skipped and the stored metrics are reused.
    Callers must use one cache per (setup, memory_model) pairing; the
    planner's top-k loop does exactly that.

    ``scenario`` (a :class:`~repro.scenarios.cluster.ClusterScenario`)
    re-prices the run for a non-ideal cluster.  The scenario's
    signature is part of the ``sim_cache`` key: structurally identical
    schedules priced under *different* scenarios never share metrics,
    so a homogeneous result cannot be served for a perturbed cluster.
    """
    setup = _scenario_setup(setup or SimulationSetup(model, parallel), scenario)
    schedule = generate_method_schedule(method, setup)
    key = (
        schedule.structure_key(),
        bool(refine),
        _scenario_signature(scenario),
    )
    if sim_cache is not None:
        cached = sim_cache.get(key)
        if cached is not None:
            return dataclasses.replace(
                cached,
                method=method,
                per_device_peak_gb=list(cached.per_device_peak_gb),
            )
    schedule, result = _simulate(schedule, setup, refine, scenario)
    metrics = _metrics_from(method, model, parallel, setup, memory_model, result)
    if sim_cache is not None:
        # Store a clone, not the returned object: a caller mutating its
        # result (per_device_peak_gb is a plain list) must not poison
        # later cache hits.
        sim_cache[key] = dataclasses.replace(
            metrics, per_device_peak_gb=list(metrics.per_device_peak_gb)
        )
    return metrics


def vocab_scaling_factor(
    model: ModelConfig,
    pipeline_size: int,
    layer: str,
    algorithm: int | None = None,
) -> float:
    """Table 3's scaling factor relative to linear scaling, in [0, ~1].

    ``layer`` is ``"output"`` (requires ``algorithm``) or ``"input"``.
    The reference is the *unpartitioned* layer's time (the "original
    throughput"); ideal linear scaling would make the per-device
    partitioned time exactly ``1/p`` of it.
    """
    sharded = PassTimings(
        SimulationSetup(model, ParallelConfig(pipeline_size=pipeline_size))
    )
    full = PassTimings(SimulationSetup(model, ParallelConfig(pipeline_size=1)))
    if layer == "output":
        if algorithm not in (1, 2):
            raise ValueError("output scaling requires algorithm 1 or 2")
        per_device = sharded.s_pass_time(algorithm) + sharded.t_pass_time(algorithm)
        reference = full.full_output_forward_time() + full.full_output_backward_time()
    elif layer == "input":
        per_device = (
            sharded.partitioned_input_forward_time()
            + sharded.partitioned_input_backward_time()
        )
        reference = full.full_input_forward_time() + full.full_input_backward_time()
    else:
        raise ValueError(f"layer must be 'output' or 'input', got {layer!r}")
    return reference / (pipeline_size * per_device)
