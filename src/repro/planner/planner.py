"""The schedule planner: enumerate → price → verify → rank.

Given an arbitrary model/hardware description, :func:`plan` chooses a
pipeline schedule the way the paper's evaluation would: it enumerates
every implemented schedule family (1F1B baseline, Redis layer
redistribution, Vocab-1F1B with Algorithm 1/2, the interlaced
pipeline, and the V-Half family), prices each candidate with the
analytic cost model (:mod:`repro.planner.estimate`), simulates the
most promising candidates with the discrete-event executor
(:mod:`repro.sim` via :func:`repro.harness.experiments.run_method`),
and ranks by iteration time subject to a per-device peak-memory
budget.

The two-tier design matters: analytic pricing is ~100× cheaper than a
full simulation, so the planner can afford to scan the whole family
space (and, through :mod:`repro.planner.sweep`, whole hardware grids)
while still grounding its final answer in measured schedule timings —
the estimate's vocab-1 vs vocab-2 near-ties are resolved by the
simulator, never by the estimate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.config import ModelConfig, ParallelConfig
from repro.costmodel.calibrate import CostModel, resolve_cost_model
from repro.costmodel.hardware import A100_SXM_80G, HardwareModel
from repro.costmodel.memory import DEFAULT_MEMORY_MODEL, GiB, MemoryModel
from repro.costmodel.mfu import mfu
from repro.harness.experiments import (
    KNOWN_METHODS,
    build_schedule,
    generate_method_schedule,
    run_method,
)
from repro.planner.cache import PlanCache, config_digest
from repro.planner.estimate import estimate_method, infeasibility_reason
from repro.scenarios import (
    ClusterScenario,
    RobustnessObjective,
    RobustnessStats,
    get_scenario,
    method_robustness,
)
from repro.scenarios.perturb import DrawStream
from repro.scheduling import Schedule
from repro.sim import SimulationSetup

#: Bumped whenever ranking semantics change, to invalidate stale caches.
#: 2: per-method estimate/metrics entries (budget-independent, keyed on
#: the structural signature) and the ``pass_overhead`` binding knob.
#: 3: cluster scenarios — every whole-plan and metrics digest carries
#: the scenario signature (``None`` for the nominal cluster), and the
#: robustness ranking mode adds Monte Carlo aux entries.
#: 4: incremental what-if queries (the ``whatif`` aux namespace) and
#: the ``jitter_devices`` scenario field, which changes the shape of
#: every scenario signature.
#: 5: pluggable cost models — the active profile's content digest is
#: part of every whole-plan and estimate digest, and trust-gated
#: verification can shrink the simulated set.
PLANNER_VERSION = 5

#: Safety factor applied to a profile's reported family-level error
#: bound before it may prove a candidate out of the simulated set: a
#: candidate is skipped only when its error-inflated estimate *lower*
#: bound still exceeds the leader's error-inflated *upper* bound.
TRUST_SAFETY = 2.0

#: Module-level default cache used when ``plan(..., cache=None)``.
_DEFAULT_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide cache :func:`plan` uses by default."""
    return _DEFAULT_CACHE


def clear_plan_cache() -> None:
    """Empty the process-wide default cache."""
    _DEFAULT_CACHE.clear()


@dataclass(frozen=True)
class PlannerConstraints:
    """What the planner must respect and how hard it may work.

    Attributes
    ----------
    memory_budget_gib:
        Per-device peak-memory budget in GiB; ``None`` uses the
        hardware model's HBM capacity (80 GiB on the paper's A100s).
    methods:
        Restrict the search to these schedule families; ``None``
        considers every implemented method
        (:data:`repro.harness.experiments.KNOWN_METHODS`).
    simulate_top_k:
        How many of the best-estimated candidates to verify with the
        discrete-event simulator.  ``None`` simulates every feasible
        candidate; ``0`` ranks purely on the analytic estimate.
    estimate_margin:
        Candidates whose *estimated* peak exceeds the budget by up to
        this factor are always simulated (even beyond ``simulate_top_k``)
        rather than rejected outright, since the analytic memory model
        is only accurate to ~1 GiB; their fate is decided by the
        simulated peak.  Candidates beyond the margin are rejected on
        the estimate, as are borderline ones when simulation is
        disabled (``simulate_top_k=0``).
    refine:
        Whether simulated candidates get the work-conserving order
        refinement pass (the paper's §6.1 profiling step).
    cost_model:
        Name of the cost model pricing the analytic estimates —
        ``None``/``"analytic"`` for the fixed analytic model
        (bit-identical to the historical planner), or a registered /
        built-in :class:`~repro.costmodel.calibrate.HardwareProfile`
        name (e.g. ``"a100-sim"``).  A *calibrated* profile
        additionally enables trust-gated verification: candidates whose
        error-inflated estimates provably lose to the leader are not
        simulated (see :data:`TRUST_SAFETY`); uncalibrated or stale
        profiles fall back to full top-k verification.
    """

    memory_budget_gib: float | None = None
    methods: tuple[str, ...] | None = None
    simulate_top_k: int | None = 3
    estimate_margin: float = 1.15
    refine: bool = True
    cost_model: str | None = None

    def __post_init__(self) -> None:
        if self.cost_model is not None and not isinstance(self.cost_model, str):
            raise ValueError(
                "cost_model must be a registered cost-model name or None, "
                f"got {self.cost_model!r}"
            )
        if self.cost_model == "analytic":
            # Normalize the two spellings of the default model so they
            # share one cache-key universe.
            object.__setattr__(self, "cost_model", None)
        # Written so NaN fails: it compares false against every bound,
        # and a NaN budget would reject every simulated candidate while
        # ranking the estimate-only ones as feasible.
        if self.memory_budget_gib is not None and not (
            0 < self.memory_budget_gib < math.inf
        ):
            raise ValueError(
                "memory_budget_gib must be positive and finite, "
                f"got {self.memory_budget_gib}"
            )
        if self.simulate_top_k is not None and self.simulate_top_k < 0:
            raise ValueError(
                f"simulate_top_k must be >= 0 or None, got {self.simulate_top_k}"
            )
        if not 1.0 <= self.estimate_margin < math.inf:
            raise ValueError(
                f"estimate_margin must be finite and >= 1, got {self.estimate_margin}"
            )
        if self.methods is not None:
            if not self.methods:
                raise ValueError(
                    "methods must name at least one method; use None for all"
                )
            for method in self.methods:
                if method not in KNOWN_METHODS:
                    raise ValueError(
                        f"unknown method {method!r}; expected one of {KNOWN_METHODS}"
                    )
            if len(set(self.methods)) != len(self.methods):
                repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
                raise ValueError(f"methods lists {', '.join(repeated)} more than once")


@dataclass(frozen=True)
class PlanCandidate:
    """One (schedule family, config) pairing with its price.

    ``source`` records how the ranking numbers were obtained:
    ``"sim"`` (discrete-event simulation), ``"estimate"`` (analytic
    cost model only) or ``"structural"`` (the generator cannot even
    instantiate this family on the config).  ``iteration_time`` /
    ``peak_memory_gb`` hold the ranking values from that source;
    the ``estimated_*`` fields always carry the analytic numbers when
    they were computed.
    """

    method: str
    feasible: bool
    source: str
    reason: str = ""
    iteration_time: float | None = None
    peak_memory_gb: float | None = None
    mfu: float | None = None
    estimated_time: float | None = None
    estimated_peak_gb: float | None = None
    #: Monte Carlo ranking value (the objective's quantile of the
    #: jittered iteration time) and the full statistics behind it;
    #: ``None`` unless the plan ran in robustness mode.
    robust_time: float | None = None
    robust_stats: RobustnessStats | None = None

    @property
    def simulated(self) -> bool:
        return self.source == "sim"


class NoFeasibleSchedule(ValueError):
    """No schedule family fits the config; ``rejected`` holds each
    considered family's ``(method, reason)``."""

    def __init__(self, rejected: tuple[tuple[str, str], ...]) -> None:
        super().__init__(
            f"no feasible schedule for this config; rejected: {list(rejected)}"
        )
        self.rejected = rejected

    def __reduce__(self):
        # Pickled across the service's process pool by its argument.
        return type(self), (self.rejected,)


@dataclass
class RankedPlans:
    """Outcome of one :func:`plan` call.

    ``ranked`` lists feasible candidates from fastest to slowest
    (simulator-verified candidates rank ahead of estimate-only ones);
    ``rejected`` lists candidates that are structurally impossible or
    blew the memory budget, each carrying its reason.  The candidate
    sequences are tuples because plans are shared through the cache:
    a hit returns the stored object, which must stay immutable.
    """

    model: ModelConfig
    parallel: ParallelConfig
    constraints: PlannerConstraints
    memory_budget_gib: float
    ranked: tuple[PlanCandidate, ...] = ()
    rejected: tuple[PlanCandidate, ...] = ()
    cache_key: str = ""
    #: The pass-overhead binding the plan was priced under (``None`` =
    #: the SimulationSetup default).
    pass_overhead: float | None = None
    #: Cluster scenario the plan was priced under (``None`` = the
    #: nominal homogeneous cluster) and, when Monte Carlo ranking was
    #: requested, the robustness objective.
    scenario: ClusterScenario | None = None
    robustness: RobustnessObjective | None = None
    #: Cost model that priced the estimates (``"analytic"`` unless the
    #: constraints named a profile), whether trust gating was active,
    #: and which candidates it proved out of the simulated set.
    cost_model: str = "analytic"
    trust_gated: bool = False
    trust_skipped: tuple[str, ...] = ()

    @property
    def best(self) -> PlanCandidate:
        """The top-ranked feasible candidate; raises
        :class:`NoFeasibleSchedule` when there is none."""
        if not self.ranked:
            raise NoFeasibleSchedule(
                tuple((c.method, c.reason) for c in self.rejected)
            )
        return self.ranked[0]

    @property
    def methods_considered(self) -> list[str]:
        return [c.method for c in self.ranked] + [c.method for c in self.rejected]

    def candidate(self, method: str) -> PlanCandidate:
        """Look up one method's candidate, ranked or rejected."""
        for c in self.ranked + self.rejected:
            if c.method == method:
                return c
        raise KeyError(f"method {method!r} was not considered")

    def build_best_schedule(
        self, hardware: HardwareModel = A100_SXM_80G
    ) -> Schedule:
        """Materialize the winning schedule (for execution or tracing)."""
        kwargs = {}
        if self.pass_overhead is not None:
            kwargs["pass_overhead"] = self.pass_overhead
        setup = SimulationSetup(
            self.model, self.parallel, hardware=hardware, **kwargs
        )
        return build_schedule(
            self.best.method,
            setup,
            refine=self.constraints.refine,
            scenario=self.scenario,
        )

    def render(self) -> str:
        """ASCII report in the style of the paper-table runners."""
        from repro.harness.tables import format_table

        robust = self.robustness is not None
        rows: list[list[object]] = []
        for rank, c in enumerate(self.ranked, start=1):
            row = [
                rank,
                c.method,
                c.source,
                None if c.iteration_time is None else round(c.iteration_time, 3),
                None if c.mfu is None else round(100.0 * c.mfu, 2),
                None if c.peak_memory_gb is None else round(c.peak_memory_gb, 2),
            ]
            if robust:
                # Estimate-only candidates carry no Monte Carlo stats;
                # a dash, not format_table's None → "OOM" rendering.
                row.append(
                    "-" if c.robust_time is None else round(c.robust_time, 3)
                )
            rows.append(row)
        title = (
            f"Schedule plan — {self.parallel.pipeline_size} devices, "
            f"vocab {self.model.vocab_size // 1024}k, "
            f"seq {self.model.seq_length}, "
            f"m={self.parallel.num_microbatches}, "
            f"budget {self.memory_budget_gib:.4g} GiB"
        )
        if self.scenario is not None:
            title += f", scenario {self.scenario.name}"
        if self.cost_model != "analytic":
            title += f", cost model {self.cost_model}"
        headers = ["rank", "method", "source", "time(s)", "MFU%", "peakGB"]
        if robust:
            headers.append(f"{self.robustness.rank_by}(s)")
        text = format_table(headers, rows, title=title)
        if self.trust_skipped:
            text += (
                "\ntrust-gated: skipped simulating "
                + ", ".join(self.trust_skipped)
                + " (estimate margin exceeds calibrated model error)"
            )
        if self.rejected:
            lines = [text, "rejected:"]
            for c in self.rejected:
                lines.append(f"  {c.method:15s} {c.reason}")
            text = "\n".join(lines)
        return text


def _budget_gib(
    constraints: PlannerConstraints, hardware: HardwareModel
) -> float:
    if constraints.memory_budget_gib is not None:
        return constraints.memory_budget_gib
    return hardware.memory_bytes / GiB


def _rejected_on_estimate(
    method: str,
    estimated_time: float,
    estimated_peak_gb: float,
    budget_gib: float,
) -> PlanCandidate:
    """Rejection record for a candidate whose *estimate* blew the budget."""
    return PlanCandidate(
        method=method,
        feasible=False,
        source="estimate",
        reason=(
            f"estimated peak {estimated_peak_gb:.1f} GiB exceeds "
            f"budget {budget_gib:.1f} GiB"
        ),
        estimated_time=estimated_time,
        estimated_peak_gb=estimated_peak_gb,
    )


def _estimate_digest(
    method: str,
    model: ModelConfig,
    parallel: ParallelConfig,
    hardware: HardwareModel,
    memory_model: MemoryModel,
    pass_overhead: float | None,
    cost_model_digest: str,
) -> str:
    """Budget-independent key of one method's analytic estimate.

    Excludes the planner constraints on purpose: grid points that share
    a schedule structure and runtime binding but differ in memory
    budget (or top-k effort) resolve to the same entry, so a budget
    sweep prices each method exactly once.  ``hardware`` is the setup's
    *effective* hardware — a scenario's interconnect tiers land here,
    while its device speeds and jitter never enter the analytic
    estimate, so scenarios that only differ in those deliberately share
    estimate entries.  The cost-model *content* digest is part of the
    key: two profiles (even two fits of the same SKU) never share
    priced estimates.
    """
    return config_digest(
        "estimate", method, model, parallel, hardware, memory_model,
        pass_overhead, cost_model_digest, PLANNER_VERSION,
    )


def _metrics_digest(
    method: str,
    structure_signature: tuple,
    model: ModelConfig,
    parallel: ParallelConfig,
    hardware: HardwareModel,
    memory_model: MemoryModel,
    pass_overhead: float | None,
    refine: bool,
    scenario_signature: tuple | None = None,
) -> str:
    """Budget-independent key of one method's simulated metrics.

    Keyed on the generated schedule's runtime-independent
    :meth:`~repro.scheduling.schedule.Schedule.structure_signature`
    plus the runtime binding — everything the simulation depends on,
    and nothing the ranking-only knobs (budget, top-k) touch.  The
    scenario signature is part of the binding: metrics simulated on the
    nominal cluster are never served for a perturbed one (or between
    two different perturbations).
    """
    return config_digest(
        "metrics", method, list(map(repr, structure_signature)), model,
        parallel, hardware, memory_model, pass_overhead, refine,
        scenario_signature, PLANNER_VERSION,
    )


def _robust_digest(
    method: str,
    structure_signature: tuple,
    model: ModelConfig,
    parallel: ParallelConfig,
    hardware: HardwareModel,
    pass_overhead: float | None,
    refine: bool,
    scenario_signature: tuple | None,
    robustness: RobustnessObjective,
) -> str:
    """Budget-independent key of one method's Monte Carlo statistics."""
    return config_digest(
        "robust", method, list(map(repr, structure_signature)), model,
        parallel, hardware, pass_overhead, refine, scenario_signature,
        robustness.as_dict(), PLANNER_VERSION,
    )


def _trust_gated_indexes(
    priced: list,
    top_k: int,
    cost_model: CostModel,
    *,
    scenario_name: str | None,
    robustness: RobustnessObjective | None,
    budget_gib: float,
) -> frozenset[int]:
    """Indexes within the top-k whose simulation a calibrated model skips.

    A candidate may be skipped only when the proof is airtight under
    the profile's own accuracy report: its estimate deflated by
    :data:`TRUST_SAFETY` × its family's max relative error still
    exceeds the leader's estimate inflated the same way, so the
    simulator could not rank it first.  Everything else falls back to
    today's behaviour — uncalibrated/stale profiles (no error bounds),
    scenarios the report does not cover, Monte Carlo ranking (the
    quantile is not bounded by nominal error), memory-borderline
    candidates (their fate is the simulated peak, not the time), and
    the leader itself (something must always be verified).
    """
    if top_k <= 1 or robustness is not None or not cost_model.calibrated:
        return frozenset()
    scenario_key = scenario_name  # report rows: "nominal" or the scenario name
    leader = priced[0][0]
    leader_error = cost_model.error_bound(leader.method, scenario_key)
    if leader_error is None or leader.estimated_peak_gb > budget_gib:
        return frozenset()
    leader_upper = leader.estimated_time * (1.0 + TRUST_SAFETY * leader_error)
    gated = set()
    for index in range(1, top_k):
        candidate = priced[index][0]
        if candidate.estimated_peak_gb > budget_gib:
            continue
        error = cost_model.error_bound(candidate.method, scenario_key)
        if error is None:
            continue
        lower = candidate.estimated_time * (1.0 - TRUST_SAFETY * error)
        if lower > leader_upper:
            gated.add(index)
    return frozenset(gated)


def plan_cache_key(
    model: ModelConfig,
    parallel: ParallelConfig,
    constraints: PlannerConstraints | None = None,
    *,
    hardware: HardwareModel = A100_SXM_80G,
    memory_model: MemoryModel | None = None,
    pass_overhead: float | None = None,
    scenario: ClusterScenario | str | None = None,
    robustness: RobustnessObjective | str | None = None,
) -> str:
    """The whole-plan digest :func:`plan` stores its result under.

    Public so cache *tiers* in front of the planner (the serving
    layer's in-process LRU, the disk-backed :class:`PlanCache`) can
    address an entry without planning it: the key is a pure function of
    the same inputs, normalized exactly the way :func:`plan` normalizes
    them (default constraints/memory model, scenario and robustness
    resolved by name).
    """
    constraints = constraints or PlannerConstraints()
    memory_model = memory_model or DEFAULT_MEMORY_MODEL
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if isinstance(robustness, str):
        robustness = RobustnessObjective(rank_by=robustness)
    scenario_sig = None if scenario is None else scenario.signature()
    # The *content* digest of the named profile, not just its name: a
    # re-fitted profile under the same name invalidates instead of
    # aliasing stale plans.
    cost_model_digest = resolve_cost_model(constraints.cost_model).digest()
    return config_digest(
        model, parallel, constraints, hardware, memory_model,
        pass_overhead, scenario_sig,
        None if robustness is None else robustness.as_dict(),
        cost_model_digest, PLANNER_VERSION,
    )


def plan(
    model: ModelConfig,
    parallel: ParallelConfig,
    constraints: PlannerConstraints | None = None,
    *,
    hardware: HardwareModel = A100_SXM_80G,
    memory_model: MemoryModel | None = None,
    cache: PlanCache | None = None,
    pass_overhead: float | None = None,
    scenario: ClusterScenario | str | None = None,
    robustness: RobustnessObjective | str | None = None,
) -> RankedPlans:
    """Choose a pipeline schedule for ``model`` on ``parallel`` devices.

    Deterministic for a fixed input: candidate enumeration order,
    analytic pricing, simulation and all tie-breaks (estimated time,
    then method name) are pure functions of the arguments.  Results
    are cached in ``cache`` (default: a process-wide
    :class:`~repro.planner.cache.PlanCache`) keyed on a digest of every
    input, so a repeated call returns the stored object unchanged.

    Besides the whole-plan entry, per-method analytic estimates and
    simulated metrics are cached under **budget-independent** auxiliary
    keys (see :meth:`~repro.planner.cache.PlanCache.get_aux`): planning
    the same structure under a different memory budget re-ranks cached
    prices instead of re-estimating and re-simulating.

    ``pass_overhead`` overrides the fixed per-pass host overhead of the
    :class:`~repro.sim.SimulationSetup` binding (``None`` keeps the
    default), which is how sweeps explore overhead ablations without
    rebuilding schedule structures.

    ``scenario`` re-prices the whole plan for a non-ideal cluster — a
    :class:`~repro.scenarios.cluster.ClusterScenario` or the name of a
    registered one (``"slow-node"``, …).  Analytic estimates see the
    scenario's interconnect tiers; the top-k simulations additionally
    apply its device speeds.  ``robustness`` (a
    :class:`~repro.scenarios.perturb.RobustnessObjective`, or a
    quantile name like ``"p95"``) switches the ranking of simulated
    candidates to the chosen quantile of the scenario's seeded-jitter
    Monte Carlo instead of the nominal iteration time; it requires a
    scenario.  Every cache entry — whole-plan, metrics, Monte Carlo —
    is keyed on the scenario signature, so nominal and perturbed
    plans never share priced results.
    """
    constraints = constraints or PlannerConstraints()
    memory_model = memory_model or DEFAULT_MEMORY_MODEL
    cache = cache if cache is not None else _DEFAULT_CACHE
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if isinstance(robustness, str):
        robustness = RobustnessObjective(rank_by=robustness)
    if robustness is not None and scenario is None:
        raise ValueError(
            "robustness ranking requires a scenario (the jitter source); "
            "pass scenario='high-jitter' or another registered scenario"
        )
    scenario_sig = None if scenario is None else scenario.signature()
    key = plan_cache_key(
        model, parallel, constraints, hardware=hardware,
        memory_model=memory_model, pass_overhead=pass_overhead,
        scenario=scenario, robustness=robustness,
    )
    cached = cache.get(key)
    if cached is not None:
        return cached

    budget_gib = _budget_gib(constraints, hardware)
    budget_bytes = budget_gib * GiB
    methods = constraints.methods or KNOWN_METHODS
    cost_model = resolve_cost_model(constraints.cost_model)
    cost_model_digest = cost_model.digest()
    setup_kwargs = {} if pass_overhead is None else {"pass_overhead": pass_overhead}
    setup = SimulationSetup(model, parallel, hardware=hardware, **setup_kwargs)
    # The scenario's interconnect lowered into the setup; device speeds
    # and jitter apply later, at runtime-binding / Monte Carlo time.
    priced_setup = setup if scenario is None else scenario.setup_for(setup)

    rejected: list[PlanCandidate] = []
    priced: list[tuple[PlanCandidate, object]] = []
    for method in methods:
        reason = infeasibility_reason(method, model, parallel)
        if reason is not None:
            rejected.append(
                PlanCandidate(
                    method=method, feasible=False, source="structural", reason=reason
                )
            )
            continue
        est_key = _estimate_digest(
            method, model, parallel, priced_setup.hardware, memory_model,
            pass_overhead, cost_model_digest,
        )
        est = cache.get_aux("estimate", est_key)
        if est is None:
            est = estimate_method(method, priced_setup, memory_model, cost_model)
            cache.put_aux("estimate", est_key, est)
        candidate = PlanCandidate(
            method=method,
            feasible=True,
            source="estimate",
            iteration_time=est.iteration_time,
            peak_memory_gb=est.peak_bytes / GiB,
            mfu=mfu(model, parallel, hardware, est.iteration_time),
            estimated_time=est.iteration_time,
            estimated_peak_gb=est.peak_bytes / GiB,
        )
        if est.peak_bytes > budget_bytes * constraints.estimate_margin:
            rejected.append(
                _rejected_on_estimate(
                    method, est.iteration_time, est.peak_bytes / GiB, budget_gib
                )
            )
            continue
        priced.append((candidate, est))

    # Deterministic order: estimated time, then name as tie-break.
    priced.sort(key=lambda item: (item[0].estimated_time, item[0].method))
    top_k = (
        len(priced)
        if constraints.simulate_top_k is None
        else min(constraints.simulate_top_k, len(priced))
    )
    gated = _trust_gated_indexes(
        priced, top_k, cost_model,
        scenario_name=None if scenario is None else scenario.name,
        robustness=robustness,
        budget_gib=budget_gib,
    )

    def needs_simulation(index: int, candidate: PlanCandidate) -> bool:
        if top_k == 0:
            return False
        if index < top_k:
            # Trust-gated shrink: a calibrated profile's error bound
            # already proved this candidate loses to the leader.
            return index not in gated
        # Borderline memory (over budget but within the margin) can only
        # be settled by the simulator — the estimate is ~1 GiB accurate.
        return candidate.estimated_peak_gb > budget_gib

    simulated: list[PlanCandidate] = []
    estimated: list[PlanCandidate] = []
    # Shared across the top-k loop: candidates whose generated schedules
    # are structurally identical (equal ``Schedule.structure_key``, e.g.
    # Redis collapsing onto the baseline layout) are simulated once and
    # the metrics reused; ``run_method`` also shares one compiled graph
    # across refinement and measurement within each simulation.
    sim_cache: dict = {}
    # One jitter stream per robust ranking: every candidate reads the
    # same counter-based values, so each is drawn once (DrawStream).
    draws = None if robustness is None else DrawStream(scenario, robustness.seed)
    for index, (candidate, _) in enumerate(priced):
        if needs_simulation(index, candidate):
            signature = generate_method_schedule(
                candidate.method, priced_setup
            ).structure_signature()
            sim_key = _metrics_digest(
                candidate.method, signature, model, parallel,
                priced_setup.hardware, memory_model, pass_overhead,
                constraints.refine, scenario_sig,
            )
            metrics = cache.get_aux("metrics", sim_key)
            if metrics is None:
                metrics = run_method(
                    candidate.method,
                    model,
                    parallel,
                    setup=setup,
                    memory_model=memory_model,
                    refine=constraints.refine,
                    sim_cache=sim_cache,
                    scenario=scenario,
                )
                # Store a clone: MethodMetrics carries a mutable list.
                cache.put_aux(
                    "metrics",
                    sim_key,
                    dataclasses.replace(
                        metrics,
                        per_device_peak_gb=list(metrics.per_device_peak_gb),
                    ),
                )
            feasible = metrics.peak_memory_gb <= budget_gib
            robust_time = None
            robust_stats = None
            if robustness is not None and feasible:
                rob_key = _robust_digest(
                    candidate.method, signature, model, parallel,
                    priced_setup.hardware, pass_overhead,
                    constraints.refine, scenario_sig, robustness,
                )
                robust_stats = cache.get_aux("robust", rob_key)
                if robust_stats is None:
                    robust_stats = method_robustness(
                        candidate.method,
                        model,
                        parallel,
                        scenario,
                        setup=setup,
                        samples=robustness.samples,
                        seed=robustness.seed,
                        refine=constraints.refine,
                        _draws=draws,
                    )
                    cache.put_aux("robust", rob_key, robust_stats)
                robust_time = robust_stats.quantile_time(robustness.rank_by)
            verified = PlanCandidate(
                method=candidate.method,
                feasible=feasible,
                source="sim",
                iteration_time=metrics.iteration_time,
                peak_memory_gb=metrics.peak_memory_gb,
                mfu=metrics.mfu,
                estimated_time=candidate.estimated_time,
                estimated_peak_gb=candidate.estimated_peak_gb,
                robust_time=robust_time,
                robust_stats=robust_stats,
                reason=(
                    ""
                    if feasible
                    else (
                        f"simulated peak {metrics.peak_memory_gb:.1f} GiB exceeds "
                        f"budget {budget_gib:.1f} GiB"
                    )
                ),
            )
            (simulated if verified.feasible else rejected).append(verified)
        else:
            if candidate.estimated_peak_gb > budget_gib:
                rejected.append(
                    _rejected_on_estimate(
                        candidate.method,
                        candidate.estimated_time,
                        candidate.estimated_peak_gb,
                        budget_gib,
                    )
                )
            else:
                estimated.append(candidate)
    if draws is not None:
        draws.release()

    # Robust mode ranks simulated candidates by the Monte Carlo
    # quantile; nominal mode (and estimate-only candidates) by the
    # deterministic iteration time.  Method name breaks ties either way.
    simulated.sort(
        key=lambda c: (
            c.iteration_time if c.robust_time is None else c.robust_time,
            c.method,
        )
    )
    estimated.sort(key=lambda c: (c.iteration_time, c.method))
    plans = RankedPlans(
        model=model,
        parallel=parallel,
        constraints=constraints,
        memory_budget_gib=budget_gib,
        ranked=tuple(simulated + estimated),
        rejected=tuple(rejected),
        cache_key=key,
        pass_overhead=pass_overhead,
        scenario=scenario,
        robustness=robustness,
        cost_model=cost_model.name,
        trust_gated=bool(gated),
        trust_skipped=tuple(priced[i][0].method for i in sorted(gated)),
    )
    cache.put(key, plans)
    return plans
