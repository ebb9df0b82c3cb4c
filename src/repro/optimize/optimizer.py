"""``optimize``: rewrite-based schedule search beyond the named families.

:func:`optimize` is the planner's "go further" button: where
:func:`repro.planner.planner.plan` ranks the paper's fixed schedule
families, ``optimize`` starts from the best named family, lowers it
into the rewrite IR (:mod:`repro.optimize.ir`) and searches the local
rewrite space (:mod:`repro.optimize.rewrites`) with a seeded strategy
(:mod:`repro.optimize.search`), scoring every candidate against the
compiled-graph oracle.  The result is an :class:`OptimizedPlan`: the
discovered schedule, the rewrite trace that produced it, and its
verified speedup over the best named family.

Caching follows the planner's discipline exactly: results live in the
``"optimize"`` auxiliary namespace of the
:class:`~repro.planner.cache.PlanCache` under
:func:`optimize_cache_key`, which normalizes inputs the same way
:func:`~repro.planner.planner.plan_cache_key` does and folds in the
scenario signature, the cost model's *content* digest, the strategy
name, the seed and the evaluation budget — plus
:data:`OPTIMIZER_VERSION` so semantic changes invalidate stale entries.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.config import ModelConfig, ParallelConfig
from repro.costmodel.calibrate import resolve_cost_model
from repro.costmodel.hardware import A100_SXM_80G, HardwareModel
from repro.costmodel.memory import DEFAULT_MEMORY_MODEL, GiB, MemoryModel
from repro.harness.experiments import search_start
from repro.optimize.ir import ScheduleIR
from repro.optimize.rewrites import RewriteStep, default_rewrites
from repro.optimize.search import (
    STRATEGY_NAMES,
    ScoreContext,
    get_strategy,
)
from repro.planner.cache import PlanCache, config_digest
from repro.planner.planner import (
    PLANNER_VERSION,
    PlannerConstraints,
    default_plan_cache,
    plan,
)
from repro.scenarios import ClusterScenario, get_scenario
from repro.scheduling.orders import OrderTable
from repro.scheduling.schedule import Schedule
from repro.sim import SimulationSetup, simulation_engine

#: Bumped whenever optimizer semantics change (IR lowering, rewrite
#: catalog, scoring, strategy behaviour), invalidating cached plans.
OPTIMIZER_VERSION = 1

#: Default number of oracle evaluations a search may spend.
DEFAULT_BUDGET = 96


@dataclass(frozen=True)
class OptimizedPlan:
    """Outcome of one :func:`optimize` run.

    ``baseline_method``/``baseline_time`` identify the best *named*
    family and its simulator-verified iteration time; ``optimized_time``
    is the discovered schedule's verified time under the same binding,
    and ``speedup`` their ratio (> 1 means the search won).
    ``baseline_times`` carries every feasible named family's verified
    time, so "beats every named family" is checkable from the result
    alone.  ``trace`` is the rewrite sequence that produced the
    discovered schedule, in application order.
    """

    baseline_method: str
    scenario: str | None
    strategy: str
    seed: int
    budget: int
    evaluations: int
    baseline_time: float
    optimized_time: float
    baseline_times: tuple[tuple[str, float], ...]
    trace: tuple[RewriteStep, ...]
    num_microbatches: int
    token_split: int
    peak_memory_gib: float
    memory_budget_gib: float
    cache_key: str = ""
    schedule: Schedule = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def speedup(self) -> float:
        """Verified baseline / optimized iteration time."""
        return self.baseline_time / self.optimized_time

    @property
    def improved(self) -> bool:
        """Whether the search strictly beat the best named family."""
        return self.optimized_time < self.baseline_time

    def beats_all_named(self) -> bool:
        """Whether the discovered time beats *every* named family."""
        return all(self.optimized_time < t for _, t in self.baseline_times)

    def as_dict(self) -> dict:
        """JSON-ready view (the service's and CLI's response body)."""
        return {
            "baseline_method": self.baseline_method,
            "scenario": self.scenario,
            "strategy": self.strategy,
            "seed": self.seed,
            "budget": self.budget,
            "evaluations": self.evaluations,
            "baseline_time": self.baseline_time,
            "optimized_time": self.optimized_time,
            "speedup": self.speedup,
            "improved": self.improved,
            "beats_all_named": self.beats_all_named(),
            "baseline_times": [
                {"method": method, "time": time}
                for method, time in self.baseline_times
            ],
            "trace": [step.as_dict() for step in self.trace],
            "num_microbatches": self.num_microbatches,
            "token_split": self.token_split,
            "peak_memory_gib": self.peak_memory_gib,
            "memory_budget_gib": self.memory_budget_gib,
            "cache_key": self.cache_key,
        }

    def render(self) -> str:
        """ASCII report: the verified comparison plus the rewrite trace."""
        lines = [
            (
                f"optimize — start {self.baseline_method}"
                + (f", scenario {self.scenario}" if self.scenario else "")
                + f", strategy {self.strategy}, seed {self.seed}"
            ),
            (
                f"  baseline (best named family): {self.baseline_time:.6f}s"
            ),
            (
                f"  optimized: {self.optimized_time:.6f}s "
                f"(speedup {self.speedup:.4f}x, "
                f"{self.evaluations} candidates scored)"
            ),
            (
                f"  peak memory {self.peak_memory_gib:.2f} GiB "
                f"(budget {self.memory_budget_gib:.4g} GiB), "
                f"m={self.num_microbatches}"
                + (
                    f" (token split {self.token_split})"
                    if self.token_split > 1
                    else ""
                )
            ),
        ]
        if self.trace:
            lines.append("  rewrite trace:")
            for i, step in enumerate(self.trace, start=1):
                device = "all" if step.device < 0 else str(step.device)
                lines.append(
                    f"    {i:2d}. [{step.rule}] dev {device}: {step.description}"
                )
        else:
            lines.append("  rewrite trace: (empty — no improving rewrite found)")
        lines.append("  named-family times:")
        for method, time in self.baseline_times:
            marker = "<" if self.optimized_time < time else ">="
            lines.append(f"    {method:15s} {time:.6f}s  (optimized {marker})")
        return "\n".join(lines)


def _normalize(
    constraints: PlannerConstraints | None,
    scenario: ClusterScenario | str | None,
    strategy: str,
    budget: int,
) -> tuple[PlannerConstraints, ClusterScenario | None]:
    constraints = constraints or PlannerConstraints()
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if strategy not in STRATEGY_NAMES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGY_NAMES}"
        )
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    return constraints, scenario


def _key_inputs(
    model: ModelConfig,
    parallel: ParallelConfig,
    constraints: PlannerConstraints,
    hardware: HardwareModel,
    memory_model: MemoryModel | None,
    pass_overhead: float | None,
    scenario: ClusterScenario | None,
) -> tuple:
    """Every normalized input of a search except strategy, seed and
    budget: what its start state is a function of."""
    memory_model = memory_model or DEFAULT_MEMORY_MODEL
    scenario_sig = None if scenario is None else scenario.signature()
    cost_model_digest = resolve_cost_model(constraints.cost_model).digest()
    return (
        model, parallel, constraints, hardware, memory_model,
        pass_overhead, scenario_sig, cost_model_digest,
    )


def optimize_cache_key(
    model: ModelConfig,
    parallel: ParallelConfig,
    constraints: PlannerConstraints | None = None,
    *,
    hardware: HardwareModel = A100_SXM_80G,
    memory_model: MemoryModel | None = None,
    pass_overhead: float | None = None,
    scenario: ClusterScenario | str | None = None,
    strategy: str = "greedy",
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> str:
    """The digest :func:`optimize` stores its result under.

    Public for the same reason as
    :func:`~repro.planner.planner.plan_cache_key`: serving-layer cache
    tiers address an optimized plan without computing it.
    """
    constraints, scenario = _normalize(constraints, scenario, strategy, budget)
    inputs = _key_inputs(
        model, parallel, constraints, hardware, memory_model, pass_overhead, scenario
    )
    return config_digest(
        "optimize", *inputs, strategy, seed, budget,
        OPTIMIZER_VERSION, PLANNER_VERSION,
    )


def optimize(
    model: ModelConfig,
    parallel: ParallelConfig,
    constraints: PlannerConstraints | None = None,
    *,
    hardware: HardwareModel = A100_SXM_80G,
    memory_model: MemoryModel | None = None,
    cache: PlanCache | None = None,
    pass_overhead: float | None = None,
    scenario: ClusterScenario | str | None = None,
    strategy: str = "greedy",
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> OptimizedPlan:
    """Search the rewrite space for a schedule beating every named family.

    Runs :func:`~repro.planner.planner.plan` with full verification
    (every feasible family simulated, so the baseline comparison is
    oracle-verified, not estimated), lowers the winner into the rewrite
    IR and spends ``budget`` oracle evaluations on the chosen seeded
    strategy.  Deterministic for fixed inputs: the plan, the site
    enumeration and every random decision (drawn from
    ``random.Random(seed)``) are pure functions of the arguments, and
    the oracle replay is bit-identical across the NumPy and pure-Python
    engines.

    ``constraints`` are respected throughout: the memory budget bounds
    every candidate's simulated peak (including BPipe handoff
    adjustments), ``methods`` restricts the starting families, and the
    cost model prices the underlying plan (its content digest keys the
    cache entry).
    """
    constraints, scenario = _normalize(constraints, scenario, strategy, budget)
    memory_model = memory_model or DEFAULT_MEMORY_MODEL
    cache = cache if cache is not None else default_plan_cache()
    key = optimize_cache_key(
        model, parallel, constraints, hardware=hardware,
        memory_model=memory_model, pass_overhead=pass_overhead,
        scenario=scenario, strategy=strategy, seed=seed, budget=budget,
    )
    cached = cache.get_aux("optimize", key)
    if cached is not None:
        return cached

    # Verify *every* feasible named family with the simulator — the
    # "beats every named family" claim must rest on oracle times.
    plan_constraints = dataclasses.replace(constraints, simulate_top_k=None)
    plans = plan(
        model, parallel, plan_constraints, hardware=hardware,
        memory_model=memory_model, cache=cache, pass_overhead=pass_overhead,
        scenario=scenario,
    )
    best = plans.best
    baseline_times = tuple(
        (c.method, c.iteration_time)
        for c in plans.ranked
        if c.iteration_time is not None
    )

    setup_kwargs = {} if pass_overhead is None else {"pass_overhead": pass_overhead}
    setup = SimulationSetup(model, parallel, hardware=hardware, **setup_kwargs)

    def context() -> ScoreContext:
        return ScoreContext(
            setup,
            scenario=scenario,
            budget_bytes=plans.memory_budget_gib * GiB,
            memory_model=memory_model,
        )

    def score_start():
        schedule = plans.build_best_schedule(hardware=hardware)
        start = context().score(ScheduleIR.from_schedule(schedule), ())
        return None if start is None else dataclasses.replace(start, children={})

    # The scored start (with the sites it offers and its token-split
    # child, both memoized on it) depends on neither strategy, seed nor
    # budget: every seed searched from one structure shares it.  The
    # search still counts the start as its first evaluation and the
    # child as one evaluation per use, exactly as when it scores them.
    inputs = _key_inputs(
        model, parallel, constraints, hardware, memory_model, pass_overhead, scenario
    )
    start_key = config_digest(
        "optimize-start", *inputs, OPTIMIZER_VERSION, PLANNER_VERSION
    )
    start = search_start((start_key, simulation_engine()), score_start)
    if start is None:  # pragma: no cover - plan() already verified it
        raise RuntimeError(
            f"best named family {best.method!r} failed oracle verification"
        )
    ctx = context()
    ctx.adopt(start)
    final = get_strategy(strategy).run(
        ctx, default_rewrites(), start, budget=budget, seed=seed
    )

    table = final.schedule.order_table()
    result = OptimizedPlan(
        baseline_method=best.method,
        scenario=None if scenario is None else scenario.name,
        strategy=strategy,
        seed=seed,
        budget=budget,
        evaluations=ctx.evaluations,
        baseline_time=start.time,
        optimized_time=final.time,
        baseline_times=baseline_times,
        trace=final.trace,
        num_microbatches=final.ir.num_microbatches,
        token_split=final.ir.split,
        peak_memory_gib=final.peak_bytes / GiB,
        memory_budget_gib=plans.memory_budget_gib,
        cache_key=key,
        # The cached result keeps the integer orders only: the passes
        # and encodings memoized on the search's schedule are dead
        # weight in a long-lived cache entry, and are rebuilt on read.
        schedule=dataclasses.replace(
            final.schedule,
            device_orders=OrderTable(table.streams, table.codes),
            metadata=dict(final.schedule.metadata),
        ),
    )
    cache.put_aux("optimize", key, result)
    return result
