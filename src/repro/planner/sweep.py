"""Parallel planning sweeps over (devices, vocab, microbatch, budget) grids.

A sweep answers the question the planner's single-config API cannot:
*where* in the hardware/workload space does each schedule family win?
Each grid point is planned independently, so the sweep parallelizes
with :mod:`concurrent.futures` — ``executor="process"`` for real
multi-core speedup (the planner is pure Python), ``"thread"`` when
worker processes are unavailable (sandboxes, pytest-cov), or
``"serial"`` for debugging.  Pools are created once per
(executor, max_workers) pairing and kept alive across :func:`sweep`
calls, so repeated sweeps stop paying worker spawn + interpreter
warmup.  If a pool dies mid-sweep the missing points are re-planned
serially; the failure is logged (``warnings`` + module logger) and
surfaced on the affected outcomes' ``fallback_reason``.

Grid points are submitted to the pool in *chunks* rather than one
future per point: every process-pool task pays a fixed cost (pickling
the constraints and the worker closure, queue round-trips), which for
small per-point work dominated the sweep.  :func:`default_chunk_size`
sizes the chunks: a few per worker, so load still balances.

Before chunking, points are grouped by their **structural signature**
(devices, vocabulary, sequence length, microbatches — everything that
shapes the generated schedules, as opposed to the memory budget and
``pass_overhead`` bindings that only re-price or re-rank them).  Points
sharing a structure land in the same chunk, so one worker builds each
schedule structure once and every sibling point re-uses it through the
process-wide structural caches and the planner's budget-independent
estimate/metrics entries.  Every point is then planned by
:func:`~repro.planner.planner.plan` alone, which decides which
candidates get simulated.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import itertools
import logging
import os
import signal
import threading
import warnings
from collections.abc import Iterable, Sequence
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass

from repro.config import ModelConfig, ParallelConfig
from repro.harness.settings import TABLE1_SHAPES, TABLE2_SHAPES
from repro.planner.cache import PlanCache
from repro.planner.planner import PlannerConstraints, RankedPlans, plan

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a planning sweep.

    ``devices``, ``vocab_size``, ``seq_length`` and
    ``num_microbatches`` shape the schedule *structures*;
    ``memory_budget_gib`` and ``pass_overhead`` are pure re-pricing /
    re-ranking knobs — points differing only in those share every
    generated schedule and compiled graph.  ``scenario`` sits in
    between: it re-prices runtimes *and* can change generated
    structures (interconnect tiers enter the generators' timing
    scalars), so it counts as a structure axis.
    """

    devices: int
    vocab_size: int
    seq_length: int = 2048
    num_microbatches: int = 128
    memory_budget_gib: float | None = None
    #: Per-pass host overhead binding (``None`` = the setup default);
    #: sweeping it explores the §7 overhead ablation without rebuilding
    #: schedule structures.
    pass_overhead: float | None = None
    #: Registered cluster-scenario name (``None`` = nominal cluster);
    #: see :mod:`repro.scenarios.registry`.  A name rather than a
    #: :class:`~repro.scenarios.cluster.ClusterScenario` keeps points
    #: hashable and process-pool picklable.
    scenario: str | None = None

    def structure_axes(self) -> tuple:
        """The axes that determine schedule structure (not bindings).

        The nominal cluster renders as ``""`` so the tuple stays
        totally ordered (the sweep sorts points by it for grouping).
        """
        return (
            self.devices,
            self.vocab_size,
            self.seq_length,
            self.num_microbatches,
            self.scenario or "",
        )


@dataclass
class SweepOutcome:
    """The ranked plans produced for one grid point."""

    point: SweepPoint
    plans: RankedPlans
    #: Why this point was re-planned serially in-process (a worker-pool
    #: failure), or ``None`` when it was planned as submitted.
    fallback_reason: str | None = None

    @property
    def best_method(self) -> str | None:
        """Winning family, or ``None`` when nothing fit the budget."""
        return self.plans.best.method if self.plans.ranked else None


def model_for_devices(
    devices: int, seq_length: int, vocab_size: int
) -> ModelConfig:
    """A proportionally-sized model for an arbitrary device count.

    Uses the paper's Table 1 shape when the device count matches one
    (8/16/32 GPUs), the Table 2 shape for its extra count (24 GPUs),
    and otherwise a generic 4-layers-per-device GPT shape so that both
    the 1F1B family (``L % p == 0``) and the V-Half family
    (``L % 2p == 0``) stay feasible.
    """
    if devices in TABLE1_SHAPES:
        layers, heads, hidden = TABLE1_SHAPES[devices]
    elif devices in TABLE2_SHAPES:
        layers, heads, hidden = TABLE2_SHAPES[devices]
    else:
        layers, heads, hidden = 4 * devices, 16, 2048
    return ModelConfig(
        num_layers=layers,
        hidden_size=hidden,
        num_attention_heads=heads,
        seq_length=seq_length,
        vocab_size=vocab_size,
    )


def grid(
    devices: Sequence[int],
    vocab_sizes: Sequence[int],
    seq_lengths: Sequence[int] = (2048,),
    microbatches: Sequence[int] = (128,),
    memory_budgets_gib: Sequence[float | None] = (None,),
    pass_overheads: Sequence[float | None] = (None,),
    scenarios: Sequence[str | None] = (None,),
) -> list[SweepPoint]:
    """Cartesian product of the sweep axes, in deterministic order.

    ``scenarios`` takes registered cluster-scenario *names*
    (:mod:`repro.scenarios.registry`); ``None`` is the nominal
    homogeneous cluster.
    """
    return [
        SweepPoint(d, v, s, m, b, o, c)
        for d, v, s, m, b, o, c in itertools.product(
            devices,
            vocab_sizes,
            seq_lengths,
            microbatches,
            memory_budgets_gib,
            pass_overheads,
            scenarios,
        )
    ]


def _point_configs(point: SweepPoint) -> tuple[ModelConfig, ParallelConfig]:
    """Model/parallel configuration of one grid point."""
    model = model_for_devices(point.devices, point.seq_length, point.vocab_size)
    parallel = ParallelConfig(
        pipeline_size=point.devices,
        num_microbatches=point.num_microbatches,
        microbatch_size=1,
    )
    return model, parallel


def plan_point(
    point: SweepPoint,
    constraints: PlannerConstraints | None = None,
    cache_dir: str | None = None,
) -> SweepOutcome:
    """Plan one grid point (top-level so process pools can pickle it).

    ``cache_dir`` names a disk-backed :class:`~repro.planner.cache.PlanCache`
    directory, letting repeated CLI invocations and pool workers share
    results across processes.
    """
    cache = PlanCache(cache_dir) if cache_dir is not None else None
    return _plan_point(point, constraints, cache)


def _plan_point(
    point: SweepPoint,
    constraints: PlannerConstraints | None,
    cache: PlanCache | None,
) -> SweepOutcome:
    base = constraints or PlannerConstraints()
    model, parallel = _point_configs(point)
    if point.memory_budget_gib is not None:
        base = dataclasses.replace(
            base, memory_budget_gib=point.memory_budget_gib
        )
    return SweepOutcome(
        point=point,
        plans=plan(
            model,
            parallel,
            base,
            cache=cache,
            pass_overhead=point.pass_overhead,
            scenario=point.scenario,
        ),
    )


def plan_points(
    points: Sequence[SweepPoint],
    constraints: PlannerConstraints | None = None,
    cache_dir: str | None = None,
) -> list[SweepOutcome]:
    """Plan a chunk of grid points serially (one pool task per chunk).

    Top-level so process pools can pickle it; the per-task fixed cost
    (constraint pickling, queue round-trips) is paid once per chunk
    instead of once per point.  Every point goes through one
    disk-backed cache when ``cache_dir`` is given.
    """
    cache = PlanCache(cache_dir) if cache_dir is not None else None
    return [_plan_point(point, constraints, cache) for point in points]


def default_chunk_size(num_points: int, workers: int) -> int:
    """Points per pool task: ~4 chunks per worker, at least 1 point.

    Large enough that small sweeps stop paying per-task process-pool
    overhead, small enough that stragglers still rebalance across the
    pool.
    """
    return max(1, -(-num_points // (4 * max(1, workers))))


# ---------------------------------------------------------------------------
# Persistent worker pools (shared across sweep() calls).
# ---------------------------------------------------------------------------

_POOLS: dict[tuple[str, int | None], Executor] = {}


def _reset_inherited_signals() -> None:
    """Process-pool worker initializer: drop the parent's signal set-up.

    A forked worker inherits the serving process's asyncio signal
    wiring: a do-nothing SIGTERM handler and the wakeup fd, a socket
    shared with the parent's event loop.  Terminating a broken pool's
    workers would then be read by the parent as its own SIGTERM and
    shut the service down.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _get_pool(executor: str, max_workers: int | None) -> Executor | None:
    """The persistent pool for this configuration, or ``None``.

    Pools are created lazily, kept across :func:`sweep` calls (worker
    spawn + module import is the dominant fixed cost of small process
    sweeps) and torn down at interpreter exit.  ``None`` means the pool
    could not be created (restricted sandboxes).
    """
    key = (executor, max_workers)
    pool = _POOLS.get(key)
    if pool is not None:
        return pool
    try:
        if executor == "process":
            pool = ProcessPoolExecutor(
                max_workers=max_workers, initializer=_reset_inherited_signals
            )
        else:
            pool = ThreadPoolExecutor(max_workers=max_workers)
    except (OSError, RuntimeError):
        return None
    _POOLS[key] = pool
    return pool


def get_pool(executor: str, max_workers: int | None = None) -> Executor | None:
    """The persistent worker pool for this configuration, or ``None``.

    Public accessor over the module's pool registry: the planning
    service (:mod:`repro.service`) schedules CPU-bound plan requests on
    the same persistent pools sweeps use, so per-worker structural and
    plan caches stay warm across requests *and* sweeps.  ``None`` means
    a pool cannot be created in this environment (callers degrade to
    threads or serial execution).
    """
    if executor not in ("process", "thread"):
        raise ValueError(
            f"executor must be 'process' or 'thread', got {executor!r}"
        )
    return _get_pool(executor, max_workers)


def discard_pool(executor: str, max_workers: int | None = None) -> None:
    """Forget (and best-effort shut down) one persistent pool.

    For callers that detect a broken pool mid-flight (the service's
    degraded mode); the next :func:`get_pool` call builds a fresh one.
    """
    _discard_pool(executor, max_workers)


def respawn_pool(executor: str, max_workers: int | None = None):
    """Discard any existing pool for this configuration and build fresh.

    The resurrection path of the service's circuit breaker: a probe
    must never reuse a possibly-broken cached pool object, so it
    discards first and returns the newly built pool (or ``None`` when
    one cannot be created in this environment).
    """
    _discard_pool(executor, max_workers)
    return get_pool(executor, max_workers)


def _discard_pool(executor: str, max_workers: int | None) -> None:
    """Forget (and best-effort shut down) a broken persistent pool."""
    pool = _POOLS.pop((executor, max_workers), None)
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass


def shutdown_pools() -> list[threading.Thread]:
    """Shut down every persistent sweep pool (atexit; also for tests).

    Does not wait: returns the process executors' manager threads,
    which go on reaping the workers.  A caller that checks for leaked
    processes must join these first (with its own timeout), or the two
    reapers race and a cleanly exited worker reads as alive.
    """
    reapers = []
    while _POOLS:
        _key, pool = _POOLS.popitem()
        # Taken first: ``shutdown`` drops the executor's reference.
        reaper = getattr(pool, "_executor_manager_thread", None)
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        if reaper is not None:
            reapers.append(reaper)
    return reapers


atexit.register(shutdown_pools)


def sweep(
    points: Iterable[SweepPoint],
    constraints: PlannerConstraints | None = None,
    *,
    executor: str = "process",
    max_workers: int | None = None,
    cache_dir: str | None = None,
) -> list[SweepOutcome]:
    """Plan every grid point, in parallel, preserving input order.

    ``executor`` selects the :mod:`concurrent.futures` backend:
    ``"process"`` (default), ``"thread"`` or ``"serial"``.  Worker
    pools persist across calls (see :func:`shutdown_pools`).  If the
    chosen pool cannot be started or dies mid-sweep (restricted
    environments), results gathered so far are kept and only the
    missing points are re-planned serially in-process — the cause is
    logged via :mod:`warnings`/:mod:`logging` and recorded on the
    affected outcomes' ``fallback_reason``.  ``cache_dir`` enables a
    shared disk-backed plan cache across workers and runs.  Grid
    points are batched per pool task, :func:`default_chunk_size` each.

    Grid points are grouped by :meth:`SweepPoint.structure_axes` before
    chunking, so points sharing a schedule structure (differing only in
    memory budget or ``pass_overhead``) are planned by one worker and
    amortize schedule construction, compilation and simulation through
    the structural caches; the output order is the input order
    regardless.
    """
    points = list(points)
    if executor not in ("process", "thread", "serial"):
        raise ValueError(
            f"executor must be 'process', 'thread' or 'serial', got {executor!r}"
        )
    # Stable structural grouping; the (i,) suffix keeps equal-structure
    # points in input order and makes the sort total.
    order = sorted(
        range(len(points)), key=lambda i: points[i].structure_axes() + (i,)
    )
    grouped = [points[i] for i in order]

    def restore(outcomes: list[SweepOutcome]) -> list[SweepOutcome]:
        by_input: list[SweepOutcome | None] = [None] * len(points)
        for position, outcome in zip(order, outcomes):
            by_input[position] = outcome
        return by_input  # type: ignore[return-value]

    if executor == "serial" or len(points) <= 1:
        return restore(plan_points(grouped, constraints, cache_dir))
    cpus = os.cpu_count() or 1
    # Match each pool's actual default sizing so chunks balance:
    # ThreadPoolExecutor defaults to min(32, cpus + 4) workers.
    pool_default = min(32, cpus + 4) if executor == "thread" else cpus
    chunk_size = default_chunk_size(len(points), max_workers or pool_default)
    chunks = [
        grouped[i : i + chunk_size] for i in range(0, len(grouped), chunk_size)
    ]
    chunk_worker = functools.partial(
        plan_points, constraints=constraints, cache_dir=cache_dir
    )
    pool = _get_pool(executor, max_workers)
    failure: BaseException | None = None
    completed: dict[int, list[SweepOutcome]] = {}
    if pool is None:
        failure = RuntimeError(
            f"could not start a {executor!r} worker pool in this environment"
        )
    else:
        futures = []
        try:
            for chunk in chunks:
                futures.append(pool.submit(chunk_worker, chunk))
        except BrokenExecutor as exc:
            failure = exc
        for index, future in enumerate(futures):
            try:
                completed[index] = future.result()
            except BrokenExecutor as exc:
                # The pool died mid-sweep; keep every future that did
                # finish and plan the rest serially below.  Genuine
                # worker exceptions (a planner bug) propagate with
                # their original traceback instead.
                failure = exc
                continue
        if failure is not None:
            _discard_pool(executor, max_workers)
    fallback_reason: str | None = None
    if failure is not None:
        fallback_reason = (
            f"{executor} pool failed ({type(failure).__name__}: {failure}); "
            "re-planned serially in-process"
        )
        logger.warning("sweep worker pool failure: %s", fallback_reason)
        warnings.warn(
            f"sweep fell back to serial planning: {fallback_reason}",
            RuntimeWarning,
            stacklevel=2,
        )
    for index, chunk in enumerate(chunks):
        if index not in completed:
            outcomes = plan_points(chunk, constraints, cache_dir)
            for outcome in outcomes:
                outcome.fallback_reason = fallback_reason
            completed[index] = outcomes
    return restore(
        [
            outcome
            for index in range(len(chunks))
            for outcome in completed[index]
        ]
    )


def best_method_table(outcomes: Sequence[SweepOutcome]) -> str:
    """ASCII summary: the winning family at every grid point."""
    from repro.harness.tables import format_table

    rows: list[list[object]] = []
    for outcome in outcomes:
        plans = outcome.plans
        best = plans.best if plans.ranked else None
        rows.append(
            [
                outcome.point.devices,
                f"{outcome.point.vocab_size // 1024}k",
                outcome.point.seq_length,
                outcome.point.num_microbatches,
                round(plans.memory_budget_gib, 1),
                "(none fits)" if best is None else best.method,
                None if best is None or best.iteration_time is None
                else round(best.iteration_time, 3),
                None if best is None or best.mfu is None
                else round(100.0 * best.mfu, 2),
            ]
        )
    return format_table(
        ["devices", "vocab", "seq", "m", "budgetGB", "best", "time(s)", "MFU%"],
        rows,
        title="Planner sweep — winning schedule family per grid point",
    )
