"""Seeded search over the rewrite space, scored by the compiled oracle.

:class:`ScoreContext` turns an IR program into a verified
:class:`ScoredCandidate`: emit → ``Schedule.validate`` → compile (or,
for a program reordered from a scored one, re-thread that program's
graph with its node-id orders, sharing every structural array and the
priced durations) → in-order execute → memory report.  A program that
fails validation or deadlocks scores as ``None`` — the oracle is the
final legality check behind every rewrite's applicability predicate.
Only a token split lowers a new graph.  When a candidate must be ranked
under scenario jitter the Monte Carlo draws go through
:meth:`~repro.sim.compiled.CompiledGraph.execute_many_summary` — one
batched kernel call for all samples — via
:func:`repro.scenarios.perturb.robustness_stats`.

Two :class:`SearchStrategy` implementations ship behind one interface:

* :class:`GreedyStrategy` — rounds of "enumerate sites, score a seeded
  sample of them, take the best strict improvement";
* :class:`AnnealingStrategy` — simulated annealing with a geometric
  temperature ladder; uphill moves are accepted with the Metropolis
  probability, and the best candidate ever seen is returned.

Both draw every random decision from ``random.Random(seed)`` and score
through the same deterministic oracle, so a fixed seed reproduces the
search bit-for-bit on either simulation engine (the NumPy and
pure-Python replay kernels are bit-identical by construction).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

from repro.costmodel.memory import MemoryModel
from repro.harness.experiments import start_child
from repro.optimize.ir import ScheduleIR
from repro.optimize.rewrites import Rewrite, RewriteContext, RewriteStep, TokenSplit
from repro.scenarios import ClusterScenario
from repro.scheduling.schedule import Schedule
from repro.sim.compiled import CompiledGraph, compile_schedule
from repro.sim.executor import DeadlockError
from repro.sim.memory import memory_report
from repro.sim.runtime import RuntimeModel, SimulationSetup


class TokenSplitRuntime:
    """Runtime binding for a token-split schedule.

    Wraps the base (possibly scenario-wrapped) runtime of the emitted
    schedule and prices each slice honestly:

    * compute passes cost ``(full - overhead)/split + overhead`` — the
      causal-attention FLOPs of a sliced sequence redistribute across
      slices but *sum* to the full pass, so the per-slice average is an
      exact ``1/split`` of the kernel time, while the per-pass host
      overhead is paid once per slice;
    * collectives and P2P transfers keep their full per-event cost even
      though each now moves ``1/split`` of the bytes — a deliberate
      conservative bound (the α latency term does not shrink), so any
      speedup the search finds survives the worst-case pricing.

    Satisfies the stream contract (``pass_duration`` depends only on
    ``(type, device, chunk)``), so compiled graphs may price it
    stream-wise like any other runtime.
    """

    __slots__ = ("inner", "split")

    def __init__(self, inner, split: int):
        self.inner = inner
        self.split = split

    @property
    def setup(self):
        return self.inner.setup

    @property
    def schedule(self):
        return self.inner.schedule

    def pass_duration(self, p) -> float:
        overhead = self.inner.setup.pass_overhead
        return (self.inner.pass_duration(p) - overhead) / self.split + overhead

    def collective_duration(self, kind) -> float:
        return self.inner.collective_duration(kind)

    def p2p_duration(self, src_device: int, dst_device: int) -> float:
        return self.inner.p2p_duration(src_device, dst_device)


@dataclass(frozen=True)
class ScoredCandidate:
    """One oracle-verified point of the search space."""

    ir: ScheduleIR = dataclasses.field(repr=False)
    schedule: Schedule = dataclasses.field(repr=False)
    trace: tuple[RewriteStep, ...]
    time: float
    peak_bytes: float
    feasible: bool
    graph: CompiledGraph = dataclasses.field(repr=False, compare=False)
    rewrite_ctx: RewriteContext = dataclasses.field(repr=False, compare=False)
    #: Applicable sites per rule name, filled by the search on first use
    #: (a pure function of ``ir`` and ``rewrite_ctx``).
    sites: dict[str, tuple] = dataclasses.field(
        default_factory=dict, repr=False, compare=False
    )
    #: Scored token-split children per ``(rule, site)``; a dict only on
    #: a memoized search start, ``None`` elsewhere (see
    #: :meth:`ScoreContext.score_rewrite`).
    children: dict | None = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def better_than(self, other: "ScoredCandidate | None") -> bool:
        """Strict improvement order: feasibility first, then time, then
        a deterministic trace tie-break (shorter, lexicographic)."""
        if other is None:
            return True
        if self.feasible != other.feasible:
            return self.feasible
        if self.time != other.time:
            return self.time < other.time
        mine = (len(self.trace), [s.description for s in self.trace])
        theirs = (len(other.trace), [s.description for s in other.trace])
        return mine < theirs


class ScoreContext:
    """Scores IR programs against the compiled-graph oracle.

    One context is bound to a (setup, scenario, memory budget) triple;
    ``evaluations`` counts scored candidates, which is the budget the
    search strategies spend — a candidate served from a memo counts as
    one evaluation exactly like one the oracle replays.
    """

    def __init__(
        self,
        setup: SimulationSetup,
        scenario: ClusterScenario | None = None,
        budget_bytes: float | None = None,
        memory_model: MemoryModel | None = None,
    ) -> None:
        self.setup = setup
        self.scenario = scenario
        self.budget_bytes = budget_bytes
        self.memory_model = memory_model or MemoryModel()
        self.evaluations = 0

    # ------------------------------------------------------------------
    # Bindings
    # ------------------------------------------------------------------

    def _runtime(self, schedule: Schedule, split: int):
        setup = self.setup
        if self.scenario is not None:
            setup = self.scenario.setup_for(setup)
            runtime = self.scenario.runtime_for(setup, schedule)
        else:
            runtime = RuntimeModel(setup, schedule)
        if split != 1:
            runtime = TokenSplitRuntime(runtime, split)
        return runtime

    def _memory_setup(self, split: int) -> SimulationSetup:
        """Setup used for activation sizing: a split slice carries
        ``1/split`` of the tokens, so its activations shrink with it."""
        if split == 1:
            return self.setup
        model = self.setup.model.replace(
            seq_length=self.setup.model.seq_length // split
        )
        parallel = dataclasses.replace(
            self.setup.parallel,
            num_microbatches=self.setup.parallel.num_microbatches * split,
        )
        return dataclasses.replace(self.setup, model=model, parallel=parallel)

    def _activation_bytes(self, ir: ScheduleIR) -> tuple[float, ...]:
        """One microbatch's transformer-activation bytes per device
        (chunk 0) — the unit an activation handoff moves."""
        mem_setup = self._memory_setup(ir.split)
        b = mem_setup.parallel.microbatch_size
        return tuple(
            float(
                self.memory_model.activation_bytes(
                    mem_setup.model, b, ir.layout.transformer_layers[d][0]
                )
            )
            for d in range(ir.num_devices)
        )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def score(
        self, ir: ScheduleIR, trace: tuple[RewriteStep, ...]
    ) -> ScoredCandidate | None:
        """Verify one program against the oracle; ``None`` if illegal."""
        self.evaluations += 1
        schedule = ir.emit()
        try:
            schedule.validate()
        except ValueError:
            return None
        try:
            if ir.graph is None:
                graph = ir.graph = compile_schedule(
                    schedule, self._runtime(schedule, ir.split)
                )
            else:
                # The same nodes in another order: share every structural
                # array and the priced durations.
                graph = ir.graph._with_device_nodes(ir.device_nodes, schedule)
            result = graph.execute()
        except DeadlockError:
            return None
        runtime = graph.runtime
        mem_setup = self._memory_setup(ir.split)
        report = memory_report(result, mem_setup, self.memory_model)
        peaks = list(report.per_device_peak)
        act = self._activation_bytes(ir)
        transfer_ok = True
        for src, dst, count in ir.handoffs:
            peaks[src] -= count * act[src]
            peaks[dst] += count * act[src]
            transfer = 2.0 * count * runtime.p2p_duration(src, dst)
            idle_src = result.iteration_time - result.device_busy[src]
            idle_dst = result.iteration_time - result.device_busy[dst]
            if idle_src < transfer or idle_dst < transfer:
                # The handoff's P2P traffic no longer hides in bubbles
                # under this order — the BPipe legality bound fails.
                transfer_ok = False
        peak = max(peaks)
        feasible = transfer_ok and (
            self.budget_bytes is None or peak <= self.budget_bytes
        )
        rewrite_ctx = RewriteContext(
            seq_length=self.setup.model.seq_length,
            budget_bytes=self.budget_bytes,
            iteration_time=result.iteration_time,
            device_busy=tuple(result.device_busy),
            per_device_peak=tuple(peaks),
            activation_bytes=act,
            p2p_seconds=runtime.p2p_duration,
        )
        return ScoredCandidate(
            ir=ir,
            schedule=schedule,
            trace=trace,
            time=result.iteration_time,
            peak_bytes=peak,
            feasible=feasible,
            graph=graph,
            rewrite_ctx=rewrite_ctx,
        )

    def score_rewrite(
        self, current: ScoredCandidate, rewrite: Rewrite, site
    ) -> ScoredCandidate | None:
        """Score the program ``rewrite`` makes of ``current`` at ``site``.

        A memoized start (``current.children`` is a dict) keeps its
        token-split child: the rule's one site is sampled by every
        search from the start, and the child does not depend on the
        seed, so it is scored once per start.  Swap and hoist children
        rarely repeat across seeds and are not kept.  A child served
        from the memo counts as one evaluation, exactly as when it is
        scored afresh.
        """

        def build() -> ScoredCandidate | None:
            ir, step = rewrite.apply(current.ir, site)
            return self.score(ir, current.trace + (step,))

        if current.children is None or not isinstance(rewrite, TokenSplit):
            return build()
        child, hit = start_child(current.children, (rewrite.name, site), build)
        if hit:
            self.evaluations += 1
        return child

    def adopt(self, start: ScoredCandidate) -> None:
        """Take a start candidate another context scored as this one's
        first evaluation: it counts against the budget exactly as if
        :meth:`score` had made it."""
        self.evaluations += 1

    def robust_stats(self, candidate: ScoredCandidate, samples: int, seed: int):
        """Monte Carlo statistics of a candidate under the scenario's
        jitter — all ``samples`` draws priced by one
        ``execute_many_summary`` batch."""
        from repro.scenarios.perturb import robustness_stats

        if self.scenario is None:
            raise ValueError("robust_stats requires a scenario")
        return robustness_stats(
            candidate.graph, self.scenario, samples=samples, seed=seed
        )


class SearchStrategy:
    """One search policy over the rewrite space."""

    name: str = ""

    def run(
        self,
        ctx: ScoreContext,
        rewrites: tuple[Rewrite, ...],
        start: ScoredCandidate,
        *,
        budget: int,
        seed: int,
    ) -> ScoredCandidate:
        raise NotImplementedError

    def _buckets(
        self, rewrites: tuple[Rewrite, ...], current: ScoredCandidate
    ) -> list[tuple[Rewrite, tuple]]:
        """Applicable sites grouped per rewrite rule (empty rules dropped).

        Enumerated once per candidate and rule, then kept on the
        candidate: annealing re-asks while it rejects proposals, and a
        memoized start candidate serves every search from it.
        """
        memo = current.sites
        buckets = []
        for rewrite in rewrites:
            sites = memo.get(rewrite.name)
            if sites is None:
                sites = memo[rewrite.name] = tuple(
                    rewrite.sites(current.ir, current.rewrite_ctx)
                )
            if sites:
                buckets.append((rewrite, sites))
        return buckets

    def _stratified_sample(
        self,
        buckets: list[tuple[Rewrite, tuple]],
        cap: int,
        rng: random.Random,
    ) -> list[tuple[Rewrite, object]]:
        """Up to ``cap`` sites, round-robin across rules.

        Uniform sampling over the union starves low-cardinality rules —
        token-split has one site against thousands of swaps — so the
        sample cycles through the rules instead, drawing one seeded-
        random site per rule per cycle.  Every rule with any applicable
        site is guaranteed representation whenever ``cap`` ≥ the number
        of rules.
        """
        pools = []
        for rewrite, sites in buckets:
            sites = list(sites)
            rng.shuffle(sites)
            pools.append((rewrite, sites))
        chosen: list[tuple[Rewrite, object]] = []
        while len(chosen) < cap and pools:
            for rewrite, sites in list(pools):
                if len(chosen) >= cap:
                    break
                chosen.append((rewrite, sites.pop()))
                if not sites:
                    pools.remove((rewrite, sites))
        return chosen


class GreedyStrategy(SearchStrategy):
    """Steepest-descent over a seeded sample of applicable sites.

    Each round enumerates every applicable site, scores a deterministic
    sample of them (the sample keeps rounds affordable on programs with
    thousands of sites; ``random.Random(seed)`` makes it reproducible),
    and moves to the best strictly-improving neighbor.  Stops when no
    sampled neighbor improves or the evaluation budget is spent.
    """

    name = "greedy"

    def run(self, ctx, rewrites, start, *, budget, seed):
        rng = random.Random(seed)
        current = start
        while ctx.evaluations < budget:
            buckets = self._buckets(rewrites, current)
            if not buckets:
                break
            total = sum(len(sites) for _, sites in buckets)
            cap = min(total, max(16, budget // 4), budget - ctx.evaluations)
            best = None
            for rewrite, site in self._stratified_sample(buckets, cap, rng):
                candidate = ctx.score_rewrite(current, rewrite, site)
                if candidate is not None and candidate.better_than(best):
                    best = candidate
            if best is None or not best.better_than(current):
                break
            current = best
        return current


class AnnealingStrategy(SearchStrategy):
    """Simulated annealing with a geometric cooling ladder.

    Proposes one uniformly-drawn applicable site per step; downhill
    moves are always taken, uphill moves with probability
    ``exp(-Δ/T)`` where ``T`` decays geometrically from 2 % of the
    start time.  A feasible candidate never anneals into an infeasible
    one.  Returns the best candidate ever scored.
    """

    name = "anneal"

    #: Initial temperature as a fraction of the start iteration time.
    T0_FRACTION = 0.02
    #: Geometric decay per evaluation.
    ALPHA = 0.97

    def run(self, ctx, rewrites, start, *, budget, seed):
        rng = random.Random(seed)
        current = start
        best = start
        temperature = self.T0_FRACTION * max(start.time, 1e-12)
        while ctx.evaluations < budget:
            buckets = self._buckets(rewrites, current)
            if not buckets:
                break
            # Rule first, then site: uniform over the union would give a
            # one-site rule (token-split) a vanishing proposal mass.
            rewrite, sites = buckets[rng.randrange(len(buckets))]
            site = sites[rng.randrange(len(sites))]
            candidate = ctx.score_rewrite(current, rewrite, site)
            temperature = max(temperature * self.ALPHA, 1e-15)
            if candidate is None:
                continue
            if current.feasible and not candidate.feasible:
                continue
            delta = candidate.time - current.time
            accept = (
                candidate.better_than(current)
                or rng.random() < math.exp(-delta / temperature)
            )
            if accept:
                current = candidate
                if current.better_than(best):
                    best = current
        return best


_STRATEGIES: dict[str, type[SearchStrategy]] = {
    GreedyStrategy.name: GreedyStrategy,
    AnnealingStrategy.name: AnnealingStrategy,
}

#: Names of the built-in search strategies.
STRATEGY_NAMES: tuple[str, ...] = tuple(sorted(_STRATEGIES))


def get_strategy(name: str) -> SearchStrategy:
    """Instantiate a search strategy by name."""
    try:
        return _STRATEGIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}"
        ) from None
