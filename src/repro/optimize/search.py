"""Seeded greedy search over the rewrites, scored by the compiled oracle.

:class:`ScoreContext` turns an IR program into a verified
:class:`ScoredCandidate`: emit → ``Schedule.validate`` → compile (only
for a fresh lowering or a token split; a handoff child shares its
parent's graph, since no rewrite reorders passes) → in-order execute →
memory report.  A program that fails validation or deadlocks scores as
``None`` — the oracle is the final legality check behind every
rewrite's applicability predicate.

:func:`greedy_search` runs rounds of "score every applicable site, take
the best strict improvement".  A round has at most ``2p`` handoff sites
plus one token split; when the remaining budget cannot score them all,
a ``random.Random(seed)`` sample of them is scored instead, so a fixed
seed reproduces the search bit-for-bit on either simulation engine (the
NumPy and pure-Python replay kernels are bit-identical by construction).
"""

from __future__ import annotations

import dataclasses
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
    search spends — a candidate served from a memo counts as
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
                ir.graph = compile_schedule(schedule, self._runtime(schedule, ir.split))
            graph = ir.graph
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
        token-split child: the rule's one site is scored by every
        search from the start, and the child does not depend on the
        seed, so it is scored once per start.  Handoff children share
        their parent's graph and are not kept.  A child served from the
        memo counts as one evaluation, exactly as when it is scored
        afresh.
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


def greedy_search(
    ctx: ScoreContext,
    rewrites: tuple[Rewrite, ...],
    start: ScoredCandidate,
    *,
    budget: int,
    seed: int,
) -> ScoredCandidate:
    """Steepest descent from ``start`` until no site improves or
    ``ctx.evaluations`` reaches ``budget``.

    Each round scores every applicable site — or, when fewer
    evaluations remain than there are sites, a ``random.Random(seed)``
    sample of them — and moves to the best strict improvement.
    """
    rng = random.Random(seed)
    current = start
    while ctx.evaluations < budget:
        sites = [
            (rewrite, site)
            for rewrite in rewrites
            for site in rewrite.sites(current.ir, current.rewrite_ctx)
        ]
        room = budget - ctx.evaluations
        if len(sites) > room:
            sites = rng.sample(sites, room)
        best = None
        for rewrite, site in sites:
            candidate = ctx.score_rewrite(current, rewrite, site)
            if candidate is not None and candidate.better_than(best):
                best = candidate
        if best is None or not best.better_than(current):
            break
        current = best
    return current
