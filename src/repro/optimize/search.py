"""The token-split chain, scored by the compiled oracle.

:class:`ScoreContext` turns a schedule into a verified
:class:`ScoredCandidate`: ``Schedule.validate`` → compile → in-order
execute → memory report.  A schedule that fails validation or
deadlocks scores as ``None`` — the oracle is the final legality check
behind the split.

:func:`split_chain` scores a start and then its token-split children at
factors 2 and 4, moving to a child only while it is feasible and
strictly faster; :func:`replay` picks the candidate a search spending
at most ``budget`` evaluations ends at.  Nothing in either is random:
the chain is a pure function of the start, bit-identical on either
simulation engine (the NumPy and pure-Python replay kernels are
bit-identical by construction).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.costmodel.memory import MemoryModel
from repro.optimize.rewrites import RewriteStep, TokenSplit, split_factor
from repro.scenarios import ClusterScenario
from repro.scheduling.schedule import Schedule
from repro.sim.compiled import compile_schedule
from repro.sim.executor import DeadlockError
from repro.sim.memory import memory_report
from repro.sim.runtime import RuntimeModel, SimulationSetup


class TokenSplitRuntime:
    """Runtime binding for a token-split schedule.

    Wraps the base (possibly scenario-wrapped) runtime of the split
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
    """One oracle-verified schedule: its time, its peak memory and
    whether that peak fits the budget."""

    schedule: Schedule = dataclasses.field(repr=False)
    trace: tuple[RewriteStep, ...]
    time: float
    peak_bytes: float
    feasible: bool


class ScoreContext:
    """Scores schedules against the compiled-graph oracle.

    One context is bound to a (setup, scenario, memory budget) triple.
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

    def score(
        self, schedule: Schedule, trace: tuple[RewriteStep, ...]
    ) -> ScoredCandidate | None:
        """Verify one schedule against the oracle; ``None`` if illegal."""
        try:
            schedule.validate()
        except ValueError:
            return None
        split = split_factor(schedule)
        try:
            graph = compile_schedule(schedule, self._runtime(schedule, split))
            result = graph.execute()
        except DeadlockError:
            return None
        report = memory_report(result, self._memory_setup(split), self.memory_model)
        peak = max(report.per_device_peak)
        return ScoredCandidate(
            schedule=schedule,
            trace=trace,
            time=result.iteration_time,
            peak_bytes=peak,
            feasible=self.budget_bytes is None or peak <= self.budget_bytes,
        )


def _improves(child: ScoredCandidate | None, current: ScoredCandidate) -> bool:
    return child is not None and child.feasible and child.time < current.time


def split_chain(
    ctx: ScoreContext, start: ScoredCandidate
) -> tuple[ScoredCandidate | None, ...]:
    """``start`` and its token-split descendants, in scoring order.

    Each split is scored from the last candidate adopted; the chain
    ends when no split applies or after the first child that is not
    feasible and strictly faster (that child, ``None`` when illegal, is
    kept: scoring it was an evaluation).
    """
    split = TokenSplit()
    seq_length = ctx.setup.model.seq_length
    chain = [start]
    current = start
    while split.sites(current.schedule, seq_length):
        schedule, step = split.apply(current.schedule)
        child = ctx.score(schedule, current.trace + (step,))
        chain.append(child)
        if not _improves(child, current):
            break
        current = child
    return tuple(chain)


def replay(
    chain: tuple[ScoredCandidate | None, ...], budget: int
) -> tuple[ScoredCandidate, int]:
    """The candidate a search spending at most ``budget`` evaluations on
    ``chain`` ends at, and the evaluations it spends: the chain's first
    ``budget`` entries, of which the start is one."""
    scored = chain[:budget]
    final = scored[0]
    for child in scored[1:]:
        if not _improves(child, final):
            break
        final = child
    return final, len(scored)
