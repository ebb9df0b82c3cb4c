"""Execution of pipeline schedules: in-order and dataflow modes.

The schedule's full dependency DAG — stage-to-stage P2P edges,
collective barrier nodes (serialized per communicator, as NCCL
requires), interlaced segment couplings — is simulated for one
training iteration two ways:

* :func:`execute_schedule` — **in-order**: each device executes its
  pass list strictly in order (the Megatron runtime model); start times
  come from longest-path evaluation.  An order whose dependencies are
  cyclic raises :class:`DeadlockError`.
* :func:`execute_schedule_dataflow` — **work-conserving**: devices may
  run the earliest *ready* pass within a bounded lookahead window of
  their list.  This emulates the order a profiling-aware scheduler
  would have produced (the paper's §6.1 step): the realized order can
  then be frozen back into a static schedule via
  :func:`refine_schedule_order` and re-executed in-order.

Two engines implement these semantics (selected by the
``REPRO_SIM_ENGINE`` environment variable, see
``docs/performance.md``):

* ``compiled`` (default) — :mod:`repro.sim.compiled` lowers the graph
  once into flat integer arrays and replays it; refinement shares one
  compiled graph across all of its internal executions;
* ``reference`` — :mod:`repro.sim.reference_executor`, the original
  dict-based implementation, kept frozen as the correctness oracle the
  equivalence suite and the perf trajectory benchmark compare against.

Both produce bit-identical :class:`ExecutionResult` values.
"""

from __future__ import annotations

import os
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from repro.scheduling.passes import CollectiveKind, Pass, PassType
from repro.scheduling.schedule import Schedule
from repro.sim.runtime import RuntimeModel

NodeKey = tuple  # ("pass", device, index) | ("coll", kind, mb)

#: Environment variable selecting the execution engine.
ENGINE_ENV = "REPRO_SIM_ENGINE"

_ENGINES = ("compiled", "reference")


def simulation_engine() -> str:
    """The active execution engine: ``"compiled"`` or ``"reference"``.

    Read from ``REPRO_SIM_ENGINE`` on every call so tests and the
    trajectory benchmark can flip engines without reloading modules.
    """
    engine = os.environ.get(ENGINE_ENV, "compiled")
    if engine not in _ENGINES:
        raise ValueError(
            f"{ENGINE_ENV} must be one of {_ENGINES}, got {engine!r}"
        )
    return engine


class DeadlockError(RuntimeError):
    """The schedule's pass order has a dependency cycle."""


class BubbleFractions:
    """Bubble math over ``iteration_time`` + ``device_busy``.

    Shared by :class:`ExecutionResult` and the batched kernel's
    :class:`~repro.sim.compiled.ExecutionSummary`, so the two can never
    drift apart on the bubble definition.
    """

    iteration_time: float
    device_busy: "list[float] | tuple[float, ...]"

    def bubble_fraction(self, device: int) -> float:
        """Idle share of the iteration on ``device``."""
        if self.iteration_time <= 0:
            return 0.0
        return 1.0 - self.device_busy[device] / self.iteration_time

    def mean_bubble_fraction(self) -> float:
        """Bubble fraction averaged over all devices (the paper's ⌀)."""
        p = len(self.device_busy)
        return sum(self.bubble_fraction(d) for d in range(p)) / p


@dataclass(eq=False)
class ExecutionResult(BubbleFractions):
    """Timing outcome of one simulated training iteration.

    ``pass_times`` maps each :class:`Pass` to its ``(start, end)`` and
    ``collective_times`` each ``(kind, microbatch)`` barrier to its
    ``(start, end)``; ``iteration_time`` and ``device_busy`` (per-device
    sums of pass durations, added in stream order) reduce them.

    The reference engine builds these maps directly.  The compiled
    engine returns a :class:`~repro.sim.compiled.ResultView`, a subclass
    over the graph's per-node start/end arrays: its ``iteration_time``
    and ``device_busy`` are computed when it is made, and its two maps
    (bit-identical to the reference engine's) only on first access —
    most callers (the planner, the optimizer's scoring) never read them.
    Consumers that walk passes device by device read
    :meth:`device_rows` or :meth:`device_columns`, which a view serves
    straight from its arrays.
    Both kinds compare equal when every observable is equal, and a view
    pickles as a plain result holding its materialized maps.
    """

    schedule: Schedule
    pass_times: dict[Pass, tuple[float, float]]
    collective_times: dict[tuple[CollectiveKind, int], tuple[float, float]]
    iteration_time: float
    device_busy: list[float]
    #: Lazily built per-device rows: ``_rows`` in ``pass_times`` order
    #: (:meth:`device_rows`), ``_per_device`` sorted by (start, end)
    #: (:meth:`passes_on`).
    _rows: list[list[tuple[Pass, float, float]]] | None = field(
        default=None, init=False, repr=False
    )
    _per_device: list[list[tuple[Pass, float, float]]] | None = field(
        default=None, init=False, repr=False
    )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionResult):
            return NotImplemented
        return (
            self.schedule == other.schedule
            and self.iteration_time == other.iteration_time
            and self.device_busy == other.device_busy
            and self.pass_times == other.pass_times
            and self.collective_times == other.collective_times
        )

    def device_rows(self, device: int) -> Iterable[tuple[Pass, float, float]]:
        """``(pass, start, end)`` for each pass of ``device``, unsorted.

        Rows come in ``pass_times`` order — for a compiled result, the
        device's stream order.  Event sweeps that add floats in row
        order (:func:`repro.sim.memory.memory_report`) depend on it.
        Iterate the rows once; do not mutate them.
        """
        if self._rows is None:
            rows: list[list[tuple[Pass, float, float]]] = [
                [] for _ in range(len(self.device_busy))
            ]
            for p, (start, end) in self.pass_times.items():
                rows[p.device].append((p, start, end))
            self._rows = rows
        return self._rows[device]

    def device_columns(self, device: int) -> tuple[Sequence, ...]:
        """``(types, chunks, microbatches, starts, ends)`` of
        :meth:`device_rows`, one sequence per field, in row order.

        What the per-pass sweeps (memory accounting, live-forward caps)
        read: a compiled result gathers them from its per-node arrays
        without building a :class:`Pass`.
        """
        rows = self.device_rows(device)
        if not rows:
            return ((),) * 5
        passes, starts, ends = zip(*rows)
        return (
            tuple(p.type for p in passes),
            tuple(p.chunk for p in passes),
            tuple(p.microbatch for p in passes),
            starts,
            ends,
        )

    def passes_on(self, device: int) -> list[tuple[Pass, float, float]]:
        """(pass, start, end) for one device, sorted by start time.

        The per-device rows are sorted once for *all* devices on the
        first call and indexed thereafter.  The sort is stable, so
        passes with equal (start, end) keep their row order.
        """
        if not 0 <= device < len(self.device_busy):
            return []
        if self._per_device is None:
            self._per_device = [
                sorted(self.device_rows(d), key=itemgetter(1, 2))
                for d in range(len(self.device_busy))
            ]
        return list(self._per_device[device])


#: Pass types a work-conserving runtime may pull ahead of a stalled
#: stream head: the paper designates exactly these as flexibly
#: schedulable (W can be "arbitrarily delayed", S/T go anywhere within
#: the repeating interval, input passes are "piggybacked").  F and B
#: keep their designed positions so activation-memory behaviour is
#: unchanged by refinement.
FLEXIBLE_TYPES = frozenset(
    {PassType.W, PassType.S, PassType.T, PassType.IF, PassType.IB}
)


def _live_f_caps(
    schedule: Schedule, result: ExecutionResult
) -> list[dict[int, int]]:
    """Per (device, chunk) peak of in-flight F activations, in-order.

    Used as a memory guard by the zero-bubble dataflow mode: F passes
    may run ahead of schedule only while the device's live count stays
    within what the static schedule itself would have held.
    """
    caps: list[dict[int, int]] = []
    release_type = PassType.W if schedule.has_weight_passes else PassType.B
    forward = PassType.F
    for device in range(schedule.num_devices):
        types, chunks, _, starts, ends = result.device_columns(device)
        # Sorting whole tuples makes the result independent of row order.
        events: list[tuple[float, int, int]] = []
        for type_, chunk, start, end in zip(types, chunks, starts, ends):
            if type_ is forward:
                events.append((start, chunk, +1))
            elif type_ is release_type:
                events.append((end, chunk, -1))
        live: dict[int, int] = defaultdict(int)
        peak: dict[int, int] = defaultdict(int)
        for _, chunk, delta in sorted(events):
            live[chunk] += delta
            peak[chunk] = max(peak[chunk], live[chunk])
        caps.append(dict(peak))
    return caps


def execute_schedule(schedule: Schedule, runtime: RuntimeModel) -> ExecutionResult:
    """Simulate one iteration with strict in-order device streams.

    Callers that execute the same schedule repeatedly (planner loops,
    sweeps) should compile once via
    :func:`repro.sim.compiled.compile_schedule` and call
    :meth:`~repro.sim.compiled.CompiledGraph.execute` themselves — this
    convenience wrapper lowers the graph afresh on every call.
    """
    if simulation_engine() == "reference":
        from repro.sim.reference_executor import reference_execute_schedule

        return reference_execute_schedule(schedule, runtime)
    from repro.sim.compiled import compile_schedule

    return compile_schedule(schedule, runtime).execute()


def execute_schedule_dataflow(
    schedule: Schedule,
    runtime: RuntimeModel,
    lookahead: int = 4,
    mode: str = "strict",
) -> ExecutionResult:
    """Work-conserving simulation with bounded in-order lookahead.

    Each device, when free, runs the first *ready* pass among: the head
    of its list (any type), or one of the next ``lookahead`` entries,
    subject to the mode:

    * ``"strict"`` — only flexible pass types (W/S/T/IF/IB) may be
      pulled ahead of the head; F and B keep their designed positions,
      preserving the schedule's activation-memory discipline exactly
      (used for the 1F1B Vocabulary Parallelism schedules, whose p+k
      peak counts are design claims);
    * ``"zero-bubble"`` — any ready pass may jump the queue, but F
      dispatches are capped so each (device, chunk)'s live activation
      count never exceeds what an in-order execution of the same
      schedule holds (appropriate for the V-Half family, whose design
      treats F/B placement as free but whose memory balance must
      survive refinement).

    Collectives fire as soon as their participants finish (still
    serialized per communicator kind).  ``lookahead=1`` reproduces
    in-order semantics.
    """
    if simulation_engine() == "reference":
        from repro.sim.reference_executor import (
            reference_execute_schedule_dataflow,
        )

        return reference_execute_schedule_dataflow(
            schedule, runtime, lookahead=lookahead, mode=mode
        )
    from repro.sim.compiled import compile_schedule

    return compile_schedule(schedule, runtime).execute_dataflow(
        lookahead=lookahead, mode=mode
    )


def refine_schedule_order(
    schedule: Schedule,
    runtime: RuntimeModel,
    lookahead: int = 64,
    mode: str = "strict",
) -> Schedule:
    """Freeze the dataflow execution's realized order into the schedule.

    This is the simulator-side counterpart of the paper's §6.1
    profiling step: where the nominal building-block order would stall
    an in-order runtime (because real pass durations shift the wave
    phases), the work-conserving run discovers the order a profiling-
    aware generator would emit.  The returned schedule validates
    structurally; if the greedy order happens to execute in-order
    *slower* than the original (greedy list scheduling carries no
    optimality guarantee), the original order is kept, so refinement
    is monotone.

    Under the compiled engine the schedule is lowered **once** and the
    zero-bubble pre-pass, the dataflow run, and both sides of the
    before/after check all share that one compiled graph (callers that
    also need the in-order result should use
    :meth:`repro.sim.compiled.CompiledGraph.refine` directly).
    """
    if simulation_engine() == "reference":
        from repro.sim.reference_executor import reference_refine_schedule_order

        return reference_refine_schedule_order(
            schedule, runtime, lookahead=lookahead, mode=mode
        )
    from repro.sim.compiled import compile_schedule

    refined, _, _ = compile_schedule(schedule, runtime).refine(
        lookahead=lookahead, mode=mode
    )
    return refined
