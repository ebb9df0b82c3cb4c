"""Discrete-event simulation of pipeline-parallel training.

The executor consumes a :class:`~repro.scheduling.schedule.Schedule`
and a :class:`~repro.sim.runtime.RuntimeModel` (pass durations from the
analytic cost model) and produces per-pass start/end times by longest-
path evaluation over the dependency DAG: device compute streams are
chains, collectives are barrier nodes serialized per communicator, and
interlaced VF/VB segments are synchronized nodes occupying every
device.  Iteration time, bubble fractions, MFU and the full
peak-memory timeline all derive from the resulting timing.
"""

from repro.sim.runtime import PassTimings, RuntimeModel, SimulationSetup
from repro.sim.executor import (
    DeadlockError,
    ExecutionResult,
    execute_schedule,
    execute_schedule_dataflow,
    refine_schedule_order,
    simulation_engine,
)
from repro.sim.compiled import (
    CompiledGraph,
    ExecutionSummary,
    Perturbation,
    compile_schedule,
)
from repro.sim.memory import MemoryReport, memory_report, live_microbatch_peaks
from repro.sim.trace import render_timeline, render_order

__all__ = [
    "PassTimings",
    "RuntimeModel",
    "SimulationSetup",
    "execute_schedule",
    "execute_schedule_dataflow",
    "refine_schedule_order",
    "simulation_engine",
    "CompiledGraph",
    "compile_schedule",
    "ExecutionResult",
    "ExecutionSummary",
    "Perturbation",
    "DeadlockError",
    "MemoryReport",
    "memory_report",
    "live_microbatch_peaks",
    "render_timeline",
    "render_order",
]
