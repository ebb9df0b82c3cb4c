"""Per-layer spans for the traced run, recorded from outside the program.

Each layer's public function is wrapped where its caller binds it — the
module attribute the caller looks up (``repro.harness.experiments.
compile_schedule``, not ``repro.sim.compile_schedule``) or the method on
the class (``CompiledGraph.replay``, ``Schedule.validate``).  A wrapper
records one span per call and never touches arguments or results, so
simulated floats are unchanged.

Self time is a span's duration minus the spans nested inside it.  A call
nested directly in a span of the same layer (``refine`` calling
``execute_dataflow``) adds to that layer's self time but not to its call
count.  Coverage is the summed duration of outermost spans over the timed
wall: how much of the workload's time the named layers account for.

The wrappers are installed only for the traced run and removed after it,
so untraced runs execute the program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter


class Recorder:
    """Span totals for one traced window (``active`` gates recording)."""

    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Work counters measured at the same boundaries: nodes, rows,
        #: cache hits and misses.
        self.counts: dict[str, float] = defaultdict(float)
        #: Seconds covered by outermost spans.
        self.root_s = 0.0
        self._stack: list[list] = []

    def wrap(self, layer: str, fn, after=None):
        """``fn`` recording a ``layer`` span per call while active.

        ``after(recorder, args, result)`` updates work counters once the
        call returns.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                if parent is None:
                    self.root_s += elapsed
                else:
                    parent[1] += elapsed
                if parent is None or parent[0] != layer:
                    self.calls[layer] += 1
            if after is not None:
                after(self, args, result)
            return result

        return traced


def _count_compiled(recorder: Recorder, args, result) -> None:
    recorder.counts["sim.compile.nodes"] += result.num_nodes


def _count_replayed(recorder: Recorder, args, result) -> None:
    recorder.counts["sim.replay.nodes"] += args[0].num_nodes


def _count_rows(recorder: Recorder, args, result) -> None:
    recorder.counts["sim.batch.rows"] += len(result)


def _count_lookup(recorder: Recorder, args, result) -> None:
    recorder.counts["planner.cache.misses" if result is None else "planner.cache.hits"] += 1


def _probe_counter(recorder: Recorder, probe, entries):
    """``probe`` counting memo hits: a miss adds one memo entry."""

    @functools.wraps(probe)
    def counted(*args, **kwargs):
        if not recorder.active:
            return probe(*args, **kwargs)
        before = entries()
        result = probe(*args, **kwargs)
        hit = entries() == before
        recorder.counts["planner.probe_cache.hits" if hit else "planner.probe_cache.misses"] += 1
        return result

    return counted


def _targets():
    """(layer, owner, attribute, after-hook) for every wrapped boundary."""
    experiments = importlib.import_module("repro.harness.experiments")
    planner = importlib.import_module("repro.planner.planner")
    perturb = importlib.import_module("repro.scenarios.perturb")
    search = importlib.import_module("repro.optimize.search")
    rewrites = importlib.import_module("repro.optimize.rewrites")
    from repro.planner.cache import PlanCache
    from repro.scheduling.schedule import Schedule
    from repro.sim.compiled import CompiledGraph

    generators = (
        "generate_1f1b",
        "generate_1f1b_vocab",
        "generate_interlaced",
        "generate_vhalf",
        "generate_vhalf_vocab",
        "redistribute_layers",
    )
    targets = [("scheduling.generate", experiments, name, None) for name in generators]
    targets += [
        ("scheduling.validate", Schedule, "validate", None),
        ("sim.compile", experiments, "compile_schedule", _count_compiled),
        ("sim.compile", search, "compile_schedule", _count_compiled),
        ("sim.refine", CompiledGraph, "refine", None),
        ("sim.refine", CompiledGraph, "execute_dataflow", None),
        ("sim.refine", CompiledGraph, "with_orders", None),
        ("sim.replay", CompiledGraph, "replay", _count_replayed),
        ("sim.memory", experiments, "memory_report", None),
        ("sim.memory", search, "memory_report", None),
        ("sim.delta", CompiledGraph, "checkpoint", None),
        ("sim.delta", CompiledGraph, "execute_delta", None),
        ("sim.delta", CompiledGraph, "execute_delta_summary", None),
        ("sim.batch", CompiledGraph, "execute_many", _count_rows),
        ("sim.batch", CompiledGraph, "execute_many_summary", _count_rows),
        ("scenarios.perturb", perturb, "perturbed_rows", None),
        ("planner.estimate", planner, "estimate_method", None),
        ("planner.cache", PlanCache, "get", _count_lookup),
        ("planner.cache", PlanCache, "get_aux", _count_lookup),
        ("optimize.score", search.ScoreContext, "score", None),
    ]
    # Search strategies reach the rewrite rules through the instances,
    # so each rule class is wrapped where it defines the method.
    for rule in sorted({type(r) for r in rewrites.default_rewrites()}, key=lambda c: c.__name__):
        targets += [
            ("optimize.rewrite", rule, name, None)
            for name in ("sites", "apply")
            if name in rule.__dict__
        ]
    for module in ("repro.planner.planner", "repro.planner.whatif", "repro.optimize.optimizer"):
        targets.append(("planner.digest", importlib.import_module(module), "config_digest", None))
    return targets


class Tracing:
    """Install the layer wrappers for one traced window, then remove them."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> Recorder:
        recorder = self.recorder
        for layer, owner, name, after in _targets():
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, recorder.wrap(layer, original, after))
        # The m=1 probe memo is consulted inside estimate_method (its
        # caller binds the module-level ``_probe``); it exposes only its
        # size, so a call that grows the memo is a miss.
        estimate = importlib.import_module("repro.planner.estimate")
        original = estimate.__dict__["_probe"]
        self._saved.append((estimate, "_probe", original))
        estimate._probe = _probe_counter(
            recorder, original, lambda: estimate.probe_cache_stats()["entries"]
        )
        return recorder

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
