"""Compiled results are views over a run's per-node start/end arrays.

:class:`~repro.sim.compiled.ResultView` computes ``iteration_time`` and
``device_busy`` when it is made and builds ``pass_times`` /
``collective_times`` only when read.  These tests pin that the lazily
built maps are the reference engine's, that every consumer reading rows
through :meth:`~repro.sim.executor.ExecutionResult.device_rows` gets the
same answer from a view and from its materialized copy, that a view
pickles as a plain result, and that the planner's and optimizer's hot
paths never build the per-pass map at all.
"""

import pickle
import random

import pytest

from repro.api import PlanCache, PlannerConstraints, optimize, plan
from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import KNOWN_METHODS, build_schedule, run_method
from repro.sim import RuntimeModel, SimulationSetup, compile_schedule, memory_report
from repro.sim.compiled import ResultView
from repro.sim.executor import ExecutionResult, _live_f_caps
from repro.sim.memory import live_microbatch_peaks
from repro.sim.reference_executor import (
    reference_execute_schedule,
    reference_execute_schedule_dataflow,
)

MODEL = ModelConfig(
    num_layers=16,
    hidden_size=512,
    num_attention_heads=8,
    seq_length=512,
    vocab_size=32 * 1024,
)
PARALLEL = ParallelConfig(pipeline_size=4, num_microbatches=6, microbatch_size=1)


@pytest.fixture(scope="module")
def setup() -> SimulationSetup:
    return SimulationSetup(MODEL, PARALLEL)


def _mode(schedule) -> str:
    return "zero-bubble" if schedule.has_weight_passes else "strict"


def _graph(method, setup):
    schedule = build_schedule(method, setup, refine=False)
    return schedule, RuntimeModel(setup, schedule)


def _materialized(view: ExecutionResult) -> ExecutionResult:
    return ExecutionResult(
        schedule=view.schedule,
        pass_times=dict(view.pass_times),
        collective_times=dict(view.collective_times),
        iteration_time=view.iteration_time,
        device_busy=list(view.device_busy),
    )


def _stream_order(schedule) -> list:
    return [p for order in schedule.device_orders for p in order]


@pytest.mark.parametrize("method", KNOWN_METHODS)
class TestLazyMaps:
    def _check(self, view, reference, schedule):
        assert isinstance(view, ResultView)
        assert view._pass_times is None and view._collective_times is None
        assert view.iteration_time == reference.iteration_time
        assert view.device_busy == reference.device_busy
        assert view.pass_times == reference.pass_times
        assert view.collective_times == reference.collective_times
        # Pass entries in flattened stream order, as before views.
        assert list(view.pass_times) == _stream_order(schedule)
        # Built once, then served from the cache.
        assert view.pass_times is view.pass_times
        assert view.collective_times is view.collective_times
        assert view == reference

    def test_in_order(self, method, setup):
        schedule, runtime = _graph(method, setup)
        view = compile_schedule(schedule, runtime).execute()
        self._check(view, reference_execute_schedule(schedule, runtime), schedule)

    @pytest.mark.parametrize("lookahead", [1, 4, 64])
    def test_dataflow(self, method, lookahead, setup):
        schedule, runtime = _graph(method, setup)
        mode = _mode(schedule)
        view = compile_schedule(schedule, runtime).execute_dataflow(
            lookahead=lookahead, mode=mode
        )
        reference = reference_execute_schedule_dataflow(
            schedule, runtime, lookahead=lookahead, mode=mode
        )
        self._check(view, reference, schedule)

    def test_refined(self, method, setup):
        schedule, runtime = _graph(method, setup)
        refined, view, _ = compile_schedule(schedule, runtime).refine(
            mode=_mode(schedule)
        )
        self._check(view, reference_execute_schedule(refined, runtime), refined)

    def test_execute_many(self, method, setup):
        schedule, runtime = _graph(method, setup)
        graph = compile_schedule(schedule, runtime)
        rows = [graph.binding_rows(runtime)[0]] * 2
        for view in graph.execute_many(rows):
            self._check(view, reference_execute_schedule(schedule, runtime), schedule)


@pytest.mark.parametrize("method", KNOWN_METHODS)
class TestRowConsumers:
    """``memory_report``, ``_live_f_caps``, ``live_microbatch_peaks`` and
    ``passes_on`` agree on a view and on its materialized copy."""

    def _results(self, method, setup):
        schedule, runtime = _graph(method, setup)
        graph = compile_schedule(schedule, runtime)
        yield graph.execute()
        yield graph.execute_dataflow(lookahead=8, mode=_mode(schedule))
        yield graph.refine(mode=_mode(schedule))[1]

    def test_same_on_view_and_copy(self, method, setup):
        for view in self._results(method, setup):
            copy = _materialized(view)
            for device in range(len(view.device_busy)):
                assert list(view.device_rows(device)) == list(copy.device_rows(device))
            assert memory_report(view, setup) == memory_report(copy, setup)
            assert memory_report(view, setup, weight_release_fraction=0.5) == (
                memory_report(copy, setup, weight_release_fraction=0.5)
            )
            assert _live_f_caps(view.schedule, view) == _live_f_caps(copy.schedule, copy)
            assert live_microbatch_peaks(view) == live_microbatch_peaks(copy)
            for device in range(len(view.device_busy)):
                assert view.passes_on(device) == copy.passes_on(device)
            assert view.passes_on(len(view.device_busy)) == []

    def test_rows_do_not_build_the_maps(self, method, setup):
        for view in self._results(method, setup):
            if view._pass_times is not None:
                continue  # refine() may return the original graph's result
            memory_report(view, setup)
            _live_f_caps(view.schedule, view)
            assert view._pass_times is None


class _Scaled:
    """Scales each (type, device, chunk) stream's durations by a factor."""

    def __init__(self, inner, factors):
        self.inner = inner
        self.factors = factors

    def pass_duration(self, p):
        return self.inner.pass_duration(p) * self.factors[(p.type, p.device, p.chunk)]

    def collective_duration(self, kind):
        return self.inner.collective_duration(kind)

    def p2p_duration(self, src, dst):
        return self.inner.p2p_duration(src, dst)


@pytest.mark.parametrize("seed", range(24))
def test_positive_durations_dispatch_in_sorted_order(seed):
    """With every pass duration > 0, each device's dispatch starts
    strictly increase, so ``refine()`` may skip the (start, end) sort."""
    rng = random.Random(seed)
    method = KNOWN_METHODS[seed % len(KNOWN_METHODS)]
    setup = SimulationSetup(
        MODEL,
        ParallelConfig(
            pipeline_size=rng.choice((2, 4)),
            num_microbatches=rng.choice((4, 6, 8)),
            microbatch_size=1,
        ),
    )
    schedule = build_schedule(method, setup, refine=False)
    streams = {(p.type, p.device, p.chunk) for order in schedule.device_orders for p in order}
    factors = {key: rng.uniform(0.05, 3.0) for key in sorted(streams, key=str)}
    graph = compile_schedule(schedule, _Scaled(RuntimeModel(setup, schedule), factors))
    assert min(graph.durations[: graph.num_passes]) > 0.0
    for lookahead in (1, 4, 64):
        start, end, dispatched = graph._dataflow(lookahead, _mode(schedule))
        for device, nodes in enumerate(graph.device_nodes):
            ordered = sorted(nodes, key=lambda i: (start[i], end[i]))
            assert dispatched[device] == ordered
            starts = [start[i] for i in dispatched[device]]
            assert all(a < b for a, b in zip(starts, starts[1:]))


@pytest.mark.parametrize("method", KNOWN_METHODS)
def test_pickled_view_round_trips(method, setup):
    schedule, runtime = _graph(method, setup)
    view = compile_schedule(schedule, runtime).refine(mode=_mode(schedule))[1]
    loaded = pickle.loads(pickle.dumps(view))
    assert type(loaded) is ExecutionResult
    assert loaded == view
    assert loaded.pass_times == view.pass_times
    assert list(loaded.pass_times) == list(view.pass_times)
    assert loaded.collective_times == view.collective_times
    assert loaded.iteration_time == view.iteration_time
    assert loaded.device_busy == view.device_busy
    assert memory_report(loaded, setup) == memory_report(view, setup)
    for device in range(len(view.device_busy)):
        assert loaded.passes_on(device) == view.passes_on(device)


def test_views_compare_by_value(setup):
    schedule, runtime = _graph("vocab-1", setup)
    graph = compile_schedule(schedule, runtime)
    assert graph.replay() == graph.replay() == _materialized(graph.execute())
    slower = compile_schedule(
        schedule,
        _Scaled(
            runtime,
            {(p.type, p.device, p.chunk): 2.0 for order in schedule.device_orders for p in order},
        ),
    )
    assert slower.execute() != graph.execute()
    assert graph.execute() != "not a result"


class TestNoPassTimesOnHotPaths:
    """The planner and the optimizer's scoring keep only iteration time,
    busy sums and memory peaks; building the per-pass map there is the
    work views exist to skip."""

    @pytest.fixture(autouse=True)
    def forbid_pass_times(self, monkeypatch):
        def fail(self):
            raise AssertionError("pass_times materialized on a hot path")

        monkeypatch.setattr(ResultView, "pass_times", property(fail))

    @pytest.mark.parametrize("refine", [True, False])
    @pytest.mark.parametrize("method", KNOWN_METHODS)
    def test_run_method(self, method, refine, setup):
        run_method(method, MODEL, PARALLEL, setup=setup, refine=refine)

    def test_plan(self):
        plan(MODEL, PARALLEL, cache=PlanCache())

    def test_optimizer_scoring(self):
        result = optimize(
            MODEL,
            ParallelConfig(pipeline_size=4, num_microbatches=8, microbatch_size=1),
            PlannerConstraints(),
            cache=PlanCache(),
            scenario="slow-node",
            budget=4,
        )
        # The start, its token split and the split's own split.
        assert result.evaluations == 3

    def test_guard_trips(self, setup):
        schedule, runtime = _graph("vocab-1", setup)
        with pytest.raises(AssertionError, match="hot path"):
            compile_schedule(schedule, runtime).execute().pass_times
