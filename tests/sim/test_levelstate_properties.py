"""Invariants of the resident :class:`LevelState` and the what-if queries.

A what-if sweeps copies of the bound rows, so the properties that keep
the graph safe to leave resident inside the planner's graph cache are:
re-asking the same question gives the same answer, every answer is
priced against the bound binding (never compounding on an earlier
query), the binding itself is never mutated, and interleaving what-if
queries with full executions (``execute`` / ``execute_many`` / the
batched summary path) never corrupts either side.
"""

import random

import pytest

import repro.sim.compiled as compiled_mod
from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import build_schedule
from repro.sim import (
    RuntimeModel,
    SimulationSetup,
    compile_schedule,
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


def _graph(setup, method="vocab-1"):
    schedule = build_schedule(method, setup, refine=False)
    runtime = RuntimeModel(setup, schedule)
    return schedule, runtime, compile_schedule(schedule, runtime)


def _snapshot(state):
    return (list(state.ready), list(state.end), state.baseline)


class TestIdempotence:
    def test_same_delta_twice_is_identical(self, setup):
        _, _, graph = _graph(setup)
        perturbation = graph.device_perturbation(2, 1.4)
        first = graph.execute_delta(perturbation)
        second = graph.execute_delta(perturbation)
        assert first.pass_times == second.pass_times
        assert first.collective_times == second.collective_times
        assert first.iteration_time == second.iteration_time
        assert first.device_busy == second.device_busy
        summary_a = graph.execute_delta_summary(perturbation)
        summary_b = graph.execute_delta_summary(perturbation)
        assert summary_a == summary_b

    def test_queries_price_absolute_not_compounding(self, setup):
        """Two what-ifs with the same factor answer the same question —
        the second is not 'factor squared' on top of the first."""
        _, _, graph = _graph(setup)
        perturbation = graph.device_perturbation(1, 2.0)
        first = graph.execute_delta_summary(perturbation)
        second = graph.execute_delta_summary(perturbation)
        assert first.iteration_time == second.iteration_time


class TestBinding:
    def test_graph_binding_never_mutated(self, setup):
        """A query leaves the bound rows and the resident baseline
        exactly as they were — there is nothing to roll back."""
        _, _, graph = _graph(setup)
        state = graph.checkpoint()
        baseline = _snapshot(state)
        durations = list(graph.durations)
        lags = list(graph.succ_lag)
        graph.execute_delta(graph.device_perturbation(1, 2.0))
        graph.execute_delta_summary(graph.device_perturbation(3, 0.5))
        assert graph.durations == durations
        assert graph.succ_lag == lags
        assert graph.checkpoint() is state
        assert _snapshot(state) == baseline


class TestBaseline:
    @pytest.mark.parametrize("method", ["vocab-1", "vhalf-vocab-1", "interlaced"])
    def test_checkpoint_baseline_matches_execute(self, setup, method):
        """The summary kept with the checkpoint is what a fresh
        ``execute()`` of the bound binding reports — bit for bit."""
        _, _, graph = _graph(setup, method)
        baseline = graph.checkpoint().baseline
        full = graph.execute()
        assert baseline.iteration_time == full.iteration_time
        assert baseline.device_busy == tuple(full.device_busy)


class TestInterleaving:
    def test_delta_full_delta_is_stable(self, setup):
        _, _, graph = _graph(setup)
        perturbation = graph.device_perturbation(2, 1.8)
        first = graph.execute_delta(perturbation)
        baseline = graph.execute()
        rows = [list(graph.durations)] * 2
        for result in graph.execute_many(rows):
            assert result.pass_times == baseline.pass_times
        again = graph.execute_delta(perturbation)
        assert first.pass_times == again.pass_times
        assert graph.execute().pass_times == baseline.pass_times


class TestK1FastPath:
    """execute_many's K=1 lane runs the scalar sweep; its results stay
    pinned — bit for bit — to the batched path, with or without a
    resident LevelState on the graph."""

    def _rows(self, graph, seed):
        rng = random.Random(seed)
        row = list(graph.durations)
        device = rng.randrange(len(graph.device_nodes))
        factor = rng.uniform(0.5, 2.0)
        for i in graph.device_nodes[device]:
            row[i] = factor * row[i]
        return row

    def test_k1_matches_batched_path(self, setup):
        if compiled_mod._np is None:
            pytest.skip("batched path needs NumPy")
        _, _, graph = _graph(setup, "vhalf-vocab-1")
        state = graph.checkpoint()
        baseline = _snapshot(state)
        row = self._rows(graph, "k1")
        single = graph.execute_many([row])[0]
        assert graph.checkpoint() is state  # resident state survives
        assert _snapshot(state) == baseline
        batched = graph.execute_many([row, row])  # K=2 → vectorized lane
        for result in batched:
            assert single.pass_times == result.pass_times
            assert single.collective_times == result.collective_times
            assert single.iteration_time == result.iteration_time
            assert single.device_busy == result.device_busy

    def test_k1_matches_plain_sweep_without_checkpoint(self, setup):
        schedule, runtime, graph = _graph(setup, "redis")
        row = self._rows(graph, "sweep")
        cold = compile_schedule(schedule, runtime)
        plain = cold.execute_many([row])[0]  # no resident state
        graph.checkpoint()
        warm = graph.execute_many([row])[0]
        assert warm.pass_times == plain.pass_times
        assert warm.iteration_time == plain.iteration_time
        assert warm.device_busy == plain.device_busy

    def test_k1_summary_matches(self, setup):
        _, _, graph = _graph(setup, "interlaced")
        graph.checkpoint()
        row = self._rows(graph, "summary")
        with_state = graph.execute_many_summary([row])[0]
        graph._levelstate = None
        without_state = graph.execute_many_summary([row])[0]
        assert with_state == without_state
