"""The batched level sweep equals the scalar sweep, bit for bit.

:meth:`CompiledGraph.execute_many` and
:meth:`CompiledGraph.execute_many_summary` sweep K bindings at once
over the graph's level plan (:class:`repro.sim.compiled._LevelPlan`):
each node pulls the max of its predecessors' ``end + lag``.  For every
schedule family, with zero-duration passes, random durations and
random lags, every batched column must equal the per-row scalar
``_sweep`` collected by ``_collect`` / ``_summarize``.  The lag
matrices cover both of the kernel's lag paths: lags only on P2P edges
(the compact block every priced binding takes) and hand-built lags on
every edge, non-P2P ones included.
"""

import random

import pytest

import repro.sim.compiled as compiled
from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import KNOWN_METHODS, build_schedule
from repro.sim import RuntimeModel, SimulationSetup, compile_schedule

MODEL = ModelConfig(
    num_layers=16,
    hidden_size=512,
    num_attention_heads=8,
    seq_length=512,
    vocab_size=32 * 1024,
)
PARALLEL = ParallelConfig(pipeline_size=4, num_microbatches=6, microbatch_size=1)

SAMPLE_COUNTS = (2, 3, 17)

pytestmark = pytest.mark.skipif(
    compiled._np is None, reason="the level sweep runs only with numpy"
)


@pytest.fixture(scope="module")
def graphs():
    setup = SimulationSetup(MODEL, PARALLEL)
    out = {}
    for method in KNOWN_METHODS:
        schedule = build_schedule(method, setup, refine=False)
        out[method] = compile_schedule(schedule, RuntimeModel(setup, schedule))
    return out


def _duration_rows(graph, rng, k_rows):
    """Random non-negative durations; about one node in five is zero."""
    return [
        [0.0 if rng.random() < 0.2 else rng.uniform(0.0, 2.0) for _ in range(graph.num_nodes)]
        for _ in range(k_rows)
    ]


def _lag_rows(graph, rng, k_rows, every_edge=False, low=0.0):
    """Random lags on the P2P edges (or on every edge), zero elsewhere."""
    lagged = [every_edge or pair is not None for pair in graph.succ_p2p]
    return [
        [rng.uniform(low, 1.0) if on else 0.0 for on in lagged]
        for _ in range(k_rows)
    ]


def _assert_matches_scalar(graph, durations, lags):
    batched = graph.execute_many(durations, lags)
    summaries = graph.execute_many_summary(durations, lags)
    assert len(batched) == len(summaries) == len(durations)
    for k, (result, summary) in enumerate(zip(batched, summaries)):
        start, end = graph._sweep(durations[k], graph.succ_lag if lags is None else lags[k])
        scalar = graph._collect(start, end)
        assert result._start == start
        assert result._end == end
        assert result.iteration_time == scalar.iteration_time
        assert result.device_busy == scalar.device_busy
        assert summary == graph._summarize(start, end)


@pytest.mark.parametrize("k_rows", SAMPLE_COUNTS)
@pytest.mark.parametrize("method", KNOWN_METHODS)
class TestLevelSweepEqualsScalar:
    def test_p2p_lags(self, graphs, method, k_rows):
        graph = graphs[method]
        rng = random.Random(f"{method}/{k_rows}/p2p")
        durations = _duration_rows(graph, rng, k_rows)
        _assert_matches_scalar(graph, durations, _lag_rows(graph, rng, k_rows))

    def test_bound_lags(self, graphs, method, k_rows):
        graph = graphs[method]
        rng = random.Random(f"{method}/{k_rows}/bound")
        _assert_matches_scalar(graph, _duration_rows(graph, rng, k_rows), None)

    def test_lags_on_every_edge(self, graphs, method, k_rows):
        """A hand-built matrix weighing non-P2P edges takes the kernel's
        all-edge lag rows."""
        graph = graphs[method]
        rng = random.Random(f"{method}/{k_rows}/every")
        durations = _duration_rows(graph, rng, k_rows)
        lags = _lag_rows(graph, rng, k_rows, every_edge=True)
        _assert_matches_scalar(graph, durations, lags)

    def test_negative_lags(self, graphs, method, k_rows):
        """Every ready time starts at 0.0, as the scalar sweep's does,
        even where all of a node's candidates are negative."""
        graph = graphs[method]
        rng = random.Random(f"{method}/{k_rows}/negative")
        durations = _duration_rows(graph, rng, k_rows)
        lags = _lag_rows(graph, rng, k_rows, every_edge=True, low=-3.0)
        _assert_matches_scalar(graph, durations, lags)


def test_all_zero_durations_and_lags(graphs):
    graph = graphs["vocab-1"]
    zeros = [[0.0] * graph.num_nodes] * 3
    no_lags = [[0.0] * len(graph.succ_node)] * 3
    _assert_matches_scalar(graph, zeros, no_lags)
    summaries = graph.execute_many_summary(zeros, no_lags)
    assert {s.iteration_time for s in summaries} == {0.0}


def test_level_plan_pads_to_the_zero_row(graphs):
    """Every level is a slice of the level-major order, its padding and
    chain entries read the zero rows, and every edge is pulled once."""
    graph = graphs["vhalf-vocab-1"]
    plan = graph._level_plan()
    num_edges = len(graph.succ_node)
    pulled = []
    expected_start = 0
    for start, stop, src, p2p_idx, edge_idx in plan.levels:
        assert start == expected_start
        expected_start = stop
        if src is None:
            assert p2p_idx is None and edge_idx is None
            continue
        assert src.shape[0] == stop - start
        assert (src < graph.num_nodes).any(axis=1).all()
        if edge_idx is not None:
            assert edge_idx.shape == src.shape
            pulled += [int(k) for k in edge_idx.ravel() if k < num_edges]
            padding = src == graph.num_nodes
            assert (edge_idx[padding] == num_edges).all()
        if p2p_idx is not None:
            assert (p2p_idx[src == graph.num_nodes] == len(plan.p2p_edges)).all()
    assert expected_start == graph.num_nodes
    assert sorted(pulled) == list(range(num_edges))
    assert sorted(plan.perm.tolist()) == list(range(graph.num_nodes))
