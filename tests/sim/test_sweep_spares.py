"""The batched sweep's recycled buffers never leak into its results.

:meth:`CompiledGraph.execute_many` and
:meth:`CompiledGraph.execute_many_summary` sweep in work buffers lent
by :mod:`repro.spares` and hand them back on return, so the next call,
on any graph and any K, sweeps in the same memory.  Every result must
therefore own its values: results taken earlier must read the same
after later calls, and equal the per-binding scalar sweep.  The
spares never hold more than their cap, never hand one buffer to two
holders, and the K=1 and NumPy-free paths borrow nothing.
"""

import random

import pytest

import repro.sim.compiled as compiled
from repro import spares
from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import build_schedule, clear_structural_caches
from repro.sim import RuntimeModel, SimulationSetup, compile_schedule

MODEL = ModelConfig(
    num_layers=16,
    hidden_size=512,
    num_attention_heads=8,
    seq_length=512,
    vocab_size=32 * 1024,
)

needs_numpy = pytest.mark.skipif(
    compiled._np is None, reason="the batched sweep lends buffers only with numpy"
)


def _graph(method, microbatches):
    parallel = ParallelConfig(
        pipeline_size=4, num_microbatches=microbatches, microbatch_size=1
    )
    setup = SimulationSetup(MODEL, parallel)
    schedule = build_schedule(method, setup, refine=False)
    return compile_schedule(schedule, RuntimeModel(setup, schedule))


@pytest.fixture(scope="module")
def graphs():
    return [_graph("vocab-1", 6), _graph("interlaced", 4), _graph("vhalf-vocab-2", 8)]


def _bindings(graph, rng, k_rows, every_edge=False):
    """K jittered copies of the bound durations and lags; with
    ``every_edge``, every edge gets a lag, non-P2P ones included."""
    durations = [
        [d * rng.uniform(0.8, 1.3) for d in graph.durations] for _ in range(k_rows)
    ]
    lags = [
        [
            (lag or (1e-4 if every_edge else 0.0)) * rng.uniform(0.8, 1.3)
            for lag in graph.succ_lag
        ]
        for _ in range(k_rows)
    ]
    return durations, lags


def _result(result):
    """A deep, plain rendering of one full result."""
    return (
        result.iteration_time,
        tuple(result.device_busy),
        dict(result.pass_times),
        dict(result.collective_times),
    )


def _summary(summary):
    return (summary.iteration_time, tuple(summary.device_busy))


def _scalar(graph, durations, lags, summary):
    """Each binding swept alone, on the scalar path."""
    run = graph.execute_many_summary if summary else graph.execute_many
    render = _summary if summary else _result
    return [render(run([d], [lag])[0]) for d, lag in zip(durations, lags)]


@needs_numpy
@pytest.mark.parametrize("summary", [False, True], ids=["full", "summary"])
def test_results_survive_later_calls(graphs, summary):
    """Results read the same after later calls on other graphs, other K
    and every-edge lags, and equal the scalar sweep."""
    rng = random.Random(7)
    clear_structural_caches()
    calls = [
        (graph, k_rows, every_edge)
        for every_edge in (False, True)
        for graph in graphs
        for k_rows in (2, 5, 33)
    ]
    kept = []
    for graph, k_rows, every_edge in calls:
        durations, lags = _bindings(graph, rng, k_rows, every_edge)
        run = graph.execute_many_summary if summary else graph.execute_many
        kept.append((run(durations, lags), _scalar(graph, durations, lags, summary)))
        # The graph's own bound lags, broadcast over K.
        kept.append((
            run(durations),
            _scalar(graph, durations, [graph.succ_lag] * k_rows, summary),
        ))
    render = _summary if summary else _result
    for results, expected in kept:
        assert [render(r) for r in results] == expected


@needs_numpy
def test_sweep_hands_back_what_it_lends(graphs, monkeypatch):
    """Every buffer a sweep lends is back among the spares when it
    returns, and the next sweep of the same shape lends it again."""
    rng = random.Random(3)
    graph = graphs[0]
    durations, lags = _bindings(graph, rng, 9)
    clear_structural_caches()
    graph.execute_many_summary(durations, lags)
    held = spares.held_bytes()
    assert held > 0
    lent = []
    lend = spares.lend

    def recorded(shape):
        lent.append(lend(shape))
        return lent[-1]

    monkeypatch.setattr(spares, "lend", recorded)
    graph.execute_many_summary(durations, lags)
    assert spares.held_bytes() == held
    bases = {id(a.base) for a in lent}
    assert len(bases) == len(lent)
    assert bases <= {id(b) for b in spares._spares}


@needs_numpy
def test_spares_stay_under_the_cap(monkeypatch):
    """The spares never hold more than the cap; a request larger than
    the cap is served and keeps nothing; no two holders share one."""
    np = compiled._np
    spares.clear()
    monkeypatch.setattr(spares, "CAP_BYTES", 64 * 1024)
    small = [spares.lend((100, 8)) for _ in range(20)]
    for a, b in zip(small, small[1:]):
        assert not np.shares_memory(a, b)
    spares.give_back(*small)
    assert 0 < spares.held_bytes() <= spares.CAP_BYTES
    again = [spares.lend((100, 8)) for _ in range(3)]
    for a, b in zip(again, again[1:]):
        assert not np.shares_memory(a, b)
    spares.give_back(*again)
    spares.clear()
    big = spares.lend((100, 100))  # 80,000 bytes
    big[:] = 1.0
    spares.give_back(big)
    assert spares.held_bytes() == 0
    # A sweep whose buffers outgrow the cap runs, exact, and keeps nothing.
    monkeypatch.setattr(spares, "CAP_BYTES", 1024)
    graph = _graph("vocab-1", 6)
    durations, lags = _bindings(graph, random.Random(5), 40)
    assert [_summary(s) for s in graph.execute_many_summary(durations, lags)] == (
        _scalar(graph, durations, lags, summary=True)
    )
    assert spares.held_bytes() == 0


@needs_numpy
def test_clear_structural_caches_drops_the_spares(graphs):
    durations, lags = _bindings(graphs[1], random.Random(1), 4)
    graphs[1].execute_many(durations, lags)
    graphs[1].execute_many(durations, lags)
    bases = [id(b) for b in spares._spares]
    assert bases and len(set(bases)) == len(bases)  # no buffer listed twice
    clear_structural_caches()
    assert spares.held_bytes() == 0


@pytest.mark.parametrize("hide_numpy", [False, True])
def test_one_binding_and_pure_python_lend_nothing(graphs, hide_numpy, monkeypatch):
    """K=1 and the NumPy-free path sweep plain lists, as before."""
    def refuse(shape):
        raise AssertionError(f"lent {shape}")

    monkeypatch.setattr(spares, "lend", refuse)
    if hide_numpy:
        monkeypatch.setattr(compiled, "_np", None)
    rng = random.Random(11)
    graph = graphs[2]
    durations, lags = _bindings(graph, rng, 1 if not hide_numpy else 3)
    results = graph.execute_many(durations, lags)
    summaries = graph.execute_many_summary(durations, lags)
    assert [r.iteration_time for r in results] == [s.iteration_time for s in summaries]
    assert all(isinstance(r._end, list) for r in results)
