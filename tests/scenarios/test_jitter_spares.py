"""Jitter rows and robustness statistics never read recycled memory.

Under a ranking's :class:`~repro.scenarios.perturb.DrawStream`,
:func:`perturbed_rows` writes its rows into work arrays the stream
lends from :mod:`repro.spares` for the ranking, and the batched sweep
borrows its own buffers there too.  Without ``_draws`` the rows are
fresh arrays the caller owns; under it they stay valid until the
stream's next call.  Threads running robust rankings at once must
never share a buffer, so their statistics equal serial runs.
"""

import threading

import pytest

import repro.scenarios.perturb as perturb
from repro import spares
from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import generate_method_schedule
from repro.scenarios import ClusterScenario, get_scenario, perturbed_rows, robustness_stats
from repro.sim import RuntimeModel, SimulationSetup, compile_schedule

JITTERY = ClusterScenario(name="t-spares", pass_jitter=0.1, comm_jitter=0.2)

needs_numpy = pytest.mark.skipif(
    perturb._np is None, reason="buffers are lent only with numpy"
)


def _graph(method, p=4, m=8):
    model = ModelConfig(
        num_layers=4 * p,
        hidden_size=512,
        num_attention_heads=8,
        seq_length=256,
        vocab_size=4096,
    )
    setup = SimulationSetup(model, ParallelConfig(pipeline_size=p, num_microbatches=m))
    schedule = generate_method_schedule(method, setup)
    return compile_schedule(schedule, RuntimeModel(setup, schedule))


@pytest.fixture(scope="module")
def graphs():
    return [
        _graph("vocab-1"),
        _graph("interlaced", m=6),
        _graph("vhalf-vocab-2", m=10),
        _graph("baseline", p=2, m=4),
    ]


def _rendered(rows):
    durations, lags = rows
    return [list(row) for row in durations], [list(row) for row in lags]


@needs_numpy
def test_private_rows_are_fresh_and_stay(graphs):
    """Rows drawn without ``_draws`` own their memory: later draws on
    other graphs and K, a shared ranking and sweeps leave them alone."""
    np = perturb._np
    kept = []
    for seed, (graph, samples) in enumerate(
        (g, k) for k in (3, 64) for g in graphs
    ):
        rows = perturbed_rows(graph, JITTERY, samples, seed)
        kept.append((rows, _rendered(rows)))
        stream = perturb.DrawStream(JITTERY, seed)
        shared = perturbed_rows(graph, JITTERY, samples, seed, _draws=stream)
        assert _rendered(shared) == kept[-1][1]
        graph.execute_many_summary(*shared)
        stream.release()
    for (durations, lags), expected in kept:
        assert _rendered((durations, lags)) == expected
        for spare in spares._spares:
            assert not np.shares_memory(durations, spare)
            assert not np.shares_memory(lags, spare)


@needs_numpy
def test_shared_rows_live_in_the_streams_buffers(graphs):
    """Under ``_draws`` the rows sit in arrays the stream lends, reused
    by its next call, and handed back on release."""
    np = perturb._np
    graph = graphs[0]
    expected_rows = perturbed_rows(graph, JITTERY, 16, 4)
    expected = _rendered(expected_rows)
    spares.clear()
    graph.execute_many_summary(*expected_rows)  # leaves spares the stream can take
    stream = perturb.DrawStream(JITTERY, 4)
    first = perturbed_rows(graph, JITTERY, 16, 4, _draws=stream)
    assert _rendered(first) == expected
    lent = list(stream._lent.values())
    assert any(np.shares_memory(first[0], a) for a in lent)
    assert any(np.shares_memory(first[1], a) for a in lent)
    second = perturbed_rows(graph, JITTERY, 16, 4, _draws=stream)
    assert np.shares_memory(first[0], second[0])
    assert _rendered(second) == expected
    stream.release()
    assert stream._lent == {}
    bases = [id(b) for b in spares._spares]
    assert len(set(bases)) == len(bases)  # no buffer listed twice
    assert all(id(a.base) in bases for a in lent)


@pytest.mark.parametrize("hide_numpy", [False, True])
def test_pure_python_rows_lend_nothing(graphs, hide_numpy, monkeypatch):
    """The NumPy-free path, shared stream or not, returns plain lists
    and never borrows."""
    def refuse(shape):
        raise AssertionError(f"lent {shape}")

    if not hide_numpy and perturb._np is None:
        pytest.skip("numpy is not installed")
    if hide_numpy:
        monkeypatch.setattr(perturb, "_np", None)
        monkeypatch.setattr(spares, "lend", refuse)
    graph = graphs[3]
    stream = perturb.DrawStream(JITTERY, 2)
    shared = perturbed_rows(graph, JITTERY, 4, 2, _draws=stream)
    alone = perturbed_rows(graph, JITTERY, 4, 2)
    stream.release()
    assert _rendered(shared) == _rendered(alone)
    if hide_numpy:
        assert isinstance(shared[0], list) and isinstance(alone[1], list)
    else:
        assert not any(
            perturb._np.shares_memory(alone[0], a) for a in spares._spares
        )


def _ranking(graphs, scenario, seed, samples):
    """One ranking's statistics, the candidates sharing one stream."""
    stream = perturb.DrawStream(scenario, seed)
    try:
        return [
            robustness_stats(g, scenario, samples, seed, _draws=stream).as_dict()
            for g in graphs
        ]
    finally:
        stream.release()


@needs_numpy
def test_concurrent_rankings_equal_serial(graphs, monkeypatch):
    """Four threads, each ranking different graphs under its own seeds
    and scenario, give exactly the serial statistics of a run that
    keeps no spares."""
    scenarios = (JITTERY, get_scenario("slow-node"))
    work = [
        [
            (graphs[(t + i) % 4 :] + graphs[: (t + i) % 4], scenarios[t % 2], 10 * t + i, 96)
            for i in range(4)
        ]
        for t in range(4)
    ]
    with monkeypatch.context() as unspared:
        unspared.setattr(spares, "CAP_BYTES", 0)
        spares.clear()
        expected = [[_ranking(*job) for job in jobs] for jobs in work]
    spares.clear()
    got = [None] * 4
    errors = []
    barrier = threading.Barrier(4)

    def run(t):
        try:
            barrier.wait()
            got[t] = [_ranking(*job) for job in work[t]]
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert got == expected
    assert spares.held_bytes() <= spares.CAP_BYTES
