"""Differential fuzz: what-if replay ⇔ fresh full execution.

:meth:`CompiledGraph.execute_delta` and
:meth:`CompiledGraph.execute_delta_summary` price a sparse
:class:`Perturbation` of a bound graph with one sweep of the perturbed
rows, and claim to be bit-identical to a fresh full execution of the
perturbed binding.  This suite fuzzes that claim with seeded random
perturbations — single device rows, multi-row stragglers, arbitrary
node/edge sets — across every schedule family and both engines
(NumPy and the pure-Python fallback), comparing every observable of
the :class:`ExecutionResult` (per-pass timing maps included) with
``==``.
"""

import random

import pytest

import repro.sim.compiled as compiled_mod
from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import KNOWN_METHODS, build_schedule
from repro.scheduling import Pass, PassType, generate_1f1b
from repro.sim import (
    DeadlockError,
    Perturbation,
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

#: Seeded perturbation shapes drawn per fuzz round (ISSUE 6's menu:
#: one device row, several rows, an arbitrary node/edge cone).
KINDS = ("single-row", "multi-row", "cone")


@pytest.fixture(scope="module")
def setup() -> SimulationSetup:
    return SimulationSetup(MODEL, PARALLEL)


@pytest.fixture(params=("numpy", "pure-python"))
def engine(request, monkeypatch):
    if request.param == "numpy":
        if compiled_mod._np is None:
            pytest.skip("NumPy not installed")
    else:
        monkeypatch.setattr(compiled_mod, "_np", None)
    return request.param


def _graph(method, setup):
    schedule = build_schedule(method, setup, refine=False)
    runtime = RuntimeModel(setup, schedule)
    return schedule, runtime, compile_schedule(schedule, runtime)


def _random_perturbation(rng, graph, kind) -> Perturbation:
    num_devices = len(graph.device_nodes)
    if kind == "single-row":
        return graph.device_perturbation(
            rng.randrange(num_devices), rng.uniform(0.4, 2.5)
        )
    if kind == "multi-row":
        durations: dict[int, float] = {}
        for device in rng.sample(range(num_devices), k=min(3, num_devices)):
            factor = rng.uniform(0.4, 2.5)
            for i in graph.device_nodes[device]:
                durations[i] = factor * graph.durations[i]
        return Perturbation.from_maps(durations=durations)
    # "cone": a handful of arbitrary nodes (collective barriers
    # included) plus a couple of arbitrary edge lags.
    durations = {
        i: rng.uniform(0.4, 2.5) * graph.durations[i]
        for i in rng.sample(range(graph.num_nodes), k=min(8, graph.num_nodes))
    }
    num_edges = len(graph.succ_lag)
    lags = {
        k: graph.succ_lag[k] + rng.uniform(0.0, 2e-4)
        for k in rng.sample(range(num_edges), k=min(3, num_edges))
    }
    return Perturbation.from_maps(durations=durations, lags=lags)


def _perturbed_rows(graph, perturbation):
    dur = list(graph.durations)
    for i, value in perturbation.durations:
        dur[i] = value
    lag = list(graph.succ_lag)
    for k, value in perturbation.lags:
        lag[k] = value
    return dur, lag


def _fresh_full(schedule, runtime, perturbation):
    """The ground truth: a fresh graph, fully swept with the perturbed
    binding rows."""
    fresh = compile_schedule(schedule, runtime)
    dur, lag = _perturbed_rows(fresh, perturbation)
    return fresh.execute_many([dur], lags=[lag])[0]


def assert_results_identical(delta, full):
    assert delta.pass_times == full.pass_times
    assert delta.collective_times == full.collective_times
    assert delta.iteration_time == full.iteration_time
    assert delta.device_busy == full.device_busy
    for device in range(len(full.device_busy)):
        assert delta.bubble_fraction(device) == full.bubble_fraction(device)
        assert delta.passes_on(device) == full.passes_on(device)


@pytest.mark.parametrize("method", KNOWN_METHODS)
class TestDifferentialFuzz:
    ROUNDS = 6

    def test_delta_bit_identical_to_full(self, method, setup, engine):
        schedule, runtime, graph = _graph(method, setup)
        rng = random.Random(f"{method}/{engine}")
        for round_no in range(self.ROUNDS):
            kind = KINDS[round_no % len(KINDS)]
            perturbation = _random_perturbation(rng, graph, kind)
            full = _fresh_full(schedule, runtime, perturbation)
            assert_results_identical(graph.execute_delta(perturbation), full)
            summary = graph.execute_delta_summary(perturbation)
            assert summary.iteration_time == full.iteration_time
            assert list(summary.device_busy) == list(full.device_busy)
        # The graph's own binding is untouched: the unperturbed result
        # is still the baseline.
        baseline = _fresh_full(schedule, runtime, Perturbation())
        assert_results_identical(graph.execute(), baseline)

    def test_queries_leave_binding_untouched(self, method, setup, engine):
        """Every query sweeps copies: the bound rows and the resident
        baseline are exactly as they were, whatever the shape."""
        _, _, graph = _graph(method, setup)
        rng = random.Random(f"binding/{method}/{engine}")
        state = graph.checkpoint()
        durations = list(graph.durations)
        lags = list(graph.succ_lag)
        for kind in KINDS:
            perturbation = _random_perturbation(rng, graph, kind)
            graph.execute_delta(perturbation)
            graph.execute_delta_summary(perturbation)
            assert graph.durations == durations
            assert graph.succ_lag == lags
            assert graph.checkpoint() is state


class TestDeadlockParity:
    @staticmethod
    def _corrupted():
        schedule = generate_1f1b(2, 4, num_layers=2)
        order = schedule.device_orders[1]
        f0 = order.index(Pass(PassType.F, 0, 1))
        b0 = order.index(Pass(PassType.B, 0, 1))
        order[f0], order[b0] = order[b0], order[f0]
        return schedule

    def test_delta_path_raises_like_execute(self, setup, engine):
        corrupted = self._corrupted()
        runtime = RuntimeModel(setup, corrupted)
        graph = compile_schedule(corrupted, runtime)
        with pytest.raises(DeadlockError):
            graph.execute()
        perturbation = graph.device_perturbation(0, 1.5)
        with pytest.raises(DeadlockError):
            graph.execute_delta(perturbation)
        with pytest.raises(DeadlockError):
            graph.execute_delta_summary(perturbation)
        with pytest.raises(DeadlockError):
            graph.checkpoint()


class TestRebind:
    def test_rebound_graph_prices_new_runtime(self, setup):
        """A rebound graph prices its new runtime, not the old
        checkpoint — and the original graph's checkpoint is untouched."""

        class Doubled:
            def __init__(self, inner):
                self.inner = inner

            def pass_duration(self, p):
                return 2.0 * self.inner.pass_duration(p)

            def collective_duration(self, kind):
                return 2.0 * self.inner.collective_duration(kind)

            def p2p_duration(self, src, dst):
                return 2.0 * self.inner.p2p_duration(src, dst)

        schedule, runtime, graph = _graph("vocab-1", setup)
        state = graph.checkpoint()
        rebound = graph.rebind(Doubled(runtime))
        rebound_state = rebound.checkpoint()
        assert rebound_state is not state
        assert rebound_state.iteration_time == 2.0 * state.iteration_time
        perturbation = rebound.device_perturbation(0, 1.5)
        fresh = compile_schedule(schedule, Doubled(runtime))
        dur, lag = _perturbed_rows(fresh, perturbation)
        assert (
            rebound.execute_delta(perturbation).pass_times
            == fresh.execute_many([dur], lags=[lag])[0].pass_times
        )
        assert graph.checkpoint() is state


class TestPerturbationValidation:
    def test_unknown_device_rejected(self, setup):
        _, _, graph = _graph("baseline", setup)
        with pytest.raises(ValueError, match="device"):
            graph.device_perturbation(99, 1.5)

    def test_empty_perturbation_is_baseline(self, setup):
        schedule, runtime, graph = _graph("vocab-1", setup)
        assert_results_identical(
            graph.execute_delta(Perturbation()), graph.execute()
        )

    def test_support_counts_slots(self):
        perturbation = Perturbation.from_maps(
            durations={3: 1.0, 5: 2.0}, lags={0: 0.5}
        )
        assert perturbation.support == 3
