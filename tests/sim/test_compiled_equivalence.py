"""Compiled executor ⇔ reference executor equivalence suite.

The compiled engine (:mod:`repro.sim.compiled`) is a pure performance
refactor: for every schedule family and both execution modes it must
return **bit-identical** results to the frozen pre-refactor path
(:mod:`repro.sim.reference_executor`) — same pass times, collective
times, iteration time and busy fractions, float for float.  These
tests hold the two implementations together; any intentional semantic
change must land in both (and is probably wrong — the reference is
frozen by design).
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import KNOWN_METHODS, build_schedule
from repro.scheduling import Pass, PassType, generate_1f1b
from repro.sim import (
    DeadlockError,
    RuntimeModel,
    SimulationSetup,
    compile_schedule,
    execute_schedule,
    simulation_engine,
)
from repro.sim.reference_executor import (
    reference_execute_schedule,
    reference_execute_schedule_dataflow,
    reference_refine_schedule_order,
)

#: Small enough to keep the suite fast, big enough that every family
#: (incl. V-Half's 2p-divisibility) instantiates and the dataflow mode
#: actually reorders passes.
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


def _schedule_and_runtime(method, setup):
    schedule = build_schedule(method, setup, refine=False)
    return schedule, RuntimeModel(setup, schedule)


def assert_results_identical(compiled, reference):
    """Every observable of ExecutionResult, compared exactly (==)."""
    assert compiled.pass_times == reference.pass_times
    assert compiled.collective_times == reference.collective_times
    assert compiled.iteration_time == reference.iteration_time
    assert compiled.device_busy == reference.device_busy
    for device in range(len(reference.device_busy)):
        assert compiled.bubble_fraction(device) == reference.bubble_fraction(device)
        assert compiled.passes_on(device) == reference.passes_on(device)


@pytest.mark.parametrize("method", KNOWN_METHODS)
class TestEquivalence:
    def test_in_order_bit_identical(self, method, setup):
        schedule, runtime = _schedule_and_runtime(method, setup)
        compiled = compile_schedule(schedule, runtime).execute()
        reference = reference_execute_schedule(schedule, runtime)
        assert_results_identical(compiled, reference)

    @pytest.mark.parametrize("lookahead", [1, 4, 16])
    def test_dataflow_bit_identical(self, method, lookahead, setup):
        schedule, runtime = _schedule_and_runtime(method, setup)
        mode = "zero-bubble" if schedule.has_weight_passes else "strict"
        compiled = compile_schedule(schedule, runtime).execute_dataflow(
            lookahead=lookahead, mode=mode
        )
        reference = reference_execute_schedule_dataflow(
            schedule, runtime, lookahead=lookahead, mode=mode
        )
        assert_results_identical(compiled, reference)

    def test_refinement_chooses_identical_orders(self, method, setup):
        schedule, runtime = _schedule_and_runtime(method, setup)
        mode = "zero-bubble" if schedule.has_weight_passes else "strict"
        reference = reference_refine_schedule_order(schedule, runtime, mode=mode)
        refined, result, graph = compile_schedule(schedule, runtime).refine(
            mode=mode
        )
        assert refined.device_orders == reference.device_orders
        # The returned result is the in-order execution of the returned
        # schedule — what run_method previously recomputed from scratch.
        assert_results_identical(
            result, reference_execute_schedule(reference, runtime)
        )
        assert graph.schedule.device_orders == refined.device_orders


#: Families whose schedules plan() refines (vocabulary or split backward).
REFINABLE = ("vocab-1", "vocab-2", "vhalf-baseline", "vhalf-vocab-1", "vhalf-vocab-2")


class _Scaled:
    """A runtime scaling chosen pass durations and every P2P lag.

    ``factors`` maps a ``(type, device, chunk)`` stream or a whole pass
    type to the factor its durations are multiplied by.
    """

    def __init__(self, inner, factors, p2p_factor=1.0):
        self.inner = inner
        self.factors = factors
        self.p2p_factor = p2p_factor

    def pass_duration(self, p):
        factor = self.factors.get(
            (p.type, p.device, p.chunk), self.factors.get(p.type, 1.0)
        )
        return self.inner.pass_duration(p) * factor

    def collective_duration(self, kind):
        return self.inner.collective_duration(kind)

    def p2p_duration(self, src, dst):
        return self.inner.p2p_duration(src, dst) * self.p2p_factor


def _refine_mode(schedule):
    return "zero-bubble" if schedule.has_weight_passes else "strict"


def _assert_refine_exact(schedule, runtime):
    """``refine()``'s in-order result, taken from the dataflow run, equals
    a fresh replay of the refined orders and the reference engine."""
    mode = _refine_mode(schedule)
    graph = compile_schedule(schedule, runtime)
    refined, result, refined_graph = graph.refine(mode=mode)
    replayed = graph.with_orders(refined.device_orders).replay()
    assert_results_identical(result, replayed)
    reference = reference_refine_schedule_order(schedule, runtime, mode=mode)
    assert refined.device_orders == reference.device_orders
    assert_results_identical(result, reference_execute_schedule(reference, runtime))
    assert refined_graph.schedule is refined
    return graph, refined_graph


class TestRefineShortcut:
    """Pins the refinement shortcut: the refined schedule's in-order times
    are read off the dataflow run instead of replaying the refined graph
    (valid for non-negative durations and lags when sorting by
    ``(start, end)`` reproduces the dispatch order)."""

    def test_refinable_families(self, setup):
        from repro.harness.experiments import _wants_refinement

        refinable = tuple(
            method
            for method in KNOWN_METHODS
            if _wants_refinement(build_schedule(method, setup, refine=False))
        )
        assert refinable == REFINABLE

    @pytest.mark.parametrize("scenario", [None, "slow-node", "high-jitter"])
    @pytest.mark.parametrize("devices, microbatches", [(4, 6), (8, 32)])
    @pytest.mark.parametrize("method", REFINABLE)
    def test_matches_replay_and_reference(self, method, devices, microbatches, scenario):
        from repro.scenarios import get_scenario

        setup = SimulationSetup(
            MODEL,
            ParallelConfig(
                pipeline_size=devices, num_microbatches=microbatches, microbatch_size=1
            ),
        )
        cluster = None if scenario is None else get_scenario(scenario)
        if cluster is not None:
            setup = cluster.setup_for(setup)
        schedule = build_schedule(method, setup, refine=False)
        runtime = RuntimeModel(setup, schedule)
        if cluster is not None:
            runtime = cluster.wrap_runtime(runtime)
        _assert_refine_exact(schedule, runtime)

    def test_zero_duration_ties_replay_the_refined_order(self):
        """Zero-duration passes can tie in (start, end) with a pass the
        dataflow dispatched just before them, and the stable sort then
        puts them first; there the dataflow times are not the refined
        order's in-order times, so the refined graph is replayed — and
        the dataflow run, refined orders and result all still equal the
        reference engine's."""
        setup = SimulationSetup(
            MODEL, ParallelConfig(pipeline_size=2, num_microbatches=6, microbatch_size=1)
        )
        schedule = build_schedule("vhalf-vocab-1", setup, refine=False)
        factors = {
            (PassType.F, 0, 0): 3.0,
            (PassType.F, 0, 1): 0.0,
            (PassType.F, 1, 0): 0.0,
            (PassType.S, 1, 0): 0.0,
        }
        runtime = _Scaled(RuntimeModel(setup, schedule), factors)
        graph = compile_schedule(schedule, runtime)
        mode = _refine_mode(schedule)
        start, end, dispatched = graph._dataflow(64, mode)
        sorted_orders = [
            sorted(nodes, key=lambda i: (start[i], end[i])) for nodes in graph.device_nodes
        ]
        assert sorted_orders != dispatched  # the tie this test is about
        assert_results_identical(
            graph.execute_dataflow(lookahead=64, mode=mode),
            reference_execute_schedule_dataflow(schedule, runtime, lookahead=64, mode=mode),
        )
        _assert_refine_exact(schedule, runtime)

    def test_original_order_kept_when_it_is_faster(self, setup):
        """When the refined order loses, the original graph and its own
        in-order result come back."""
        schedule = build_schedule("vocab-2", setup, refine=False)
        runtime = _Scaled(
            RuntimeModel(setup, schedule), {PassType.F: 0.0}, p2p_factor=50.0
        )
        graph, returned = _assert_refine_exact(schedule, runtime)
        assert returned is graph


def _zero_duration_case(seed: int):
    """A seeded schedule and runtime pricing a random third of the
    pass streams at 0 s (the rest scaled by 0.5–2×)."""
    rng = random.Random(seed)
    method = REFINABLE[seed % len(REFINABLE)]
    setup = SimulationSetup(
        MODEL,
        ParallelConfig(
            pipeline_size=rng.choice((2, 4)),
            num_microbatches=rng.choice((4, 6, 8)),
            microbatch_size=1,
        ),
    )
    schedule = build_schedule(method, setup, refine=False)
    streams = sorted(
        {(p.type, p.device, p.chunk) for order in schedule.device_orders for p in order},
        key=lambda key: (key[0].value, key[1], key[2]),
    )
    factors = {
        key: 0.0 if rng.random() < 1 / 3 else rng.uniform(0.5, 2.0) for key in streams
    }
    return schedule, _Scaled(RuntimeModel(setup, schedule), factors)


class TestZeroDurationDataflow:
    """Zero-duration passes leave a device free at the instant it
    dispatched them; the engines must still dispatch identically (see
    ``CompiledGraph._dataflow`` for the rules)."""

    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_zero_duration_runtimes_match_reference(self, seed):
        schedule, runtime = _zero_duration_case(seed)
        mode = _refine_mode(schedule)
        for lookahead in (4, 64):
            compiled = compile_schedule(schedule, runtime).execute_dataflow(
                lookahead=lookahead, mode=mode
            )
            reference = reference_execute_schedule_dataflow(
                schedule, runtime, lookahead=lookahead, mode=mode
            )
            assert_results_identical(compiled, reference)


class _Uniform:
    """A runtime pricing every pass by its type alone, from a table of
    small integers: pass ends coincide across devices all the time."""

    def __init__(self, durations, collective=0.0, p2p=0.0):
        self.durations = durations
        self.collective = collective
        self.p2p = p2p

    def pass_duration(self, p):
        return self.durations[p.type]

    def collective_duration(self, kind):
        return self.collective

    def p2p_duration(self, src, dst):
        return self.p2p


class TestFreeTimeTies:
    """Rule 3 tries every device free at ``now``, including one whose own
    completion at ``now`` has a later tick than the event being
    processed (see ``CompiledGraph._dataflow``)."""

    def test_later_ticked_device_dispatches_at_the_earlier_event(self):
        """V-Half on 2 devices, F = B = 2 and W = 1, lookahead 2.  At
        t = 16 device 0's B[0] and device 1's F[1] both end; device 0
        dispatched first (at 14, in ascending device order), so its
        completion is the earlier event.  Device 1 is free at that
        event: its head F.1[1] still waits on F[1], and the flexible
        W.1[0] behind it is ready, so W.1[0] starts at 16.  Were device 1
        tried only at its own completion, F[1]'s end would ready F.1[1]
        first and the head would start at 16 instead."""
        setup = SimulationSetup(
            MODEL, ParallelConfig(pipeline_size=2, num_microbatches=2, microbatch_size=1)
        )
        schedule = build_schedule("vhalf-baseline", setup, refine=False)
        durations = dict.fromkeys(PassType, 1.0)
        durations.update({PassType.F: 2.0, PassType.B: 2.0})
        runtime = _Uniform(durations)
        compiled = compile_schedule(schedule, runtime).execute_dataflow(
            lookahead=2, mode="strict"
        )
        times = compiled.pass_times
        device0_b = Pass(PassType.B, 0, 0, 0)
        device1_f = Pass(PassType.F, 1, 1, 0)
        assert times[device0_b] == times[device1_f] == (14.0, 16.0)
        head, flexible = Pass(PassType.F, 1, 1, 1), Pass(PassType.W, 0, 1, 1)
        stream = schedule.device_orders[1]
        assert stream.index(flexible) == stream.index(head) + 1
        assert times[flexible][0] == 16.0 < times[head][0]
        reference = reference_execute_schedule_dataflow(
            schedule, runtime, lookahead=2, mode="strict"
        )
        assert_results_identical(compiled, reference)

    @settings(max_examples=80, deadline=None)
    @given(
        method=st.sampled_from(KNOWN_METHODS),
        devices=st.sampled_from((2, 4)),
        microbatches=st.integers(1, 8),
        lookahead=st.sampled_from((1, 2, 4, 64)),
        mode=st.sampled_from(("strict", "zero-bubble")),
        durations=st.fixed_dictionaries({t: st.sampled_from((1.0, 2.0)) for t in PassType}),
        collective=st.sampled_from((0.0, 1.0)),
        p2p=st.sampled_from((0.0, 1.0)),
    )
    def test_tie_heavy_runtimes_match_reference(
        self, method, devices, microbatches, lookahead, mode, durations, collective, p2p
    ):
        """Every family under integer durations (each pass type 1 or 2,
        collectives and transfers 0 or 1), where pass ends keep
        coinciding, dispatches exactly as the reference."""
        setup = SimulationSetup(
            MODEL,
            ParallelConfig(
                pipeline_size=devices, num_microbatches=microbatches, microbatch_size=1
            ),
        )
        schedule = build_schedule(method, setup, refine=False)
        runtime = _Uniform(durations, collective, p2p)
        compiled = compile_schedule(schedule, runtime).execute_dataflow(
            lookahead=lookahead, mode=mode
        )
        reference = reference_execute_schedule_dataflow(
            schedule, runtime, lookahead=lookahead, mode=mode
        )
        assert_results_identical(compiled, reference)


class TestDeadlockParity:
    @staticmethod
    def _corrupted():
        schedule = generate_1f1b(2, 4, num_layers=2)
        order = schedule.device_orders[1]
        f0 = order.index(Pass(PassType.F, 0, 1))
        b0 = order.index(Pass(PassType.B, 0, 1))
        order[f0], order[b0] = order[b0], order[f0]
        return dataclasses.replace(schedule, device_orders=schedule.device_orders)

    def test_both_engines_deadlock(self, setup):
        corrupted = self._corrupted()
        runtime = RuntimeModel(setup, corrupted)
        with pytest.raises(DeadlockError):
            reference_execute_schedule(corrupted, runtime)
        with pytest.raises(DeadlockError):
            compile_schedule(corrupted, runtime).execute()

    def test_both_engines_deadlock_dataflow(self, setup):
        corrupted = self._corrupted()
        runtime = RuntimeModel(setup, corrupted)
        with pytest.raises(DeadlockError):
            reference_execute_schedule_dataflow(corrupted, runtime, lookahead=1)
        with pytest.raises(DeadlockError):
            compile_schedule(corrupted, runtime).execute_dataflow(lookahead=1)

    def test_both_engines_reject_missing_pass(self, setup):
        """A hole in a stream (pass deleted) raises, never mis-simulates."""
        schedule = build_schedule("vhalf-vocab-1", setup, refine=False)
        schedule.device_orders[2] = [
            p for p in schedule.device_orders[2] if p != Pass(PassType.W, 3, 2)
        ]
        runtime = RuntimeModel(setup, schedule)
        with pytest.raises(KeyError):
            reference_execute_schedule(schedule, runtime)
        with pytest.raises(KeyError):
            compile_schedule(schedule, runtime)


class TestCompiledGraphReuse:
    def test_rebind_matches_fresh_compile(self, setup):
        """Durations re-bound without re-lowering equal a fresh lowering."""

        class Doubled:
            def __init__(self, inner):
                self.inner = inner

            def pass_duration(self, p):
                return 2.0 * self.inner.pass_duration(p)

            def collective_duration(self, kind):
                return 2.0 * self.inner.collective_duration(kind)

            def p2p_duration(self, src, dst):
                return 2.0 * self.inner.p2p_duration(src, dst)

        schedule, runtime = _schedule_and_runtime("vocab-1", setup)
        graph = compile_schedule(schedule, runtime)
        graph.execute()  # populate the topo/result caches first
        doubled = Doubled(runtime)
        rebound = graph.rebind(doubled)
        fresh = compile_schedule(schedule, doubled)
        assert_results_identical(rebound.execute(), fresh.execute())
        # The original binding is untouched by the rebind.
        assert_results_identical(
            graph.execute(), reference_execute_schedule(schedule, runtime)
        )

    def test_execute_result_is_cached(self, setup):
        schedule, runtime = _schedule_and_runtime("vhalf-vocab-1", setup)
        graph = compile_schedule(schedule, runtime)
        assert graph.execute() is graph.execute()
        assert graph.replay() is not graph.replay()


class _ScaledRuntime:
    """A runtime whose every duration is the inner one times a factor."""

    def __init__(self, inner, factor):
        self.inner = inner
        self.factor = factor

    def pass_duration(self, p):
        return self.factor * self.inner.pass_duration(p)

    def collective_duration(self, kind):
        return self.factor * self.inner.collective_duration(kind)

    def p2p_duration(self, src, dst):
        return self.factor * self.inner.p2p_duration(src, dst)


@pytest.mark.parametrize("method", KNOWN_METHODS)
class TestExecuteMany:
    """One compiled graph pricing K bindings must equal K fresh compiles."""

    FACTORS = (1.0, 1.7, 0.3, 2.5)

    def _graph_and_runtimes(self, method, setup):
        schedule, runtime = _schedule_and_runtime(method, setup)
        graph = compile_schedule(schedule, runtime)
        runtimes = [_ScaledRuntime(runtime, f) for f in self.FACTORS]
        return schedule, graph, runtimes

    @staticmethod
    def _priced(graph, runtimes):
        """``execute_many`` over one ``binding_rows`` row per runtime."""
        rows = [graph.binding_rows(runtime) for runtime in runtimes]
        return graph.execute_many([d for d, _ in rows], [lag for _, lag in rows])

    def test_execute_many_over_binding_rows_bit_identical(self, method, setup):
        schedule, graph, runtimes = self._graph_and_runtimes(method, setup)
        batched = self._priced(graph, runtimes)
        for result, runtime in zip(batched, runtimes):
            fresh = compile_schedule(schedule, runtime).execute()
            assert_results_identical(result, fresh)

    def test_execute_many_reuses_bound_lags(self, method, setup):
        """durations-only rows against the graph's own lags == replay."""
        _, graph, _ = self._graph_and_runtimes(method, setup)
        rows = [list(graph.durations), list(graph.durations)]
        for result in graph.execute_many(rows):
            assert_results_identical(result, graph.execute())

    def test_pure_python_fallback_matches_numpy(self, method, setup, monkeypatch):
        import repro.sim.compiled as compiled_mod

        schedule, graph, runtimes = self._graph_and_runtimes(method, setup)
        vectorized = self._priced(graph, runtimes)
        monkeypatch.setattr(compiled_mod, "_np", None)
        fallback = self._priced(graph, runtimes)
        for a, b in zip(vectorized, fallback):
            assert_results_identical(a, b)


class TestExecuteManyValidation:
    def _graph(self, setup):
        schedule, runtime = _schedule_and_runtime("vocab-1", setup)
        return compile_schedule(schedule, runtime)

    def test_empty_batch(self, setup):
        assert self._graph(setup).execute_many([]) == []

    def test_bad_row_length(self, setup):
        graph = self._graph(setup)
        with pytest.raises(ValueError):
            graph.execute_many([[1.0, 2.0]])

    def test_mismatched_lag_rows(self, setup):
        graph = self._graph(setup)
        rows = [list(graph.durations)] * 2
        with pytest.raises(ValueError, match="lag rows"):
            graph.execute_many(rows, lags=[list(graph.succ_lag)])

    def test_bad_lag_row_length(self, setup):
        graph = self._graph(setup)
        rows = [list(graph.durations)] * 2
        with pytest.raises(ValueError):
            graph.execute_many(rows, lags=[[0.0], [0.0]])


class TestEngineSwitch:
    def test_reference_engine_selectable(self, setup, monkeypatch):
        schedule, runtime = _schedule_and_runtime("vocab-2", setup)
        compiled = execute_schedule(schedule, runtime)
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        assert simulation_engine() == "reference"
        assert_results_identical(compiled, execute_schedule(schedule, runtime))

    def test_unknown_engine_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "warp-drive")
        with pytest.raises(ValueError, match="REPRO_SIM_ENGINE"):
            simulation_engine()
