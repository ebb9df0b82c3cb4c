"""Process-wide structural caches: hit/cold identity and isolation.

The schedule-generation, compiled-graph and refined-schedule caches are
pure performance features — a cache hit must be observationally
identical to a cold build: equal schedules (but never shared mutable
state) and bit-identical simulation metrics.
"""

import pytest

import repro.sim.compiled as compiled
from repro.api import PlanCache, RobustnessObjective, plan
from repro.config import ModelConfig, ParallelConfig
from repro.harness import experiments
from repro.harness.experiments import (
    KNOWN_METHODS,
    build_schedule,
    clear_derived_caches,
    clear_structural_caches,
    compiled_graph_for,
    generate_method_schedule,
    run_method,
    structural_cache_stats,
)
from repro.scenarios import get_scenario, method_robustness
from repro.sim import RuntimeModel, SimulationSetup

MODEL = ModelConfig(
    num_layers=16,
    hidden_size=512,
    num_attention_heads=8,
    seq_length=512,
    vocab_size=32 * 1024,
)
PARALLEL = ParallelConfig(pipeline_size=4, num_microbatches=6, microbatch_size=1)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_structural_caches()
    yield
    clear_structural_caches()


@pytest.fixture
def setup() -> SimulationSetup:
    return SimulationSetup(MODEL, PARALLEL)


class TestScheduleGenerationCache:
    @pytest.mark.parametrize("method", KNOWN_METHODS)
    def test_hit_equals_cold_build(self, method, setup):
        cold = generate_method_schedule(method, setup)
        assert structural_cache_stats()["schedule_misses"] == 1
        hit = generate_method_schedule(method, setup)
        assert structural_cache_stats()["schedule_hits"] == 1
        assert hit == cold
        assert hit is not cold

    def test_hits_never_share_mutable_state(self, setup):
        first = generate_method_schedule("vocab-1", setup)
        first.device_orders[0].reverse()
        first.metadata["poisoned"] = True
        second = generate_method_schedule("vocab-1", setup)
        assert second.device_orders[0] == list(reversed(first.device_orders[0]))
        assert "poisoned" not in second.metadata

    def test_different_bindings_miss(self, setup):
        generate_method_schedule("baseline", setup)
        slower = SimulationSetup(MODEL, PARALLEL, pass_overhead=1e-2)
        generate_method_schedule("baseline", slower)
        stats = structural_cache_stats()
        # A changed overhead changes the generator's timing scalars, so
        # the second build is a miss (orders could legitimately differ).
        assert stats["schedule_misses"] == 2

    def test_infeasible_config_still_raises(self, setup):
        bad = SimulationSetup(
            MODEL.replace(num_layers=15), PARALLEL
        )
        with pytest.raises(ValueError):
            generate_method_schedule("baseline", bad)
        with pytest.raises(ValueError):
            generate_method_schedule("vhalf-baseline", bad)


class TestCompiledGraphCache:
    @pytest.mark.parametrize("method", KNOWN_METHODS)
    def test_graph_cache_hit_metrics_identical(self, method, setup):
        cold = run_method(method, MODEL, PARALLEL, setup=setup)
        stats = structural_cache_stats()
        assert stats["graph_misses"] >= 1
        clear_after_first = stats["graph_hits"]
        warm = run_method(method, MODEL, PARALLEL, setup=setup)
        assert structural_cache_stats()["graph_hits"] > clear_after_first
        assert warm.iteration_time == cold.iteration_time
        assert warm.peak_memory_gb == cold.peak_memory_gb
        assert warm.per_device_peak_gb == cold.per_device_peak_gb
        assert warm.mean_bubble == cold.mean_bubble

    def test_rebind_across_bindings_matches_cold_compile(self, setup):
        """A second binding re-uses the lowering; results must match a
        from-scratch build of that binding."""
        run_method("vocab-2", MODEL, PARALLEL, setup=setup)
        slower = SimulationSetup(MODEL, PARALLEL, pass_overhead=1e-3)
        warm = run_method("vocab-2", MODEL, PARALLEL, setup=slower)
        clear_structural_caches()
        cold = run_method("vocab-2", MODEL, PARALLEL, setup=slower)
        assert warm.iteration_time == cold.iteration_time
        assert warm.per_device_peak_gb == cold.per_device_peak_gb


class TestBindingRepricing:
    """Pass-overhead bindings of one structure, priced one after another
    through the shared caches (as a sweep's sibling points are), report
    exactly what a cold run of each binding reports."""

    SETUPS = (
        SimulationSetup(MODEL, PARALLEL),
        SimulationSetup(MODEL, PARALLEL, pass_overhead=1e-3),
        SimulationSetup(MODEL, PARALLEL, pass_overhead=5e-4),
    )

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("method", KNOWN_METHODS)
    def test_warm_bindings_equal_cold_runs(self, method, refine):
        warm = [
            run_method(method, MODEL, PARALLEL, setup=s, refine=refine)
            for s in self.SETUPS
        ]
        for a, s in zip(warm, self.SETUPS):
            clear_structural_caches()
            b = run_method(method, MODEL, PARALLEL, setup=s, refine=refine)
            assert a.iteration_time == b.iteration_time
            assert a.peak_memory_gb == b.peak_memory_gb
            assert a.per_device_peak_gb == b.per_device_peak_gb
            assert a.mean_bubble == b.mean_bubble
            assert a.oom == b.oom
        assert len({m.iteration_time for m in warm}) == len(self.SETUPS)


class TestChainPlanSharing:
    """A cached graph and its rebinds share the topological order and
    the batched kernel's level plan, whichever graph builds them first."""

    @pytest.fixture
    def level_plan_builds(self, monkeypatch):
        if compiled._np is None:
            pytest.skip("the level plan is built only with numpy")
        builds = []
        build = compiled._LevelPlan.__init__

        def spy(plan, graph):
            builds.append(graph)
            build(plan, graph)

        monkeypatch.setattr(compiled._LevelPlan, "__init__", spy)
        return builds

    def test_rebinds_see_a_plan_built_after_they_were_made(self, setup, level_plan_builds):
        bound = self._bound("interlaced", setup)
        compiled_graph_for(*bound)
        first, second = compiled_graph_for(*bound), compiled_graph_for(*bound)
        rows = [first.durations, first.durations]
        assert first.execute_many(rows) and second.execute_many(rows)
        assert len(level_plan_builds) == 1
        assert first._chains is second._chains

    def test_reordered_graphs_keep_their_own_chains(self, setup):
        graph = compiled_graph_for(*self._bound("vocab-1", setup))
        graph.replay()
        reordered = graph._with_device_nodes(
            [list(reversed(nodes)) for nodes in graph.device_nodes], graph.schedule
        )
        assert reordered._chains is not graph._chains
        assert reordered._chains.topo is None

    def test_second_robust_plan_builds_no_level_plan(self, level_plan_builds):
        robust = {"scenario": "slow-node", "robustness": RobustnessObjective(seed=1)}
        plan(MODEL, PARALLEL, cache=PlanCache(), **robust)
        assert level_plan_builds
        level_plan_builds.clear()
        warm = plan(MODEL, PARALLEL, cache=PlanCache(), **robust)
        assert level_plan_builds == []
        clear_structural_caches()
        cold = plan(MODEL, PARALLEL, cache=PlanCache(), **robust)
        assert [c.robust_stats for c in warm.ranked] == [c.robust_stats for c in cold.ranked]

    @staticmethod
    def _bound(method, setup):
        schedule = generate_method_schedule(method, setup)
        return schedule, RuntimeModel(setup, schedule)


#: Every counter :func:`structural_cache_stats` reports.
STATS_KEYS = {
    f"{kind}_{outcome}"
    for kind in ("schedule", "graph", "refined", "robust", "chain")
    for outcome in ("hits", "misses")
}

#: The methods :func:`build_schedule` refines (the rest return their
#: generated orders).
REFINED_METHODS = (
    "vocab-1", "vocab-2", "vhalf-baseline", "vhalf-vocab-1", "vhalf-vocab-2",
)


def _same_schedule(a, b) -> None:
    assert a.name == b.name
    assert a.metadata == b.metadata
    assert a.device_orders == b.device_orders
    assert a.structure_key() == b.structure_key()


class TestRefinedScheduleMemo:
    @pytest.mark.parametrize("scenario", [None, "slow-node"])
    @pytest.mark.parametrize("method", REFINED_METHODS)
    def test_hit_equals_fresh_refine(self, method, scenario, setup):
        scenario = scenario and get_scenario(scenario)
        cold = build_schedule(method, setup, scenario=scenario)
        assert structural_cache_stats()["refined_misses"] == 1
        hit = build_schedule(method, setup, scenario=scenario)
        assert structural_cache_stats()["refined_hits"] == 1
        assert hit is not cold
        clear_structural_caches()
        fresh = build_schedule(method, setup, scenario=scenario)
        _same_schedule(hit, fresh)
        _same_schedule(cold, fresh)

    def test_mutating_a_result_leaves_the_memo_alone(self, setup):
        first = build_schedule("vhalf-vocab-1", setup)
        expected = [list(order) for order in first.device_orders]
        first.device_orders[0].reverse()
        first.metadata["poisoned"] = True
        second = build_schedule("vhalf-vocab-1", setup)
        second.device_orders[1].pop()
        third = build_schedule("vhalf-vocab-1", setup)
        assert structural_cache_stats()["refined_hits"] == 2
        assert third.device_orders == expected
        assert "poisoned" not in third.metadata
        third.validate()

    def test_key_separates_scenario_overhead_and_engine(self, setup, monkeypatch):
        slow = get_scenario("slow-node")
        slower = SimulationSetup(MODEL, PARALLEL, pass_overhead=1e-3)
        build_schedule("vocab-1", setup)
        build_schedule("vocab-1", setup, scenario=slow)
        build_schedule("vocab-1", slower)
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        reference = build_schedule("vocab-1", setup)
        stats = structural_cache_stats()
        assert (stats["refined_misses"], stats["refined_hits"]) == (4, 0)
        monkeypatch.delenv("REPRO_SIM_ENGINE")
        compiled = build_schedule("vocab-1", setup)
        assert structural_cache_stats()["refined_hits"] == 1
        # The engines refine to the same orders; the memo keeps them apart.
        _same_schedule(reference, compiled)

    def test_unrefined_builds_bypass_the_memo(self, setup):
        build_schedule("vocab-1", setup, refine=False)
        stats = structural_cache_stats()
        assert stats["refined_hits"] + stats["refined_misses"] == 0
        assert stats["robust_hits"] + stats["robust_misses"] == 0
        assert not experiments._REFINED_CACHE

    def test_bounded_and_cleared(self, setup, monkeypatch):
        monkeypatch.setattr(experiments._REFINED_CACHE, "capacity", 2)
        overheads = (1e-4, 2e-4, 3e-4)
        for overhead in overheads:
            build_schedule("vocab-2", SimulationSetup(MODEL, PARALLEL, pass_overhead=overhead))
        assert len(experiments._REFINED_CACHE) == 2
        # The least recently used binding was evicted.
        build_schedule("vocab-2", SimulationSetup(MODEL, PARALLEL, pass_overhead=overheads[0]))
        assert structural_cache_stats()["refined_misses"] == 4
        clear_derived_caches()
        assert not experiments._REFINED_CACHE
        assert structural_cache_stats()["refined_misses"] == 4, "counters stay"
        assert experiments._SCHEDULE_CACHE, "generated schedules stay"
        build_schedule("vocab-2", setup)
        clear_structural_caches()
        assert not experiments._REFINED_CACHE
        assert set(structural_cache_stats()) == STATS_KEYS
        assert set(structural_cache_stats().values()) == {0}

    def test_cold_plan_never_reaches_the_memo(self):
        plan(MODEL, PARALLEL, cache=PlanCache())
        stats = structural_cache_stats()
        assert stats["refined_hits"] + stats["refined_misses"] == 0
        assert stats["robust_hits"] + stats["robust_misses"] == 0

    def test_robust_plans_reuse_refined_schedules(self):
        cache = PlanCache()
        first = plan(MODEL, PARALLEL, cache=cache, scenario="slow-node",
                     robustness=RobustnessObjective(seed=1))
        misses = structural_cache_stats()["refined_misses"]
        assert misses >= 1
        warm = plan(MODEL, PARALLEL, cache=cache, scenario="slow-node",
                    robustness=RobustnessObjective(seed=2))
        stats = structural_cache_stats()
        assert stats["refined_misses"] == misses
        # The warm plan reaches no refined schedule at all: each
        # candidate's whole nominal binding is a robust-memo hit.
        assert stats["robust_hits"] >= misses
        clear_structural_caches()
        cold = plan(MODEL, PARALLEL, cache=PlanCache(), scenario="slow-node",
                    robustness=RobustnessObjective(seed=2))
        assert [c.robust_time for c in warm.ranked] == [c.robust_time for c in cold.ranked]
        assert [c.method for c in warm.ranked] == [c.method for c in cold.ranked]
        assert first.ranked


class TestRobustNominalMemo:
    """``method_robustness`` memoizes its seed-independent half: the
    scenario-bound graph, its nominal time and bubble, its column plan."""

    @pytest.fixture
    def spies(self, monkeypatch):
        calls = {"rebind": 0, "execute": 0}
        for name in calls:
            original = getattr(compiled.CompiledGraph, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(compiled.CompiledGraph, name, spy)
        return calls

    def test_warm_robust_plan_rebinds_and_sweeps_nothing(self, spies):
        cache = PlanCache()
        plan(MODEL, PARALLEL, cache=cache, scenario="slow-node",
             robustness=RobustnessObjective(samples=16, seed=1))
        assert spies["rebind"] and spies["execute"]
        misses = structural_cache_stats()["robust_misses"]
        spies.update(rebind=0, execute=0)
        warm = plan(MODEL, PARALLEL, cache=cache, scenario="slow-node",
                    robustness=RobustnessObjective(samples=16, seed=2))
        assert spies == {"rebind": 0, "execute": 0}
        stats = structural_cache_stats()
        assert stats["robust_misses"] == misses
        assert stats["robust_hits"] == misses
        clear_structural_caches()
        cold = plan(MODEL, PARALLEL, cache=PlanCache(), scenario="slow-node",
                    robustness=RobustnessObjective(samples=16, seed=2))
        assert [c.robust_stats for c in warm.ranked] == [
            c.robust_stats for c in cold.ranked
        ]

    def test_key_separates_scenario_overhead_refine_and_engine(self, monkeypatch):
        slow, jitter = get_scenario("slow-node"), get_scenario("high-jitter")
        slower = SimulationSetup(MODEL, PARALLEL, pass_overhead=1e-3)

        def stats(scenario=slow, samples=8, **kwargs):
            return method_robustness(
                "vocab-1", MODEL, PARALLEL, scenario, samples=samples, **kwargs
            )

        first = stats()
        stats(scenario=jitter)
        stats(setup=slower)
        stats(refine=False)
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        stats()
        counts = structural_cache_stats()
        assert (counts["robust_misses"], counts["robust_hits"]) == (5, 0)
        monkeypatch.delenv("REPRO_SIM_ENGINE")
        # Another seed or sample count is the same nominal binding.
        assert stats(seed=3).nominal_time == first.nominal_time
        stats(samples=4)
        counts = structural_cache_stats()
        assert (counts["robust_misses"], counts["robust_hits"]) == (5, 2)

    def test_bounded_lru_and_cleared(self, monkeypatch):
        monkeypatch.setattr(experiments._ROBUST_CACHE, "capacity", 2)
        slow = get_scenario("slow-node")
        setups = [
            SimulationSetup(MODEL, PARALLEL, pass_overhead=o)
            for o in (1e-4, 2e-4, 3e-4)
        ]

        def stats(setup):
            method_robustness(
                "vocab-2", MODEL, PARALLEL, slow, setup=setup, samples=4
            )

        stats(setups[0])
        stats(setups[1])
        stats(setups[0])  # refreshes setups[0]: setups[1] is now oldest
        stats(setups[2])
        assert len(experiments._ROBUST_CACHE) == 2
        stats(setups[0])
        counts = structural_cache_stats()
        assert (counts["robust_misses"], counts["robust_hits"]) == (3, 2)
        stats(setups[1])
        assert structural_cache_stats()["robust_misses"] == 4
        clear_derived_caches()
        assert not experiments._ROBUST_CACHE
        assert experiments._GRAPH_CACHE, "compiled graphs stay"
        stats(setups[0])
        clear_structural_caches()
        assert not experiments._ROBUST_CACHE

    def test_mutating_a_result_leaves_the_memo_alone(self):
        from repro.scenarios import perturb

        slow = get_scenario("slow-node")
        first = method_robustness("vocab-1", MODEL, PARALLEL, slow, samples=8)
        (nominal,) = experiments._ROBUST_CACHE.values()
        durations, lags = perturb.perturbed_rows(
            nominal.graph, slow, 8, 0, _columns=nominal.columns
        )
        base = list(nominal.graph.durations)
        for rows in (durations, lags):
            if isinstance(rows, list):
                for row in rows:
                    row[:] = [-1.0] * len(row)
            else:
                rows[:] = -1.0
        assert nominal.graph.durations == base
        again = method_robustness("vocab-1", MODEL, PARALLEL, slow, samples=8)
        assert again == first
        assert structural_cache_stats()["robust_hits"] == 1

