"""Regression: caches must never serve nominal prices for a scenario.

The structural caches (schedules, compiled graphs), the per-call
``sim_cache`` and the planner's budget-independent aux entries are all
keyed so that a result priced on the homogeneous cluster cannot leak
into a perturbed-scenario query — and vice versa.
"""

import pytest

from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import (
    clear_structural_caches,
    compiled_graph_for,
    generate_method_schedule,
    run_method,
)
from repro.api import PlanCache, PlannerConstraints, plan
from repro.scenarios import get_scenario
from repro.sim import RuntimeModel, SimulationSetup


@pytest.fixture
def config():
    model = ModelConfig(
        num_layers=16,
        hidden_size=512,
        num_attention_heads=8,
        seq_length=256,
        vocab_size=4096,
    )
    return model, ParallelConfig(pipeline_size=4, num_microbatches=8)


class TestSimCacheKeying:
    def test_shared_sim_cache_keeps_scenarios_apart(self, config):
        """One sim_cache, nominal then scenario: no metric crosstalk."""
        model, parallel = config
        sim_cache: dict = {}
        nominal = run_method("baseline", model, parallel, sim_cache=sim_cache)
        perturbed = run_method(
            "baseline",
            model,
            parallel,
            sim_cache=sim_cache,
            scenario=get_scenario("slow-node"),
        )
        # A straggler must show up; equality would mean the cached
        # homogeneous metrics were served for the perturbed scenario.
        assert perturbed.iteration_time > nominal.iteration_time
        assert len(sim_cache) == 2
        # And the reverse direction: the scenario entry must not poison
        # a later nominal call.
        again = run_method("baseline", model, parallel, sim_cache=sim_cache)
        assert again.iteration_time == nominal.iteration_time

    def test_two_scenarios_do_not_share_entries(self, config):
        model, parallel = config
        sim_cache: dict = {}
        slow = run_method(
            "baseline", model, parallel, sim_cache=sim_cache,
            scenario=get_scenario("slow-node"),
        )
        mixed = run_method(
            "baseline", model, parallel, sim_cache=sim_cache,
            scenario=get_scenario("mixed-sku"),
        )
        assert slow.iteration_time != mixed.iteration_time
        assert len(sim_cache) == 2


class TestStructuralGraphCache:
    def test_cached_homogeneous_graph_is_rebound_for_scenario(self, config):
        """The graph cache may share the lowering, never the binding."""
        model, parallel = config
        clear_structural_caches()
        setup = SimulationSetup(model, parallel)
        schedule = generate_method_schedule("baseline", setup)
        nominal_graph = compiled_graph_for(
            schedule, RuntimeModel(setup, schedule)
        )
        scenario = get_scenario("slow-node")
        scenario_graph = compiled_graph_for(
            schedule, scenario.runtime_for(setup, schedule)
        )
        # Same lowering (shared structural arrays) ...
        assert scenario_graph.succ_off is nominal_graph.succ_off
        # ... but re-priced durations: the straggler devices are slower.
        assert scenario_graph.durations != nominal_graph.durations
        assert (
            scenario_graph.execute().iteration_time
            > nominal_graph.execute().iteration_time
        )


class TestPlannerAuxKeying:
    def test_warm_homogeneous_cache_never_serves_scenario(self, config):
        """The regression this file exists for: plan nominal first (warm
        every structural + aux cache), then plan the same config under a
        straggler scenario — the scenario numbers must be freshly
        simulated, not the cached homogeneous ones."""
        model, parallel = config
        constraints = PlannerConstraints(simulate_top_k=2)
        cache = PlanCache()
        nominal = plan(model, parallel, constraints, cache=cache)
        perturbed = plan(
            model, parallel, constraints, cache=cache, scenario="slow-node"
        )
        for method in ("baseline", "redis"):
            nom = nominal.candidate(method)
            per = perturbed.candidate(method)
            if nom.simulated and per.simulated:
                assert per.iteration_time > nom.iteration_time
        assert perturbed.cache_key != nominal.cache_key

    def test_homogeneous_scenario_matches_no_scenario(self, config):
        """The identity direction: the nominal scenario prices exactly
        like no scenario at all (separate cache entries, equal values)."""
        model, parallel = config
        constraints = PlannerConstraints(simulate_top_k=2)
        cache = PlanCache()
        bare = plan(model, parallel, constraints, cache=cache)
        homogeneous = plan(
            model, parallel, constraints, cache=cache, scenario="homogeneous"
        )
        assert [c.method for c in homogeneous.ranked] == [
            c.method for c in bare.ranked
        ]
        for ours, theirs in zip(homogeneous.ranked, bare.ranked):
            assert ours.iteration_time == theirs.iteration_time
            assert ours.peak_memory_gb == theirs.peak_memory_gb

    def test_robustness_requires_scenario(self, config):
        model, parallel = config
        with pytest.raises(ValueError, match="requires a scenario"):
            plan(model, parallel, robustness="p95", cache=PlanCache())

    def test_robust_ranking_orders_by_quantile(self, config):
        model, parallel = config
        plans = plan(
            model,
            parallel,
            PlannerConstraints(simulate_top_k=3),
            cache=PlanCache(),
            scenario="high-jitter",
            robustness="p95",
        )
        simulated = [c for c in plans.ranked if c.simulated]
        assert simulated, "expected simulated candidates"
        robust_times = [c.robust_time for c in simulated]
        assert all(value is not None for value in robust_times)
        assert robust_times == sorted(robust_times)
        for c in simulated:
            assert c.robust_stats is not None
            assert c.robust_time == c.robust_stats.p95_time
        assert "p95(s)" in plans.render()
