"""Tests for grid construction and the parallel planning sweep."""

import pytest

from repro.harness.settings import TABLE1_SHAPES, TABLE2_SHAPES
from repro.api import (
    PlannerConstraints,
    SweepPoint,
    grid,
    model_for_devices,
    sweep,
)
from repro.planner.sweep import (
    best_method_table,
    default_chunk_size,
    plan_point,
    plan_points,
)

FAST = PlannerConstraints(simulate_top_k=1)


class TestGrid:
    def test_cartesian_product_order(self):
        points = grid(
            devices=(4, 8),
            vocab_sizes=(32 * 1024, 64 * 1024),
            microbatches=(8,),
        )
        assert len(points) == 4
        assert points[0] == SweepPoint(4, 32 * 1024, 2048, 8, None)
        assert [p.devices for p in points] == [4, 4, 8, 8]

    def test_budget_axis(self):
        points = grid(
            devices=(4,), vocab_sizes=(32 * 1024,), memory_budgets_gib=(24.0, 80.0)
        )
        assert [p.memory_budget_gib for p in points] == [24.0, 80.0]


class TestModelForDevices:
    def test_paper_shapes_preferred(self):
        assert model_for_devices(8, 2048, 32 * 1024).num_layers == TABLE1_SHAPES[8][0]
        assert model_for_devices(24, 2048, 32 * 1024).num_layers == TABLE2_SHAPES[24][0]

    def test_generic_shape_keeps_both_families_feasible(self):
        model = model_for_devices(6, 2048, 32 * 1024)
        assert model.num_layers % 6 == 0
        assert model.num_layers % 12 == 0  # V-Half needs 2p


class TestSweep:
    def test_serial_sweep_matches_individual_plans(self):
        points = grid(devices=(4,), vocab_sizes=(32 * 1024, 128 * 1024),
                      microbatches=(8,))
        outcomes = sweep(points, FAST, executor="serial")
        assert [o.point for o in outcomes] == points
        for outcome in outcomes:
            alone = plan_point(outcome.point, FAST)
            assert alone.best_method == outcome.best_method

    def test_thread_sweep_matches_serial(self):
        points = grid(devices=(4,), vocab_sizes=(32 * 1024, 128 * 1024),
                      microbatches=(8,))
        serial = sweep(points, FAST, executor="serial")
        threaded = sweep(points, FAST, executor="thread", max_workers=2)
        assert [o.best_method for o in serial] == [
            o.best_method for o in threaded
        ]

    def test_budget_override_applies(self):
        point = SweepPoint(4, 256 * 1024, num_microbatches=8,
                           memory_budget_gib=1.0)
        outcome = plan_point(point, FAST)
        assert not outcome.plans.ranked
        assert outcome.plans.memory_budget_gib == 1.0

    def test_invalid_executor(self):
        with pytest.raises(ValueError, match="executor"):
            sweep([SweepPoint(4, 32 * 1024)], executor="mpi")

    def test_chunked_sweep_matches_serial(self):
        points = grid(devices=(4,), vocab_sizes=(32 * 1024, 128 * 1024),
                      microbatches=(8,),
                      memory_budgets_gib=(None, 80.0, 40.0, 20.0))
        serial = sweep(points, FAST, executor="serial")
        # Eight points make chunks of 2 for one worker and of 1 for two.
        for max_workers in (1, 2):
            chunked = sweep(points, FAST, executor="thread",
                            max_workers=max_workers)
            assert [o.point for o in chunked] == points
            assert [o.best_method for o in chunked] == [
                o.best_method for o in serial
            ]

    def test_plan_points_chunk_worker(self):
        points = grid(devices=(4,), vocab_sizes=(32 * 1024,), microbatches=(8,))
        outcomes = plan_points(points, FAST)
        assert [o.point for o in outcomes] == points


class TestDefaultChunkSize:
    def test_targets_about_four_chunks_per_worker(self):
        assert default_chunk_size(64, 4) == 4
        assert default_chunk_size(65, 4) == 5

    def test_small_sweeps_never_round_to_zero(self):
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(0, 8) == 1
        assert default_chunk_size(5, 0) == 2

    def test_best_method_table_renders(self):
        points = grid(devices=(4,), vocab_sizes=(32 * 1024,), microbatches=(8,))
        outcomes = sweep(points, FAST, executor="serial")
        text = best_method_table(outcomes)
        assert "best" in text and outcomes[0].best_method in text

    def test_infeasible_grid_point_renders_without_crashing(self):
        points = grid(devices=(4,), vocab_sizes=(256 * 1024,),
                      microbatches=(8,), memory_budgets_gib=(0.5,))
        outcomes = sweep(points, FAST, executor="serial")
        assert outcomes[0].best_method is None
        assert "(none fits)" in best_method_table(outcomes)


class TestStructuralGrouping:
    def test_interleaved_structures_preserve_input_order(self):
        # Interleave two structures so grouping must reorder for
        # chunking and restore the input order afterwards.
        a = SweepPoint(4, 32 * 1024, num_microbatches=8, memory_budget_gib=80.0)
        b = SweepPoint(4, 128 * 1024, num_microbatches=8, memory_budget_gib=80.0)
        a2 = SweepPoint(4, 32 * 1024, num_microbatches=8, memory_budget_gib=40.0)
        b2 = SweepPoint(4, 128 * 1024, num_microbatches=8, memory_budget_gib=40.0)
        points = [a, b, a2, b2]
        outcomes = sweep(points, FAST, executor="serial")
        assert [o.point for o in outcomes] == points
        threaded = sweep(points, FAST, executor="thread", max_workers=1)
        assert [o.point for o in threaded] == points
        assert [o.best_method for o in threaded] == [
            o.best_method for o in outcomes
        ]

    def test_structure_axes_exclude_bindings(self):
        base = SweepPoint(8, 32 * 1024)
        assert base.structure_axes() == SweepPoint(
            8, 32 * 1024, memory_budget_gib=13.0, pass_overhead=1e-3
        ).structure_axes()
        assert base.structure_axes() != SweepPoint(16, 32 * 1024).structure_axes()


class TestPassOverheadAxis:
    def test_grid_overhead_axis(self):
        points = grid(devices=(4,), vocab_sizes=(32 * 1024,),
                      pass_overheads=(None, 1e-3))
        assert [p.pass_overhead for p in points] == [None, 1e-3]

    def test_overhead_sweep_matches_individual_plans(self):
        from repro.api import clear_plan_cache

        constraints = PlannerConstraints(simulate_top_k=2, refine=False)
        points = grid(devices=(4,), vocab_sizes=(64 * 1024,),
                      microbatches=(8,), pass_overheads=(1e-4, 4e-4, 8e-4))
        clear_plan_cache()
        swept = sweep(points, constraints, executor="serial")
        for point, outcome in zip(points, swept):
            clear_plan_cache()
            alone = plan_point(point, constraints)
            assert alone.best_method == outcome.best_method
            if alone.best_method is not None:
                a = alone.plans.best
                s = outcome.plans.best
                assert a.iteration_time == s.iteration_time
                assert a.peak_memory_gb == s.peak_memory_gb

    def test_overhead_sweep_matches_with_refinement(self):
        from repro.api import clear_plan_cache

        constraints = PlannerConstraints(simulate_top_k=2, refine=True)
        points = grid(devices=(4,), vocab_sizes=(64 * 1024,),
                      microbatches=(8,), pass_overheads=(1e-4, 8e-4))
        clear_plan_cache()
        swept = sweep(points, constraints, executor="serial")
        for point, outcome in zip(points, swept):
            clear_plan_cache()
            alone = plan_point(point, constraints)
            assert alone.best_method == outcome.best_method


class TestPoolFallback:
    def test_unavailable_pool_surfaces_reason(self, monkeypatch):
        import importlib

        sweep_mod = importlib.import_module("repro.planner.sweep")
        monkeypatch.setattr(sweep_mod, "_get_pool", lambda *a: None)
        points = grid(devices=(4,), vocab_sizes=(32 * 1024, 128 * 1024),
                      microbatches=(8,))
        with pytest.warns(RuntimeWarning, match="fell back to serial"):
            outcomes = sweep(points, FAST, executor="thread")
        assert [o.point for o in outcomes] == points
        for outcome in outcomes:
            assert outcome.fallback_reason is not None
            assert "pool failed" in outcome.fallback_reason

    def test_healthy_sweep_has_no_fallback_reason(self):
        points = grid(devices=(4,), vocab_sizes=(32 * 1024,), microbatches=(8,),
                      memory_budgets_gib=(None, 80.0))
        for outcome in sweep(points, FAST, executor="thread", max_workers=2):
            assert outcome.fallback_reason is None


class TestPersistentPools:
    def test_pool_is_reused_across_sweeps(self):
        import importlib

        sweep_mod = importlib.import_module("repro.planner.sweep")
        sweep_mod.shutdown_pools()
        points = grid(devices=(4,), vocab_sizes=(32 * 1024, 128 * 1024),
                      microbatches=(8,))
        sweep(points, FAST, executor="thread", max_workers=2)
        first = sweep_mod._POOLS.get(("thread", 2))
        assert first is not None
        sweep(points, FAST, executor="thread", max_workers=2)
        assert sweep_mod._POOLS.get(("thread", 2)) is first
        sweep_mod.shutdown_pools()
        assert ("thread", 2) not in sweep_mod._POOLS


class TestScenarioAxis:
    def test_grid_scenario_axis(self):
        points = grid(devices=(4,), vocab_sizes=(32 * 1024,),
                      scenarios=(None, "slow-node"))
        assert [p.scenario for p in points] == [None, "slow-node"]

    def test_scenario_is_a_structure_axis(self):
        nominal = SweepPoint(4, 32 * 1024)
        perturbed = SweepPoint(4, 32 * 1024, scenario="slow-node")
        assert nominal.structure_axes() != perturbed.structure_axes()

    def test_scenario_sweep_matches_individual_plans(self):
        from repro.api import clear_plan_cache

        points = grid(devices=(4,), vocab_sizes=(32 * 1024,),
                      microbatches=(8,), scenarios=(None, "slow-node"))
        outcomes = sweep(points, FAST, executor="serial")
        assert [o.point for o in outcomes] == points
        clear_plan_cache()
        for outcome in outcomes:
            alone = plan_point(outcome.point, FAST)
            assert alone.best_method == outcome.best_method
            assert (
                alone.plans.best.iteration_time
                == outcome.plans.best.iteration_time
            )
        # The straggler must actually bite: same grid point, slower best.
        assert (
            outcomes[1].plans.best.iteration_time
            > outcomes[0].plans.best.iteration_time
        )

    def test_unknown_scenario_name_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            plan_point(SweepPoint(4, 32 * 1024, num_microbatches=8,
                                  scenario="nope"), FAST)
