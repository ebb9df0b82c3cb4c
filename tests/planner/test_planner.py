"""Tests for the schedule planner core: ranking, constraints, caching."""

import pytest

from repro.config import ModelConfig, ParallelConfig
from repro.costmodel.memory import GiB, MemoryModel
from repro.harness.settings import ONE_F_ONE_B_METHODS
from repro.api import PlanCache, PlannerConstraints, config_digest, plan
from repro.planner.estimate import estimate_method, infeasibility_reason
from repro.sim import SimulationSetup


@pytest.fixture
def model() -> ModelConfig:
    """The paper's ≈4B Table 1 shape at a 128k vocabulary."""
    return ModelConfig(
        num_layers=32,
        hidden_size=3072,
        num_attention_heads=24,
        seq_length=2048,
        vocab_size=128 * 1024,
    )


@pytest.fixture
def parallel() -> ParallelConfig:
    return ParallelConfig(pipeline_size=8, num_microbatches=16)


def ranking_of(plans):
    return [(c.method, c.source) for c in plans.ranked]


class TestEstimate:
    def test_estimate_close_to_simulation(self, model, parallel):
        from repro.harness.experiments import run_method

        setup = SimulationSetup(model, parallel)
        for method in ("baseline", "vocab-2"):
            est = estimate_method(method, setup)
            sim = run_method(method, model, parallel)
            assert est.iteration_time == pytest.approx(
                sim.iteration_time, rel=0.15
            )
            assert est.peak_bytes / GiB == pytest.approx(
                sim.peak_memory_gb, rel=0.15
            )

    def test_infeasibility_reasons(self, model, parallel):
        # 32 layers over 8 devices: everything fits.
        assert infeasibility_reason("vocab-1", model, parallel) is None
        assert infeasibility_reason("vhalf-vocab-1", model, parallel) is None
        # 24 layers over 8 devices: 1F1B fits, V-Half (2p = 16) does not.
        odd = model.replace(num_layers=24)
        assert infeasibility_reason("baseline", odd, parallel) is None
        assert "divisible by 2p" in infeasibility_reason(
            "vhalf-baseline", odd, parallel
        )
        # 20 layers over 8 devices: nothing fits.
        assert "divisible" in infeasibility_reason(
            "baseline", model.replace(num_layers=20), parallel
        )

    def test_unknown_method_rejected(self, model, parallel):
        with pytest.raises(ValueError, match="unknown method"):
            infeasibility_reason("zbh1", model, parallel)


class TestPlanRanking:
    def test_ranking_is_deterministic(self, model, parallel):
        first = plan(model, parallel, cache=PlanCache())
        second = plan(model, parallel, cache=PlanCache())
        assert first is not second
        assert ranking_of(first) == ranking_of(second)
        assert [c.iteration_time for c in first.ranked] == [
            c.iteration_time for c in second.ranked
        ]

    def test_simulated_candidates_rank_first(self, model, parallel):
        plans = plan(
            model,
            parallel,
            PlannerConstraints(simulate_top_k=2),
            cache=PlanCache(),
        )
        sources = [c.source for c in plans.ranked]
        assert sources[:2] == ["sim", "sim"]
        assert "sim" not in sources[2:]
        # Simulated block and estimate block each sorted by time.
        for block in ("sim", "estimate"):
            times = [c.iteration_time for c in plans.ranked if c.source == block]
            assert times == sorted(times)

    def test_winner_is_vocabulary_parallel(self, model, parallel):
        # The paper's headline: vocabulary-parallel schedules beat the
        # baseline and Redis at large vocabularies.
        plans = plan(model, parallel, cache=PlanCache())
        assert plans.best.method not in ("baseline", "redis", "vhalf-baseline")
        baseline = plans.candidate("baseline")
        assert plans.best.iteration_time < baseline.iteration_time

    def test_methods_restriction(self, model, parallel):
        plans = plan(
            model,
            parallel,
            PlannerConstraints(methods=("baseline", "redis")),
            cache=PlanCache(),
        )
        assert set(plans.methods_considered) == {"baseline", "redis"}

    def test_structurally_infeasible_families_are_rejected(self, parallel, model):
        odd = model.replace(num_layers=24)  # 24 % 16 != 0 → no V-Half
        plans = plan(odd, parallel, cache=PlanCache())
        rejected = {c.method: c for c in plans.rejected}
        for method in ("vhalf-baseline", "vhalf-vocab-1", "vhalf-vocab-2"):
            assert method in rejected
            assert rejected[method].source == "structural"
            assert "divisible" in rejected[method].reason
        assert all(not c.method.startswith("vhalf") for c in plans.ranked)

    def test_estimate_only_mode(self, model, parallel):
        plans = plan(
            model,
            parallel,
            PlannerConstraints(simulate_top_k=0),
            cache=PlanCache(),
        )
        assert plans.ranked
        assert all(c.source == "estimate" for c in plans.ranked)

    def test_simulate_everything_mode(self, model, parallel):
        plans = plan(
            model,
            parallel,
            PlannerConstraints(simulate_top_k=None, methods=("baseline", "vocab-2")),
            cache=PlanCache(),
        )
        assert all(c.source == "sim" for c in plans.ranked)

    def test_render_lists_every_candidate(self, model, parallel):
        plans = plan(model, parallel, cache=PlanCache())
        text = plans.render()
        for c in plans.ranked:
            assert c.method in text
        assert "budget" in text

    def test_build_best_schedule_validates(self, model, parallel):
        plans = plan(model, parallel, cache=PlanCache())
        schedule = plans.build_best_schedule()
        schedule.validate()
        assert schedule.num_microbatches == parallel.num_microbatches


class TestMemoryConstraint:
    def test_budget_filters_infeasible_plans(self, model, parallel):
        unconstrained = plan(model, parallel, cache=PlanCache())
        heaviest = max(c.peak_memory_gb for c in unconstrained.ranked)
        lightest = min(c.peak_memory_gb for c in unconstrained.ranked)
        budget = (heaviest + lightest) / 2.0
        constrained = plan(
            model,
            parallel,
            PlannerConstraints(memory_budget_gib=budget),
            cache=PlanCache(),
        )
        assert constrained.ranked, "some schedule must fit the mid budget"
        assert all(c.peak_memory_gb <= budget for c in constrained.ranked)
        over = [c for c in constrained.rejected if "budget" in c.reason]
        assert over, "the heaviest schedule must be rejected"
        ranked_methods = {c.method for c in constrained.ranked}
        assert not ranked_methods & {c.method for c in constrained.rejected}

    def test_margin_window_candidate_is_simulated_not_rejected(self):
        # A candidate estimated slightly over budget but actually
        # fitting must be settled by the simulator even when its
        # estimated time places it outside simulate_top_k.
        from repro.harness import model_for_1f1b, run_method
        from repro.harness.settings import parallel_for

        methods = ("baseline", "redis", "vocab-1", "vocab-2", "interlaced")
        big = model_for_1f1b(8, 2048, 256 * 1024)
        par = parallel_for(8, num_microbatches=16)
        est_gb = estimate_method("vocab-2", SimulationSetup(big, par)).peak_bytes / GiB
        sim_gb = run_method("vocab-2", big, par).peak_memory_gb
        if est_gb <= sim_gb:
            pytest.skip("estimate not pessimistic for this config")
        budget = (est_gb + sim_gb) / 2.0
        plans = plan(
            big,
            par,
            PlannerConstraints(
                methods=methods, simulate_top_k=1, memory_budget_gib=budget
            ),
            cache=PlanCache(),
        )
        borderline = plans.candidate("vocab-2")
        assert borderline.source == "sim"
        assert borderline.feasible

    def test_no_feasible_plan_raises_with_reasons(self, model, parallel):
        plans = plan(
            model,
            parallel,
            PlannerConstraints(memory_budget_gib=1.0),
            cache=PlanCache(),
        )
        assert not plans.ranked
        with pytest.raises(ValueError, match="no feasible schedule"):
            _ = plans.best

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="memory_budget_gib"):
            PlannerConstraints(memory_budget_gib=-4.0)
        with pytest.raises(ValueError, match="simulate_top_k"):
            PlannerConstraints(simulate_top_k=-1)
        with pytest.raises(ValueError, match="estimate_margin"):
            PlannerConstraints(estimate_margin=0.5)
        with pytest.raises(ValueError, match="unknown method"):
            PlannerConstraints(methods=("zbh1",))


class TestCache:
    def test_cache_hit_returns_identical_result(self, model, parallel):
        cache = PlanCache()
        first = plan(model, parallel, cache=cache)
        second = plan(model, parallel, cache=cache)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_different_configs_miss(self, model, parallel):
        cache = PlanCache()
        plan(model, parallel, cache=cache)
        plan(model.replace(vocab_size=64 * 1024), parallel, cache=cache)
        assert cache.misses == 2 and len(cache) == 2

    def test_constraints_are_part_of_the_key(self, model, parallel):
        cache = PlanCache()
        a = plan(model, parallel, cache=cache)
        b = plan(
            model,
            parallel,
            PlannerConstraints(memory_budget_gib=40.0),
            cache=cache,
        )
        assert a is not b and a.cache_key != b.cache_key

    def test_disk_backed_cache_shares_results(self, model, parallel, tmp_path):
        warm = plan(
            model,
            parallel,
            PlannerConstraints(methods=ONE_F_ONE_B_METHODS),
            cache=PlanCache(tmp_path),
        )
        cold_cache = PlanCache(tmp_path)
        reloaded = plan(
            model,
            parallel,
            PlannerConstraints(methods=ONE_F_ONE_B_METHODS),
            cache=cold_cache,
        )
        assert cold_cache.hits == 1
        assert ranking_of(reloaded) == ranking_of(warm)

    def test_config_digest_stability(self, model, parallel):
        constraints = PlannerConstraints()
        memory = MemoryModel()
        key = config_digest(model, parallel, constraints, memory)
        assert key == config_digest(model, parallel, constraints, memory)
        assert key != config_digest(
            model.replace(vocab_size=64 * 1024), parallel, constraints, memory
        )


class TestBudgetIndependentAuxCache:
    """Estimates and metrics are keyed without the budget: a budget
    sweep over one structure re-ranks cached prices instead of
    re-estimating and re-simulating."""

    def test_second_budget_reuses_estimates_and_metrics(self, model, parallel):
        cache = PlanCache()
        a = plan(
            model, parallel,
            PlannerConstraints(memory_budget_gib=80.0), cache=cache,
        )
        aux_misses_after_first = cache.aux_misses
        b = plan(
            model, parallel,
            PlannerConstraints(memory_budget_gib=60.0), cache=cache,
        )
        # The second budget is a whole-plan miss but every estimate and
        # every simulated-metrics entry is an aux hit: no new misses.
        assert cache.misses == 2
        assert cache.aux_misses == aux_misses_after_first
        assert cache.aux_hits > 0
        assert a.cache_key != b.cache_key

    def test_budgets_rank_identically_to_cold_plans(self, model, parallel):
        shared = PlanCache()
        budgets = (80.0, 40.0, 20.0)
        warm = [
            plan(model, parallel,
                 PlannerConstraints(memory_budget_gib=budget), cache=shared)
            for budget in budgets
        ]
        for budget, warm_plans in zip(budgets, warm):
            cold = plan(
                model, parallel,
                PlannerConstraints(memory_budget_gib=budget),
                cache=PlanCache(),
            )
            assert ranking_of(cold) == ranking_of(warm_plans)
            for method in cold.methods_considered:
                c, w = cold.candidate(method), warm_plans.candidate(method)
                assert c.iteration_time == w.iteration_time
                assert c.peak_memory_gb == w.peak_memory_gb

    def test_aux_entries_persist_to_disk(self, model, parallel, tmp_path):
        plan(
            model, parallel,
            PlannerConstraints(memory_budget_gib=80.0),
            cache=PlanCache(tmp_path),
        )
        fresh = PlanCache(tmp_path)
        plan(
            model, parallel,
            PlannerConstraints(memory_budget_gib=60.0), cache=fresh,
        )
        # A different budget in a new process(-like) cache: the plan
        # entry misses but pricing comes entirely off disk.
        assert fresh.misses == 1 and fresh.aux_misses == 0
        assert fresh.aux_hits > 0


class TestPassOverheadBinding:
    def test_overhead_changes_prices_not_structure(self, model, parallel):
        cache = PlanCache()
        base = plan(model, parallel, cache=cache)
        slow = plan(model, parallel, cache=cache, pass_overhead=5e-3)
        assert slow.cache_key != base.cache_key
        assert slow.pass_overhead == 5e-3
        best = slow.best.method
        assert slow.candidate(best).iteration_time > base.candidate(
            best
        ).iteration_time or best != base.best.method

    def test_overhead_is_part_of_aux_keys(self, model, parallel):
        cache = PlanCache()
        plan(model, parallel, cache=cache)
        misses = cache.aux_misses
        plan(model, parallel, cache=cache, pass_overhead=5e-3)
        # New binding => fresh estimates/metrics, not stale reuse.
        assert cache.aux_misses > misses


class TestNumpyOptional:
    def test_planner_stack_imports_and_plans_without_numpy(self):
        """The scheduling/sim/planner chain must not require NumPy
        (pyproject lists it as an optional extra)."""
        import subprocess
        import sys
        from pathlib import Path

        script = """
import sys
class Hider:
    # find_spec, not the pre-3.12 find_module: the import system no
    # longer consults find_module, which would make this hider inert.
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(name + " hidden")
sys.meta_path.insert(0, Hider())
try:
    import numpy
except ImportError:
    pass
else:
    raise SystemExit("hider inert: numpy imported")
from repro.config import ModelConfig, ParallelConfig
from repro.api import PlannerConstraints, plan
model = ModelConfig(num_layers=8, hidden_size=256, num_attention_heads=4,
                    seq_length=256, vocab_size=8 * 1024)
parallel = ParallelConfig(pipeline_size=4, num_microbatches=4)
plans = plan(model, parallel, PlannerConstraints(simulate_top_k=1))
assert plans.ranked
print("OK", plans.best.method)
"""
        src = Path(__file__).resolve().parents[2] / "src"
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": ""},
            cwd=str(src.parent),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("OK")
