"""End-to-end :func:`repro.api.optimize`: golden result, determinism,
engine parity, cache addressing and input validation."""

import pytest

from repro.api import (
    OptimizedPlan,
    PlanCache,
    PlannerConstraints,
    optimize,
    optimize_cache_key,
)
from repro.harness.settings import model_for_1f1b, parallel_for


@pytest.fixture
def model():
    """The paper's 8-GPU Table 1 shape at a 64k vocabulary."""
    return model_for_1f1b(8, 2048, 64 * 1024)


@pytest.fixture
def parallel():
    return parallel_for(8, 16)


def run(model, parallel, tmp_path, name="a", **kwargs):
    return optimize(
        model, parallel, cache=PlanCache(str(tmp_path / name)), **kwargs
    )


class TestGolden:
    def test_beats_every_named_family_on_slow_node(
        self, model, parallel, tmp_path
    ):
        """The PR's headline claim, oracle-verified: the search finds a
        schedule strictly faster than all named families."""
        result = run(model, parallel, tmp_path, scenario="slow-node", seed=0)
        assert isinstance(result, OptimizedPlan)
        assert result.improved
        assert result.beats_all_named()
        assert result.speedup > 1.0
        assert result.baseline_time == pytest.approx(
            result.optimized_time * result.speedup
        )
        # The win comes from sequence slicing the named generators
        # cannot express.
        assert "token-split" in {step.rule for step in result.trace}
        assert result.token_split > 1
        assert result.num_microbatches > parallel.num_microbatches
        # Memory stays within the planner's budget.
        assert result.peak_memory_gib <= result.memory_budget_gib
        assert 0 < result.evaluations <= result.budget

    def test_as_dict_round_trips_the_report(self, model, parallel, tmp_path):
        result = run(model, parallel, tmp_path, scenario="slow-node", seed=0)
        body = result.as_dict()
        assert body["speedup"] == result.speedup
        assert body["beats_all_named"] is True
        assert body["cache_key"] == result.cache_key
        assert [s["rule"] for s in body["trace"]] == [
            s.rule for s in result.trace
        ]
        methods = {entry["method"] for entry in body["baseline_times"]}
        assert result.baseline_method in methods
        rendered = result.render()
        assert "speedup" in rendered
        assert result.baseline_method in rendered


class TestDeterminism:
    def test_same_seed_same_result(self, model, parallel, tmp_path):
        first = run(model, parallel, tmp_path, name="a", seed=0, budget=48)
        second = run(model, parallel, tmp_path, name="b", seed=0, budget=48)
        assert first.as_dict() == second.as_dict()

    def test_pure_python_engine_matches(
        self, model, parallel, tmp_path, monkeypatch
    ):
        """The oracle replay is bit-identical across the NumPy and
        pure-Python execution kernels, so the whole search is too."""
        import repro.sim.compiled as compiled

        if compiled._np is None:
            pytest.skip("already running without numpy")
        with_numpy = run(
            model, parallel, tmp_path, name="np", seed=0, budget=48
        )
        monkeypatch.setattr(compiled, "_np", None)
        without = run(
            model, parallel, tmp_path, name="py", seed=0, budget=48
        )
        assert with_numpy.as_dict() == without.as_dict()

    def test_result_is_cached_under_its_key(self, model, parallel, tmp_path):
        cache = PlanCache(str(tmp_path / "shared"))
        first = optimize(model, parallel, cache=cache, seed=0, budget=48)
        again = optimize(model, parallel, cache=cache, seed=0, budget=48)
        assert again.as_dict() == first.as_dict()
        assert cache.get_aux("optimize", first.cache_key) is not None


class TestCacheKey:
    def test_key_matches_result(self, model, parallel, tmp_path):
        result = run(model, parallel, tmp_path, seed=0, budget=48)
        assert result.cache_key == optimize_cache_key(
            model, parallel, seed=0, budget=48
        )

    def test_key_discriminates_inputs(self, model, parallel):
        base = optimize_cache_key(model, parallel)
        assert optimize_cache_key(model, parallel) == base
        assert optimize_cache_key(model, parallel, seed=1) != base
        assert optimize_cache_key(model, parallel, budget=7) != base
        assert optimize_cache_key(
            model, parallel, scenario="slow-node"
        ) != base
        assert optimize_cache_key(
            model, parallel, PlannerConstraints(memory_budget_gib=40.0)
        ) != base


class TestValidation:
    def test_non_positive_budget_rejected(self, model, parallel):
        with pytest.raises(ValueError, match="budget"):
            optimize(model, parallel, budget=0)

    def test_unknown_scenario_rejected(self, model, parallel):
        with pytest.raises(KeyError):
            optimize(model, parallel, scenario="not-a-scenario")

