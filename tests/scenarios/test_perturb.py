"""Monte Carlo perturbation: determinism, parity, nominal identity."""

import math

import pytest

import repro.scenarios.perturb as perturb
import repro.sim.compiled as compiled
from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import generate_method_schedule
from repro.scenarios import (
    ClusterScenario,
    RobustnessObjective,
    get_scenario,
    method_robustness,
    perturbation_factors,
    perturbed_rows,
    robustness_stats,
)
from repro.sim import RuntimeModel, SimulationSetup, compile_schedule


def tiny_graph(method: str = "vocab-1", p: int = 4, m: int = 8):
    model = ModelConfig(
        num_layers=4 * p,
        hidden_size=512,
        num_attention_heads=8,
        seq_length=256,
        vocab_size=4096,
    )
    setup = SimulationSetup(
        model, ParallelConfig(pipeline_size=p, num_microbatches=m)
    )
    schedule = generate_method_schedule(method, setup)
    return compile_schedule(schedule, RuntimeModel(setup, schedule))


JITTERY = ClusterScenario(name="t-jitter", pass_jitter=0.1, comm_jitter=0.2)


def as_rows(matrix):
    """Nested-list rendering of a factor matrix (NumPy or pure Python)."""
    if isinstance(matrix, list):
        return [list(row) for row in matrix]
    return matrix.tolist()


class TestSeededDeterminism:
    def test_same_seed_bit_identical(self):
        graph = tiny_graph()
        a = perturbation_factors(graph, JITTERY, samples=4, seed=9)
        b = perturbation_factors(graph, JITTERY, samples=4, seed=9)
        assert as_rows(a[0]) == as_rows(b[0])
        assert as_rows(a[1]) == as_rows(b[1])

    def test_different_seeds_differ(self):
        graph = tiny_graph()
        a = perturbation_factors(graph, JITTERY, samples=4, seed=9)
        b = perturbation_factors(graph, JITTERY, samples=4, seed=10)
        assert as_rows(a[0]) != as_rows(b[0])

    def test_scenario_seed_enters_stream(self):
        graph = tiny_graph()
        other = ClusterScenario(
            name="t2", pass_jitter=0.1, comm_jitter=0.2, seed=1
        )
        a = perturbation_factors(graph, JITTERY, samples=4, seed=9)
        b = perturbation_factors(graph, other, samples=4, seed=9)
        assert as_rows(a[0]) != as_rows(b[0])

    def test_stats_bit_identical_across_runs(self):
        graph = tiny_graph()
        assert robustness_stats(
            graph, JITTERY, samples=32, seed=5
        ) == robustness_stats(graph, JITTERY, samples=32, seed=5)

    def test_factors_center_on_one(self):
        graph = tiny_graph()
        dur, _ = perturbation_factors(graph, JITTERY, samples=16, seed=0)
        rows = as_rows(dur)
        flat = [value for row in rows for value in row]
        mean = sum(flat) / len(flat)
        assert abs(mean - 1.0) < 0.01
        assert all(value >= JITTERY.min_jitter_factor for value in flat)


class TestPurePythonParity:
    def test_factor_generation_parity(self, monkeypatch):
        graph = tiny_graph()
        with_numpy = perturbation_factors(graph, JITTERY, samples=3, seed=4)
        monkeypatch.setattr(perturb, "_np", None)
        without_numpy = perturbation_factors(graph, JITTERY, samples=3, seed=4)
        assert as_rows(with_numpy[0]) == as_rows(without_numpy[0])
        assert as_rows(with_numpy[1]) == as_rows(without_numpy[1])

    def test_perturbed_rows_parity(self, monkeypatch):
        graph = tiny_graph()
        with_numpy = perturbed_rows(graph, JITTERY, samples=3, seed=4)
        monkeypatch.setattr(perturb, "_np", None)
        without_numpy = perturbed_rows(graph, JITTERY, samples=3, seed=4)
        assert as_rows(with_numpy[0]) == as_rows(without_numpy[0])
        assert as_rows(with_numpy[1]) == as_rows(without_numpy[1])

    def test_execute_many_fallback_parity(self, monkeypatch):
        """Perturbed bindings sweep identically without NumPy."""
        graph = tiny_graph()
        durations, lags = perturbed_rows(graph, JITTERY, samples=4, seed=7)
        batched = graph.execute_many_summary(durations, lags)
        rows = as_rows(durations)
        lag_rows = as_rows(lags)
        monkeypatch.setattr(compiled, "_np", None)
        fallback = graph.execute_many_summary(rows, lag_rows)
        assert [s.iteration_time for s in batched] == [
            s.iteration_time for s in fallback
        ]
        assert [s.device_busy for s in batched] == [
            s.device_busy for s in fallback
        ]

    def test_stats_identical_without_numpy(self, monkeypatch):
        graph = tiny_graph()
        with_numpy = robustness_stats(graph, JITTERY, samples=8, seed=3)
        monkeypatch.setattr(perturb, "_np", None)
        monkeypatch.setattr(compiled, "_np", None)
        without_numpy = robustness_stats(graph, JITTERY, samples=8, seed=3)
        assert with_numpy == without_numpy


    def test_skipped_draws_parity_at_scale(self, monkeypatch):
        """K ≥ 16 on a graph with zero- and non-zero-lag edges and
        zero-sigma nodes: the rows (which draw only the slots a factor
        can change) equal base × the dense factors, and both backends'
        rows and batched summaries agree bit for bit."""
        graph = tiny_graph("vhalf-vocab-1")
        lags = graph.succ_lag
        assert any(lag == 0.0 for lag in lags) and any(lag > 0.0 for lag in lags)
        scenario = ClusterScenario(
            name="t-narrow", pass_jitter=0.2, comm_jitter=0.3, jitter_devices=(1,)
        )
        samples = 19
        dur_rows, lag_rows = perturbed_rows(graph, scenario, samples, seed=11)
        dur_factors, lag_factors = perturbation_factors(
            graph, scenario, samples, seed=11
        )
        assert as_rows(dur_rows) == [
            [b * f for b, f in zip(graph.durations, row)]
            for row in as_rows(dur_factors)
        ]
        assert as_rows(lag_rows) == [
            [b * f for b, f in zip(lags, row)] for row in as_rows(lag_factors)
        ]
        batched = graph.execute_many_summary(dur_rows, lag_rows)
        monkeypatch.setattr(perturb, "_np", None)
        py_dur, py_lag = perturbed_rows(graph, scenario, samples, seed=11)
        assert py_dur == as_rows(dur_rows)
        assert py_lag == as_rows(lag_rows)
        monkeypatch.setattr(compiled, "_np", None)
        fallback = graph.execute_many_summary(py_dur, py_lag)
        assert batched == fallback
        assert len(batched) == samples

    def test_every_column_drawn_parity(self, monkeypatch):
        """Every node jitters (all durations positive, every sigma
        non-zero): the NumPy path scales the factor block in place and
        fills in no base value."""
        graph = tiny_graph()
        assert min(graph.durations) > 0.0
        assert all(perturb._node_sigma(graph, JITTERY))
        with_numpy = perturbed_rows(graph, JITTERY, samples=5, seed=2)
        monkeypatch.setattr(perturb, "_np", None)
        without_numpy = perturbed_rows(graph, JITTERY, samples=5, seed=2)
        assert as_rows(with_numpy[0]) == as_rows(without_numpy[0])
        assert as_rows(with_numpy[1]) == as_rows(without_numpy[1])

    def test_bubble_vectors_match_scalar(self):
        """The K-vector bubble statistic equals each summary's
        mean_bubble_fraction(), a non-positive iteration time included."""
        if perturb._np is None:
            pytest.skip("the K-vector path runs only with numpy")
        graph = tiny_graph("vhalf-vocab-1")
        durations, lags = perturbed_rows(graph, JITTERY, samples=9, seed=5)
        summaries = graph.execute_many_summary(durations, lags)
        summaries.append(
            compiled.ExecutionSummary(iteration_time=0.0, device_busy=(0.0,) * 4)
        )
        assert perturb._mean_bubble_fractions(summaries) == [
            s.mean_bubble_fraction() for s in summaries
        ]


def _splitmix_uniform(seed: int, counter: int) -> float:
    """The uniform at ``counter`` of the stream, straight from the
    SplitMix64 definition (state = seed + (counter + 1)·γ)."""
    mask = (1 << 64) - 1
    z = (seed + (counter + 2) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


class TestGeneratorBlocks:
    """The NumPy generator mixes its states block by block; a block
    edge must not shift any counter position."""

    @pytest.mark.parametrize("distribution", ["normal", "uniform"])
    def test_partial_block_and_nonzero_start(self, distribution, monkeypatch):
        if perturb._np is None:
            pytest.skip("numpy is not installed")
        scenario = ClusterScenario(
            name="t-blocks", pass_jitter=0.4, jitter_distribution=distribution
        )
        seed, start, rows, width = 0xDEADBEEF, 12345, 5, 23
        columns = [0, 2, 3, 7, 11, 12, 13, 17, 19, 22, 1]
        sigma = [0.1 * (1 + j % 4) for j in columns]
        # 3 columns per block: 11 columns end on a partial block.
        draws = perturb._DRAWS if distribution == "normal" else 1
        monkeypatch.setattr(perturb, "_BLOCK", 3 * draws * rows)
        blocked = perturb._factors_np(
            scenario, seed, start, rows, width, columns, sigma
        )
        monkeypatch.setattr(perturb, "_BLOCK", 1 << 20)
        whole = perturb._factors_np(
            scenario, seed, start, rows, width, columns, sigma
        )
        python = perturb._factors_py(
            scenario, seed, start, rows, width, columns, sigma
        )
        assert blocked.T.tolist() == whole.T.tolist() == python
        for k in range(rows):
            for c, (j, s) in enumerate(zip(columns, sigma)):
                at = start + (k * width + j) * perturb._DRAWS
                if distribution == "normal":
                    u = [_splitmix_uniform(seed, at + d) for d in range(4)]
                    z = (((u[0] + u[1]) + u[2]) + u[3] - 2.0) * math.sqrt(3.0)
                else:
                    z = 2.0 * _splitmix_uniform(seed, at) - 1.0
                expected = max(1.0 + s * z, scenario.min_jitter_factor)
                assert python[k][c] == expected


class TestNominalIdentity:
    def test_homogeneous_scenario_equals_execute(self):
        """Zero perturbation ⇒ every quantile is the nominal time, bit-for-bit."""
        graph = tiny_graph()
        nominal = graph.execute().iteration_time
        stats = robustness_stats(
            graph, get_scenario("homogeneous"), samples=16, seed=0
        )
        assert stats.nominal_time == nominal
        assert stats.p50_time == nominal
        assert stats.p95_time == nominal
        assert stats.worst_time == nominal
        assert stats.std_time == 0.0
        assert stats.p95_inflation == 0.0

    def test_zero_jitter_rows_equal_bound_durations(self):
        graph = tiny_graph()
        durations, lags = perturbed_rows(
            graph, get_scenario("homogeneous"), samples=3, seed=0
        )
        for row in as_rows(durations):
            assert row == list(graph.durations)
        for row in as_rows(lags):
            assert row == list(graph.succ_lag)

    def test_jitter_free_summary_path_matches_execute_many(self):
        """The no-jitter shortcut must agree with actually sweeping K rows."""
        graph = tiny_graph()
        durations, lags = perturbed_rows(
            graph, get_scenario("homogeneous"), samples=3, seed=0
        )
        results = graph.execute_many(durations, lags)
        nominal = graph.execute().iteration_time
        assert all(r.iteration_time == nominal for r in results)


class TestStats:
    def test_quantiles_ordered(self):
        graph = tiny_graph()
        stats = robustness_stats(graph, JITTERY, samples=64, seed=1)
        assert stats.best_time <= stats.p50_time <= stats.p95_time
        assert stats.p95_time <= stats.worst_time
        assert stats.p95_inflation > 0
        assert stats.quantile_time("p95") == stats.p95_time
        assert stats.quantile_time("mean") == stats.mean_time
        with pytest.raises(ValueError, match="unknown quantile"):
            stats.quantile_time("p99")
        assert math.isfinite(stats.std_time)

    def test_objective_validation(self):
        with pytest.raises(ValueError, match="samples"):
            RobustnessObjective(samples=0)
        with pytest.raises(ValueError, match="rank_by"):
            RobustnessObjective(rank_by="p12")

    def test_samples_must_be_positive(self):
        graph = tiny_graph()
        with pytest.raises(ValueError, match="samples"):
            perturbed_rows(graph, JITTERY, samples=0)
        with pytest.raises(ValueError, match="samples"):
            perturbation_factors(graph, JITTERY, samples=0)


class TestMethodRobustness:
    def test_slow_node_slower_than_homogeneous(self):
        model = ModelConfig(
            num_layers=16,
            hidden_size=512,
            num_attention_heads=8,
            seq_length=256,
            vocab_size=4096,
        )
        parallel = ParallelConfig(pipeline_size=4, num_microbatches=8)
        slow = method_robustness(
            "vocab-1", model, parallel, get_scenario("slow-node"),
            samples=16, seed=0,
        )
        nominal = method_robustness(
            "vocab-1", model, parallel, get_scenario("homogeneous"),
            samples=16, seed=0,
        )
        assert slow.nominal_time > nominal.nominal_time
        assert slow.p95_time >= slow.nominal_time
