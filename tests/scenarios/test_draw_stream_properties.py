"""One jitter stream shared by every candidate of a robust ranking.

:class:`~repro.scenarios.perturb.DrawStream` serves factor blocks from a
dense prefix of unscaled values drawn once, and draws a block's own
columns when extending the prefix would cost more.  Either way each
factor must equal, bit for bit, the value the counter-based generator
gives at that factor's counter (:func:`_factors_py`), and the value a
fresh stream per candidate gives — for any order of block widths,
dense or sparse columns, either distribution, with NumPy and without.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.scenarios.perturb as perturb
import repro.sim.compiled as compiled
from repro.api import PlanCache, RobustnessObjective, plan
from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import clear_structural_caches
from repro.scenarios import ClusterScenario, get_scenario, method_robustness

SAMPLES = (1, 2, 17, 256)
#: Scales up to 2.0 push ``1 + σ·x`` below the floor, so the order of
#: scaling and flooring shows.
SIGMAS = (0.05, 0.3, 2.0)


@st.composite
def blocks(draw):
    """1–4 factor blocks read in order: a duration block starts at value
    0; a lag block starts after ``K·nodes`` duration values."""
    rows = draw(st.sampled_from(SAMPLES))
    out = []
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, 24))
        if draw(st.booleans()):
            columns = list(range(width))
        else:
            columns = sorted(draw(st.sets(st.integers(0, width - 1), max_size=width)))
        start = 0 if draw(st.booleans()) else rows * draw(st.integers(1, 24))
        sigma = [draw(st.sampled_from(SIGMAS)) for _ in columns]
        out.append((start, width, columns, sigma))
    return rows, out


def _read(stream, scenario, start, rows, width, columns, sigma):
    """A stream's factors as ``rows`` lists, whichever backend ran."""
    if perturb._np is None:
        return stream.factors(scenario, start, rows, width, columns, sigma)
    np = perturb._np
    got = stream.factors(
        scenario, start, rows, width,
        np.asarray(columns, dtype=np.intp), np.asarray(sigma, dtype=np.float64),
    )
    return got.T.tolist()


@settings(max_examples=60, deadline=None)
@given(
    case=blocks(),
    distribution=st.sampled_from(["normal", "uniform"]),
    seed=st.integers(0, 2**64 - 1),
    hide_numpy=st.booleans(),
)
def test_shared_stream_equals_counter_values(case, distribution, seed, hide_numpy):
    rows, reads = case
    scenario = ClusterScenario(
        name="t-stream", pass_jitter=0.1, jitter_distribution=distribution
    )
    stream = perturb._stream_seed(scenario.seed, seed)
    with pytest.MonkeyPatch.context() as mp:
        if hide_numpy:
            mp.setattr(perturb, "_np", None)
        shared = perturb.DrawStream(scenario, seed)
        own_draws = 0
        for start, width, columns, sigma in reads:
            got = _read(shared, scenario, start, rows, width, columns, sigma)
            fresh = perturb.DrawStream(scenario, seed)
            alone = _read(fresh, scenario, start, rows, width, columns, sigma)
            expected = perturb._factors_py(
                scenario, stream, start * perturb._DRAWS, rows, width,
                columns, sigma,
            )
            assert got == alone == expected
            own_draws += rows * len(columns)
        # A block extends the prefix only when that costs no more draws
        # than its own columns, so sharing never draws more.
        assert shared.drawn <= own_draws
        shared.release()


@pytest.mark.parametrize("distribution", ["normal", "uniform"])
def test_prefix_drawn_in_row_blocks(distribution, monkeypatch):
    """The prefix is the rows of one column; rows past one generator
    block continue the stream exactly (the block's sample term is
    offset through the column term)."""
    if perturb._np is None:
        pytest.skip("numpy is not installed")
    np = perturb._np
    scenario = ClusterScenario(
        name="t-rows", pass_jitter=0.2, jitter_distribution=distribution
    )
    monkeypatch.setattr(perturb, "_BLOCK", 28)
    seed, rows, width = 0xC0FFEE, 17, 5
    stream = perturb.DrawStream(scenario, seed)
    columns = list(range(width))
    sigma = [0.7] * width
    got = stream.factors(
        scenario, 3, rows, width, np.arange(width), np.asarray(sigma)
    )
    assert stream.drawn == rows * width
    assert got.T.tolist() == perturb._factors_py(
        scenario, perturb._stream_seed(scenario.seed, seed),
        3 * perturb._DRAWS, rows, width, columns, sigma,
    )


def test_stream_rejects_another_seed():
    scenario = get_scenario("slow-node")
    stream = perturb.DrawStream(scenario, 3)
    with pytest.raises(ValueError, match="another scenario or seed"):
        stream._check(scenario, 4)


def test_released_buffer_is_reused_and_never_aliased():
    """A released prefix buffer serves the next stream, and no factor
    block handed out views it."""
    if perturb._np is None:
        pytest.skip("numpy is not installed")
    np = perturb._np
    scenario = ClusterScenario(name="t-spare", pass_jitter=0.1)
    columns, sigma = np.arange(6), np.full(6, 0.1)
    first = perturb.DrawStream(scenario, 1)
    block = first.factors(scenario, 0, 4, 6, columns, sigma)
    expected = block.copy()
    first.release()
    second = perturb.DrawStream(scenario, 2)
    other = second.factors(scenario, 0, 4, 6, columns, sigma)
    assert (block == expected).all()
    assert not np.shares_memory(block, other)
    again = perturb.DrawStream(scenario, 1).factors(scenario, 0, 4, 6, columns, sigma)
    assert (again == expected).all()
    second.release()


# ---------------------------------------------------------------------------
# Robust plans: the shared stream against each candidate's own draws.
# ---------------------------------------------------------------------------


def _graph(method: str):
    from repro.harness.experiments import generate_method_schedule
    from repro.sim import RuntimeModel, SimulationSetup, compile_schedule

    setup = SimulationSetup(MODEL, PARALLEL)
    schedule = generate_method_schedule(method, setup)
    return compile_schedule(schedule, RuntimeModel(setup, schedule))


@pytest.mark.parametrize("hide_numpy", [False, True])
def test_shared_rows_equal_base_times_full_factors(hide_numpy, monkeypatch):
    """Graphs of different widths read one stream, widest last: every
    row equals its base times the dense factor matrices, whose duration
    and lag blocks are laid out independently of the stream."""
    if hide_numpy:
        monkeypatch.setattr(perturb, "_np", None)
    scenario = ClusterScenario(name="t-rows", pass_jitter=0.2, comm_jitter=0.3)
    shared = perturb.DrawStream(scenario, 9)
    graphs = sorted(
        (_graph(m) for m in ("baseline", "vocab-1", "vhalf-vocab-2")),
        key=lambda g: g.num_nodes,
    )
    assert graphs[0].num_nodes < graphs[-1].num_nodes
    for graph in graphs:
        durations, lags = perturb.perturbed_rows(graph, scenario, 6, 9, _draws=shared)
        dur_factors, lag_factors = perturb.perturbation_factors(graph, scenario, 6, 9)
        assert [list(row) for row in durations] == [
            [b * f for b, f in zip(graph.durations, row)] for row in dur_factors
        ]
        assert [list(row) for row in lags] == [
            [b * f for b, f in zip(graph.succ_lag, row)] for row in lag_factors
        ]
    shared.release()

MODEL = ModelConfig(
    num_layers=16,
    hidden_size=512,
    num_attention_heads=8,
    seq_length=512,
    vocab_size=32 * 1024,
)
PARALLEL = ParallelConfig(pipeline_size=4, num_microbatches=8, microbatch_size=1)
JITTERED = (
    "slow-node",
    "high-jitter",
    "mixed-sku",
    "bandwidth-asymmetric",
    "straggler-device",
)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_structural_caches()
    yield
    clear_structural_caches()


def _robust_plan(name, monkeypatch):
    """A robust plan and the streams it drew from."""
    import repro.planner.planner as planner

    streams = []

    class Recorded(perturb.DrawStream):
        __slots__ = ()

        def release(self):
            streams.append(self.drawn)
            super().release()

    monkeypatch.setattr(planner, "DrawStream", Recorded)
    plans = plan(
        MODEL, PARALLEL, cache=PlanCache(), scenario=name,
        robustness=RobustnessObjective(samples=32, seed=5),
    )
    return plans, streams


@pytest.mark.parametrize("name", JITTERED)
def test_robust_plan_equals_per_candidate_draws(name, monkeypatch):
    plans, streams = _robust_plan(name, monkeypatch)
    robust = [c for c in plans.ranked if c.robust_stats is not None]
    assert len(robust) >= 2
    assert len(streams) == 1
    clear_structural_caches()
    scenario = get_scenario(name)
    for candidate in robust:
        alone = method_robustness(
            candidate.method, MODEL, PARALLEL, scenario, samples=32, seed=5
        )
        assert candidate.robust_stats == alone


@pytest.mark.skipif(compiled._np is None, reason="already the pure-Python path")
@pytest.mark.parametrize("name", ["slow-node", "straggler-device"])
def test_robust_plan_identical_without_numpy(name, monkeypatch):
    with_numpy, _ = _robust_plan(name, monkeypatch)
    clear_structural_caches()
    monkeypatch.setattr(perturb, "_np", None)
    monkeypatch.setattr(compiled, "_np", None)
    without_numpy, _ = _robust_plan(name, monkeypatch)
    assert [c.robust_stats for c in with_numpy.ranked] == [
        c.robust_stats for c in without_numpy.ranked
    ]


def test_dense_candidates_share_their_draws(monkeypatch):
    """On ``slow-node`` every node jitters, so after the first
    candidate the others read the prefix: the ranking draws fewer
    values than its candidates would alone."""
    plans, streams = _robust_plan("slow-node", monkeypatch)
    (drawn,) = streams
    alone = 0
    scenario = get_scenario("slow-node")
    for candidate in plans.ranked:
        if candidate.robust_stats is None:
            continue
        stream = perturb.DrawStream(scenario, 5)
        alone_stats = method_robustness(
            candidate.method, MODEL, PARALLEL, scenario, samples=32, seed=5,
            _draws=stream,
        )
        assert alone_stats == candidate.robust_stats
        alone += stream.drawn
    assert drawn < alone
