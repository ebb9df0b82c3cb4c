"""Cold and warm planning build no ``Pass`` for an unrolled schedule.

Generated schedules hold integer orders
(:class:`~repro.scheduling.orders.OrderTable`); validation, lowering,
refinement and memory accounting read those.  A cold ``plan()`` or
``run_method`` may build one microbatch-0 representative per stream
(runtimes price passes per stream) and the passes of the m=1 probes the
estimator prices — nothing for microbatches >= 1.  A warm ``optimize()``
builds no pass of the unrolled schedule either: the optimizer's programs
are node ids of the compiled graph, and scoring a rewrite candidate
(swap, hoist or token split) builds no ``Pass`` at all.
"""

import pytest

from repro.api import PlanCache, PlannerConstraints, optimize, plan
from repro.config import ModelConfig, ParallelConfig
from repro.harness import experiments
from repro.harness.experiments import KNOWN_METHODS, clear_structural_caches, run_method
from repro.optimize import HoistCollective, ScheduleIR, ScoreContext, SwapAdjacent, TokenSplit
from repro.planner.estimate import clear_probe_cache
from repro.scheduling.orders import OrderTable
from repro.scheduling.passes import Pass
from repro.sim import SimulationSetup

MODEL = ModelConfig(
    num_layers=16,
    hidden_size=512,
    num_attention_heads=8,
    seq_length=512,
    vocab_size=32 * 1024,
)
PARALLEL = ParallelConfig(pipeline_size=4, num_microbatches=8, microbatch_size=1)


def _streams(method: str) -> int:
    setup = SimulationSetup(MODEL, PARALLEL)
    return len(experiments._generate_method_schedule_uncached(method, setup).order_table().streams)


@pytest.fixture
def built(monkeypatch):
    """Microbatch of every :class:`Pass` constructed while the test runs."""
    clear_structural_caches()
    clear_probe_cache()
    made: list[int] = []
    init = Pass.__init__

    def counting(self, type, microbatch, device, chunk=0):
        made.append(microbatch)
        init(self, type, microbatch, device, chunk)

    monkeypatch.setattr(Pass, "__init__", counting)
    return made


def test_cold_plan_builds_representatives_and_probes_only(built):
    streams = sum(_streams(method) for method in KNOWN_METHODS)
    built.clear()
    plan(MODEL, PARALLEL, PlannerConstraints(simulate_top_k=None), cache=PlanCache())
    assert built, "the guard must see the representatives being built"
    assert set(built) == {0}, "a pass of an unrolled schedule was built"
    # One representative per stream of each simulated schedule, plus the
    # m=1 probes (one pass per stream each).
    assert len(built) <= 2 * streams


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("method", KNOWN_METHODS)
def test_run_method_builds_representatives_only(built, method, refine):
    streams = _streams(method)
    built.clear()
    run_method(method, MODEL, PARALLEL, refine=refine)
    assert set(built) == {0}
    assert len(built) == streams


def test_guard_trips(built):
    schedule = experiments._generate_method_schedule_uncached(
        "vocab-1", SimulationSetup(MODEL, PARALLEL)
    )
    schedule.device_orders
    assert max(built) == PARALLEL.num_microbatches - 1


def test_second_warm_optimize_reuses_built_passes(built, monkeypatch):
    cache = PlanCache()
    constraints = PlannerConstraints()
    optimize(MODEL, PARALLEL, constraints, cache=cache, seed=1, budget=4)
    generated = [
        schedule.order_table() for schedule in experiments._SCHEDULE_CACHE.values()
    ]
    built_before = [table._passes for table in generated]
    assert any(passes is not None for passes in built_before)

    fresh_builds = []
    passes = OrderTable.passes

    def counting(self):
        if self._passes is None and self._source is None:
            fresh_builds.append(self)
        return passes(self)

    monkeypatch.setattr(OrderTable, "passes", counting)
    result = optimize(MODEL, PARALLEL, constraints, cache=cache, seed=2, budget=4)
    assert result.evaluations == 4
    assert fresh_builds == []
    assert [table._passes for table in generated] == built_before
    assert all(
        after is before
        for after, before in zip((table._passes for table in generated), built_before)
    )


@pytest.mark.parametrize("rule", [SwapAdjacent, HoistCollective, TokenSplit])
def test_scoring_rewrite_candidates_builds_no_pass(built, rule):
    setup = SimulationSetup(MODEL, PARALLEL)
    ctx = ScoreContext(setup)
    start = ctx.score(
        ScheduleIR.from_schedule(experiments.build_schedule("vocab-1", setup)), ()
    )
    rewrite = rule()
    sites = rewrite.sites(start.ir, start.rewrite_ctx)
    assert sites
    # Applying may build the passes a trace entry names; scoring builds none.
    programs = [rewrite.apply(start.ir, site) for site in sites[:8]]
    built.clear()
    scored = [ctx.score(ir, (step,)) for ir, step in programs]
    assert all(candidate is not None for candidate in scored)
    assert built == []
    if rule is TokenSplit:
        # The split program's own rewrites read its new graph, not passes.
        split = scored[0]
        swaps = SwapAdjacent().sites(split.ir, split.rewrite_ctx)
        ir, step = SwapAdjacent().apply(split.ir, swaps[0])
        built.clear()
        assert ctx.score(ir, (step,)) is not None
        assert built == []
