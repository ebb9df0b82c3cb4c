"""Property tests for the rewrite catalog over :class:`ScheduleIR`.

Every rewrite's contract: each enumerated site applies to a copy (the
input program is never mutated), the emitted schedule still validates
and executes under the compiled-graph oracle, reorder rewrites conserve
the per-device pass multiset, and the applied step lands in the trace.
"""

import pytest

from repro.config import ModelConfig, ParallelConfig
from repro.costmodel.memory import GiB
from repro.optimize import (
    ActivationHandoff,
    HoistCollective,
    ScheduleIR,
    ScoreContext,
    SwapAdjacent,
    TokenSplit,
    default_rewrites,
)
from repro.planner.planner import PlannerConstraints, plan
from repro.planner.cache import PlanCache
from repro.sim import SimulationSetup


@pytest.fixture
def model() -> ModelConfig:
    return ModelConfig(
        num_layers=8,
        hidden_size=512,
        num_attention_heads=8,
        seq_length=256,
        vocab_size=4096,
    )


@pytest.fixture
def parallel() -> ParallelConfig:
    return ParallelConfig(pipeline_size=4, num_microbatches=8)


@pytest.fixture
def start(model, parallel, tmp_path):
    """The best named family, lowered and oracle-scored."""
    constraints = PlannerConstraints(simulate_top_k=None)
    plans = plan(
        model, parallel, constraints, cache=PlanCache(str(tmp_path))
    )
    schedule = plans.build_best_schedule()
    ctx = ScoreContext(
        SimulationSetup(model, parallel),
        budget_bytes=plans.memory_budget_gib * GiB,
    )
    candidate = ctx.score(ScheduleIR.from_schedule(schedule), ())
    assert candidate is not None
    return ctx, candidate


def node_multiset(ir):
    """Per-device multiset of pass nodes (order-insensitive identity)."""
    return [sorted(order) for order in ir.device_nodes]


def apply_some_sites(rewrite, candidate, limit=6):
    sites = rewrite.sites(candidate.ir, candidate.rewrite_ctx)
    return sites, [rewrite.apply(candidate.ir, s) for s in sites[:limit]]


class TestSwapAdjacent:
    def test_sites_apply_and_stay_legal(self, start):
        ctx, candidate = start
        sites, applied = apply_some_sites(SwapAdjacent(), candidate)
        assert sites, "a pipeline schedule must expose some legal swap"
        for new_ir, step in applied:
            assert step.rule == "swap-adjacent"
            # Reorders conserve the per-device pass multiset.
            assert node_multiset(new_ir) == node_multiset(candidate.ir)
            assert new_ir.split == candidate.ir.split
            new_ir.emit().validate()
            scored = ctx.score(new_ir, (step,))
            assert scored is not None, "dependence-free swap must execute"
            assert scored.trace == (step,)

    def test_input_program_is_not_mutated(self, start):
        _, candidate = start
        before = [list(order) for order in candidate.ir.device_nodes]
        sites = SwapAdjacent().sites(candidate.ir, candidate.rewrite_ctx)
        SwapAdjacent().apply(candidate.ir, sites[0])
        assert candidate.ir.device_nodes == before


class TestHoistCollective:
    def test_sites_apply_and_stay_legal(self, model, parallel):
        # A vocabulary-parallel schedule, so S/T passes exist to hoist.
        from repro.harness.experiments import build_schedule

        setup = SimulationSetup(model, parallel)
        schedule = build_schedule("vocab-1", setup)
        ctx = ScoreContext(setup)
        candidate = ctx.score(ScheduleIR.from_schedule(schedule), ())
        assert candidate is not None
        sites, applied = apply_some_sites(HoistCollective(), candidate)
        assert sites, "vocab-1 must expose hoistable S/T passes"
        for new_ir, step in applied:
            assert step.rule == "hoist-collective"
            assert node_multiset(new_ir) == node_multiset(candidate.ir)
            new_ir.emit().validate()
            assert ctx.score(new_ir, (step,)) is not None


class TestTokenSplit:
    def test_split_doubles_microbatches_and_stays_legal(self, start):
        ctx, candidate = start
        rewrite = TokenSplit()
        sites = rewrite.sites(candidate.ir, candidate.rewrite_ctx)
        assert sites == [()]
        new_ir, step = rewrite.apply(candidate.ir, sites[0])
        assert step.rule == "token-split"
        assert new_ir.num_microbatches == 2 * candidate.ir.num_microbatches
        assert new_ir.split == 2 * candidate.ir.split
        for old, new in zip(candidate.ir.device_nodes, new_ir.device_nodes):
            assert len(new) == 2 * len(old)
        new_ir.emit().validate()
        scored = ctx.score(new_ir, (step,))
        assert scored is not None
        # Split halves per-pass compute but pays per-pass overhead and
        # full collectives twice: the time must stay in a sane band,
        # never double.
        assert scored.time < 2 * candidate.time

    def test_split_round_trips_through_emit(self, start):
        _, candidate = start
        new_ir, _ = TokenSplit().apply(candidate.ir, ())
        again = ScheduleIR.from_schedule(new_ir.emit())
        assert again.split == new_ir.split
        assert again.num_microbatches == new_ir.num_microbatches

    def test_respects_max_split(self, start):
        _, candidate = start
        ir = candidate.ir
        for _ in range(2):  # split -> 2 -> 4 (MAX_SPLIT)
            ir, _ = TokenSplit().apply(ir, ())
        assert TokenSplit().sites(ir, candidate.rewrite_ctx) == []


class TestActivationHandoff:
    def test_no_sites_without_memory_pressure(self, start):
        _, candidate = start
        # The default budget leaves headroom on the small model, so the
        # BPipe predicate must not fire.
        assert (
            ActivationHandoff().sites(candidate.ir, candidate.rewrite_ctx)
            == []
        )

    def test_apply_records_handoff_without_touching_orders(self, start):
        _, candidate = start
        new_ir, step = ActivationHandoff().apply(candidate.ir, (0, 1, 1))
        assert step.rule == "activation-handoff"
        assert new_ir.handoffs == candidate.ir.handoffs + ((0, 1, 1),)
        assert new_ir.device_nodes == candidate.ir.device_nodes

    def test_scoring_prices_the_handoff(self, start):
        ctx, candidate = start
        # The oracle re-checks the BPipe bound on every score: the
        # handoff shifts one activation's bytes from src to dst, and
        # the candidate stays executable.
        new_ir, step = ActivationHandoff().apply(candidate.ir, (0, 1, 1))
        scored = ctx.score(new_ir, (step,))
        assert scored is not None
        assert scored.peak_bytes > 0

    def test_binding_budget_marks_infeasible(self, model, parallel, start):
        _, candidate = start
        tight = ScoreContext(
            SimulationSetup(model, parallel), budget_bytes=1.0
        )
        scored = tight.score(candidate.ir.copy(), ())
        assert scored is not None
        assert not scored.feasible


class TestCatalog:
    def test_default_rewrites_order_is_stable(self):
        names = [r.name for r in default_rewrites()]
        assert names == [
            "swap-adjacent",
            "hoist-collective",
            "activation-handoff",
            "token-split",
        ]
