"""Property tests for the rewrite catalog over :class:`ScheduleIR`.

Every rewrite's contract: each enumerated site applies to a copy (the
input program is never mutated), the emitted schedule still validates
and executes under the compiled-graph oracle, and the applied step
lands in the trace.
"""

from dataclasses import replace

import pytest

from repro.config import ModelConfig, ParallelConfig
from repro.costmodel.memory import GiB
from repro.harness.experiments import KNOWN_METHODS, build_schedule
from repro.optimize import (
    ActivationHandoff,
    ScheduleIR,
    ScoreContext,
    TokenSplit,
    default_rewrites,
)
from repro.planner.planner import PlannerConstraints, plan
from repro.planner.cache import PlanCache
from repro.planner.sweep import model_for_devices
from repro.scheduling.orders import OrderTable
from repro.scheduling.passes import Pass
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


def program_state(ir):
    """Everything a rewrite could change in a program."""
    return (
        ir.table, ir.table.codes, ir.graph, ir.num_microbatches, ir.split,
        ir.handoffs,
    )


class TestNoMutation:
    @pytest.mark.parametrize(
        "rewrite, site", [(TokenSplit(), ()), (ActivationHandoff(), (0, 1, 1))]
    )
    def test_input_program_is_not_mutated(self, start, rewrite, site):
        _, candidate = start
        before = program_state(candidate.ir)
        codes = [list(row) for row in candidate.ir.table.codes]
        rewrite.apply(candidate.ir, site)
        assert program_state(candidate.ir) == before
        assert [list(row) for row in candidate.ir.table.codes] == codes


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
        for old, new in zip(candidate.ir.table.codes, new_ir.table.codes):
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


@pytest.mark.parametrize("method", KNOWN_METHODS)
def test_split_equals_splitting_every_pass(method):
    """:meth:`TokenSplit.apply` splits the order table's integer codes
    directly.  For every named family, at split 2 and 4, the result must
    be the pass-level definition — each ``(type, mb, device, chunk)``
    followed by its slices ``2mb`` then ``2mb + 1`` — and score exactly
    as that definition's schedule lowered afresh."""
    setup = SimulationSetup(
        model_for_devices(4, 256, 4096),
        ParallelConfig(pipeline_size=4, num_microbatches=2, microbatch_size=1),
    )
    ctx = ScoreContext(setup)
    scored = ctx.score(ScheduleIR.from_schedule(build_schedule(method, setup)), ())
    for split in (2, 4):
        expected = [
            [Pass(p.type, 2 * p.microbatch + half, p.device, p.chunk)
             for p in order for half in (0, 1)]
            for order in scored.ir.table.passes()
        ]
        ir, step = TokenSplit().apply(scored.ir, ())
        assert ir.split == split
        assert [list(order) for order in ir.table.passes()] == expected
        scored = ctx.score(ir, scored.trace + (step,))
        assert scored is not None
        reference = ScheduleIR.from_schedule(
            replace(ir.emit(), device_orders=OrderTable.from_passes(expected))
        )
        fresh = ctx.score(reference, scored.trace)
        assert fresh.ir.table.key() == ir.table.key()
        assert (fresh.time, fresh.peak_bytes, fresh.feasible) == (
            scored.time, scored.peak_bytes, scored.feasible
        )


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
        assert new_ir.table is candidate.ir.table
        assert new_ir.graph is candidate.ir.graph

    def test_scoring_prices_the_handoff(self, start):
        ctx, candidate = start
        # The oracle re-checks the BPipe bound on every score: the
        # handoff shifts one activation's bytes from src to dst, and
        # the candidate stays executable.
        new_ir, step = ActivationHandoff().apply(candidate.ir, (0, 1, 1))
        scored = ctx.score(new_ir, (step,))
        assert scored is not None
        assert scored.peak_bytes > 0

    def test_child_on_parent_graph_equals_fresh_compile(self, start):
        """A handoff child is scored on its parent's graph; lowering its
        emitted schedule afresh must give the same result bit for bit."""
        ctx, candidate = start
        new_ir, step = ActivationHandoff().apply(candidate.ir, (0, 1, 1))
        shared = ctx.score(new_ir, (step,))
        assert shared.graph is candidate.graph
        fresh = ctx.score(ScheduleIR.from_schedule(new_ir.emit()), (step,))
        assert fresh.graph is not candidate.graph
        assert fresh.ir.handoffs == new_ir.handoffs
        assert (fresh.time, fresh.peak_bytes, fresh.feasible) == (
            shared.time, shared.peak_bytes, shared.feasible
        )
        assert replace(fresh.rewrite_ctx, p2p_seconds=None) == replace(
            shared.rewrite_ctx, p2p_seconds=None
        )

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
        assert names == ["activation-handoff", "token-split"]
