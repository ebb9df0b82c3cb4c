"""Property tests for the token split over :class:`Schedule`.

The rewrite's contract: applying it leaves the input schedule alone,
the split schedule still validates and executes under the
compiled-graph oracle, and the applied step lands in the trace.
"""

from dataclasses import replace

import pytest

from repro.config import ModelConfig, ParallelConfig
from repro.costmodel.memory import GiB
from repro.harness.experiments import KNOWN_METHODS, build_schedule
from repro.optimize import ScoreContext, TokenSplit, default_rewrites
from repro.optimize.rewrites import split_factor
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
    """The best named family, oracle-scored."""
    constraints = PlannerConstraints(simulate_top_k=None)
    plans = plan(
        model, parallel, constraints, cache=PlanCache(str(tmp_path))
    )
    schedule = plans.build_best_schedule()
    ctx = ScoreContext(
        SimulationSetup(model, parallel),
        budget_bytes=plans.memory_budget_gib * GiB,
    )
    candidate = ctx.score(schedule, ())
    assert candidate is not None
    return ctx, candidate


def test_input_schedule_is_not_mutated(start):
    _, candidate = start
    schedule = candidate.schedule
    table, metadata = schedule.order_table(), dict(schedule.metadata)
    codes = [list(row) for row in table.codes]
    TokenSplit().apply(schedule)
    assert schedule.order_table() is table
    assert schedule.metadata == metadata
    assert [list(row) for row in table.codes] == codes


class TestTokenSplit:
    def test_split_doubles_microbatches_and_stays_legal(self, start, model):
        ctx, candidate = start
        rewrite = TokenSplit()
        assert rewrite.sites(candidate.schedule, model.seq_length) == [()]
        split, step = rewrite.apply(candidate.schedule)
        assert step.rule == "token-split"
        assert split.num_microbatches == 2 * candidate.schedule.num_microbatches
        assert split.metadata == {"token_split": 2}
        for old, new in zip(
            candidate.schedule.order_table().codes, split.order_table().codes
        ):
            assert len(new) == 2 * len(old)
        split.validate()
        scored = ctx.score(split, (step,))
        assert scored is not None
        # Split halves per-pass compute but pays per-pass overhead and
        # full collectives twice: the time must stay in a sane band,
        # never double.
        assert scored.time < 2 * candidate.time

    def test_respects_max_split(self, start, model):
        _, candidate = start
        schedule = candidate.schedule
        for _ in range(2):  # split -> 2 -> 4 (MAX_SPLIT)
            schedule, _ = TokenSplit().apply(schedule)
        assert split_factor(schedule) == 4
        assert TokenSplit().sites(schedule, model.seq_length) == []

    def test_needs_a_divisible_sequence(self, start):
        _, candidate = start
        assert TokenSplit().sites(candidate.schedule, 255) == []


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
    scored = ctx.score(build_schedule(method, setup), ())
    for split in (2, 4):
        expected = [
            [Pass(p.type, 2 * p.microbatch + half, p.device, p.chunk)
             for p in order for half in (0, 1)]
            for order in scored.schedule.order_table().passes()
        ]
        schedule, step = TokenSplit().apply(scored.schedule)
        assert split_factor(schedule) == split
        assert [list(order) for order in schedule.order_table().passes()] == expected
        scored = ctx.score(schedule, scored.trace + (step,))
        assert scored is not None
        fresh = ctx.score(
            replace(schedule, device_orders=OrderTable.from_passes(expected)),
            scored.trace,
        )
        assert fresh.schedule.order_table().key() == schedule.order_table().key()
        assert (fresh.time, fresh.peak_bytes, fresh.feasible) == (
            scored.time, scored.peak_bytes, scored.feasible
        )


def test_binding_budget_marks_infeasible(model, parallel, start):
    _, candidate = start
    tight = ScoreContext(SimulationSetup(model, parallel), budget_bytes=1.0)
    scored = tight.score(candidate.schedule, ())
    assert scored is not None
    assert not scored.feasible


def test_catalog_is_the_token_split():
    assert [r.name for r in default_rewrites()] == ["token-split"]
