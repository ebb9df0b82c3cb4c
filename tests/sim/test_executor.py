"""Tests for the in-order and dataflow schedule executors."""

import dataclasses

import pytest

from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import KNOWN_METHODS, build_schedule
from repro.scheduling import (
    Pass,
    PassType,
    generate_1f1b,
    generate_1f1b_vocab,
    generate_interlaced,
    generate_vhalf,
)
from repro.sim import (
    DeadlockError,
    RuntimeModel,
    SimulationSetup,
    execute_schedule,
    execute_schedule_dataflow,
    refine_schedule_order,
)


class UnitRuntime:
    """Deterministic block-unit durations: F=1, B=2, everything small."""

    DURATIONS = {
        PassType.F: 1.0,
        PassType.B: 2.0,
        PassType.W: 1.0,
        PassType.S: 0.25,
        PassType.T: 0.25,
        PassType.IF: 0.05,
        PassType.IB: 0.05,
        PassType.VF: 0.25,
        PassType.VB: 0.25,
    }

    def pass_duration(self, p: Pass) -> float:
        return self.DURATIONS[p.type]

    def collective_duration(self, kind) -> float:
        return 0.01

    def p2p_duration(self, src, dst) -> float:
        return 0.0


@pytest.fixture
def setup(small_model, small_parallel) -> SimulationSetup:
    return SimulationSetup(small_model, small_parallel)


class TestInOrderExecution:
    def test_1f1b_makespan_formula(self):
        """Classic 1F1B with tF=1, tB=2: makespan = (p-1)·(tF+tB) + m·(tF+tB)."""
        p, m = 4, 16
        schedule = generate_1f1b(p, m, num_layers=p)
        result = execute_schedule(schedule, UnitRuntime())
        expected = (p - 1) * 3.0 + m * 3.0
        assert result.iteration_time == pytest.approx(expected)

    def test_passes_do_not_overlap_per_device(self):
        schedule = generate_1f1b_vocab(4, 8, 8, algorithm=1)
        result = execute_schedule(schedule, UnitRuntime())
        for device in range(4):
            rows = result.passes_on(device)
            for (_, _, end), (_, start, _) in zip(rows, rows[1:]):
                assert start >= end - 1e-12

    def test_dependencies_respected_f_chain(self):
        schedule = generate_1f1b(4, 6, num_layers=4)
        result = execute_schedule(schedule, UnitRuntime())
        for mb in range(6):
            for s in range(1, 4):
                up = result.pass_times[Pass(PassType.F, mb, s - 1)]
                down = result.pass_times[Pass(PassType.F, mb, s)]
                assert down[0] >= up[1] - 1e-12

    def test_b_chain_respected(self):
        schedule = generate_1f1b(4, 6, num_layers=4)
        result = execute_schedule(schedule, UnitRuntime())
        for mb in range(6):
            for s in range(3):
                later = result.pass_times[Pass(PassType.B, mb, s + 1)]
                earlier = result.pass_times[Pass(PassType.B, mb, s)]
                assert earlier[0] >= later[1] - 1e-12

    def test_vocab_s_after_last_stage_f(self):
        schedule = generate_1f1b_vocab(4, 6, 8, algorithm=2, include_input=False)
        result = execute_schedule(schedule, UnitRuntime())
        for mb in range(6):
            last_f_end = result.pass_times[Pass(PassType.F, mb, 3)][1]
            for d in range(4):
                s_start = result.pass_times[Pass(PassType.S, mb, d)][0]
                assert s_start >= last_f_end - 1e-12

    def test_alg1_last_b_after_all_t(self):
        schedule = generate_1f1b_vocab(4, 6, 8, algorithm=1, include_input=False)
        result = execute_schedule(schedule, UnitRuntime())
        for mb in range(6):
            b_start = result.pass_times[Pass(PassType.B, mb, 3)][0]
            for d in range(4):
                t_end = result.pass_times[Pass(PassType.T, mb, d)][1]
                assert b_start >= t_end - 1e-12

    def test_alg2_t_can_outlive_last_b(self):
        """Algorithm 2's weight-gradient pass is deferrable (§4.4):
        some T happens after the corresponding last-stage B."""
        schedule = generate_1f1b_vocab(4, 8, 8, algorithm=2, include_input=False)
        result = execute_schedule(schedule, UnitRuntime())
        violations = 0
        for mb in range(8):
            b_start = result.pass_times[Pass(PassType.B, mb, 3)][0]
            for d in range(4):
                if result.pass_times[Pass(PassType.T, mb, d)][1] > b_start:
                    violations += 1
        assert violations > 0

    def test_deadlock_detection(self):
        schedule = generate_1f1b(2, 4, num_layers=2)
        # Swap F[0] after B[0] on device 1: B needs its own F → cycle.
        order = schedule.device_orders[1]
        f0 = order.index(Pass(PassType.F, 0, 1))
        b0 = order.index(Pass(PassType.B, 0, 1))
        order[f0], order[b0] = order[b0], order[f0]
        corrupted = dataclasses.replace(schedule, device_orders=schedule.device_orders)
        with pytest.raises(DeadlockError):
            execute_schedule(corrupted, UnitRuntime())

    def test_busy_accounting(self):
        p, m = 4, 8
        schedule = generate_1f1b(p, m, num_layers=p)
        result = execute_schedule(schedule, UnitRuntime())
        for d in range(p):
            assert result.device_busy[d] == pytest.approx(m * 3.0)
            assert 0.0 <= result.bubble_fraction(d) < 1.0

    def test_interlaced_barrier_couplings(self):
        schedule = generate_interlaced(4, 6, 8)
        result = execute_schedule(schedule, UnitRuntime())
        for mb in range(6):
            vf_ends = [result.pass_times[Pass(PassType.VF, mb, d)][1] for d in range(4)]
            vb_starts = [result.pass_times[Pass(PassType.VB, mb, d)][0] for d in range(4)]
            # Every VB waits for every VF (softmax-stats barrier).
            assert min(vb_starts) >= max(vf_ends) - 1e-12
            b_start = result.pass_times[Pass(PassType.B, mb, 3)][0]
            vb_ends = [result.pass_times[Pass(PassType.VB, mb, d)][1] for d in range(4)]
            assert b_start >= max(vb_ends) - 1e-12


class TestDataflowExecution:
    def test_no_slower_than_in_order(self):
        schedule = generate_vhalf(4, 12, 16)
        rt = UnitRuntime()
        in_order = execute_schedule(schedule, rt)
        dataflow = execute_schedule_dataflow(
            schedule, rt, lookahead=16, mode="zero-bubble"
        )
        assert dataflow.iteration_time <= in_order.iteration_time + 1e-9

    @pytest.mark.parametrize("mode", ["strict", "zero-bubble"])
    @pytest.mark.parametrize("devices", [4, 8])
    @pytest.mark.parametrize("method", KNOWN_METHODS)
    def test_lookahead_one_equals_in_order(self, method, devices, mode):
        """``lookahead=1`` is in-order execution, float for float: every
        family, both modes."""
        setup = SimulationSetup(
            ModelConfig(
                num_layers=16,
                hidden_size=512,
                num_attention_heads=8,
                seq_length=512,
                vocab_size=32 * 1024,
            ),
            ParallelConfig(pipeline_size=devices, num_microbatches=12, microbatch_size=1),
        )
        schedule = build_schedule(method, setup, refine=False)
        rt = RuntimeModel(setup, schedule)
        in_order = execute_schedule(schedule, rt)
        dataflow = execute_schedule_dataflow(schedule, rt, lookahead=1, mode=mode)
        assert dataflow.pass_times == in_order.pass_times
        assert dataflow.iteration_time == in_order.iteration_time

    def test_flexible_only_keeps_f_positions(self):
        schedule = generate_1f1b(4, 8, num_layers=4)
        rt = UnitRuntime()
        result = execute_schedule_dataflow(schedule, rt, lookahead=8)
        # F stream order per device unchanged → F start times monotone
        # in microbatch.
        for d in range(4):
            starts = [
                result.pass_times[Pass(PassType.F, mb, d)][0] for mb in range(8)
            ]
            assert starts == sorted(starts)

    def test_lookahead_validation(self):
        schedule = generate_1f1b(2, 2, num_layers=2)
        with pytest.raises(ValueError):
            execute_schedule_dataflow(schedule, UnitRuntime(), lookahead=0)

    def test_mode_validation(self):
        schedule = generate_1f1b(2, 2, num_layers=2)
        with pytest.raises(ValueError):
            execute_schedule_dataflow(schedule, UnitRuntime(), mode="eager")

    def test_zero_bubble_mode_respects_memory_caps(self):
        """F passes may not run further ahead than the static schedule's
        live-activation peak."""
        from repro.sim.executor import _live_f_caps

        schedule = generate_vhalf(4, 12, 16)
        rt = UnitRuntime()
        in_order = execute_schedule(schedule, rt)
        caps = _live_f_caps(schedule, in_order)
        dataflow = execute_schedule_dataflow(
            schedule, rt, lookahead=32, mode="zero-bubble"
        )
        flow_caps = _live_f_caps(schedule, dataflow)
        for device in range(4):
            for chunk, cap in caps[device].items():
                assert flow_caps[device][chunk] <= cap + 1


class TestRefinement:
    def test_refined_schedule_validates_and_not_slower(self, setup):
        schedule = generate_vhalf(4, 12, 16)
        rt = RuntimeModel(setup, schedule)
        refined = refine_schedule_order(schedule, rt, mode="zero-bubble")
        refined.validate()
        before = execute_schedule(schedule, rt).iteration_time
        after = execute_schedule(refined, rt).iteration_time
        assert after <= before * 1.001

    def test_refinement_preserves_pass_multiset(self, setup):
        schedule = generate_1f1b_vocab(4, 8, 8, algorithm=2)
        rt = RuntimeModel(setup, schedule)
        refined = refine_schedule_order(schedule, rt)
        for d in range(4):
            assert sorted(map(str, refined.device_orders[d])) == sorted(
                map(str, schedule.device_orders[d])
            )
