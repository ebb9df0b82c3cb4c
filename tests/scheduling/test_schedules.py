"""Structural tests for schedule generation and validation."""

import dataclasses

import pytest

from repro.scheduling import (
    Pass,
    PassType,
    StageLayout,
    generate_1f1b,
    generate_1f1b_vocab,
    generate_interlaced,
    generate_vhalf,
    generate_vhalf_vocab,
    uniform_layout,
)


class TestStageLayout:
    def test_single_chunk_identity_mapping(self):
        layout = uniform_layout(4, 8)
        for d in range(4):
            assert layout.stage_of(d, 0) == d
            assert layout.holder_of_stage(d) == (d, 0)

    def test_v_shape_mapping(self):
        layout = uniform_layout(4, 16, num_chunks=2)
        assert layout.stage_of(0, 0) == 0
        assert layout.stage_of(0, 1) == 7
        assert layout.stage_of(3, 0) == 3
        assert layout.stage_of(3, 1) == 4
        for s in range(8):
            d, c = layout.holder_of_stage(s)
            assert layout.stage_of(d, c) == s

    def test_baseline_vocab_placement(self):
        layout = uniform_layout(4, 8)
        assert layout.hosts_input(0, 0)
        assert layout.hosts_output(3, 0)
        assert not layout.hosts_output(0, 0)

    def test_vhalf_baseline_puts_both_embeddings_on_device_0(self):
        """The crux of Table 6's imbalance: stage 0 AND stage 2p-1 live
        on device 0 in the V-shape."""
        layout = uniform_layout(4, 16, num_chunks=2)
        assert layout.hosts_input(0, 0)
        assert layout.hosts_output(0, 1)

    def test_vocab_parallel_hosts_nothing(self):
        layout = uniform_layout(4, 8, vocab_parallel=True)
        assert not layout.hosts_input(0, 0)
        assert not layout.hosts_output(3, 0)

    def test_uneven_layers_rejected(self):
        with pytest.raises(ValueError):
            uniform_layout(4, 10)

    def test_missing_holders_rejected(self):
        with pytest.raises(ValueError):
            StageLayout(2, ((1,), (1,)), vocab_parallel=False)

    def test_total_layers(self):
        assert uniform_layout(4, 16, num_chunks=2).total_layers == 16


@pytest.mark.parametrize(
    "factory",
    [
        lambda: generate_1f1b(4, 12, num_layers=8),
        lambda: generate_1f1b_vocab(4, 12, 8, algorithm=1),
        lambda: generate_1f1b_vocab(4, 12, 8, algorithm=2),
        lambda: generate_interlaced(4, 12, 8),
        lambda: generate_vhalf(4, 12, 16),
        lambda: generate_vhalf_vocab(4, 12, 16, algorithm=1),
        lambda: generate_vhalf_vocab(4, 12, 16, algorithm=2),
    ],
    ids=["1f1b", "vocab1", "vocab2", "interlaced", "vhalf", "vhalf-v1", "vhalf-v2"],
)
class TestGeneratedSchedules:
    def test_validates(self, factory):
        factory().validate()  # also called inside, but be explicit

    def test_every_device_has_all_microbatches(self, factory):
        schedule = factory()
        for order in schedule.device_orders:
            fs = [p for p in order if p.type is PassType.F and p.chunk == 0]
            assert len(fs) == schedule.num_microbatches

    def test_f_before_b_per_microbatch_and_chunk(self, factory):
        schedule = factory()
        for order in schedule.device_orders:
            position = {p: i for i, p in enumerate(order)}
            for p in order:
                if p.type is PassType.B:
                    f = Pass(PassType.F, p.microbatch, p.device, p.chunk)
                    assert position[f] < position[p]


class TestValidationCatchesCorruption:
    def test_duplicate_pass(self):
        schedule = generate_1f1b(2, 4, num_layers=4)
        schedule.device_orders[0].append(schedule.device_orders[0][0])
        with pytest.raises(ValueError, match="duplicate"):
            schedule.validate()

    def test_wrong_device(self):
        schedule = generate_1f1b(2, 4, num_layers=4)
        schedule.device_orders[0][0] = Pass(PassType.F, 0, 1)
        with pytest.raises(ValueError, match="listed on device"):
            schedule.validate()

    def test_missing_pass(self):
        schedule = generate_1f1b(2, 4, num_layers=4)
        schedule.device_orders[1] = schedule.device_orders[1][:-1]
        with pytest.raises(ValueError, match="passes"):
            schedule.validate()

    def test_out_of_order_stream(self):
        schedule = generate_1f1b(2, 4, num_layers=4)
        order = schedule.device_orders[0]
        f_indices = [i for i, p in enumerate(order) if p.type is PassType.F]
        i, j = f_indices[0], f_indices[1]
        order[i], order[j] = order[j], order[i]
        with pytest.raises(ValueError, match="out of order"):
            schedule.validate()

    def test_unexpected_vocab_passes(self):
        schedule = generate_1f1b_vocab(2, 4, 4, algorithm=2)
        stripped = dataclasses.replace(schedule, vocab_algorithm=None)
        with pytest.raises(ValueError):
            stripped.validate()

    def test_bad_algorithm_value(self):
        schedule = generate_1f1b(2, 4, num_layers=4)
        bad = dataclasses.replace(schedule, vocab_algorithm=3)
        with pytest.raises(ValueError, match="vocab_algorithm"):
            bad.validate()


def _wrong_device(orders):
    orders[0][0] = Pass(PassType.F, 0, 1)


def _duplicate(orders):
    orders[0].append(orders[0][0])


def _microbatch_out_of_range(orders):
    orders[0].append(Pass(PassType.F, 4, 0))


def _chunk_out_of_range(orders):
    orders[0].append(Pass(PassType.F, 0, 0, chunk=1))


def _missing_stream_pass(orders):
    del orders[1][-1]


def _extra_stream(orders):
    orders[0].append(Pass(PassType.S, 0, 0))


def _out_of_order(orders):
    orders[0][0], orders[0][1] = orders[0][1], orders[0][0]


def _count_before_order(orders):
    """Device 0 has an out-of-order F stream *and* a missing B pass."""
    _out_of_order(orders)
    orders[0].remove(Pass(PassType.B, 3, 0))


def _first_pass_fault_wins(orders):
    """A duplicate early in the order, a wrong device later on."""
    orders[0].insert(1, orders[0][0])
    orders[0].append(Pass(PassType.B, 0, 1))


def _earlier_device_wins(orders):
    """Device 0's stream count beats device 1's per-pass fault."""
    del orders[0][-1]
    orders[1][0] = Pass(PassType.F, 0, 0)


def _pass_fault_before_count(orders):
    """A missing pass (count) and a later out-of-range microbatch."""
    del orders[0][-1]
    orders[0].append(Pass(PassType.F, 9, 0))


#: (corruption, the exact message ``validate`` raises for it).
MALFORMED = [
    (_wrong_device, "pass F[0]@1 listed on device 0"),
    (_duplicate, "duplicate pass F[0]@0 on device 0"),
    (_microbatch_out_of_range, "pass F[4]@0 microbatch out of range [0, 4)"),
    (_chunk_out_of_range, "pass F.1[0]@0 chunk out of range"),
    (_missing_stream_pass, "device 1: 3 B.0 passes, expected 4"),
    (_extra_stream, "device 0: 1 S.0 passes, expected 0"),
    (_out_of_order, "device 0: F.0 stream out of order"),
    (_count_before_order, "device 0: 3 B.0 passes, expected 4"),
    (_first_pass_fault_wins, "duplicate pass F[0]@0 on device 0"),
    (_earlier_device_wins, "device 0: 3 B.0 passes, expected 4"),
    (_pass_fault_before_count, "pass F[9]@0 microbatch out of range [0, 4)"),
]


class TestValidationMessages:
    """The exact first fault ``Schedule.validate`` reports, per corruption.

    The base is 1F1B over 2 devices and 4 microbatches: device 0 runs
    ``F0 F1 B0 F2 B1 F3 B2 B3``, device 1 alternates ``F B``.  Checks
    run device by device; within a device, per-pass faults (in order
    position) come first, then stream counts, then stream order.
    """

    @pytest.mark.parametrize(
        "corrupt, message",
        MALFORMED,
        ids=[corrupt.__name__.lstrip("_") for corrupt, _ in MALFORMED],
    )
    def test_exact_message(self, corrupt, message):
        schedule = generate_1f1b(2, 4, num_layers=4)
        corrupt(schedule.device_orders)
        with pytest.raises(ValueError) as error:
            schedule.validate()
        assert str(error.value) == message

    def test_device_order_count(self):
        schedule = generate_1f1b(2, 4, num_layers=4)
        del schedule.device_orders[1]
        with pytest.raises(ValueError) as error:
            schedule.validate()
        assert str(error.value) == "1 device orders for 2 devices"

    def test_vocab_algorithm_value(self):
        schedule = dataclasses.replace(
            generate_1f1b(2, 4, num_layers=4), vocab_algorithm=3
        )
        with pytest.raises(ValueError) as error:
            schedule.validate()
        assert str(error.value) == "vocab_algorithm must be None, 1 or 2: 3"

    def test_chunked_streams_counted_per_chunk(self):
        schedule = generate_vhalf(2, 4, 8)
        schedule.device_orders[1].remove(Pass(PassType.W, 2, 1, chunk=1))
        with pytest.raises(ValueError) as error:
            schedule.validate()
        assert str(error.value) == "device 1: 3 W.1 passes, expected 4"


class TestGeneratorValidation:
    def test_vocab_algorithm_range(self):
        with pytest.raises(ValueError):
            generate_1f1b_vocab(4, 8, 8, algorithm=3)

    def test_vhalf_algorithm_range(self):
        with pytest.raises(ValueError):
            generate_vhalf_vocab(4, 8, 16, algorithm=0)

    def test_1f1b_needs_layers_or_layout(self):
        with pytest.raises(ValueError):
            generate_1f1b(4, 8)

    def test_layout_device_mismatch(self):
        layout = uniform_layout(4, 8)
        with pytest.raises(ValueError):
            generate_1f1b(8, 8, layout=layout)

    def test_metadata_contains_block(self):
        schedule = generate_1f1b_vocab(4, 8, 8, algorithm=1)
        assert "building_block" in schedule.metadata
