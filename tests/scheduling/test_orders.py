"""Schedules held as integer orders agree with their ``Pass``-list form.

Generated schedules hold an :class:`~repro.scheduling.orders.OrderTable`
and build ``Pass`` lists only when read.  These tests pin, for every
family at p ∈ {2, 4, 8} and m ∈ {1, 3, 8, 32}:

* the materialized orders equal a reference unroll — the
  ``Pass``-building algorithm the building block used before the integer
  form, kept here;
* a generated schedule, its refinement and their ``Pass``-list copies
  share :meth:`~repro.scheduling.schedule.Schedule.structure_key`, so the
  compiled-graph cache serves optimizer-emitted schedules too;
* corrupted integer orders fail :meth:`~repro.scheduling.schedule.
  Schedule.validate` with the message the equivalent ``Pass`` lists get,
  which is also the message of the reference ``Pass``-walk validator
  kept here;
* an integer-form schedule pickles across processes, and a schedule
  pickled when its orders were a plain ``device_orders`` attribute still
  loads.
"""

import copyreg
import dataclasses
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import (
    KNOWN_METHODS,
    _generate_method_schedule_uncached,
    compiled_graph_for,
)
from repro.scheduling import Pass, PassType, Schedule
from repro.scheduling.orders import MB_SHIFT, STREAM_MASK, OrderTable
from repro.scheduling.passes import REPLICATED_TYPES
from repro.sim import RuntimeModel, SimulationSetup

MODEL = ModelConfig(
    num_layers=16,
    hidden_size=256,
    num_attention_heads=4,
    seq_length=256,
    vocab_size=32 * 1024,
)
GRID = [(p, m) for p in (2, 4, 8) for m in (1, 3, 8, 32)]


def _setup(p: int, m: int) -> SimulationSetup:
    return SimulationSetup(
        MODEL, ParallelConfig(pipeline_size=p, num_microbatches=m, microbatch_size=1)
    )


def reference_unroll(block, num_microbatches: int) -> list[list[Pass]]:
    """The building block's unroll as it was written over ``Pass`` objects."""
    orders = []
    for device in range(block.num_devices):
        slots = block.slots[device]
        keys = [
            (slot.offset + mb * block.interval, slot_index, mb)
            for slot_index, slot in enumerate(slots)
            for mb in range(num_microbatches)
        ]
        keys.sort()
        orders.append(
            [
                Pass(slots[slot_index].type, mb, device, slots[slot_index].chunk)
                for _, slot_index, mb in keys
            ]
        )
    return orders


def reference_validate(schedule: Schedule, orders: list[list[Pass]]) -> None:
    """``Schedule.validate``'s checks as one walk over ``Pass`` lists."""
    if len(orders) != schedule.num_devices:
        raise ValueError(f"{len(orders)} device orders for {schedule.num_devices} devices")
    m = schedule.num_microbatches
    num_chunks = schedule.layout.num_chunks
    expected_types = {
        PassType.F: True,
        PassType.B: True,
        PassType.W: schedule.has_weight_passes,
        PassType.S: schedule.vocab_algorithm is not None,
        PassType.T: schedule.vocab_algorithm is not None,
        PassType.IF: schedule.has_input_passes,
        PassType.IB: schedule.has_input_passes,
        PassType.VF: schedule.interlaced,
        PassType.VB: schedule.interlaced,
    }
    chunked = range(num_chunks)
    for device, order in enumerate(orders):
        streams: dict = {}
        for p in order:
            if p.device != device:
                raise ValueError(f"pass {p} listed on device {device}")
            stream = streams.get((p.type, p.chunk))
            if stream is not None and p.microbatch < m and stream[0][p.microbatch]:
                raise ValueError(f"duplicate pass {p} on device {device}")
            if p.microbatch >= m:
                raise ValueError(f"pass {p} microbatch out of range [0, {m})")
            if p.chunk >= num_chunks and p.type not in REPLICATED_TYPES:
                raise ValueError(f"pass {p} chunk out of range")
            if stream is None:
                stream = streams[(p.type, p.chunk)] = [bytearray(m), 0, -1, False]
            stream[0][p.microbatch] = 1
            stream[1] += 1
            stream[3] |= p.microbatch < stream[2]
            stream[2] = p.microbatch
        for type_, present in expected_types.items():
            for chunk in chunked if type_ in (PassType.F, PassType.B, PassType.W) else (0,):
                stream = streams.get((type_, chunk))
                count = 0 if stream is None else stream[1]
                if count != (m if present else 0):
                    raise ValueError(
                        f"device {device}: {count} {type_}.{chunk} passes, "
                        f"expected {m if present else 0}"
                    )
        for type_ in PassType:
            for chunk in chunked:
                stream = streams.get((type_, chunk))
                if stream is not None and stream[3]:
                    raise ValueError(f"device {device}: {type_}.{chunk} stream out of order")


def _pass_list_copy(schedule: Schedule, orders=None) -> Schedule:
    orders = schedule.device_orders if orders is None else orders
    return dataclasses.replace(schedule, device_orders=[list(order) for order in orders])


def _cases():
    for p, m in GRID:
        for method in KNOWN_METHODS:
            if method.startswith("vhalf") and MODEL.num_layers % (2 * p):
                continue
            yield pytest.param(method, p, m, id=f"{method}-p{p}-m{m}")


@pytest.mark.parametrize("method,p,m", list(_cases()))
class TestFormParity:
    def test_orders_match_reference_unroll(self, method, p, m):
        schedule = _generate_method_schedule_uncached(method, _setup(p, m))
        assert schedule._lists is None, "generated schedules hold integer orders"
        block = schedule.metadata["building_block"]
        assert schedule.device_orders == reference_unroll(block, m)

    def test_structure_key_shared_with_pass_lists(self, method, p, m):
        setup = _setup(p, m)
        schedule = _generate_method_schedule_uncached(method, setup)
        copy = _pass_list_copy(schedule)
        assert copy.structure_key() == schedule.structure_key()
        assert hash(copy.structure_key()) == hash(schedule.structure_key())
        # A refinement renumbers nothing: its key is the canonical one too.
        graph = compiled_graph_for(schedule, RuntimeModel(setup, schedule))
        mode = "zero-bubble" if schedule.has_weight_passes else "strict"
        refined = graph.refine(mode=mode)[0]
        assert _pass_list_copy(refined).structure_key() == refined.structure_key()
        refined.validate()
        reference_validate(refined, refined.device_orders)

    def test_corrupted_codes_fail_like_pass_lists(self, method, p, m):
        schedule = _generate_method_schedule_uncached(method, _setup(p, m))
        table = schedule.order_table()
        for name, codes, streams in _corruptions(table, m):
            corrupted = OrderTable(streams, codes)
            as_codes = dataclasses.replace(schedule, device_orders=corrupted)
            passes = [[corrupted.describe(code) for code in row] for row in corrupted.codes]
            as_passes = dataclasses.replace(schedule, device_orders=passes)
            with pytest.raises(ValueError) as from_codes:
                as_codes.validate()
            with pytest.raises(ValueError) as from_passes:
                as_passes.validate()
            with pytest.raises(ValueError) as from_reference:
                reference_validate(schedule, passes)
            assert str(from_codes.value) == str(from_passes.value), name
            assert str(from_codes.value) == str(from_reference.value), name


def _corruptions(table: OrderTable, m: int):
    """(name, codes, streams) for each kind of fault."""
    codes = [list(row) for row in table.codes]
    streams = list(table.streams)

    def variant(edit):
        rows = [list(row) for row in codes]
        extra = list(streams)
        edit(rows, extra)
        return rows, extra

    def wrong_device(rows, _):
        rows[0][len(rows[0]) // 2] = rows[1][0]

    def duplicate(rows, _):
        rows[0].insert(1, rows[0][0])

    def microbatch_out_of_range(rows, _):
        rows[0].append(m << MB_SHIFT | rows[0][0] & STREAM_MASK)

    def missing_pass(rows, _):
        del rows[1][-1]

    def unexpected_stream(rows, extra):
        extra.append((PassType.VB, 0, 0) if (PassType.VB, 0, 0) not in extra
                     else (PassType.S, 0, 0))
        rows[0].append(len(extra) - 1)

    edits = [wrong_device, duplicate, microbatch_out_of_range, missing_pass,
             unexpected_stream]
    if m > 1:
        def out_of_order(rows, _):
            stream = rows[0][0] & STREAM_MASK
            first, second = [i for i, code in enumerate(rows[0])
                             if code & STREAM_MASK == stream][:2]
            rows[0][first], rows[0][second] = rows[0][second], rows[0][first]

        edits.append(out_of_order)
    for edit in edits:
        yield (edit.__name__, *variant(edit))


class TestOrderTable:
    def test_reads_as_pass_sequences(self):
        schedule = _generate_method_schedule_uncached("vocab-1", _setup(4, 8))
        table = schedule.order_table()
        assert len(table) == 4
        assert list(table) == [tuple(order) for order in schedule.device_orders]
        assert table[2] == tuple(schedule.device_orders[2])

    def test_flat_passes_are_built_once(self):
        schedule = _generate_method_schedule_uncached("vocab-1", _setup(4, 8))
        table = schedule.order_table()
        flat = table.flat_passes()
        assert flat == [p for order in schedule.device_orders for p in order]
        # Result views index this list once per device; it is shared.
        assert table.flat_passes() is flat

    def test_copies_share_the_built_passes(self):
        schedule = _generate_method_schedule_uncached("vocab-1", _setup(4, 8))
        copy = schedule.copy()
        assert copy.order_table() is schedule.order_table()
        assert copy.device_orders == schedule.device_orders
        assert copy.device_orders[0][0] is schedule.device_orders[0][0]
        # Private lists: editing one copy leaves the other alone.
        copy.device_orders[0].reverse()
        assert copy.device_orders[0] != schedule.device_orders[0]
        with pytest.raises(ValueError, match="out of order"):
            copy.validate()
        schedule.validate()

    def test_in_place_edits_reach_the_integer_form(self):
        schedule = _generate_method_schedule_uncached("baseline", _setup(2, 4))
        key = schedule.structure_key()
        order = schedule.device_orders[0]
        order[0], order[1] = order[1], order[0]
        assert schedule.structure_key() != key
        order[0], order[1] = order[1], order[0]
        assert schedule.structure_key() == key

    def test_rejects_malformed_stream_tables(self):
        with pytest.raises(ValueError, match="twice"):
            OrderTable([(PassType.F, 0, 0), (PassType.F, 0, 0)], [[0, 1]])
        with pytest.raises(ValueError, match="chunk 0"):
            OrderTable([(PassType.S, 0, 1)], [[0]])

    def test_codes_outside_the_stream_table_fail_validation(self):
        schedule = _generate_method_schedule_uncached("baseline", _setup(2, 4))
        table = schedule.order_table()
        rows = [list(row) for row in table.codes]
        rows[0].append(len(table.streams))
        broken = dataclasses.replace(
            schedule, device_orders=OrderTable(table.streams, rows)
        )
        with pytest.raises(ValueError, match="not in the stream table"):
            broken.validate()


_LOAD = """
import json, pickle, sys
schedule = pickle.loads(sys.stdin.buffer.read())
schedule.validate()
print(json.dumps({
    "lists": schedule._lists is None,
    "orders": [[str(p) for p in order] for order in schedule.device_orders],
    "codes": [list(row) for row in schedule.order_table().codes],
}))
"""


def test_integer_form_pickles_across_processes():
    schedule = _generate_method_schedule_uncached("vhalf-vocab-1", _setup(4, 8))
    payload = pickle.dumps(schedule)
    src = Path(__file__).resolve().parents[2] / "src"
    loaded = subprocess.run(
        [sys.executable, "-c", _LOAD],
        input=payload,
        capture_output=True,
        check=True,
        env={"PYTHONPATH": str(src)},
    )
    remote = json.loads(loaded.stdout)
    assert remote["lists"], "an integer-form schedule unpickles in integer form"
    assert remote["orders"] == [[str(p) for p in order] for order in schedule.device_orders]
    assert remote["codes"] == [list(row) for row in schedule.order_table().codes]
    # Memoized passes stay behind: the orders pickle as codes, not passes.
    bare = dataclasses.replace(schedule, device_orders=schedule.order_table(), metadata={})
    as_codes = len(pickle.dumps(bare))
    assert as_codes < len(pickle.dumps(_pass_list_copy(bare))) / 2


class _LegacySchedule:
    """Pickles as a :class:`Schedule` did while ``device_orders`` was a
    plain instance attribute: a bare instance plus its ``__dict__``."""

    def __init__(self, schedule: Schedule) -> None:
        state = {
            field.name: getattr(schedule, field.name)
            for field in dataclasses.fields(schedule)
        }
        state["device_orders"] = [list(order) for order in schedule.device_orders]
        self.state = state

    def __reduce__(self):
        return (copyreg._reconstructor, (Schedule, object, None), self.state)


def test_legacy_pass_list_pickle_loads():
    schedule = _generate_method_schedule_uncached("vhalf-vocab-1", _setup(4, 8))
    loaded = pickle.loads(pickle.dumps(_LegacySchedule(schedule)))
    assert type(loaded) is Schedule
    assert "device_orders" not in vars(loaded)
    assert loaded.device_orders == schedule.device_orders
    assert loaded == schedule
    assert loaded.structure_key() == schedule.structure_key()
    loaded.validate()
    assert repr(loaded) == repr(schedule)
