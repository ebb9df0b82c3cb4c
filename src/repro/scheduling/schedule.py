"""Schedule and stage-layout containers.

A :class:`StageLayout` describes the *spatial* decomposition: which
pipeline stage each (device, chunk) pair hosts, how many transformer
layers each stage holds, and where the vocabulary layers live (on a
single stage for the baseline/Redis schedules, or partitioned across
all devices for Vocabulary Parallelism and the interlaced pipeline).

A :class:`Schedule` adds the *temporal* side: per-device pass orders,
held as an :class:`~repro.scheduling.orders.OrderTable` of integer
``(stream, microbatch)`` codes and exposed as ``Pass`` lists on demand.
``validate()`` performs the structural checks that do not need timing —
exact pass multiset and per-stream monotone microbatch order; the
discrete-event executor catches anything order-related (a schedule
whose order is infeasible deadlocks there).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import chain

from repro.scheduling.orders import MB_SHIFT, STREAM_MASK, OrderTable, stream_of
from repro.scheduling.passes import (
    Pass,
    PassType,
    REPLICATED_TYPES,
)

#: Stage-local pass types, one stream per chunk; the rest use chunk 0.
_CHUNKED_TYPES = (PassType.F, PassType.B, PassType.W)


@dataclass(frozen=True)
class StageLayout:
    """Spatial layout of model stages onto devices and chunks.

    Attributes
    ----------
    num_devices:
        Pipeline devices ``p``.
    transformer_layers:
        ``transformer_layers[device][chunk]`` = number of transformer
        layers in that chunk's stage.
    vocab_parallel:
        True when the vocabulary layers are partitioned across all
        devices (Vocabulary Parallelism and interlaced); False when the
        input/output layers sit on single stages (baseline / Redis).
    input_holder / output_holder:
        ``(device, chunk)`` hosting the full input/output layer when
        ``vocab_parallel`` is False; ignored otherwise.
    """

    num_devices: int
    transformer_layers: tuple[tuple[int, ...], ...]
    vocab_parallel: bool
    input_holder: tuple[int, int] | None = None
    output_holder: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.num_devices <= 0:
            raise ValueError(f"num_devices must be positive, got {self.num_devices}")
        if len(self.transformer_layers) != self.num_devices:
            raise ValueError(
                f"transformer_layers has {len(self.transformer_layers)} devices, "
                f"expected {self.num_devices}"
            )
        chunks = len(self.transformer_layers[0])
        for device, per_chunk in enumerate(self.transformer_layers):
            if len(per_chunk) != chunks:
                raise ValueError(
                    f"device {device} has {len(per_chunk)} chunks, expected {chunks}"
                )
            for chunk, count in enumerate(per_chunk):
                if count < 0:
                    raise ValueError(
                        f"negative layer count at device {device} chunk {chunk}"
                    )
        if not self.vocab_parallel:
            if self.input_holder is None or self.output_holder is None:
                raise ValueError(
                    "non-vocab-parallel layouts must name input_holder and output_holder"
                )
            for name, holder in (("input", self.input_holder), ("output", self.output_holder)):
                device, chunk = holder
                if not (0 <= device < self.num_devices and 0 <= chunk < chunks):
                    raise ValueError(f"{name}_holder {holder} out of range")

    @property
    def num_chunks(self) -> int:
        return len(self.transformer_layers[0])

    @property
    def num_stages(self) -> int:
        return self.num_devices * self.num_chunks

    @property
    def total_layers(self) -> int:
        return sum(sum(per_chunk) for per_chunk in self.transformer_layers)

    def stage_of(self, device: int, chunk: int) -> int:
        """Pipeline stage index of (device, chunk), V-shape for 2 chunks.

        Chunk 0 maps to stage ``device``; chunk 1 maps to stage
        ``2p - 1 - device`` (the V-shape placement of Qi et al.).
        """
        self._check(device, chunk)
        if chunk % 2 == 0:
            return chunk * self.num_devices + device
        return (chunk + 1) * self.num_devices - 1 - device

    def holder_of_stage(self, stage: int) -> tuple[int, int]:
        """Inverse of :meth:`stage_of`: (device, chunk) hosting ``stage``."""
        if not 0 <= stage < self.num_stages:
            raise ValueError(f"stage {stage} out of range [0, {self.num_stages})")
        chunk = stage // self.num_devices
        offset = stage % self.num_devices
        if chunk % 2 == 0:
            return offset, chunk
        return self.num_devices - 1 - offset, chunk

    def signature(self) -> tuple:
        """Hashable, runtime-independent identity of the spatial layout.

        Contains only structural integers (device/chunk counts, layer
        assignment, vocab placement) — no durations and no hardware
        numbers — so it can key caches that are shared across
        hardware/efficiency bindings.
        """
        return (
            self.num_devices,
            self.transformer_layers,
            self.vocab_parallel,
            self.input_holder,
            self.output_holder,
        )

    def hosts_input(self, device: int, chunk: int) -> bool:
        """Whether this (device, chunk) holds the full input layer."""
        return not self.vocab_parallel and self.input_holder == (device, chunk)

    def hosts_output(self, device: int, chunk: int) -> bool:
        """Whether this (device, chunk) holds the full output layer."""
        return not self.vocab_parallel and self.output_holder == (device, chunk)

    def _check(self, device: int, chunk: int) -> None:
        if not 0 <= device < self.num_devices:
            raise ValueError(f"device {device} out of range [0, {self.num_devices})")
        if not 0 <= chunk < self.num_chunks:
            raise ValueError(f"chunk {chunk} out of range [0, {self.num_chunks})")


@dataclass
class Schedule:
    """A complete pipeline schedule: layout plus per-device pass orders.

    Attributes
    ----------
    name:
        Human-readable identifier (used in traces and reports).
    num_microbatches:
        Microbatches per iteration ``m``.
    layout:
        The spatial stage layout.
    device_orders:
        ``device_orders[d]`` is the execution order of device ``d``'s
        compute stream, as a list of :class:`Pass`.  Pass either such
        lists or an :class:`~repro.scheduling.orders.OrderTable` (what
        the generators emit).  A table-backed schedule builds its lists
        on first read, from passes its table builds once and shares with
        every copy; from then on the lists are the source of truth, so
        in-place edits are seen by :meth:`validate`, :meth:`structure_key`
        and lowering.  :meth:`order_table` is the integer form those
        run on.
    vocab_algorithm:
        ``None`` (no partitioned output passes), ``1`` or ``2`` —
        controls which barriers the executor materializes and whether
        the last stage's B depends on C1 (Alg2) or C2 (Alg1).
    has_weight_passes:
        True when B is split into B + W (V-Half).
    has_input_passes:
        True when IF/IB input-layer passes are scheduled.
    interlaced:
        True for the synchronous interlaced pipeline.
    """

    name: str
    num_microbatches: int
    layout: StageLayout
    device_orders: list[list[Pass]]
    vocab_algorithm: int | None = None
    has_weight_passes: bool = False
    has_input_passes: bool = False
    interlaced: bool = False
    metadata: dict = field(default_factory=dict)

    #: The integer orders and the materialized pass lists; ``_lists``,
    #: once set, is authoritative and ``_table`` is reused only while it
    #: still matches them (see :meth:`order_table`).
    _table = None
    _lists = None

    def _get_device_orders(self) -> list[list[Pass]]:
        lists = self._lists
        if lists is None:
            lists = self._lists = [list(order) for order in self._table.passes()]
        return lists

    def _set_device_orders(self, orders) -> None:
        if isinstance(orders, OrderTable):
            self._table, self._lists = orders, None
        else:
            self._lists = orders

    def order_table(self) -> OrderTable:
        """The orders as an :class:`~repro.scheduling.orders.OrderTable`.

        Free for a table-backed schedule; otherwise the pass lists are
        encoded, and the encoding kept while the lists still equal it.
        """
        table, lists = self._table, self._lists
        if lists is not None and (table is None or not table.matches(lists)):
            table = self._table = OrderTable.from_passes(lists)
        return table

    def copy(self) -> Schedule:
        """A copy with private orders and metadata.  The integer orders
        are immutable, so the copy shares them (and the passes they
        build) instead of copying pass lists."""
        return dataclasses.replace(
            self, device_orders=self.order_table(), metadata=dict(self.metadata)
        )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        if state.get("_lists") is not None:
            state.pop("_table", None)
        return state

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        # A pickle from before the integer orders (e.g. an optimizer
        # result in the disk cache) holds the pass lists under the
        # field's name, which the property would hide.
        if "device_orders" in state:
            state["_lists"] = state.pop("device_orders")
        self.__dict__.update(state)

    @property
    def num_devices(self) -> int:
        return self.layout.num_devices

    def structure_key(self) -> tuple:
        """Hashable identity of everything the executor's timing sees.

        Two schedules with equal keys produce identical simulation
        results for the same :class:`~repro.sim.runtime.SimulationSetup`
        (``name`` and ``metadata`` are cosmetic and excluded) — the
        planner uses this to deduplicate structurally identical
        candidates across its top-k verification loop.  The orders enter
        as the canonical integer table
        (:meth:`~repro.scheduling.orders.OrderTable.key`), so a
        table-backed schedule and a pass-list copy of it share a key.
        """
        return (
            self.num_microbatches,
            self.layout,
            self.vocab_algorithm,
            self.has_weight_passes,
            self.has_input_passes,
            self.interlaced,
            self.order_table().key(),
        )

    def structure_signature(self) -> tuple:
        """Runtime-independent family identity (no orders, no durations).

        Coarser than :meth:`structure_key`: two schedules share a
        signature when they describe the same *family instance* —
        schedule family (via the executor-relevant flags), device/chunk
        layout, microbatch count and vocabulary algorithm — even if
        their device orders differ because they were generated under
        different hardware timings.  Sweeps group grid points on this
        signature so one worker prices a whole structure group; the
        per-order identity (for compiled-graph and simulation reuse)
        remains :meth:`structure_key`.
        """
        return (
            self.num_microbatches,
            self.layout.signature(),
            self.vocab_algorithm,
            self.has_weight_passes,
            self.has_input_passes,
            self.interlaced,
        )

    def validate(self) -> None:
        """Structural validation; raises ``ValueError`` on any violation.

        Runs on the integer orders.  A device passes when its codes,
        stably sorted by stream, are exactly each expected stream's
        microbatches ``0 .. m-1`` in turn: one sort and one comparison
        check the exact pass multiset and every stream's order at once.
        Only a device that fails is walked pass by pass, to report its
        first fault: per-pass faults (wrong device, duplicate, microbatch
        or chunk out of range) at the first offending pass, then stream
        counts, then stream order.
        """
        if self.vocab_algorithm not in (None, 1, 2):
            raise ValueError(f"vocab_algorithm must be None, 1 or 2: {self.vocab_algorithm}")
        table = self.order_table()
        if len(table.codes) != self.num_devices:
            raise ValueError(
                f"{len(table.codes)} device orders for {self.num_devices} devices"
            )
        m = self.num_microbatches
        expected = [
            (type_, chunk)
            for type_, present in self._expected_types().items()
            if present
            for chunk in (
                range(self.layout.num_chunks) if type_ in _CHUNKED_TYPES else (0,)
            )
        ]
        index = table.index()
        step = 1 << MB_SHIFT
        stop = m << MB_SHIFT
        for device, codes in enumerate(table.codes):
            ids = [index.get((type_, device, chunk)) for type_, chunk in expected]
            if None not in ids:
                ids.sort()
                want = list(chain.from_iterable(range(s, stop + s, step) for s in ids))
                if sorted(codes, key=stream_of) == want:
                    continue
            self._explain(table, device)

    def _expected_types(self) -> dict[PassType, bool]:
        """Which pass types every device must run (once per microbatch)."""
        return {
            PassType.F: True,
            PassType.B: True,
            PassType.W: self.has_weight_passes,
            PassType.S: self.vocab_algorithm is not None,
            PassType.T: self.vocab_algorithm is not None,
            PassType.IF: self.has_input_passes,
            PassType.IB: self.has_input_passes,
            PassType.VF: self.interlaced,
            PassType.VB: self.interlaced,
        }

    def _explain(self, table: OrderTable, device: int) -> None:
        """Raise the first fault of one device's order that failed
        :meth:`validate`'s check (passes are built only for wording)."""
        m = self.num_microbatches
        num_chunks = self.layout.num_chunks
        chunked = range(num_chunks)
        streams = table.streams
        # stream id -> [microbatches seen, count, last microbatch, out of
        # order].  Earlier passes all passed the range checks, so a pass
        # out of range can never duplicate one of them.
        seen: dict[int, list] = {}
        for code in table.codes[device]:
            s, mb = code & STREAM_MASK, code >> MB_SHIFT
            if s >= len(streams):
                raise ValueError(f"device {device}: stream {s} is not in the stream table")
            type_, owner, chunk = streams[s]
            if mb < 0:
                raise ValueError(
                    f"device {device}: negative microbatch {mb} in {type_}.{chunk}"
                )
            if owner != device:
                raise ValueError(f"pass {table.describe(code)} listed on device {device}")
            stream = seen.get(s)
            if stream is not None and mb < m and stream[0][mb]:
                raise ValueError(f"duplicate pass {table.describe(code)} on device {device}")
            if mb >= m:
                raise ValueError(
                    f"pass {table.describe(code)} microbatch out of range [0, {m})"
                )
            if chunk >= num_chunks and type_ not in REPLICATED_TYPES:
                raise ValueError(f"pass {table.describe(code)} chunk out of range")
            if stream is None:
                stream = seen[s] = [bytearray(m), 0, -1, False]
            stream[0][mb] = 1
            stream[1] += 1
            if mb < stream[2]:
                stream[3] = True
            stream[2] = mb
        index = table.index()
        # Every stream present exactly once per microbatch.
        for type_, present in self._expected_types().items():
            expected = m if present else 0
            for chunk in chunked if type_ in _CHUNKED_TYPES else (0,):
                stream = seen.get(index.get((type_, device, chunk)))
                count = 0 if stream is None else stream[1]
                if count != expected:
                    raise ValueError(
                        f"device {device}: {count} {type_}.{chunk} passes, "
                        f"expected {expected}"
                    )
        # Microbatch order within each (type, chunk) stream is monotone.
        for type_ in PassType:
            for chunk in chunked:
                stream = seen.get(index.get((type_, device, chunk)))
                if stream is not None and stream[3]:
                    raise ValueError(
                        f"device {device}: {type_}.{chunk} stream out of order"
                    )
        raise AssertionError(f"device {device}: order failed validation without a fault")


# Declared after the class so the dataclass keeps ``device_orders`` as an
# ordinary init field while reads and writes go through the order table.
Schedule.device_orders = property(
    Schedule._get_device_orders,
    Schedule._set_device_orders,
    doc="Per-device :class:`Pass` lists, built from the order table on first read.",
)
