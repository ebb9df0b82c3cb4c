"""Schedule orders as integer ``(stream, microbatch)`` codes.

Every schedule here repeats the paper's §5.2 building block once per
microbatch, so a device's order is a walk over a handful of pass
*streams* — one per ``(type, device, chunk)`` — each visited once per
microbatch.  An :class:`OrderTable` holds that form directly: a stream
table with one ``(PassType, device, chunk)`` entry per stream and, per
device, a tuple of integer codes ``microbatch << MB_SHIFT | stream``.

Validation, structural keys, cloning and lowering all run on these
integers.  :class:`~repro.scheduling.passes.Pass` objects are built from
them only when a consumer asks (:meth:`OrderTable.passes`: the reference
engine, the optimizer IR, trace rendering), once per table, and every
schedule holding the table shares them.  The table is immutable, so
copies of a schedule share it for free.

A table also reads as a sequence of per-device pass tuples
(``table[d]``, ``for order in table``), which builds the passes on first
access.
"""

from __future__ import annotations

from itertools import chain, repeat
from functools import partial
from operator import and_, attrgetter, itemgetter, lshift, or_, rshift

from repro.scheduling.passes import REPLICATED_TYPES, Pass, PassType

#: A code's microbatch is ``code >> MB_SHIFT``; its stream is
#: ``code & STREAM_MASK``.
MB_SHIFT = 16
STREAM_MASK = (1 << MB_SHIFT) - 1

#: ``code -> stream id`` as a C-level callable (a sort key).
stream_of = partial(and_, STREAM_MASK)


def streams_of(codes) -> list[int]:
    """The stream id of every code."""
    return list(map(and_, codes, repeat(STREAM_MASK)))


def microbatches_of(codes) -> list[int]:
    """The microbatch of every code."""
    return list(map(rshift, codes, repeat(MB_SHIFT)))


_stream_key = attrgetter("type", "device", "chunk")
_microbatch = attrgetter("microbatch")


def gather(values, indices) -> tuple:
    """``tuple(values[i] for i in indices)`` at C speed."""
    if len(indices) > 1:
        return itemgetter(*indices)(values)
    return tuple(values[i] for i in indices)


class OrderTable:
    """Per-device schedule orders over a stream table.

    ``streams[s]`` is stream ``s``'s ``(type, device, chunk)``;
    ``codes[d]`` is device ``d``'s order as ``mb << MB_SHIFT | s`` codes.
    Stream entries are unique.  A table is *canonical* when its streams
    are numbered in first-appearance order over the flattened device
    orders and every stream appears — the numbering :meth:`from_passes`
    and :meth:`~repro.scheduling.building_block.BuildingBlock.unroll`
    emit — so two canonical tables of the same orders are equal field
    for field.  :meth:`key` renumbers any other table into that form.
    """

    __slots__ = (
        "streams", "codes", "_canonical", "_source", "_passes", "_flat",
        "_reps", "_index", "_key",
    )

    def __init__(self, streams, codes, canonical: bool = False) -> None:
        self.streams: tuple[tuple[PassType, int, int], ...] = tuple(streams)
        self.codes: tuple[tuple[int, ...], ...] = tuple(map(tuple, codes))
        if len(self.streams) > STREAM_MASK + 1:
            raise ValueError(f"{len(self.streams)} streams exceed the code width")
        for type_, device, chunk in self.streams:
            if device < 0:
                raise ValueError(f"device must be non-negative, got {device}")
            if chunk < 0:
                raise ValueError(f"chunk must be non-negative, got {chunk}")
            if chunk != 0 and type_ in REPLICATED_TYPES:
                raise ValueError(f"{type_} passes must use chunk 0, got {chunk}")
        if len(set(self.streams)) != len(self.streams):
            raise ValueError("stream table lists a (type, device, chunk) twice")
        self._canonical = canonical
        #: The parent table when this one reorders its passes
        #: (:meth:`reorder`): the passes are the parent's, looked up by
        #: code, not built again.
        self._source: OrderTable | None = None
        self._passes: tuple[tuple[Pass, ...], ...] | None = None
        self._flat: list[Pass] | None = None
        self._reps: list[Pass] | None = None
        self._index: dict[tuple[PassType, int, int], int] | None = None
        self._key: tuple | None = None

    @classmethod
    def from_passes(cls, device_orders) -> OrderTable:
        """Encode per-device :class:`Pass` sequences; the passes given are
        kept as the table's materialized passes, so none is built again."""
        orders = tuple(map(tuple, device_orders))
        keys = [list(map(_stream_key, order)) for order in orders]
        streams = list(dict.fromkeys(chain.from_iterable(keys)))
        index = {key: stream for stream, key in enumerate(streams)}
        codes = [
            tuple(map(or_, map(lshift, map(_microbatch, order), repeat(MB_SHIFT)),
                      map(index.__getitem__, row)))
            for order, row in zip(orders, keys)
        ]
        table = cls(streams, codes, canonical=True)
        table._passes = orders
        table._index = index
        return table

    def reorder(self, device_nodes: list[list[int]]) -> OrderTable:
        """The same passes in a new order: ``device_nodes[d]`` lists device
        ``d``'s positions in this table's flattened order (the node ids
        :func:`~repro.sim.compiled.compile_schedule` assigns)."""
        flat = self.flat_codes()
        table = OrderTable(self.streams, [gather(flat, nodes) for nodes in device_nodes])
        table._source = self
        table._index = self._index
        return table

    def with_codes(self, codes) -> OrderTable:
        """Other orders over the same streams (e.g. a token split's
        renumbered microbatches), sharing the stream index and the
        representatives."""
        table = OrderTable(self.streams, codes)
        table._index = self.index()
        table._reps = self.representatives()
        return table

    # ------------------------------------------------------------------
    # Integer views
    # ------------------------------------------------------------------

    def flat_codes(self) -> list[int]:
        """Every device's codes, concatenated in device order."""
        return list(chain.from_iterable(self.codes))

    def index(self) -> dict[tuple[PassType, int, int], int]:
        """``(type, device, chunk) -> stream id`` (memoized)."""
        if self._index is None:
            self._index = {key: s for s, key in enumerate(self.streams)}
        return self._index

    def key(self) -> tuple:
        """``(streams, codes)`` of the canonical numbering: equal exactly
        when the two tables describe the same orders."""
        if self._key is None:
            if self._canonical:
                self._key = (self.streams, self.codes)
            else:
                self._key = self._canonical_key()
        return self._key

    def _canonical_key(self) -> tuple:
        first_seen = list(dict.fromkeys(streams_of(self.flat_codes())))
        if first_seen == list(range(len(self.streams))):
            return (self.streams, self.codes)
        renumber = [0] * len(self.streams)
        for new, old in enumerate(first_seen):
            renumber[old] = new
        codes = tuple(
            tuple(map(
                or_,
                map(and_, row, repeat(~STREAM_MASK)),
                map(renumber.__getitem__, streams_of(row)),
            ))
            for row in self.codes
        )
        return (tuple(self.streams[s] for s in first_seen), codes)

    # ------------------------------------------------------------------
    # Pass views (built on first use, then shared)
    # ------------------------------------------------------------------

    def passes(self) -> tuple[tuple[Pass, ...], ...]:
        """Per-device :class:`Pass` tuples (built once per table)."""
        if self._passes is None:
            if self._source is not None:
                parent = self._source
                lookup = dict(zip(parent.flat_codes(), parent.flat_passes())).__getitem__
                self._passes = tuple(tuple(map(lookup, row)) for row in self.codes)
            else:
                streams = self.streams
                rows = []
                for row in self.codes:
                    out = []
                    for code in row:
                        type_, device, chunk = streams[code & STREAM_MASK]
                        out.append(Pass(type_, code >> MB_SHIFT, device, chunk))
                    rows.append(tuple(out))
                self._passes = tuple(rows)
        return self._passes

    def flat_passes(self) -> list[Pass]:
        """:meth:`passes` concatenated in device order (memoized: indexed
        by node id, so callers must not mutate it)."""
        if self._flat is None:
            self._flat = list(chain.from_iterable(self.passes()))
        return self._flat

    def representatives(self) -> list[Pass]:
        """One microbatch-0 :class:`Pass` per stream, for per-stream pricing
        (a reordered table's are its parent's)."""
        if self._reps is None:
            if self._source is not None:
                self._reps = self._source.representatives()
            else:
                self._reps = [
                    Pass(type_, 0, device, chunk) for type_, device, chunk in self.streams
                ]
        return self._reps

    def describe(self, code: int) -> Pass:
        """The :class:`Pass` one code stands for (used to word errors)."""
        type_, device, chunk = self.streams[code & STREAM_MASK]
        return Pass(type_, code >> MB_SHIFT, device, chunk)

    def matches(self, device_orders) -> bool:
        """Whether ``device_orders`` still equal the passes this table
        materialized — a C-speed check (equal passes are mostly the same
        objects) that lets a schedule keep its table after handing out
        its pass lists."""
        memo = self._passes
        return (
            memo is not None
            and len(memo) == len(device_orders)
            and all(map(_same_order, device_orders, memo))
        )

    # ------------------------------------------------------------------
    # Sequence of per-device pass tuples
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, device):
        return self.passes()[device]

    def __iter__(self):
        return iter(self.passes())

    def __reduce__(self):
        # Memos stay behind: they are rebuilt on demand, and a pickled
        # Pass memo would be most of the payload.
        return (OrderTable, (self.streams, self.codes, self._canonical))

    def __repr__(self) -> str:
        passes = sum(map(len, self.codes))
        return (
            f"OrderTable({len(self.codes)} devices, {len(self.streams)} streams, "
            f"{passes} passes)"
        )


def _same_order(order, memo: tuple) -> bool:
    return (order if type(order) is tuple else tuple(order)) == memo
