"""A small schedule IR over the compiled schedule graph.

The optimizer searches *around* the named schedule families by applying
rewrites to a program representation.  A program's ops are the passes
of an :class:`~repro.scheduling.orders.OrderTable`, numbered in its
flattened device order exactly like the node ids
:func:`~repro.sim.compiled.compile_schedule` assigns.  Beside the orders
the program carries the two pieces of state the named generators cannot
express: a token-split factor (TeraPipe-style sequence slicing) and a
list of BPipe-style activation handoffs.  Every program lowers back to
a plain :class:`Schedule` via :meth:`ScheduleIR.emit`, so any candidate
the search produces stays simulable — the compiled-graph oracle is the
single source of truth for both the candidate's score and its legality.

No rewrite reorders a device's passes, so a program shares its table
and compiled graph with every program derived from it until a token
split renumbers it.
"""

from __future__ import annotations

from repro.scheduling.orders import OrderTable
from repro.scheduling.schedule import Schedule

#: ``Schedule.metadata`` keys the IR round-trips through :meth:`emit`.
TOKEN_SPLIT_KEY = "token_split"
HANDOFF_KEY = "activation_handoffs"


class ScheduleIR:
    """A mutable schedule program the rewrites operate on.

    Lowered from a :class:`Schedule` with :meth:`from_schedule` and
    re-emitted with :meth:`emit`.  ``table`` holds the program's orders,
    and ``graph`` is their compiled graph — ``None`` until the program
    is first scored (a fresh lowering or a token split), then shared by
    every copy.  ``split`` is the token-split factor relative to the
    *original* microbatching (1 = none); ``handoffs`` records BPipe-style
    activation handoffs as ``(src_device, dst_device, microbatches)``
    tuples.

    :meth:`copy` shares the table and the graph: a rewrite that changes
    the orders gives its copy a new table (:meth:`renumber`).
    """

    __slots__ = (
        "name", "num_microbatches", "layout", "vocab_algorithm",
        "has_weight_passes", "has_input_passes", "interlaced",
        "table", "graph", "split", "handoffs",
    )

    def __init__(self) -> None:
        self.graph = None

    @classmethod
    def from_schedule(cls, schedule: Schedule) -> "ScheduleIR":
        ir = cls()
        ir.name = schedule.name
        ir.num_microbatches = schedule.num_microbatches
        ir.layout = schedule.layout
        ir.vocab_algorithm = schedule.vocab_algorithm
        ir.has_weight_passes = schedule.has_weight_passes
        ir.has_input_passes = schedule.has_input_passes
        ir.interlaced = schedule.interlaced
        ir.renumber(schedule.order_table())
        ir.split = int(schedule.metadata.get(TOKEN_SPLIT_KEY, 1))
        ir.handoffs = tuple(schedule.metadata.get(HANDOFF_KEY, ()))
        return ir

    def copy(self) -> "ScheduleIR":
        ir = ScheduleIR()
        ir.name = self.name
        ir.num_microbatches = self.num_microbatches
        ir.layout = self.layout
        ir.vocab_algorithm = self.vocab_algorithm
        ir.has_weight_passes = self.has_weight_passes
        ir.has_input_passes = self.has_input_passes
        ir.interlaced = self.interlaced
        ir.table = self.table
        ir.graph = self.graph
        ir.split = self.split
        ir.handoffs = self.handoffs
        return ir

    def renumber(self, table: OrderTable) -> None:
        """Make ``table``'s orders the program's, with no compiled graph
        yet."""
        self.table = table
        self.graph = None

    @property
    def num_devices(self) -> int:
        return self.layout.num_devices

    def emit(self) -> Schedule:
        """Lower back to a plain, simulable :class:`Schedule`.

        The result carries the IR's extra state in ``metadata`` so a
        round-trip through :meth:`from_schedule` is lossless.  Callers
        validate/execute the emitted schedule through the compiled-graph
        oracle; ``emit`` itself performs no checking.
        """
        metadata: dict = {}
        if self.split != 1:
            metadata[TOKEN_SPLIT_KEY] = self.split
        if self.handoffs:
            metadata[HANDOFF_KEY] = list(self.handoffs)
        return Schedule(
            name=self.name,
            num_microbatches=self.num_microbatches,
            layout=self.layout,
            device_orders=self.table,
            vocab_algorithm=self.vocab_algorithm,
            has_weight_passes=self.has_weight_passes,
            has_input_passes=self.has_input_passes,
            interlaced=self.interlaced,
            metadata=metadata,
        )
