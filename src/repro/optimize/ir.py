"""A small schedule IR over the compiled schedule graph.

The optimizer searches *around* the named schedule families by applying
local rewrites to a mutable program representation.  A program's ops
are the pass nodes of its token split's
:class:`~repro.sim.compiled.CompiledGraph` — the integer ids
:func:`~repro.sim.compiled.compile_schedule` assigns, passes numbered in
the flattened device order of the :class:`~repro.scheduling.orders.OrderTable`
the graph is lowered from — grouped into per-device orders exactly like
the graph's ``device_nodes``.  Beside the orders the program carries the
two pieces of state the named generators cannot express: a token-split
factor (TeraPipe-style sequence slicing) and a list of BPipe-style
activation handoffs.  Every program lowers back to a plain
:class:`Schedule` via :meth:`ScheduleIR.emit` (the order table reordered
by node id), so any candidate the search produces stays simulable — the
compiled-graph oracle is the single source of truth for both the
candidate's score and its legality (an order whose dependencies cycle
deadlocks there and is rejected).

The graph's successor CSR (``succ_off``/``succ_node``) holds exactly the
order-independent data dependencies of the program (stage P2P chains,
collective barriers, input-layer couplings); the per-device chains are
implicit in ``device_nodes``, and they are what the rewrites change.
Rewrites consult :class:`DependenceIndex`, reachability over that CSR,
for their applicability predicates — "may these two ops swap?" is "is
there no dependence path between them?" — while the oracle replay
remains the final legality check.  No rewrite builds a
:class:`~repro.scheduling.passes.Pass` except to word its trace entry.
"""

from __future__ import annotations

from repro.scheduling.orders import OrderTable
from repro.scheduling.passes import Pass
from repro.scheduling.schedule import Schedule

#: ``Schedule.metadata`` keys the IR round-trips through :meth:`emit`.
TOKEN_SPLIT_KEY = "token_split"
HANDOFF_KEY = "activation_handoffs"


class DependenceIndex:
    """Order-independent dependence reachability over a compiled graph.

    Nodes are the graph's nodes (passes, then one per collective
    barrier) and edges its successor CSR — every data dependency
    :func:`~repro.sim.compiled.compile_schedule` materializes, and
    nothing of the implicit per-device order chains.  ``path(a, b)``
    answers "does a dependence path force pass node ``a`` before ``b``?";
    a swap or hoist that contradicts no such path preserves the
    program's topology.

    Reachability queries are a longest-path depth filter (an edge
    strictly increases depth, so ``depth[a] >= depth[b]`` proves no
    path) followed by a memoized BFS over the CSR.
    """

    def __init__(self, graph) -> None:
        self._off = graph.succ_off
        self._succ = graph.succ_node
        self._depth = self._depths(graph.num_nodes)
        self._memo: dict[tuple[int, int], bool] = {}

    def _depths(self, num_nodes: int) -> list[int]:
        """Longest-path depth per node (Kahn order; the CSR is acyclic —
        device chains are not in it)."""
        off, succ = self._off, self._succ
        indeg = [0] * num_nodes
        for v in succ:
            indeg[v] += 1
        depth = [0] * num_nodes
        frontier = [u for u in range(num_nodes) if indeg[u] == 0]
        while frontier:
            nxt = []
            for u in frontier:
                below = depth[u] + 1
                for v in succ[off[u]:off[u + 1]]:
                    if depth[v] < below:
                        depth[v] = below
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        nxt.append(v)
            frontier = nxt
        return depth

    def path(self, a: int, b: int) -> bool:
        """True when a dependence path forces node ``a`` to run before ``b``."""
        depth = self._depth
        if depth[a] >= depth[b]:
            return False
        key = (a, b)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        off, succ = self._off, self._succ
        limit = depth[b]
        seen = {a}
        frontier = [a]
        found = False
        while frontier and not found:
            nxt = []
            for x in frontier:
                for y in succ[off[x]:off[x + 1]]:
                    if y == b:
                        found = True
                        break
                    if y not in seen and depth[y] < limit:
                        seen.add(y)
                        nxt.append(y)
                if found:
                    break
            frontier = nxt
        self._memo[key] = found
        return found


class ScheduleIR:
    """A mutable schedule program the rewrites operate on.

    Lowered from a :class:`Schedule` with :meth:`from_schedule` and
    re-emitted with :meth:`emit`.  ``table`` numbers the program's pass
    nodes (its flattened device order), ``device_nodes[d]`` is device
    ``d``'s order as node ids, and ``graph`` is the compiled graph of
    that numbering — ``None`` until the program is first scored (a fresh
    lowering or a token split), then shared by every program reordered
    from it.  ``split`` is the token-split factor relative to the
    *original* microbatching (1 = none); ``handoffs`` records BPipe-style
    activation handoffs as ``(src_device, dst_device, microbatches)``
    tuples.  The dependence index belongs to the graph and is built
    lazily.

    :meth:`copy` shares the per-device rows: a rewrite replaces the rows
    it changes and never edits one in place.
    """

    __slots__ = (
        "name", "num_microbatches", "layout", "vocab_algorithm",
        "has_weight_passes", "has_input_passes", "interlaced",
        "table", "graph", "device_nodes", "split", "handoffs", "_deps",
    )

    def __init__(self) -> None:
        self.graph = None
        self._deps: DependenceIndex | None = None

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
        ir.device_nodes = list(self.device_nodes)
        ir.split = self.split
        ir.handoffs = self.handoffs
        # Dependences are order-independent, so a copy that only reorders
        # ops keeps sharing the index.
        ir._deps = self._deps
        return ir

    def renumber(self, table: OrderTable) -> None:
        """Make ``table``'s orders the program's, numbered afresh: node ids
        in its flattened order, no compiled graph yet."""
        self.table = table
        self.graph = None
        self._deps = None
        nodes = []
        first = 0
        for codes in table.codes:
            nodes.append(list(range(first, first + len(codes))))
            first += len(codes)
        self.device_nodes = nodes

    @property
    def num_devices(self) -> int:
        return self.layout.num_devices

    def deps(self) -> DependenceIndex:
        """The program's dependence index (built on first use; the program
        must have been scored, so that its graph exists)."""
        if self._deps is None:
            self._deps = DependenceIndex(self.graph)
        return self._deps

    def op(self, node: int) -> Pass:
        """The :class:`Pass` a node stands for (built to word a trace
        entry; the rewrites themselves read the graph's node arrays)."""
        graph = self.graph
        return Pass(
            graph.node_type[node], graph.node_mb[node],
            graph.node_device[node], graph.node_chunk[node],
        )

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
            device_orders=self.table.reorder(self.device_nodes),
            vocab_algorithm=self.vocab_algorithm,
            has_weight_passes=self.has_weight_passes,
            has_input_passes=self.has_input_passes,
            interlaced=self.interlaced,
            metadata=metadata,
        )
