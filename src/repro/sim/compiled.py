"""Compiled schedule graphs: lower once, execute on flat integer arrays.

The discrete-event executor of :mod:`repro.sim.executor` is the hot
path of every planner call — :func:`repro.planner.planner.plan`
simulates its top-k candidates, and each
:func:`~repro.sim.executor.refine_schedule_order` pass used to run
*three additional* full executions, every one of which rebuilt the
dependency DAG as dicts keyed by tuples and :class:`Pass` dataclasses.

This module applies the compile-then-replay discipline schedule-search
systems (TeraPipe, BaPipe) use to keep their search loops affordable:

* :func:`compile_schedule` lowers a ``(Schedule, RuntimeModel)`` pair
  **once** into a :class:`CompiledGraph` — integer node ids (passes
  first, in flattened device order, then collective barrier nodes),
  CSR-style successor/lag arrays, a flat durations array, and
  per-device pass-index lists;
* :meth:`CompiledGraph.execute` runs the in-order longest-path
  evaluation over those arrays (the topological order itself is
  computed once and replayed);
* :meth:`CompiledGraph.execute_dataflow` runs the work-conserving
  event-driven mode on the same arrays, re-scanning only devices whose
  dependency state or free time actually changed instead of sweeping
  every device per event;
* :meth:`CompiledGraph.rebind` re-prices durations and transfer lags
  for a different runtime **without re-lowering the topology**, and
  :meth:`CompiledGraph._with_device_nodes` re-threads the device chains
  for a reordered schedule while sharing every structural array — which
  is how :meth:`CompiledGraph.refine` builds the refined graph, whose
  in-order result it reads off the dataflow run.

Results are bit-identical to the reference executor
(:mod:`repro.sim.reference_executor`): the same floating-point
operations run in an order whose reductions (``max`` relaxations,
per-device busy sums) are associativity-safe, and the equivalence
suite (``tests/sim/test_compiled_equivalence.py``) holds the two
implementations together.
"""

from __future__ import annotations

import dataclasses
import heapq
from bisect import insort
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain

from repro import spares
from repro._lazy import is_ndarray, optional_numpy
from repro.scheduling.orders import gather, microbatches_of, streams_of
from repro.scheduling.passes import CollectiveKind, Pass, PassType
from repro.scheduling.schedule import Schedule
from repro.sim.executor import (
    FLEXIBLE_TYPES,
    BubbleFractions,
    DeadlockError,
    ExecutionResult,
    _live_f_caps,
)

#: NumPy accelerates execute_many; the pure-Python path is exact too.
#: Imported on the first batched call (see :mod:`repro._lazy`).
_np = optional_numpy(globals(), "_np")


def _as_matrix(rows):
    """Binding matrices (lists, NumPy arrays) as given; other iterables listed."""
    return rows if isinstance(rows, list) or is_ndarray(rows) else list(rows)


@dataclass(frozen=True)
class Perturbation:
    """A sparse rebinding: the slots of a bound graph a what-if touches.

    ``durations`` maps node ids to *new absolute* durations and
    ``lags`` maps edge indices (into ``succ_lag``) to new absolute
    transfer lags — everything not listed keeps its bound value.
    """

    durations: tuple[tuple[int, float], ...] = ()
    lags: tuple[tuple[int, float], ...] = ()

    @classmethod
    def from_maps(cls, durations=None, lags=None) -> "Perturbation":
        """Build from ``{node: duration}`` / ``{edge: lag}`` mappings."""
        return cls(
            durations=tuple(sorted((durations or {}).items())),
            lags=tuple(sorted((lags or {}).items())),
        )

    @property
    def support(self) -> int:
        """Number of touched slots (nodes + edges)."""
        return len(self.durations) + len(self.lags)


@dataclass(frozen=True)
class LevelState:
    """The resident in-order baseline of one bound :class:`CompiledGraph`.

    Per-node ``ready``/``end`` times of one sweep over the bound
    durations and lags, plus the :class:`ExecutionSummary` of that
    sweep (iteration time and per-device busy sums in collection
    order) — everything a what-if needs to report the unperturbed
    schedule without sweeping, or even scanning, it again
    (:meth:`CompiledGraph.checkpoint`).
    """

    ready: list[float]
    end: list[float]
    baseline: ExecutionSummary


@dataclass(frozen=True)
class ExecutionSummary(BubbleFractions):
    """The observables Monte Carlo statistics need, without the per-pass
    timing dictionaries of a full :class:`ExecutionResult`.

    Produced by :meth:`CompiledGraph.execute_many_summary`; the values
    are bit-identical to the corresponding fields of the full results
    (same sweep, same float accumulation order), only the per-pass and
    per-collective time maps are skipped — which is most of the
    collection cost once K reaches Monte Carlo sample counts.  Bubble
    accessors come from the shared
    :class:`~repro.sim.executor.BubbleFractions` base.
    """

    iteration_time: float
    device_busy: tuple[float, ...]


def _stream_busy(device_nodes, start, end) -> list[float]:
    """Per-device busy seconds: each pass's ``end − start`` added left to
    right in stream order from ``0.0`` — the reference executor's order
    (float addition is not associative, and the equivalence suite
    compares bit for bit)."""
    busy = []
    for nodes in device_nodes:
        total = 0.0
        for i in nodes:
            total += end[i] - start[i]
        busy.append(total)
    return busy


class ResultView(ExecutionResult):
    """An :class:`ExecutionResult` over one run's per-node start/end arrays.

    What a compiled execution returns.  ``iteration_time`` and
    ``device_busy`` are computed on construction, with the same IEEE
    operations as the reference engine; ``pass_times`` and
    ``collective_times`` are built from the arrays on first access
    (pass entries in flattened stream order, as compiled results have
    always listed them), and
    :meth:`device_rows` / :meth:`device_columns` read one device's rows
    straight off its stream without building either map (the columns
    without building a :class:`Pass` either).  A view keeps the graph's
    structural arrays and the two time arrays, which no engine code
    mutates after the run, and pickles as a plain
    :class:`ExecutionResult` with its maps materialized.
    """

    def __init__(
        self,
        graph: CompiledGraph,
        start: list[float],
        end: list[float],
        iteration_time: float | None = None,
    ) -> None:
        self.schedule = graph.schedule
        self._table = graph._table
        self._node_type = graph.node_type
        self._node_chunk = graph.node_chunk
        self._node_mb = graph.node_mb
        self._device_nodes = graph.device_nodes
        self._coll_keys = graph.coll_keys
        self._num_passes = graph.num_passes
        self._start = start
        self._end = end
        self.iteration_time = (
            max(end) - min(start) if iteration_time is None else iteration_time
        )
        self.device_busy = _stream_busy(graph.device_nodes, start, end)
        self._pass_times: dict | None = None
        self._collective_times: dict | None = None

    @property
    def pass_times(self) -> dict[Pass, tuple[float, float]]:
        if self._pass_times is None:
            flat = list(chain.from_iterable(self._device_nodes))
            times = zip(
                map(self._start.__getitem__, flat), map(self._end.__getitem__, flat)
            )
            node_pass = self._table.flat_passes()
            self._pass_times = dict(zip(map(node_pass.__getitem__, flat), times))
        return self._pass_times

    @property
    def collective_times(self) -> dict[tuple[CollectiveKind, int], tuple[float, float]]:
        if self._collective_times is None:
            first = self._num_passes
            self._collective_times = dict(
                zip(self._coll_keys, zip(self._start[first:], self._end[first:]))
            )
        return self._collective_times

    def device_rows(self, device: int):
        nodes = self._device_nodes[device]
        return zip(
            gather(self._table.flat_passes(), nodes),
            gather(self._start, nodes),
            gather(self._end, nodes),
        )

    def device_columns(self, device: int):
        nodes = self._device_nodes[device]
        return (
            gather(self._node_type, nodes),
            gather(self._node_chunk, nodes),
            gather(self._node_mb, nodes),
            gather(self._start, nodes),
            gather(self._end, nodes),
        )

    def __reduce__(self):
        return (
            ExecutionResult,
            (
                self.schedule,
                self.pass_times,
                self.collective_times,
                self.iteration_time,
                self.device_busy,
            ),
        )


class _ChainPlan:
    """What a graph derives from its device chains, built on first use.

    The topological order (device chains included) and the batched
    kernel's :class:`_LevelPlan` depend only on the structure and the
    device chains, which :meth:`CompiledGraph.rebind` keeps: a graph and
    all its rebinds share one holder, so whichever builds an entry first
    builds it for every other.  Graphs re-threaded by
    :meth:`CompiledGraph._with_device_nodes` start a holder of their own.
    """

    __slots__ = ("chain_next", "topo", "level_plan")

    def __init__(self) -> None:
        self.chain_next: list[int] | None = None
        self.topo: list[int] | None = None
        self.level_plan: _LevelPlan | None = None


class CompiledGraph:
    """A schedule's dependency DAG lowered to flat arrays.

    Node ids ``0 .. num_passes-1`` are compute passes in flattened
    ``device_orders`` order; ids ``num_passes .. num_nodes-1`` are
    collective barrier nodes in registration order.  Structural arrays
    (successor CSR, per-device streams) depend only on the schedule;
    ``durations`` and ``succ_lag`` depend on the runtime and can be
    re-bound without re-lowering (:meth:`rebind`).
    """

    __slots__ = (
        "schedule",
        "runtime",
        "num_passes",
        "num_nodes",
        "_table",
        "node_device",
        "node_type",
        "node_chunk",
        "node_mb",
        "node_flexible",
        "coll_keys",
        "coll_comm",
        "coll_override",
        "num_comms",
        "durations",
        "succ_off",
        "succ_node",
        "succ_lag",
        "base_indeg",
        "device_nodes",
        "_chains",
        "_inorder",
        "_pricing",
        "_levelstate",
    )

    def __init__(self) -> None:
        # Populated by compile_schedule / rebind / _with_device_nodes.
        self._chains = _ChainPlan()
        self._inorder: ExecutionResult | None = None
        self._pricing: _PricingPlan | None = None
        self._levelstate: LevelState | None = None

    @property
    def node_pass(self) -> list[Pass]:
        """The :class:`Pass` of every pass node, in node order.

        Built on first use by the order table the graph was lowered
        from, and shared by every graph and schedule holding that table;
        the lowering and the engines themselves read the integer
        ``node_type`` / ``node_chunk`` / ``node_mb`` arrays instead.
        """
        return self._table.flat_passes()

    @property
    def succ_p2p(self) -> list[tuple[int, int] | None]:
        """Per edge, the ``(src, dst)`` device pair of its P2P transfer,
        or ``None`` when the edge carries no transfer."""
        pairs = [None, *self._pricing.pair_list]
        return [pairs[k] for k in self._pricing.edge_value_idx]

    # ------------------------------------------------------------------
    # Binding (runtime-dependent arrays)
    # ------------------------------------------------------------------

    def binding_rows(self, runtime) -> tuple[list[float], list[float]]:
        """Durations and edge lags this graph would carry under ``runtime``.

        Pure pricing — ``self`` is not mutated.  The returned
        ``(durations, lags)`` pair is one row of the matrices
        :meth:`execute_many` consumes, which is how one compiled graph
        prices many hardware/efficiency bindings in a single batch.
        """
        durations = [0.0] * self.num_nodes
        for i, p in enumerate(self.node_pass):
            durations[i] = runtime.pass_duration(p)
        coll_duration: dict[int, float] = {}
        for j, (kind, _mb) in enumerate(self.coll_keys):
            override = self.coll_override[j]
            if override is not None:
                durations[self.num_passes + j] = override
            else:
                comm = self.coll_comm[j]
                if comm not in coll_duration:
                    coll_duration[comm] = runtime.collective_duration(kind)
                durations[self.num_passes + j] = coll_duration[comm]
        p2p: dict[tuple[int, int], float] = {}
        lags = [0.0] * len(self.succ_node)
        for k, pair in enumerate(self.succ_p2p):
            if pair is not None:
                if pair not in p2p:
                    p2p[pair] = runtime.p2p_duration(*pair)
                lags[k] = p2p[pair]
        return durations, lags

    def _stream_values(self, runtime) -> tuple[list[float], list[float]]:
        """Per-slot value lists (node values, ``[0.0]`` + pair lags).

        One ``pass_duration`` call per distinct stream instead of per
        node — valid because runtimes price passes by ``(type, device,
        chunk)`` (the :class:`~repro.sim.runtime.RuntimeModel` contract;
        its memo key is exactly that stream).
        """
        plan = self._pricing
        values = [runtime.pass_duration(p) for p in plan.stream_reps]
        comm_values = [runtime.collective_duration(kind) for kind in plan.comm_kinds]
        for j in range(len(self.coll_keys)):
            override = self.coll_override[j]
            values.append(
                override if override is not None
                else comm_values[self.coll_comm[j]]
            )
        pair_values = [0.0] + [
            runtime.p2p_duration(*pair) for pair in plan.pair_list
        ]
        return values, pair_values

    def binding_matrix(self, runtimes) -> tuple[list, list]:
        """K duration rows and K lag rows, priced stream-wise.

        Bit-identical to ``[self.binding_rows(r) for r in runtimes]``
        (the same ``pass_duration``/``collective_duration``/
        ``p2p_duration`` values land in the same slots); the per-stream
        dedup plus vectorized gather is what makes pricing K bindings
        cheap enough for :meth:`execute_bindings` to amortize.
        """
        plan = self._pricing
        node_list, edge_list = plan.node_value_idx, plan.edge_value_idx
        node_idx, edge_idx = plan.arrays()
        duration_rows: list = []
        lag_rows: list = []
        for runtime in runtimes:
            values, pair_values = self._stream_values(runtime)
            if _np is not None:
                duration_rows.append(
                    _np.take(_np.asarray(values, dtype=_np.float64), node_idx)
                )
                lag_rows.append(
                    _np.take(
                        _np.asarray(pair_values, dtype=_np.float64), edge_idx
                    )
                )
            else:
                duration_rows.append([values[i] for i in node_list])
                lag_rows.append([pair_values[i] for i in edge_list])
        return duration_rows, lag_rows

    def _bind(self, runtime) -> None:
        """(Re)compute durations and transfer lags from ``runtime``.

        Stream-level pricing: the same values :meth:`binding_rows`
        computes per node, gathered from one ``pass_duration`` call per
        distinct stream (see :meth:`_stream_values`).
        """
        self.runtime = runtime
        plan = self._pricing
        values, pair_values = self._stream_values(runtime)
        self.durations = list(gather(values, plan.node_value_idx))
        self.succ_lag = list(gather(pair_values, plan.edge_value_idx))
        # Topology (and its cached topological order) is unaffected by a
        # rebind; the cached execution result and the resident baseline
        # (checkpoint) price the old binding and must be dropped.
        self._inorder = None
        self._levelstate = None

    def rebind(self, runtime, schedule: Schedule | None = None) -> CompiledGraph:
        """A graph sharing this topology with durations from ``runtime``.

        The expensive lowering (node numbering, edge CSR, device
        streams) is reused; only the duration and lag arrays are
        recomputed.  The topological order and the batched kernel's
        level plan are shared with this graph (built by whichever graph
        needs them first), so a rebound graph replays at full speed
        immediately.

        ``schedule`` optionally re-attaches the clone (and therefore its
        execution results) to a structurally identical
        :class:`~repro.scheduling.schedule.Schedule` instance — equal
        :meth:`~repro.scheduling.schedule.Schedule.structure_key`, e.g.
        the caller's own copy of a cached schedule.  Passing a
        structurally different schedule is undefined behaviour.
        """
        clone = CompiledGraph()
        clone.schedule = self.schedule if schedule is None else schedule
        for name in (
            "num_passes", "num_nodes", "_table", "node_device",
            "node_type", "node_chunk", "node_mb", "node_flexible",
            "coll_keys", "coll_comm", "coll_override", "num_comms",
            "succ_off", "succ_node", "base_indeg", "device_nodes",
        ):
            setattr(clone, name, getattr(self, name))
        clone._chains = self._chains
        clone._pricing = self._pricing
        clone._bind(runtime)
        return clone

    def with_orders(
        self, device_orders: list[list[Pass]], schedule: Schedule | None = None
    ) -> CompiledGraph:
        """A graph for the same passes executed in a different order.

        Only the per-device streams (and therefore the implicit device
        chains of the in-order mode) change; every structural array and
        the bound durations are shared.  ``schedule`` defaults to this
        graph's schedule with the new orders substituted.  Orders given
        as node ids skip the pass lookup (:meth:`_with_device_nodes`).
        """
        if schedule is None:
            schedule = dataclasses.replace(
                self.schedule, device_orders=[list(o) for o in device_orders]
            )
        pass_id = {p: i for i, p in enumerate(self.node_pass)}
        return self._with_device_nodes(
            [[pass_id[p] for p in order] for order in device_orders], schedule
        )

    def _with_device_nodes(
        self, device_nodes: list[list[int]], schedule: Schedule
    ) -> CompiledGraph:
        """:meth:`with_orders` for orders given as pass node ids."""
        clone = CompiledGraph()
        clone.schedule = schedule
        for name in (
            "runtime", "num_passes", "num_nodes", "_table",
            "node_device", "node_type", "node_chunk", "node_mb",
            "node_flexible", "coll_keys", "coll_comm", "coll_override",
            "num_comms", "durations", "succ_off", "succ_node", "succ_lag",
            "base_indeg",
        ):
            setattr(clone, name, getattr(self, name))
        clone.device_nodes = device_nodes
        # Pricing is order-independent and can be shared; the chain plan
        # (topological order, level plan) must rebuild.
        clone._pricing = self._pricing
        return clone

    # ------------------------------------------------------------------
    # In-order execution (compile the topological order, then replay)
    # ------------------------------------------------------------------

    def _describe(self, node: int) -> tuple:
        """Reference-style node key, for deadlock diagnostics only."""
        if node >= self.num_passes:
            kind, mb = self.coll_keys[node - self.num_passes]
            return ("coll", kind.value, mb)
        device = self.node_device[node]
        return ("pass", device, self.device_nodes[device].index(node))

    def _topology(self) -> tuple[list[int], list[int]]:
        """Topological order including device chains; cached."""
        chains = self._chains
        if chains.topo is None:
            self._ordered_sweep(self.durations, self.succ_lag)
        return chains.topo, chains.chain_next

    def _ordered_sweep(
        self, dur: list[float], lag: list[float]
    ) -> tuple[list[float], list[float]]:
        """Derive and cache the topological order while sweeping once.

        Kahn's algorithm pops a node only after all its predecessors, so
        its ready time is final right then: the first sweep of a graph
        rides on the topological sort instead of walking every edge a
        second time.  The relaxations are exact ``max`` operations, so
        the times equal a later :meth:`_sweep` over the cached order.
        """
        n = self.num_nodes
        chain_next = [-1] * n
        indeg = list(self.base_indeg)
        for nodes in self.device_nodes:
            for a, b in zip(nodes, nodes[1:]):
                chain_next[a] = b
                indeg[b] += 1
        off, nxt = self.succ_off, self.succ_node
        ready = [0.0] * n
        end = [0.0] * n
        queue = deque(i for i in range(n) if indeg[i] == 0)
        topo: list[int] = []
        while queue:
            i = queue.popleft()
            topo.append(i)
            e = ready[i] + dur[i]
            end[i] = e
            for k in range(off[i], off[i + 1]):
                j = nxt[k]
                r = e + lag[k]
                if r > ready[j]:
                    ready[j] = r
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
            j = chain_next[i]
            if j >= 0:
                if e > ready[j]:
                    ready[j] = e
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(topo) != n:
            blocked = [self._describe(i) for i in range(n) if indeg[i] > 0]
            raise DeadlockError(
                f"schedule '{self.schedule.name}' deadlocked; "
                f"{len(blocked)} nodes blocked, e.g. {blocked[:5]}"
            )
        self._chains.chain_next = chain_next
        self._chains.topo = topo
        return ready, end

    def _sweep(self, dur: list[float], lag: list[float]) -> tuple[list[float], list[float]]:
        """One longest-path forward sweep; returns (start, end) arrays.

        A node's ready time is final when the sweep reaches it (all
        predecessors precede it in topological order), so the ready
        array doubles as the start-time array.
        """
        chains = self._chains
        if chains.topo is None:
            return self._ordered_sweep(dur, lag)
        topo, chain_next = chains.topo, chains.chain_next
        off, nxt = self.succ_off, self.succ_node
        ready = [0.0] * self.num_nodes
        end = [0.0] * self.num_nodes
        for i in topo:
            e = ready[i] + dur[i]
            end[i] = e
            for k in range(off[i], off[i + 1]):
                j = nxt[k]
                r = e + lag[k]
                if r > ready[j]:
                    ready[j] = r
            j = chain_next[i]
            if j >= 0 and e > ready[j]:
                ready[j] = e
        return ready, end

    def replay(self) -> ExecutionResult:
        """One in-order execution over the flat arrays (uncached).

        Longest-path evaluation in precompiled topological order: a
        single forward sweep with ``max`` relaxations, no dict lookups
        and no queue management.
        """
        ready, end = self._sweep(self.durations, self.succ_lag)
        result = self._collect(ready, end)
        self._inorder = result
        return result

    def _level_plan(self) -> _LevelPlan:
        """The batched kernel's level plan (see :class:`_LevelPlan`);
        built on first use and shared through the chain holder."""
        chains = self._chains
        if chains.level_plan is None:
            chains.level_plan = _LevelPlan(self)
        return chains.level_plan

    def _execute_rows(self, durations, lags, collect_row, collect_batch):
        """Shared K-binding sweep behind :meth:`execute_many` and
        :meth:`execute_many_summary`.

        ``collect_row(start, end)`` consumes one scalar-path sweep
        (plain lists in node-id space) and returns one result;
        ``collect_batch(start, end, plan)`` consumes the whole batched
        sweep — ``(nodes, K)`` NumPy arrays in the :class:`_LevelPlan`'s
        level-major node order (``plan.position[i]`` is node ``i``'s
        row) — and returns the K results.  Both see exactly the values
        the corresponding single-binding :meth:`replay` would have
        produced.  The batched arrays are work buffers lent by
        :mod:`repro.spares` for the call and lent again by the next
        one, on any graph: ``collect_batch`` may overwrite them, and
        nothing it returns may view them.
        """
        rows = _as_matrix(durations)
        k_rows = len(rows)
        if lags is not None:
            lag_rows = _as_matrix(lags)
            if len(lag_rows) != k_rows:
                raise ValueError(
                    f"{k_rows} duration rows but {len(lag_rows)} lag rows"
                )
        if k_rows == 0:
            return []
        num_edges = len(self.succ_node)
        if _np is None or k_rows == 1:
            results = []
            for k in range(k_rows):
                dur = list(rows[k])
                if len(dur) != self.num_nodes:
                    raise ValueError(
                        f"duration row {k} has {len(dur)} entries, "
                        f"expected {self.num_nodes}"
                    )
                lag = self.succ_lag if lags is None else list(lag_rows[k])
                if len(lag) != num_edges:
                    raise ValueError(
                        f"lag row {k} has {len(lag)} entries, "
                        f"expected {num_edges}"
                    )
                ready, end = self._sweep(dur, lag)
                results.append(collect_row(ready, end))
            return results

        dur = _np.asarray(rows, dtype=_np.float64)
        if dur.shape != (k_rows, self.num_nodes):
            raise ValueError(
                f"durations must be K×{self.num_nodes}, got {dur.shape}"
            )
        if lags is None:
            # One column, broadcast over the K bindings.
            edge_lags = _np.asarray(self.succ_lag, dtype=_np.float64)[:, None]
        else:
            edge_lags = _np.asarray(lag_rows, dtype=_np.float64)
            if edge_lags.shape != (k_rows, num_edges):
                raise ValueError(
                    f"lags must be K×{num_edges}, got {edge_lags.shape}"
                )
            edge_lags = edge_lags.T  # (edges, K); perturbed_rows' own block, uncopied
        plan = self._level_plan()
        # Only P2P edges carry a lag in a priced binding (binding_rows
        # and perturbed_rows keep every other edge exactly zero), so the
        # sweep adds a compact block of their rows.  A hand-built matrix
        # with weight on any other edge is swept over all edges' rows.
        weighted = edge_lags.any(axis=1)
        every_edge = bool(weighted[plan.zero_edges].any())
        height = self.num_nodes + 1
        shapes = [(height, k_rows), (height, k_rows)]
        if weighted.any():
            lagged_edges = num_edges if every_edge else len(plan.p2p_edges)
            shapes.append((lagged_edges + 1, edge_lags.shape[1]))
        with spares.lent(*shapes) as (end, ready, *lagged):
            # The durations, level-major, go straight into end: a level
            # reads only earlier levels' end rows, and adds its ready
            # times onto its own.  end's extra last row is the zero
            # every padding index reads; ready is as tall, so either
            # spare serves either.  Every index is in range, and
            # mode="clip" writes into out where "raise" would buffer.
            take = _np.take
            take(dur.T, plan.perm, axis=0, out=end[:-1], mode="clip")
            end[-1] = 0.0
            lag_block = lagged[0] if lagged else None
            if lag_block is not None:
                # The lagged rows, then the zero row padding and chain edges read.
                if every_edge:
                    lag_block[:-1] = edge_lags
                else:
                    take(edge_lags, plan.p2p_edges, axis=0, out=lag_block[:-1], mode="clip")
                lag_block[-1] = 0.0
            add, maximum = _np.add, _np.maximum.reduce
            for start, stop, src, p2p_idx, edge_idx in plan.levels:
                level = ready[start:stop]
                if src is None:
                    level.fill(0.0)
                else:
                    # (level nodes, fan-in, K): each predecessor's end ...
                    candidate = end[src]
                    lag_idx = edge_idx if every_edge else p2p_idx
                    if lag_block is not None and lag_idx is not None:
                        candidate += lag_block[lag_idx]  # ... plus its edge's lag
                    # ready = max(0.0, every candidate), as the scalar sweep.
                    maximum(candidate, axis=1, initial=0.0, out=level)
                add(level, end[start:stop], out=end[start:stop])
            return collect_batch(ready[:-1], end[:-1], plan)

    def execute_many(
        self,
        durations,
        lags=None,
    ) -> list[ExecutionResult]:
        """In-order execution of K bindings over one shared topology.

        ``durations`` is a K×num_nodes matrix (any sequence-of-rows or
        NumPy array); row k holds the node durations of binding k, as
        produced by :meth:`binding_rows`.  ``lags`` is an optional
        K×num_edges matrix of per-edge transfer lags; when omitted,
        every binding reuses this graph's currently bound lags.

        With NumPy available all K bindings sweep together, one depth
        level of the graph's :class:`_LevelPlan` at a time: each node's
        ready time is pulled as the max of ``0.0`` and its predecessors'
        ``end + lag``, four NumPy calls per level (gather, lag add, max,
        add).  Otherwise a pure-Python loop sweeps each row.  Both paths
        are bit-identical to calling :meth:`replay` per binding — max is
        exact and order-free, and every other float operation is the
        scalar sweep's IEEE op on the same operands.
        """
        return self._execute_rows(
            durations, lags, self._collect, self._collect_batch
        )

    def execute_many_summary(
        self,
        durations,
        lags=None,
    ) -> list[ExecutionSummary]:
        """:meth:`execute_many`, collecting only the summary observables.

        Runs the identical batched sweep but materializes one
        :class:`ExecutionSummary` (iteration time + per-device busy
        seconds) per binding instead of a full per-pass timing map.
        For Monte Carlo sample counts the timing maps dominate
        collection cost and memory, and robustness statistics never
        read them; the summary values are bit-identical to the full
        results' (:mod:`repro.scenarios.perturb` relies on this).
        """
        return self._execute_rows(
            durations, lags, self._summarize, self._summarize_batch
        )

    def _summarize(self, start, end) -> ExecutionSummary:
        """Summary observables of one sweep, bit-identical to a
        :meth:`_collect` result's (the same stream-order busy sums)."""
        return ExecutionSummary(
            iteration_time=max(end) - min(start),
            device_busy=tuple(_stream_busy(self.device_nodes, start, end)),
        )

    def _summarize_batch(self, start, end, plan) -> list[ExecutionSummary]:
        """:meth:`_summarize` for all K columns of the batched sweep.

        The iteration time is ``max(end) − min(start)`` per column (exact
        whatever the reduction order).  Busy time adds each device's
        ``end − start`` rows in stream order from ``0.0``, in one
        reduction over its ``(passes, K)`` block: along a non-contiguous
        axis NumPy adds row after row (its pairwise summation runs only
        along a contiguous one, and K ≥ 2 here), so each column gets the
        scalar loop's IEEE adds in the scalar loop's order.  The spans
        overwrite ``start``, the sweep's own buffer, once its minima
        are taken.
        """
        iteration = (end.max(axis=0) - start.min(axis=0)).tolist()
        span = _np.subtract(end, start, out=start)
        reduce = _np.add.reduce
        busy = [
            reduce(span[rows], axis=0, initial=0.0).tolist()
            for rows in plan.device_rows
        ]
        return [
            ExecutionSummary(iteration_time=t, device_busy=b)
            for t, b in zip(iteration, zip(*busy))
        ]

    def _collect_batch(self, start, end, plan) -> list[ExecutionResult]:
        """:meth:`_collect` for all K columns of the batched sweep: one
        gather back to node-id space, then one view per binding over
        that binding's row.  The iteration times are reduced in NumPy;
        ``max``/``min`` are exact, so they equal the scalar reductions."""
        start = _np.ascontiguousarray(start[plan.position].T)
        end = _np.ascontiguousarray(end[plan.position].T)
        iteration = (end.max(axis=1) - start.min(axis=1)).tolist()
        return [
            ResultView(self, s, e, t)
            for s, e, t in zip(start.tolist(), end.tolist(), iteration)
        ]

    def execute_bindings(self, runtimes) -> list[ExecutionResult]:
        """Price and execute this topology under each runtime in one batch.

        Convenience wrapper: :meth:`binding_matrix` (stream-level
        pricing), then one :meth:`execute_many` call.  Equivalent to
        (but much faster than) ``[self.rebind(r).execute() for r in
        runtimes]``.  Runtimes must price passes per stream — i.e.
        ``pass_duration`` may not depend on the microbatch index, the
        contract :class:`~repro.sim.runtime.RuntimeModel` follows.
        """
        duration_rows, lag_rows = self.binding_matrix(runtimes)
        return self.execute_many(duration_rows, lag_rows)

    def execute(self) -> ExecutionResult:
        """In-order execution result; cached across calls.

        A graph's first run also derives its topological order (see
        :meth:`_ordered_sweep`).  The zero-bubble refinement reads its
        memory caps from this run, and :meth:`refine` reuses it as the
        "before" side of its check; a refined graph gets its result from
        the dataflow run instead (:meth:`refine`), so metrics collection
        never executes a schedule twice.
        """
        if self._inorder is None:
            self.replay()
        return self._inorder

    def _collect(self, start: list[float], end: list[float]) -> ExecutionResult:
        """The result of per-node start/end times: a :class:`ResultView`
        over the two arrays (see there for what it computes eagerly)."""
        return ResultView(self, start, end)

    # ------------------------------------------------------------------
    # What-if replay (resident baseline + one perturbed sweep)
    # ------------------------------------------------------------------

    def checkpoint(self) -> LevelState:
        """Materialize (or return) the resident :class:`LevelState`.

        Runs one baseline sweep over the currently bound durations and
        lags and keeps its per-node ready/end solution and its
        :class:`ExecutionSummary`.  Cached until the binding changes
        (:meth:`rebind` / a fresh :meth:`_bind` drop it).  Raises :class:`DeadlockError`
        exactly when :meth:`execute` would.
        """
        if self._levelstate is not None:
            return self._levelstate
        ready, end = self._sweep(self.durations, self.succ_lag)
        self._levelstate = LevelState(
            ready=ready, end=end, baseline=self._summarize(ready, end)
        )
        return self._levelstate

    def device_perturbation(self, device: int, factor: float) -> Perturbation:
        """Scale every pass of ``device`` by ``factor`` (a straggler).

        Priced against the graph's bound durations, so repeated
        what-ifs with different factors all describe absolute
        single-device rebindings, not compounding ones.
        """
        if not 0 <= device < len(self.device_nodes):
            raise ValueError(
                f"device must be in [0, {len(self.device_nodes)}), got {device}"
            )
        dur = self.durations
        return Perturbation(
            durations=tuple(
                (i, factor * dur[i]) for i in self.device_nodes[device]
            )
        )

    def _perturbed_sweep(
        self, perturbation: Perturbation
    ) -> tuple[list[float], list[float]]:
        """One full sweep of the bound rows with ``perturbation`` applied
        to copies of them (the graph's own binding is never touched)."""
        dur = list(self.durations)
        for i, value in perturbation.durations:
            dur[i] = value
        lag = self.succ_lag
        if perturbation.lags:
            lag = list(lag)
            for k, value in perturbation.lags:
                lag[k] = value
        return self._sweep(dur, lag)

    def execute_delta(self, perturbation: Perturbation) -> ExecutionResult:
        """In-order execution of the bound binding under ``perturbation``.

        One sweep of the perturbed rows — bit for bit, per-pass timing
        maps included, what rebinding the perturbed durations/lags and
        calling :meth:`execute` on a fresh graph returns.
        """
        return self._collect(*self._perturbed_sweep(perturbation))

    def execute_delta_summary(self, perturbation: Perturbation) -> ExecutionSummary:
        """:meth:`execute_delta`, collecting only summary observables."""
        return self._summarize(*self._perturbed_sweep(perturbation))

    # ------------------------------------------------------------------
    # Work-conserving (dataflow) execution
    # ------------------------------------------------------------------

    def execute_dataflow(
        self, lookahead: int = 4, mode: str = "strict"
    ) -> ExecutionResult:
        """Work-conserving simulation on the compiled arrays.

        Semantics match
        :func:`repro.sim.reference_executor.reference_execute_schedule_dataflow`
        exactly (the dispatch and tie-break rules are written down in
        :meth:`_dataflow`); the difference is that one flat event loop
        re-tries only devices whose dependency state or free time
        changed at an event, instead of the reference's O(devices)
        sweep per completion.
        """
        start, end, _ = self._dataflow(lookahead, mode)
        return self._collect(start, end)

    def _dataflow(
        self, lookahead: int, mode: str
    ) -> tuple[list[float], list[float], list[list[int]]]:
        """The dataflow run behind :meth:`execute_dataflow`: (start, end)
        per node and each device's passes in dispatch order, without
        collecting an :class:`ExecutionResult`.

        Dispatch and tie-break rules — the specification both this
        engine and the frozen reference
        (:func:`~repro.sim.reference_executor.reference_execute_schedule_dataflow`)
        are tested against:

        1. **Seed.** Collectives without dependencies launch at 0 in
           node order; then every device, in ascending order, gets one
           dispatch try at 0.
        2. **Events.** Completions are processed in ``(end, tick)``
           order; the tick counts dispatches and launches, so equal end
           times go to the node dispatched first.
        3. **Completion at ``now``.** Relax the node's out-edges
           (``ready = max(ready, now + lag)``) and launch every
           collective whose dependencies are now complete, at
           ``max(ready, communicator free, now)``.  Then every device
           free at ``now`` gets one try, in ascending order; then, if
           the node is a pass, its own device gets a second try (it
           matters when the first dispatched a zero-duration pass,
           leaving the device free at ``now``).
        4. **A try** dispatches at most one pass: the first in the
           device's lookahead window (its first ``lookahead`` pending
           passes, in stream order) whose dependencies are complete and
           which is eligible — in ``strict`` mode the window's head or
           a flexible-type pass, in ``zero-bubble`` mode any pass but
           a forward whose chunk is at its live-forward cap.  It starts
           at ``max(now, ready, device free)``.

        The engine is one flat event loop over a single heap of ``(end,
        tick, node)`` events.  Each turn launches the collectives the
        last event made ready (in relaxation order, as rule 3 has them),
        sweeps the devices to try, then pops the next event and relaxes
        it.  A try on a device whose state has not changed since its
        last failed try fails again, so a sweep tries only the devices
        that are free at ``now`` and either gained a ready pass or
        reached their free time:

        * A device's free time is the end of the pass it last
          dispatched, and that end is itself an event.  The completed
          pass's device is free at its own event.  Devices whose own
          completion at ``now`` has a later tick are free too, and
          rule 3 tries them at the first event of ``now``: their
          events are the heap's entries at time ``now``, which form a
          subtree at its root, so a tie walks that subtree.  (Walking
          it again at a later event of the same instant only re-tries
          devices that are busy or unchanged, which changes nothing.)
        * A device that gains a ready pass while busy is not tried
          then; it is tried when it reaches its free time.
        * Rule 3's second try re-visits the completed pass's device
          only when its sweep try dispatched a zero-duration pass:
          otherwise that device is busy, or unchanged since a failed
          try.

        Both modes share the loop; the mode picks the eligibility scan
        and the bookkeeping after a dispatch (strict mode tracks the
        window's head, zero-bubble mode the live forward counts).
        Durations are assumed non-negative, as runtimes price them.
        """
        if lookahead < 1:
            raise ValueError(f"lookahead must be ≥ 1, got {lookahead}")
        if mode not in ("strict", "zero-bubble"):
            raise ValueError(
                f"mode must be 'strict' or 'zero-bubble', got {mode!r}"
            )
        schedule = self.schedule
        num_devices = schedule.num_devices
        num_passes = self.num_passes
        n = self.num_nodes
        dur = self.durations
        off, nxt, lag = self.succ_off, self.succ_node, self.succ_lag
        node_device = self.node_device
        node_flexible = self.node_flexible
        coll_comm = self.coll_comm
        streams = self.device_nodes
        strict = mode == "strict"
        heappush, heappop = heapq.heappush, heapq.heappop

        if not strict:
            # Live forwards per device and chunk, capped by the in-order
            # run's peak.
            node_type = self.node_type
            node_chunk = self.node_chunk
            forward = PassType.F
            release = PassType.W if schedule.has_weight_passes else PassType.B
            chunks = range(max(node_chunk, default=-1) + 1)
            f_caps = [
                [caps.get(chunk, 0) for chunk in chunks]
                for caps in _live_f_caps(schedule, self.execute())
            ]
            live_f = [[0] * len(chunks) for _ in range(num_devices)]

        num_deps = list(self.base_indeg)
        dep_ready = [0.0] * n
        start_arr = [0.0] * n
        end_arr = [0.0] * n
        seen = [False] * n
        device_free = [0.0] * num_devices
        comm_free = [0.0] * self.num_comms

        # A device's pending passes are its stream minus those dispatched;
        # the lookahead window is the first ``lookahead`` of them.  Only
        # passes whose dependencies are done can dispatch, so instead of
        # scanning the window each device keeps those passes' stream
        # positions sorted (``ready``), and the window as a bound: every
        # pending pass before ``limit`` is in it, none after (a bound
        # past the stream's end bounds nothing more).  ``head`` is the
        # first pending position, which only strict mode reads.
        # Visiting ``ready`` in order below ``limit`` visits the window's
        # ready passes in window order, so the first eligible one is the
        # pass a window scan would pick.
        node_pos = [0] * n
        ready: list[list[int]] = []
        for nodes in streams:
            for pos, i in enumerate(nodes):
                node_pos[i] = pos
            ready.append([pos for pos, i in enumerate(nodes) if num_deps[i] == 0])
        head = [0] * num_devices
        limit = [lookahead] * num_devices
        dispatched: list[list[int]] = [[] for _ in streams]

        events: list[tuple[float, int, int]] = []
        tick = 0
        # The seed is the loop's first turn: no completed node (``i =
        # n``), every device to try at 0.
        launch = [j for j in range(num_passes, n) if not num_deps[j]]
        dirty = list(range(num_devices))
        now = 0.0
        i = n
        while True:
            for j in launch:
                comm = coll_comm[j - num_passes]
                start = dep_ready[j]
                if comm_free[comm] > start:
                    start = comm_free[comm]
                if now > start:
                    start = now
                e = comm_free[comm] = start + dur[j]
                start_arr[j] = start
                end_arr[j] = e
                seen[j] = True
                heappush(events, (e, tick, j))
                tick += 1
            launch.clear()

            if len(dirty) > 1:
                dirty.sort()
            # Every device in ``dirty`` is free at ``now``.
            for device in dirty:
                positions = ready[device]
                if not positions:
                    continue
                pos = positions[0]
                bound = limit[device]
                if pos >= bound:
                    continue
                nodes = streams[device]
                # The first eligible ready pass in the window: positions[0]
                # unless it is ruled out, else a scan.
                index = 0
                if strict:
                    first = head[device]
                    if pos != first:
                        for index, pos in enumerate(positions):
                            if pos >= bound:
                                index = -1
                                break
                            if node_flexible[nodes[pos]]:
                                break
                        else:
                            index = -1
                else:
                    live = live_f[device]
                    caps = f_caps[device]
                    j = nodes[pos]
                    if node_type[j] is forward and live[node_chunk[j]] >= caps[node_chunk[j]]:
                        for index, pos in enumerate(positions):
                            if pos >= bound:
                                index = -1
                                break
                            j = nodes[pos]
                            if node_type[j] is not forward:
                                break
                            chunk = node_chunk[j]
                            if live[chunk] < caps[chunk]:
                                break
                        else:
                            index = -1
                if index < 0:
                    continue
                j = nodes[pos]
                del positions[index]
                limit[device] = bound + 1
                # max(now, ready, device free), the device free by ``now``.
                start = dep_ready[j]
                if not start > now:
                    start = now
                e = device_free[device] = start + dur[j]
                start_arr[j] = start
                end_arr[j] = e
                seen[j] = True
                heappush(events, (e, tick, j))
                tick += 1
                dispatched[device].append(j)
                if strict:
                    if pos == first:
                        last = len(nodes)
                        while first < last and seen[nodes[first]]:
                            first += 1
                        head[device] = first
                elif node_type[j] is forward:
                    live[node_chunk[j]] += 1
                elif node_type[j] is release:
                    live[node_chunk[j]] -= 1
                if e == now and i < num_passes and node_device[i] == device:
                    dirty.append(device)  # the second try, once
                    i = n
            dirty.clear()

            if not events:
                break
            # An event's time is its node's end.
            now, _, i = heappop(events)
            if i < num_passes:
                device = node_device[i]
                if device_free[device] <= now:
                    dirty.append(device)
            for k in range(off[i], off[i + 1]):
                j = nxt[k]
                r = now + lag[k]
                if r > dep_ready[j]:
                    dep_ready[j] = r
                deps = num_deps[j] - 1
                num_deps[j] = deps
                if not deps:
                    if j >= num_passes:
                        launch.append(j)
                    else:
                        device = node_device[j]
                        insort(ready[device], node_pos[j])
                        if device_free[device] <= now and device not in dirty:
                            dirty.append(device)
            if events and events[0][0] == now:
                # A tie: walk the heap's entries at ``now``.
                stack = [0]
                size = len(events)
                while stack:
                    k = stack.pop()
                    j = events[k][2]
                    if j < num_passes:
                        device = node_device[j]
                        if device_free[device] <= now and device not in dirty:
                            dirty.append(device)
                    k = 2 * k + 1
                    if k < size and events[k][0] == now:
                        stack.append(k)
                    k += 1
                    if k < size and events[k][0] == now:
                        stack.append(k)
        if tick != n:
            blocked = [self._describe(i) for i in range(n) if not seen[i]]
            raise DeadlockError(
                f"schedule '{self.schedule.name}' deadlocked in dataflow mode; "
                f"{len(blocked)} nodes blocked, e.g. {blocked[:5]}"
            )
        return start_arr, end_arr, dispatched

    # ------------------------------------------------------------------
    # Refinement (shared compiled graph across all phases)
    # ------------------------------------------------------------------

    def refine(
        self, lookahead: int = 64, mode: str = "strict"
    ) -> tuple[Schedule, ExecutionResult, CompiledGraph]:
        """Freeze the dataflow order; return the better schedule + result.

        Returns ``(schedule, in_order_result, graph)`` where ``result``
        is the in-order execution of the *returned* schedule and
        ``graph`` is its compiled form — so callers (``run_method``,
        the planner's top-k loop) never re-execute or re-lower.

        One dataflow run yields both the refined order and the refined
        schedule's in-order result: each device's passes sorted by
        dataflow ``(start, end)`` (what ``passes_on`` returns) form the
        new order, and the dataflow's start/end times *are* that order's
        in-order times, so they are collected directly instead of
        replaying the refined graph.  When every pass duration is
        positive the sort is skipped: each pass then starts after the
        previous one on its device ends, so dispatch starts strictly
        increase and the dispatch order is the sorted order.  The
        "before" side is this graph's cached in-order result
        (:meth:`execute`; the zero-bubble pre-pass's, when that ran).
        """
        start, end, dispatched = self._dataflow(lookahead, mode)
        positive = min(self.durations[: self.num_passes]) > 0.0
        if positive:
            device_nodes = dispatched
        else:
            device_nodes = [
                sorted(nodes, key=lambda i: (start[i], end[i]))
                for nodes in self.device_nodes
            ]
        # The refined orders are the same passes renumbered: codes gathered
        # by node id, with the passes (if ever read) gathered likewise.
        refined = dataclasses.replace(
            self.schedule, device_orders=self._table.reorder(device_nodes)
        )
        refined.validate()
        refined_graph = self._with_device_nodes(device_nodes, refined)
        # With non-negative durations and lags, a dataflow start is
        # max(dependency ready, end of the pass dispatched before it on
        # the device) — dispatch is retried exactly when either changes —
        # which is the in-order sweep's recurrence over the dispatch
        # order.  Sorting by (start, end) gives back the dispatch order
        # unless zero-duration passes tie; only then is the refined
        # order replayed.  Either way the result is bit-identical to
        # ``refined_graph.replay()`` (tests/sim/test_compiled_equivalence.py).
        if (
            device_nodes == dispatched
            and min(self.durations) >= 0.0
            and min(self.succ_lag, default=0.0) >= 0.0
        ):
            after = refined_graph._inorder = refined_graph._collect(start, end)
        else:
            after = refined_graph.replay()
        before = self.execute()
        if after.iteration_time <= before.iteration_time:
            return refined, after, refined_graph
        return self.schedule, before, self


def compile_schedule(schedule: Schedule, runtime) -> CompiledGraph:
    """Lower ``(schedule, runtime)`` into a :class:`CompiledGraph`.

    Mirrors the edge construction of the reference executor's
    ``_build_graph`` exactly (stage P2P chains, collective barriers
    serialized per communicator, input-layer and interlaced couplings),
    but emits integer ids and flat arrays instead of dict-of-tuple
    graphs.  Device-chain edges are *implicit* (consecutive entries of
    ``device_nodes``), which is what lets
    :meth:`CompiledGraph._with_device_nodes` reorder a schedule without
    touching the CSR.

    Lowering is by tiling: a schedule repeats the paper's §5.2 building
    block once per microbatch, so every edge belongs to one microbatch
    and joins the same two streams in each.  The edges are listed once,
    as stream-to-stream templates (a collective chain's ``mb-1 → mb``
    link is a template with a one-microbatch shift), and each node's
    successor row is the template's destination streams read at the
    node's microbatch.  Listing the templates in the reference's edge
    order keeps every source's successors in its insertion order, which
    the dataflow mode's tie-breaks depend on.  The streams are the
    schedule's :class:`~repro.scheduling.orders.OrderTable` streams, and
    every per-node array is gathered from its integer codes: lowering
    builds one representative :class:`Pass` per stream and no other.

    ``runtime`` must price passes per ``(type, device, chunk)`` stream —
    ``pass_duration`` may not depend on the microbatch index.  This is
    the :class:`~repro.sim.runtime.RuntimeModel` contract (its memo key
    is exactly that stream); binding calls ``pass_duration`` once per
    distinct stream and broadcasts the value to every microbatch.  A
    microbatch-dependent runtime should use the reference engine.
    """
    layout = schedule.layout
    m = schedule.num_microbatches

    graph = CompiledGraph()
    graph.schedule = schedule

    # Node ids are the passes in flattened device order.  Every stream of
    # the order table gets one slot holding the node id of each
    # microbatch's pass (the table's stream order is also the pricing
    # plan's); collective chains append one slot each.
    table = schedule.order_table()
    flat = table.flat_codes()
    num_passes = len(flat)
    node_stream = streams_of(flat)
    node_mb = microbatches_of(flat)
    node_device: list[int] = []
    device_nodes: list[list[int]] = []
    for device, codes in enumerate(table.codes):
        first = len(node_device)
        node_device.extend([device] * len(codes))
        device_nodes.append(list(range(first, len(node_device))))

    stream_of_key = table.index()
    stream_reps = table.representatives()
    num_streams = len(stream_reps)
    if node_mb and max(node_mb) >= m:
        raise IndexError(f"a pass's microbatch is out of range [0, {m})")
    # Each pass's (stream, microbatch) cell, numbered stream-major, and
    # the pass node of each cell (-1: none).
    pass_cells = [slot * m + mb for slot, mb in zip(node_stream, node_mb)]
    cell_node = [-1] * (num_streams * m)
    for i, cell in enumerate(pass_cells):
        cell_node[cell] = i
    slot_nodes = [cell_node[s * m:(s + 1) * m] for s in range(num_streams)]

    coll_keys: list[tuple[CollectiveKind, int]] = []
    coll_comm: list[int] = []
    coll_override: list[float | None] = []
    comm_index: dict[str, int] = {}
    comm_kinds: list[CollectiveKind] = []
    # (source slot, destination slot, destination microbatch shift, P2P
    # pair), in the reference's edge insertion order.
    templates: list[tuple[int, int, int, tuple[int, int] | None]] = []

    def add_collective_chain(
        kind: CollectiveKind, duration: float | None = None
    ) -> int:
        if kind.value in comm_index:
            raise ValueError(f"duplicate node {('coll', kind.value, 0)}")
        comm_index[kind.value] = comm = len(comm_index)
        comm_kinds.append(kind)
        first = num_passes + len(coll_keys)
        slot = len(slot_nodes)
        slot_nodes.append(list(range(first, first + m)))
        coll_keys.extend((kind, mb) for mb in range(m))
        coll_comm.extend([comm] * m)
        coll_override.extend([duration] * m)
        templates.append((slot, slot, 1, None))
        return slot

    def streams(type_: PassType, places) -> list[int]:
        return [stream_of_key[(type_, device, chunk)] for device, chunk in places]

    # Transformer stage chains (P2P activation/gradient transfers).
    stages = layout.num_stages
    holders = [layout.holder_of_stage(s) for s in range(stages)]
    fwd = streams(PassType.F, holders)
    bwd = streams(PassType.B, holders)
    wgt = streams(PassType.W, holders) if schedule.has_weight_passes else None
    for s in range(1, stages):
        pair = (holders[s - 1][0], holders[s][0])
        templates.append((fwd[s - 1], fwd[s], 0, pair))
        templates.append((bwd[s], bwd[s - 1], 0, pair))
    for s in range(stages):
        templates.append((fwd[s], bwd[s], 0, None))
        if wgt is not None:
            templates.append((bwd[s], wgt[s], 0, None))

    per_device = [(d, 0) for d in range(layout.num_devices)]

    # Collectives for the partitioned vocabulary layers.
    if schedule.vocab_algorithm is not None:
        c0 = add_collective_chain(CollectiveKind.C0_BROADCAST)
        c1 = add_collective_chain(CollectiveKind.C1_STATS)
        if schedule.vocab_algorithm == 1:
            c2 = add_collective_chain(CollectiveKind.C2_GRAD_REDUCE)
        templates.append((fwd[-1], c0, 0, None))
        for s_pass, t_pass in zip(
            streams(PassType.S, per_device), streams(PassType.T, per_device)
        ):
            templates.append((c0, s_pass, 0, None))
            templates.append((s_pass, c1, 0, None))
            templates.append((c1, t_pass, 0, None))
        if schedule.vocab_algorithm == 1:
            for t_pass in streams(PassType.T, per_device):
                templates.append((t_pass, c2, 0, None))
            templates.append((c2, bwd[-1], 0, None))
        else:
            templates.append((c1, bwd[-1], 0, None))

    # Input-layer passes (Appendix C).
    if schedule.has_input_passes:
        iar = add_collective_chain(CollectiveKind.INPUT_ALLREDUCE)
        ibc = add_collective_chain(CollectiveKind.INPUT_BROADCAST)
        for if_pass, ib_pass in zip(
            streams(PassType.IF, per_device), streams(PassType.IB, per_device)
        ):
            templates.append((if_pass, iar, 0, None))
            templates.append((ibc, ib_pass, 0, None))
        templates.append((iar, fwd[0], 0, None))
        templates.append((bwd[0], ibc, 0, None))

    # Interlaced synchronous segments (barriers via 0-duration colls).
    if schedule.interlaced:
        c0 = add_collective_chain(CollectiveKind.C0_BROADCAST)
        c1 = add_collective_chain(CollectiveKind.C1_STATS, duration=0.0)
        c2 = add_collective_chain(CollectiveKind.C2_GRAD_REDUCE, duration=0.0)
        templates.append((fwd[-1], c0, 0, None))
        for vf, vb in zip(
            streams(PassType.VF, per_device), streams(PassType.VB, per_device)
        ):
            templates.append((c0, vf, 0, None))
            templates.append((vf, c1, 0, None))
            templates.append((c1, vb, 0, None))
            templates.append((vb, c2, 0, None))
        templates.append((c2, bwd[-1], 0, None))

    num_nodes = num_passes + len(coll_keys)

    # A hole in a stream an edge touches: keep the reference executor's
    # behaviour of rejecting malformed schedules instead of silently
    # wiring the edge to the wrong node.
    out: list[list[tuple[int, int, int]]] = [[] for _ in slot_nodes]
    pair_index: dict[tuple[int, int] | None, int] = {None: 0}
    for src, dst, shift, pair in templates:
        for slot in (src, dst):
            if slot < num_streams and -1 in slot_nodes[slot]:
                rep = stream_reps[slot]
                mb = slot_nodes[slot].index(-1)
                raise KeyError(
                    "edge references unknown node: "
                    f"{Pass(rep.type, mb, rep.device, rep.chunk)}"
                )
        pair_id = pair_index.setdefault(pair, len(pair_index))
        out[src].append((dst, shift, pair_id))

    # Successor rows, and in-degrees, per (slot, microbatch) cell in
    # slot-major order: a slot's templates read at each microbatch (a
    # shifted template has no edge from the last ones).  Each node then
    # reads its cell: pass nodes through their (stream, microbatch),
    # collective nodes already sit in slot-major order after the passes.
    cell_succ: list[tuple[int, ...]] = []
    cell_pairs: list[tuple[int, ...]] = []
    in_shifts: list[list[int]] = [[] for _ in slot_nodes]
    for slot, edges in enumerate(out):
        if not edges:
            cell_succ += [()] * m
            cell_pairs += [()] * m
            continue
        columns = [
            slot_nodes[dst][shift:] + [-1] * shift if shift else slot_nodes[dst]
            for dst, shift, _ in edges
        ]
        rows = list(zip(*columns))
        pairs = [tuple(pair_id for _, _, pair_id in edges)] * m
        for mb in range(m - max(shift for _, shift, _ in edges), m):
            keep = [mb + shift < m for _, shift, _ in edges]
            rows[mb] = tuple(node for node, kept in zip(rows[mb], keep) if kept)
            pairs[mb] = tuple(pair for pair, kept in zip(pairs[mb], keep) if kept)
        cell_succ += rows
        cell_pairs += pairs
        for dst, shift, _ in edges:
            in_shifts[dst].append(shift)
    # A template shifted by k reaches no destination below microbatch k.
    indeg_cells: list[int] = []
    for shifts in in_shifts:
        row = [len(shifts)] * m
        for shift in shifts:
            for mb in range(min(shift, m)):
                row[mb] -= 1
        indeg_cells += row
    first_coll = num_streams * m
    node_succ = [*gather(cell_succ, pass_cells), *cell_succ[first_coll:]]
    node_pairs = [*gather(cell_pairs, pass_cells), *cell_pairs[first_coll:]]
    base_indeg = [*gather(indeg_cells, pass_cells), *indeg_cells[first_coll:]]
    if num_passes + cell_node.count(-1) != first_coll:
        # A duplicate pass: the stream table kept one node per cell, and
        # the others are reached by no template and reach none, as in
        # the reference.
        for i, cell in enumerate(pass_cells):
            if cell_node[cell] != i:
                node_succ[i] = node_pairs[i] = ()
                base_indeg[i] = 0

    succ_off = [0, *accumulate(map(len, node_succ))]
    succ_node = list(chain.from_iterable(node_succ))

    stream_type = [type_ for type_, _, _ in table.streams]
    stream_chunk = [chunk for _, _, chunk in table.streams]
    stream_flexible = [type_ in FLEXIBLE_TYPES for type_ in stream_type]
    graph.num_passes = num_passes
    graph.num_nodes = num_nodes
    graph._table = table
    graph.node_device = node_device
    graph.node_type = gather(stream_type, node_stream)
    graph.node_chunk = gather(stream_chunk, node_stream)
    graph.node_mb = node_mb
    graph.node_flexible = gather(stream_flexible, node_stream)
    graph.coll_keys = coll_keys
    graph.coll_comm = coll_comm
    graph.coll_override = coll_override
    graph.num_comms = len(comm_index)
    graph.succ_off = succ_off
    graph.succ_node = succ_node
    graph.base_indeg = base_indeg
    graph.device_nodes = device_nodes
    graph._pricing = _PricingPlan(
        stream_reps,
        node_stream + list(range(num_streams, num_streams + len(coll_keys))),
        comm_kinds,
        list(pair_index)[1:],
        list(chain.from_iterable(node_pairs)),
    )
    graph._bind(runtime)
    return graph


class _LevelPlan:
    """The batched kernel's pull-form sweep plan for one set of chains.

    The topological order is grouped into *depth levels*: every edge,
    the implicit device-chain edges included, runs from a lower level to
    a strictly higher one, so a level's nodes depend only on earlier
    levels and all K bindings of a whole level are swept together.
    Nodes are renumbered level-contiguously, which makes each level a
    row slice of the kernel's ``(nodes, K)`` arrays.  A node's ready
    time is *pulled*: the max over its predecessors of ``end + lag``.
    Each level pads its predecessor lists to its largest fan-in, the
    padding pointing at an all-zero row (row ``num_nodes`` of the
    kernel's ``end``, the last row of its lag block), so a level costs
    one gather, an optional lag add, one ``max`` and one ``add``.

    * ``perm`` / ``position`` — the level-major node order and its
      inverse (``position[i]`` is node ``i``'s row);
    * ``levels`` — per level ``(start, stop, src, p2p_idx, edge_idx)``:
      the row slice; ``src``, a ``(nodes, fan-in)`` array of predecessor
      rows (``None`` for the sources at level 0); ``p2p_idx``, each
      entry's row in the compact block of P2P lags (``None`` when no
      entry crosses a P2P edge); ``edge_idx``, each entry's row over
      all edges, read only when a caller's lags weigh a non-P2P edge
      (``None`` when the level's entries are all chain edges or
      padding).  Chain edges and padding index the block's zero row;
    * ``p2p_edges`` / ``zero_edges`` — the edges a priced binding can
      give a lag (those with a P2P pair) and the rest;
    * ``device_rows`` — each device's pass rows in stream order, for
      the per-device busy sums.

    Max is exact and order-free, and ``0.0`` starts every reduction as
    ``ready = 0.0`` starts the scalar sweep, so the batched sweep is bit
    for bit the scalar :meth:`CompiledGraph._sweep`, negative lags
    included.
    """

    __slots__ = ("perm", "position", "levels", "p2p_edges", "zero_edges", "device_rows")

    def __init__(self, graph: CompiledGraph) -> None:
        topo, chain_next = graph._topology()
        num_nodes = graph.num_nodes
        off, nxt = graph.succ_off, graph.succ_node
        num_edges = len(nxt)
        # Predecessors as (node, edge); edge -1 is a device-chain edge.
        preds: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
        level = [0] * num_nodes
        for i in topo:
            depth = level[i] + 1
            for k in range(off[i], off[i + 1]):
                j = nxt[k]
                preds[j].append((i, k))
                if depth > level[j]:
                    level[j] = depth
            j = chain_next[i]
            if j >= 0:
                preds[j].append((i, -1))
                if depth > level[j]:
                    level[j] = depth
        buckets: dict[int, list[int]] = {}
        for i in topo:
            buckets.setdefault(level[i], []).append(i)
        perm = list(chain.from_iterable(buckets[d] for d in sorted(buckets)))
        position = [0] * num_nodes
        for row, node in enumerate(perm):
            position[node] = row
        edge_pair = graph._pricing.edge_value_idx
        p2p_edges = [k for k in range(num_edges) if edge_pair[k]]
        zero_edges = [k for k in range(num_edges) if not edge_pair[k]]
        p2p_row = [-1] * num_edges
        for row, k in enumerate(p2p_edges):
            p2p_row[k] = row
        p2p_zero = len(p2p_edges)
        # Flat index lists; each level's arrays are reshaped slices.
        src: list[int] = []
        p2p_idx: list[int] = []
        edge_idx: list[int] = []
        shapes = []
        for depth in sorted(buckets):
            nodes = buckets[depth]
            fan_in = max(len(preds[i]) for i in nodes)
            has_p2p = has_edge = False
            for i in nodes:
                pad = fan_in - len(preds[i])
                for node, k in preds[i]:
                    src.append(position[node])
                    if k < 0:
                        p2p_idx.append(p2p_zero)
                        edge_idx.append(num_edges)
                    else:
                        has_edge = True
                        row = p2p_row[k]
                        has_p2p |= row >= 0
                        p2p_idx.append(row if row >= 0 else p2p_zero)
                        edge_idx.append(k)
                src += [num_nodes] * pad
                p2p_idx += [p2p_zero] * pad
                edge_idx += [num_edges] * pad
            shapes.append((len(nodes), fan_in, has_p2p, has_edge))
        arrays = [_np.asarray(a, dtype=_np.intp) for a in (src, p2p_idx, edge_idx)]
        levels = []
        first = cursor = 0
        for count, fan_in, has_p2p, has_edge in shapes:
            size = count * fan_in
            src_a, p2p_a, edge_a = (
                a[cursor:cursor + size].reshape(count, fan_in) for a in arrays
            )
            levels.append((
                first,
                first + count,
                src_a if fan_in else None,
                p2p_a if has_p2p else None,
                edge_a if has_edge else None,
            ))
            first += count
            cursor += size
        self.perm = _np.asarray(perm, dtype=_np.intp)
        self.position = _np.asarray(position, dtype=_np.intp)
        self.levels = levels
        self.p2p_edges = _np.asarray(p2p_edges, dtype=_np.intp)
        self.zero_edges = _np.asarray(zero_edges, dtype=_np.intp)
        self.device_rows = [
            _np.asarray([position[i] for i in nodes], dtype=_np.intp)
            for nodes in graph.device_nodes
        ]


class _PricingPlan:
    """Stream-level pricing plan: durations are per *stream*, not per
    node, so K bindings price ``O(streams)`` Python calls and a
    vectorized gather instead of ``O(nodes)`` calls each.

    * ``stream_reps`` — one representative :class:`Pass` per distinct
      ``(type, device, chunk)`` stream;
    * ``node_value_idx`` — for every node, the index into the
      per-binding value list ``stream values + collective values``;
    * ``comm_kinds`` — per communicator, the kind its duration is
      priced from (the kind of the chain that registered it);
    * ``pair_list`` / ``edge_value_idx`` — distinct P2P pairs and, per
      edge, the index into ``[0.0] + pair durations`` (0: no transfer);
    * :meth:`arrays` — the two index lists as NumPy arrays (``None``
      without NumPy), built on first use by the batched kernels.
    """

    __slots__ = (
        "stream_reps", "node_value_idx", "comm_kinds", "pair_list",
        "edge_value_idx", "_arrays",
    )

    def __init__(
        self, stream_reps, node_value_idx, comm_kinds, pair_list, edge_value_idx
    ) -> None:
        self.stream_reps = stream_reps
        self.node_value_idx = node_value_idx
        self.comm_kinds = comm_kinds
        self.pair_list = pair_list
        self.edge_value_idx = edge_value_idx
        self._arrays: tuple | None = None

    def arrays(self) -> tuple:
        """``(node_idx, edge_idx)`` as NumPy ``intp`` arrays."""
        if self._arrays is None:
            if _np is None:
                self._arrays = (None, None)
            else:
                self._arrays = (
                    _np.asarray(self.node_value_idx, dtype=_np.intp),
                    _np.asarray(self.edge_value_idx, dtype=_np.intp),
                )
        return self._arrays
