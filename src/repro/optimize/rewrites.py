"""Semantics-preserving local rewrites over :class:`ScheduleIR`.

Each rewrite is a :class:`Rewrite` with two halves over the IR's node
ids (the rewrites read the compiled graph's ``node_type``/``node_mb``/
``node_chunk`` arrays, and build a :class:`~repro.scheduling.passes.Pass`
only to word a trace entry):

* an **applicability predicate** — :meth:`Rewrite.sites` enumerates the
  program points where the rewrite can fire, consulting the IR's
  dependence index and the current candidate's measured execution
  (bubbles, memory peaks) from the :class:`RewriteContext`;
* an **application** — :meth:`Rewrite.apply` returns a rewritten copy
  of the program plus a :class:`RewriteStep` trace entry.

Applicability is *necessary*, not sufficient: every candidate the
search keeps is additionally verified by replaying its emitted schedule
against the compiled-graph oracle (``Schedule.validate`` + compile +
execute + memory report), so a site that slipped through a predicate is
caught there, never silently mis-scored.

The catalog:

``swap-adjacent``
    Exchange two adjacent passes of different streams on one device
    when no dependence path orders them.  The micro-move the greedy
    refinement pass cannot make: it also applies to F/B passes, which
    refinement deliberately pins.
``hoist-collective``
    Relocate a vocabulary S/T pass within its legal window — between
    its same-stream neighbors, past only dependence-free ops — to land
    it in a pipeline bubble elsewhere in the device's order.
``activation-handoff``
    BPipe-style memory rebalancing: park one microbatch's transformer
    activation on a pipeline neighbor between its F and B.  Changes no
    op order — it trades the sender's peak for the receiver's — and is
    legal only when both devices have enough measured bubble time to
    hide the two P2P transfers.
``token-split``
    TeraPipe-style sequence slicing: split every microbatch in two
    along the token dimension, doubling ``m`` at half the per-pass
    compute.  Total compute is conserved (causal attention FLOPs
    redistribute across slices but sum to the original); per-pass host
    overhead and per-collective latency are *not* halved, which is the
    honest cost that keeps splitting from being free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.optimize.ir import ScheduleIR
from repro.scheduling.orders import MB_SHIFT, STREAM_MASK, gather
from repro.scheduling.passes import PassType

#: Maximum token-split factor (sequence sliced at most into quarters).
MAX_SPLIT = 4
#: Maximum microbatch count a token split may produce.
MAX_SPLIT_MICROBATCHES = 1024
#: How far (in order slots) a hoist may move an S/T pass per step.
HOIST_WINDOW = 8


@dataclass(frozen=True)
class RewriteStep:
    """One applied rewrite, as recorded in an optimized plan's trace."""

    rule: str
    device: int
    description: str

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "device": self.device,
            "description": self.description,
        }


@dataclass(frozen=True)
class RewriteContext:
    """What a rewrite's applicability predicate may look at.

    ``iteration_time``/``device_busy``/``per_device_peak`` describe the
    *current* candidate as measured by the oracle replay; ``budget_bytes``
    is the planner's per-device memory budget (``None`` = unconstrained);
    ``p2p_seconds(src, dst)`` prices one microbatch's activation
    transfer under the active runtime binding.
    """

    seq_length: int
    budget_bytes: float | None
    iteration_time: float
    device_busy: tuple[float, ...]
    per_device_peak: tuple[float, ...]
    activation_bytes: tuple[float, ...]
    p2p_seconds: object  # Callable[[int, int], float]

    def idle(self, device: int) -> float:
        return self.iteration_time - self.device_busy[device]


class Rewrite:
    """Base class: a named local rewrite with predicate and application."""

    name: str = ""

    def sites(self, ir: ScheduleIR, ctx: RewriteContext) -> list:
        """Deterministically-ordered applicable sites (possibly empty)."""
        raise NotImplementedError

    def apply(self, ir: ScheduleIR, site) -> tuple[ScheduleIR, RewriteStep]:
        """A rewritten copy of ``ir`` plus the trace entry."""
        raise NotImplementedError


def _streams_differ(graph, a: int, b: int) -> bool:
    """Whether two pass nodes of one device belong to different streams."""
    return (
        graph.node_type[a] is not graph.node_type[b]
        or graph.node_chunk[a] != graph.node_chunk[b]
    )


class SwapAdjacent(Rewrite):
    """Swap two adjacent, dependence-free passes on one device."""

    name = "swap-adjacent"

    def sites(self, ir: ScheduleIR, ctx: RewriteContext) -> list:
        deps = ir.deps()
        graph = ir.graph
        sites = []
        for device, order in enumerate(ir.device_nodes):
            for i in range(len(order) - 1):
                a, b = order[i], order[i + 1]
                # Same-stream swaps break per-stream microbatch
                # monotonicity; dependence paths a→b pin the order.
                if _streams_differ(graph, a, b) and not deps.path(a, b):
                    sites.append((device, i))
        return sites

    def apply(self, ir: ScheduleIR, site) -> tuple[ScheduleIR, RewriteStep]:
        device, i = site
        out = ir.copy()
        order = out.device_nodes[device] = list(ir.device_nodes[device])
        a, b = order[i], order[i + 1]
        order[i], order[i + 1] = b, a
        return out, RewriteStep(
            rule=self.name,
            device=device,
            description=f"swap {ir.op(a)} <-> {ir.op(b)}",
        )


class HoistCollective(Rewrite):
    """Move a vocabulary S/T pass into a bubble elsewhere in its window."""

    name = "hoist-collective"

    def sites(self, ir: ScheduleIR, ctx: RewriteContext) -> list:
        deps = ir.deps()
        graph = ir.graph
        node_type = graph.node_type
        sites = []
        for device, order in enumerate(ir.device_nodes):
            for i, op in enumerate(order):
                if node_type[op] is not PassType.S and node_type[op] is not PassType.T:
                    continue
                # Earlier placements: jump ops one at a time while no
                # jumped op feeds this one and streams stay monotone.
                for j in range(i - 1, max(i - 1 - HOIST_WINDOW, -1), -1):
                    jumped = order[j]
                    if not _streams_differ(graph, jumped, op) or deps.path(jumped, op):
                        break
                    sites.append((device, i, j))
                # Later placements: symmetric, no jumped op may depend
                # on this one.
                for j in range(i + 1, min(i + 1 + HOIST_WINDOW, len(order))):
                    jumped = order[j]
                    if not _streams_differ(graph, jumped, op) or deps.path(op, jumped):
                        break
                    sites.append((device, i, j))
        return sites

    def apply(self, ir: ScheduleIR, site) -> tuple[ScheduleIR, RewriteStep]:
        device, i, j = site
        out = ir.copy()
        order = out.device_nodes[device] = list(ir.device_nodes[device])
        op = order.pop(i)
        order.insert(j, op)
        direction = "earlier" if j < i else "later"
        return out, RewriteStep(
            rule=self.name,
            device=device,
            description=f"hoist {ir.op(op)} {direction} by {abs(i - j)} slots",
        )


class ActivationHandoff(Rewrite):
    """BPipe-style activation handoff between memory-imbalanced stages.

    Fires only under a binding memory budget: when a device's measured
    peak exceeds the budget and a pipeline neighbor has headroom for one
    microbatch's transformer activation, that activation is parked on
    the neighbor between F and B.  The op streams are untouched; the
    legality check demands both devices' measured bubble time cover the
    two P2P transfers (offload after F, fetch before B), which is what
    lets BPipe claim the transfers are free.
    """

    name = "activation-handoff"

    def sites(self, ir: ScheduleIR, ctx: RewriteContext) -> list:
        if ctx.budget_bytes is None or ir.layout.num_chunks != 1:
            return []
        sites = []
        for src in range(ir.num_devices):
            # ctx peaks already include previously applied handoffs.
            act = ctx.activation_bytes[src]
            if act <= 0 or ctx.per_device_peak[src] <= ctx.budget_bytes:
                continue
            for dst in (src - 1, src + 1):
                if not 0 <= dst < ir.num_devices:
                    continue
                if ctx.per_device_peak[dst] + act > ctx.budget_bytes:
                    continue
                transfer = 2.0 * ctx.p2p_seconds(src, dst)
                if ctx.idle(src) < transfer or ctx.idle(dst) < transfer:
                    continue
                sites.append((src, dst, 1))
        return sites

    def apply(self, ir: ScheduleIR, site) -> tuple[ScheduleIR, RewriteStep]:
        src, dst, count = site
        out = ir.copy()
        out.handoffs = out.handoffs + ((src, dst, count),)
        return out, RewriteStep(
            rule=self.name,
            device=src,
            description=(
                f"hand off {count} microbatch activation(s) "
                f"from device {src} to device {dst}"
            ),
        )


def _split_codes(codes) -> list[int]:
    """Each ``(stream, mb)`` code followed by its two slices' codes,
    ``(stream, 2mb)`` then ``(stream, 2mb + 1)``."""
    out = []
    for code in codes:
        first = code + (code & ~STREAM_MASK)  # the microbatch doubled
        out += (first, first + (1 << MB_SHIFT))
    return out


class TokenSplit(Rewrite):
    """Split every microbatch's passes in two along the token dimension.

    Both slices of a pass take its place, in ascending order: every
    stream must stay microbatch-monotone after renumbering (TeraPipe's
    reverse backward-slice order is a dependence the simulator does not
    model — ascending order is the conservative legal choice).
    """

    name = "token-split"

    def sites(self, ir: ScheduleIR, ctx: RewriteContext) -> list:
        if ir.split * 2 > MAX_SPLIT:
            return []
        if ctx.seq_length % (2 * ir.split) != 0:
            return []
        if ir.num_microbatches * 2 > MAX_SPLIT_MICROBATCHES:
            return []
        return [()]

    def apply(self, ir: ScheduleIR, site) -> tuple[ScheduleIR, RewriteStep]:
        out = ir.copy()
        flat = ir.table.flat_codes()
        out.renumber(ir.table.with_codes(
            [_split_codes(gather(flat, nodes)) for nodes in ir.device_nodes]
        ))
        out.num_microbatches = ir.num_microbatches * 2
        out.split = ir.split * 2
        return out, RewriteStep(
            rule=self.name,
            device=-1,
            description=(
                f"split microbatches along tokens: m "
                f"{ir.num_microbatches} -> {out.num_microbatches} "
                f"(slice factor {out.split})"
            ),
        )


def default_rewrites() -> tuple[Rewrite, ...]:
    """The full rewrite catalog, in deterministic order."""
    return (SwapAdjacent(), HoistCollective(), ActivationHandoff(), TokenSplit())
