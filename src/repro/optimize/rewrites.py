"""The token split, the one rewrite :func:`~repro.optimize.optimizer.optimize` applies.

TeraPipe-style sequence slicing: split every microbatch in two along
the token dimension, doubling ``m`` at half the per-pass compute.
Total compute is conserved (causal attention FLOPs redistribute across
slices but sum to the original); per-pass host overhead and
per-collective latency are *not* halved, which is the honest cost that
keeps splitting from being free.

A split is a :class:`Schedule` → :class:`Schedule` transform over the
integer order codes: the split schedule records its factor (relative to
the original microbatching) as ``metadata["token_split"]``, and carries
no other metadata.  Every split schedule is verified by replaying it
against the compiled-graph oracle (``Schedule.validate`` + compile +
execute + memory report), so a split that breaks a dependence is
caught there, never silently mis-scored.

Reordering rewrites (adjacent swaps, collective hoists) beat the best
named family at token-split factor 1, 2 or 4 by at most 0.9% and were
removed, as was BPipe-style activation handoff, which only pays where
the named schedule does not fit the memory budget — a configuration
:func:`~repro.planner.planner.plan` rejects before any search
(``docs/optimizer.md``, "What the search adds").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.scheduling.orders import MB_SHIFT, STREAM_MASK
from repro.scheduling.schedule import Schedule

#: ``Schedule.metadata`` key of a split schedule's slice factor.
TOKEN_SPLIT_KEY = "token_split"
#: Maximum token-split factor (sequence sliced at most into quarters).
MAX_SPLIT = 4
#: Maximum microbatch count a token split may produce.
MAX_SPLIT_MICROBATCHES = 1024


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


def split_factor(schedule: Schedule) -> int:
    """``schedule``'s token-split factor (1 = not split)."""
    return int(schedule.metadata.get(TOKEN_SPLIT_KEY, 1))


def _split_codes(codes) -> list[int]:
    """Each ``(stream, mb)`` code followed by its two slices' codes,
    ``(stream, 2mb)`` then ``(stream, 2mb + 1)``."""
    out = []
    for code in codes:
        first = code + (code & ~STREAM_MASK)  # the microbatch doubled
        out += (first, first + (1 << MB_SHIFT))
    return out


class TokenSplit:
    """Split every microbatch's passes in two along the token dimension.

    Both slices of a pass take its place, in ascending order: every
    stream must stay microbatch-monotone after renumbering (TeraPipe's
    reverse backward-slice order is a dependence the simulator does not
    model — ascending order is the conservative legal choice).
    """

    name = "token-split"

    def sites(self, schedule: Schedule, seq_length: int) -> list:
        """``[()]`` when ``schedule`` can be split once more along a
        ``seq_length``-token sequence, else ``[]``."""
        split = split_factor(schedule)
        if split * 2 > MAX_SPLIT:
            return []
        if seq_length % (2 * split) != 0:
            return []
        if schedule.num_microbatches * 2 > MAX_SPLIT_MICROBATCHES:
            return []
        return [()]

    def apply(self, schedule: Schedule) -> tuple[Schedule, RewriteStep]:
        """The split schedule (``schedule`` is left as it is) plus the
        trace entry."""
        table = schedule.order_table()
        split = split_factor(schedule) * 2
        out = dataclasses.replace(
            schedule,
            num_microbatches=schedule.num_microbatches * 2,
            device_orders=table.with_codes([_split_codes(codes) for codes in table.codes]),
            metadata={TOKEN_SPLIT_KEY: split},
        )
        return out, RewriteStep(
            rule=self.name,
            device=-1,
            description=(
                f"split microbatches along tokens: m "
                f"{schedule.num_microbatches} -> {out.num_microbatches} "
                f"(slice factor {split})"
            ),
        )


def default_rewrites() -> tuple[TokenSplit, ...]:
    """The rewrite catalog: the token split alone."""
    return (TokenSplit(),)
