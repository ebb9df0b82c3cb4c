"""Building-block schedule construction (Qi et al. 2024, paper §5.2).

A *building block* assigns every pass stream of every device an
absolute time offset for microbatch 0; the pass for microbatch ``j``
nominally runs at ``offset + j·interval``.  Uniformly repeating the
block and sorting each device's passes by nominal time yields the full
execution order — warmup and cooldown fall out automatically, because
early microbatches simply have no B/S/T work scheduled before them.

Two analyses come straight off the block, mirroring the paper:

* ``interval`` — the workload of one microbatch on one device;
* ``lifespan`` — time between a chunk's F start and the end of the pass
  that releases its activations (B, or W when backward is split).

Peak activation memory in microbatches is ``ceil(lifespan/interval)``
summed over chunks (Figure 9/15/16 reasoning).  The paper's claims —
1F1B holds ``p`` microbatches, Vocabulary Parallelism adds exactly one
microbatch per communication barrier, the interlaced pipeline's
lifespan stretches from ``3p`` to ``4.5p`` — are all statements about
these two numbers.

The nominal offsets only fix the *order*; the discrete-event executor
(:mod:`repro.sim`) assigns real times from pass durations and
dependencies, stalling where an order is optimistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.scheduling.orders import MB_SHIFT, OrderTable, gather
from repro.scheduling.passes import PassType


@dataclass(frozen=True)
class PassSlot:
    """One pass stream on one device inside the building block.

    Attributes
    ----------
    type / chunk:
        Which stream this slot schedules.
    offset:
        Nominal time of microbatch 0's pass (block units; may be
        negative, e.g. input-layer forwards that run ahead of F).
    duration:
        Nominal duration in block units (used for the lifespan/interval
        analysis, not by the executor).
    """

    type: PassType
    chunk: int
    offset: float
    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"duration must be non-negative, got {self.duration}")


@dataclass(frozen=True)
class BuildingBlock:
    """Per-device pass slots plus the repeating interval.

    ``slots[d]`` lists device ``d``'s streams.  ``interval`` is the
    nominal per-microbatch workload of one device; a balanced block has
    ``sum(slot durations) == interval`` on every device.
    """

    num_devices: int
    interval: float
    slots: tuple[tuple[PassSlot, ...], ...]

    def __post_init__(self) -> None:
        if self.num_devices <= 0:
            raise ValueError(f"num_devices must be positive, got {self.num_devices}")
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        if len(self.slots) != self.num_devices:
            raise ValueError(
                f"{len(self.slots)} slot lists for {self.num_devices} devices"
            )

    def device_slot(self, device: int, type_: PassType, chunk: int = 0) -> PassSlot:
        """The unique slot of (type, chunk) on ``device``."""
        matches = [
            s for s in self.slots[device] if s.type is type_ and s.chunk == chunk
        ]
        if len(matches) != 1:
            raise ValueError(
                f"device {device} has {len(matches)} slots of {type_}.{chunk}"
            )
        return matches[0]

    # ------------------------------------------------------------------
    # Paper-style analysis.
    # ------------------------------------------------------------------
    def lifespan(self, device: int, chunk: int = 0) -> float:
        """F-start to activation-release on (device, chunk).

        Activations release at the end of W when the device schedules W
        passes for the chunk, otherwise at the end of B.
        """
        f = self.device_slot(device, PassType.F, chunk)
        try:
            release = self.device_slot(device, PassType.W, chunk)
        except ValueError:
            release = self.device_slot(device, PassType.B, chunk)
        return release.offset + release.duration - f.offset

    def activation_microbatches(self, device: int) -> float:
        """Peak activations in microbatch units (fractional, per chunk sum).

        Each chunk's contribution is its lifespan over the interval,
        weighted by the fraction of the device's layers in the chunk —
        so the unit is "one microbatch's activations for this device's
        full layer complement", matching 1F1B accounting.
        """
        chunks = sorted({s.chunk for s in self.slots[device] if s.type is PassType.F})
        if not chunks:
            raise ValueError(f"device {device} has no F slots")
        weight = 1.0 / len(chunks)
        return sum(
            weight * self.lifespan(device, chunk) / self.interval for chunk in chunks
        )

    def activation_microbatches_ceil(self, device: int) -> int:
        """Integer peak per the paper's ceil(lifespan/interval) rule."""
        chunks = sorted({s.chunk for s in self.slots[device] if s.type is PassType.F})
        weight = 1.0 / len(chunks)
        total = sum(
            weight * math.ceil(self.lifespan(device, chunk) / self.interval - 1e-9)
            for chunk in chunks
        )
        return math.ceil(total - 1e-9)

    # ------------------------------------------------------------------
    # Order generation.
    # ------------------------------------------------------------------
    def unroll(self, num_microbatches: int) -> OrderTable:
        """Repeat the block for every microbatch; per-device sorted orders.

        Sorting key is (nominal time, slot position, microbatch): the
        slot position breaks exact ties deterministically and keeps
        streams with equal offsets in declaration order.  The result is
        an :class:`~repro.scheduling.orders.OrderTable` in canonical
        numbering; no :class:`~repro.scheduling.passes.Pass` is built
        until one is read.
        """
        if num_microbatches <= 0:
            raise ValueError(
                f"num_microbatches must be positive, got {num_microbatches}"
            )
        # Each microbatch's nominal time step and code bits, shared by
        # every slot.
        steps = [mb * self.interval for mb in range(num_microbatches)]
        shifted = [mb << MB_SHIFT for mb in range(num_microbatches)]
        index: dict[tuple[PassType, int, int], int] = {}
        streams: list[tuple[PassType, int, int]] = []
        codes: list[tuple[int, ...]] = []
        for device in range(self.num_devices):
            slots = self.slots[device]
            # A slot first appears with microbatch 0 at its offset, so
            # (offset, slot position) numbers the streams in order of
            # first appearance; slots sharing a stream share its id.
            ids = [0] * len(slots)
            for slot_index in sorted(
                range(len(slots)), key=lambda i: (slots[i].offset, i)
            ):
                slot = slots[slot_index]
                key = (slot.type, device, slot.chunk)
                stream = index.get(key)
                if stream is None:
                    stream = index[key] = len(streams)
                    streams.append(key)
                ids[slot_index] = stream
            # Listed in (slot position, microbatch) order, a stable sort on
            # nominal time alone breaks ties exactly as the full key does.
            times = [slot.offset + step for slot in slots for step in steps]
            slot_codes = [bits | stream for stream in ids for bits in shifted]
            order = sorted(range(len(times)), key=times.__getitem__)
            codes.append(gather(slot_codes, order))
        return OrderTable(streams, codes, canonical=True)
