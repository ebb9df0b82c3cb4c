"""Pass and collective vocabulary for pipeline schedules.

A *pass* is the unit the paper schedules: a contiguous block of
computation for one microbatch on one device.  Transformer stages
contribute F (forward), B (backward) and optionally W (weight-gradient,
when the schedule splits backward zero-bubble style, as V-Half does).
Vocabulary Parallelism adds S and T (output layer, §4), IF and IB
(input layer, Appendix C).  The interlaced baseline adds VF and VB —
tensor-parallel vocabulary segments executed synchronously on *all*
devices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PassType(enum.Enum):
    """Kinds of compute passes a device's stream can execute."""

    F = "F"    #: transformer-stage forward
    B = "B"    #: transformer-stage backward (activation + weight grads unless W is split out)
    W = "W"    #: weight-gradient half of backward (zero-bubble split)
    S = "S"    #: output-layer forward-side pass (partitioned vocabulary)
    T = "T"    #: output-layer weight-gradient pass (partitioned vocabulary)
    IF = "IF"  #: input-layer forward (partitioned vocabulary)
    IB = "IB"  #: input-layer backward (partitioned vocabulary)
    VF = "VF"  #: interlaced synchronous vocabulary forward segment
    VB = "VB"  #: interlaced synchronous vocabulary backward segment

    # Members are singletons, so identity hashing is exact and runs at C
    # speed; Enum's own __hash__ hashes the name in Python on every
    # dict/set probe of the executor's stream and pass tables.  The hash
    # differs between processes, as a str hash already did.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Pass types that run on every device for the same microbatch (the
#: partitioned vocabulary work), as opposed to stage-local F/B/W.
REPLICATED_TYPES = frozenset(
    {PassType.S, PassType.T, PassType.IF, PassType.IB, PassType.VF, PassType.VB}
)

#: Pass types executed as a single synchronized segment across devices.
SYNCHRONOUS_TYPES = frozenset({PassType.VF, PassType.VB})


class _HashSlot:
    """Holds :class:`Pass`'s cached hash in a slot that is not a field, so
    it never reaches ``dataclasses.fields``, equality or digests."""

    __slots__ = ("_hash",)


@dataclass(frozen=True, order=True, init=False, slots=True)
class Pass(_HashSlot):
    """One schedulable unit: ``type`` for ``microbatch`` on ``device``.

    ``chunk`` selects the virtual-pipeline chunk for F/B/W (V-Half has
    two chunks per device; 1F1B has one).  Replicated vocabulary passes
    always use chunk 0.
    """

    type: PassType
    microbatch: int
    device: int
    chunk: int = 0

    def __init__(
        self, type: PassType, microbatch: int, device: int, chunk: int = 0
    ) -> None:
        """Reject negative indices and non-zero chunks on replicated passes."""
        if microbatch < 0:
            raise ValueError(f"microbatch must be non-negative, got {microbatch}")
        if device < 0:
            raise ValueError(f"device must be non-negative, got {device}")
        if chunk < 0:
            raise ValueError(f"chunk must be non-negative, got {chunk}")
        if chunk != 0 and type in REPLICATED_TYPES:
            raise ValueError(f"{type} passes must use chunk 0, got {chunk}")
        # Schedule generation builds every pass of every candidate, so the
        # frozen fields are written through their slot descriptors: the
        # generated __init__'s object.__setattr__ per field costs more
        # than all of the checks above.  Passes key every executor-side
        # dict (pass_times, node maps), so the hash is computed once here.
        _set_type(self, type)
        _set_microbatch(self, microbatch)
        _set_device(self, device)
        _set_chunk(self, chunk)
        _set_hash(self, hash((type, microbatch, device, chunk)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed in the
        # loading process: the hash of the pass type is per process, and a
        # pickled _hash would make an unpickled pass miss equal dict keys.
        return (Pass, (self.type, self.microbatch, self.device, self.chunk))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        chunk = f".{self.chunk}" if self.chunk else ""
        return f"{self.type.value}{chunk}[{self.microbatch}]@{self.device}"


_set_type = Pass.type.__set__
_set_microbatch = Pass.microbatch.__set__
_set_device = Pass.device.__set__
_set_chunk = Pass.chunk.__set__
_set_hash = _HashSlot._hash.__set__


class CollectiveKind(enum.Enum):
    """Cross-device communication operations the executor materializes.

    Each kind gets its own logical communicator (separate CUDA stream /
    NCCL communicator in the paper's implementation), so operations of
    different kinds never head-of-line block each other; within a kind,
    microbatch order is preserved on every rank, as NCCL requires.
    """

    C0_BROADCAST = "C0"       #: broadcast X from the last stage (output layer input)
    C1_STATS = "C1"           #: softmax-statistics all-reduce(s) (+ ∇X reduce in Alg2)
    C2_GRAD_REDUCE = "C2"     #: ∇X reduce (naïve / Algorithm 1 only)
    INPUT_ALLREDUCE = "IAR"   #: assemble the input-layer output on stage 0
    INPUT_BROADCAST = "IBC"   #: broadcast the input-layer output gradient

    __hash__ = object.__hash__  # identity, at C speed (see PassType)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
