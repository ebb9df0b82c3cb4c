"""Vocabulary partitioning across pipeline devices.

The paper partitions the embedding matrices along the *vocabulary*
dimension, one contiguous shard per pipeline device, and pads the
vocabulary to a multiple of ``2p`` for memory alignment (§6.1 —
padding 256008 → 256032 on 24 devices was worth ~8 % throughput).
Padded slots behave exactly as in Megatron-LM: they are real weight
rows that participate in the softmax denominator and receive gradients,
but no label or input token ever points at them.  Numerical-equality
tests therefore compare against a reference computed on the *padded*
weight — the padded vocabulary simply is the model's vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._lazy import optional_numpy

#: The scalar sharding math (shard_size, bounds) is NumPy-free; only the
#: weight/label array helpers need NumPy, imported on their first call.
np = optional_numpy(globals(), "np")


def _require_numpy():
    if np is None:
        raise ImportError(
            "NumPy is required for VocabPartition's array helpers; "
            "install the 'numpy' extra (pip install repro-vocab-pp[numpy])"
        )


@dataclass(frozen=True)
class VocabPartition:
    """Contiguous sharding of a (padded) vocabulary over ``num_shards`` ranks.

    Attributes
    ----------
    vocab_size:
        The original, unpadded vocabulary size ``V``.
    num_shards:
        Number of pipeline devices ``p``.
    padding_multiple:
        The padded size is the smallest multiple of
        ``padding_multiple * num_shards`` that is ≥ ``vocab_size``.
        The paper uses 2 (pad to a multiple of ``2p``).
    """

    vocab_size: int
    num_shards: int
    padding_multiple: int = 2

    def __post_init__(self) -> None:
        if self.vocab_size <= 0:
            raise ValueError(f"vocab_size must be positive, got {self.vocab_size}")
        if self.num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {self.num_shards}")
        if self.padding_multiple <= 0:
            raise ValueError(
                f"padding_multiple must be positive, got {self.padding_multiple}"
            )

    @property
    def padded_size(self) -> int:
        """Vocabulary size after padding to a multiple of ``2p``."""
        unit = self.padding_multiple * self.num_shards
        return -(-self.vocab_size // unit) * unit

    @property
    def shard_size(self) -> int:
        """Rows of the embedding matrix held by each rank (``V_pad / p``)."""
        return self.padded_size // self.num_shards

    @property
    def padding(self) -> int:
        """Number of padding rows appended to the vocabulary."""
        return self.padded_size - self.vocab_size

    def shard_range(self, rank: int) -> tuple[int, int]:
        """Half-open ``[start, end)`` row range owned by ``rank``."""
        self._check_rank(rank)
        start = rank * self.shard_size
        return start, start + self.shard_size

    def shard_of_token(self, token_id: int) -> int:
        """Rank owning ``token_id``'s embedding row."""
        if not 0 <= token_id < self.padded_size:
            raise ValueError(
                f"token_id {token_id} out of padded vocabulary [0, {self.padded_size})"
            )
        return token_id // self.shard_size

    def pad_weight(self, weight: np.ndarray) -> np.ndarray:
        """Zero-pad a ``[V, h]`` weight matrix to ``[V_pad, h]``."""
        _require_numpy()
        if weight.shape[0] != self.vocab_size:
            raise ValueError(
                f"weight has {weight.shape[0]} rows, expected vocab_size={self.vocab_size}"
            )
        if self.padding == 0:
            return weight.copy()
        pad = np.zeros((self.padding,) + weight.shape[1:], dtype=weight.dtype)
        return np.concatenate([weight, pad], axis=0)

    def split_weight(self, weight: np.ndarray) -> list[np.ndarray]:
        """Pad then split a ``[V, h]`` weight into ``p`` shards of ``[V_pad/p, h]``."""
        padded = self.pad_weight(weight)
        return [shard.copy() for shard in np.split(padded, self.num_shards, axis=0)]

    def merge_shards(self, shards: list[np.ndarray]) -> np.ndarray:
        """Concatenate shards and strip padding back to ``[V, h]``."""
        _require_numpy()
        if len(shards) != self.num_shards:
            raise ValueError(
                f"expected {self.num_shards} shards, got {len(shards)}"
            )
        full = np.concatenate(shards, axis=0)
        if full.shape[0] != self.padded_size:
            raise ValueError(
                f"merged shards have {full.shape[0]} rows, expected {self.padded_size}"
            )
        return full[: self.vocab_size].copy()

    def local_label_mask(self, labels: np.ndarray, rank: int) -> np.ndarray:
        """Boolean mask of tokens whose label row lives on ``rank``."""
        _require_numpy()
        start, end = self.shard_range(rank)
        return (labels >= start) & (labels < end)

    def local_labels(self, labels: np.ndarray, rank: int) -> np.ndarray:
        """Labels shifted into the rank-local row index space.

        Out-of-range labels map to 0; combine with
        :meth:`local_label_mask` before indexing.
        """
        start, _ = self.shard_range(rank)
        mask = self.local_label_mask(labels, rank)
        return np.where(mask, labels - start, 0)

    def one_hot_shard(self, labels: np.ndarray, rank: int) -> np.ndarray:
        """The ``G`` matrix shard: one-hot rows for labels owned by ``rank``."""
        mask = self.local_label_mask(labels, rank)
        local = self.local_labels(labels, rank)
        shard = np.zeros((labels.shape[0], self.shard_size))
        rows = np.nonzero(mask)[0]
        shard[rows, local[rows]] = 1.0
        return shard

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_shards:
            raise ValueError(f"rank {rank} out of range [0, {self.num_shards})")
