"""Parameter and activation memory models.

Parameter memory follows Table 4 of the paper: per transformer layer
``24 h^2`` bytes of bf16 weights (12 h^2 parameters at 2 bytes), per
(untied) vocabulary layer ``2 h V`` bytes.  Training state multiplies
the weight bytes by ``train_state_factor``: Megatron-style mixed
precision keeps a bf16 parameter + bf16 gradient + fp32 master copy +
fp32 Adam first/second moments = 18 bytes per parameter = 9x the bf16
weight bytes.

Activation memory per microbatch and transformer layer follows
Korthikanti et al. (2023) without recomputation::

    s·b·h·(34 + 5·a·s/h) bytes

The vocabulary layers' activations are transient (the paper excludes
them from the balance analysis but the schedule holds the output-layer
softmax shard between S and T, which we model explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ModelConfig

GiB = 1024.0**3


def transformer_layer_param_bytes(model: ModelConfig) -> float:
    """Weight bytes (bf16) of one transformer layer: ``24 h^2``."""
    return 24.0 * model.hidden_size * model.hidden_size


def input_layer_param_bytes(model: ModelConfig, vocab_size: int | None = None) -> float:
    """Weight bytes (bf16) of the input embedding: ``2 h V``."""
    v = model.vocab_size if vocab_size is None else vocab_size
    return 2.0 * model.hidden_size * v


def output_layer_param_bytes(model: ModelConfig, vocab_size: int | None = None) -> float:
    """Weight bytes (bf16) of the output projection: ``2 h V``."""
    v = model.vocab_size if vocab_size is None else vocab_size
    return 2.0 * model.hidden_size * v


def activation_bytes_per_microbatch(
    model: ModelConfig,
    microbatch_size: int = 1,
    layers: int = 1,
    flash_attention: bool = True,
) -> float:
    """Stored activation bytes for ``layers`` transformer layers.

    Korthikanti et al.'s per-layer formula is ``s·b·h·(34 + 5·a·s/h)``;
    with flash attention (the paper's A100 setting) the quadratic
    attention-matrix term disappears, leaving ``34·s·b·h``.
    """
    s = model.seq_length
    b = microbatch_size
    h = model.hidden_size
    a = model.num_attention_heads
    factor = 34.0 if flash_attention else 34.0 + 5.0 * a * s / h
    per_layer = s * b * h * factor
    return per_layer * layers


def vocab_to_transformer_memory_ratio(model: ModelConfig) -> tuple[float, float]:
    """Parameter memory of (input, output) layers in transformer-layer units.

    Reproduces the right panel of Figure 2.
    """
    t = transformer_layer_param_bytes(model)
    return (
        input_layer_param_bytes(model) / t,
        output_layer_param_bytes(model) / t,
    )


@dataclass(frozen=True)
class MemoryModel:
    """Converts layer assignments and live microbatch counts into bytes.

    Attributes
    ----------
    train_state_factor:
        Multiplier from bf16 weight bytes to full training-state bytes.
        Textbook mixed-precision Adam costs 18 B/param (factor 9); the
        default 7.0 (14 B/param) is calibrated against Table 5's
        baseline peak-memory column, between bf16-moment Adam
        (12 B/param) and the full fp32 recipe.
    vocab_state_factor:
        Same for vocabulary layers.  Megatron keeps embedding gradients
        in fp32 accumulators; the default matches the transformer factor
        which is accurate enough for balance analysis.
    output_softmax_bytes_per_element:
        Bytes held per logit element between the S and T passes of the
        partitioned output layer (softmax shard, bf16 activations plus
        fp32 statistics are dominated by the 4-byte softmax tensor).
    flash_attention:
        Whether the per-layer activation formula drops the quadratic
        attention-matrix term (the paper's setting).
    overhead_bytes:
        Constant per-device overhead (CUDA context, NCCL buffers,
        fragmentation); calibrated against Table 5's smallest setting.
    """

    train_state_factor: float = 7.0
    vocab_state_factor: float = 7.0
    output_softmax_bytes_per_element: float = 4.0
    flash_attention: bool = True
    overhead_bytes: float = 1.5 * GiB

    def transformer_stage_param_bytes(self, model: ModelConfig, num_layers: int) -> float:
        """Training-state bytes for ``num_layers`` transformer layers."""
        return num_layers * transformer_layer_param_bytes(model) * self.train_state_factor

    def input_layer_state_bytes(
        self, model: ModelConfig, vocab_size: int | None = None
    ) -> float:
        return input_layer_param_bytes(model, vocab_size) * self.vocab_state_factor

    def output_layer_state_bytes(
        self, model: ModelConfig, vocab_size: int | None = None
    ) -> float:
        return output_layer_param_bytes(model, vocab_size) * self.vocab_state_factor

    def activation_bytes(
        self, model: ModelConfig, microbatch_size: int, num_layers: int
    ) -> float:
        """Stored activations of one microbatch across ``num_layers`` layers."""
        return activation_bytes_per_microbatch(
            model, microbatch_size, num_layers, self.flash_attention
        )

    def output_shard_activation_bytes(
        self, model: ModelConfig, microbatch_size: int, vocab_shard: int
    ) -> float:
        """Bytes of the softmax shard a device holds between S and T."""
        return (
            microbatch_size
            * model.seq_length
            * vocab_shard
            * self.output_softmax_bytes_per_element
        )


#: The default memory model every planner entry point shares (frozen, so
#: safe): one object means cache keys render it once and memos keyed on
#: it hit across callers, where a fresh ``MemoryModel()`` per call would not.
DEFAULT_MEMORY_MODEL = MemoryModel()
