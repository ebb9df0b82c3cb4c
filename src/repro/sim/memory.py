"""Per-device memory accounting over a simulated iteration.

Combines static parameter/optimizer-state memory (from the Table 4
byte counts scaled by the training-state factor) with a timeline of
activation events derived from the executed schedule:

* transformer activations appear at F end and release at B end (or
  split between B and W when backward is split — the W pass still needs
  the layer inputs);
* a stage hosting the full output layer holds the fp32 softmax of an
  entire microbatch between its F and B (this is what blows up the
  baseline's last device at 256k vocabularies);
* partitioned vocabulary passes hold their softmax *shard* between S
  and T — the paper's "small constant overhead" — plus Algorithm 2's
  pre-computed ∇X operands between S and the C1 barrier;
* input-layer partials live from IF to the assembling all-reduce, and
  gradient copies from the broadcast to IB (Appendix C's "at most two
  microbatches" claim);
* interlaced VF/VB segments hold shard buffers for 1.5× the usual
  number of in-flight microbatches.

The report records per-device peaks, the parameter/activation split,
and the max-minus-min spread that Figure 14 shades.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from repro.costmodel.memory import MemoryModel
from repro.scheduling.passes import CollectiveKind, PassType
from repro.sim.executor import ExecutionResult
from repro.sim.runtime import BF16, FP32, SimulationSetup


@dataclass
class MemoryReport:
    """Peak-memory outcome of one simulated iteration."""

    per_device_peak: list[float]
    per_device_params: list[float]
    per_device_peak_activation: list[float]

    @property
    def peak(self) -> float:
        """Max peak across devices — the number Tables 5/6 report."""
        return max(self.per_device_peak)

    @property
    def spread(self) -> float:
        """Max − min device peak — the imbalance Figure 14 shades."""
        return max(self.per_device_peak) - min(self.per_device_peak)

    def fits(self, capacity_bytes: float) -> bool:
        return self.peak <= capacity_bytes


def device_param_bytes(
    setup: SimulationSetup, schedule_layout, memory_model: MemoryModel
) -> list[float]:
    """Static parameter/optimizer-state bytes per device for a layout.

    Table 4 accounting: transformer-stage weights times the training
    state factor, plus the vocabulary layers (full copies on their
    holder stages, or a shard everywhere under vocabulary parallelism)
    and the first device's positional embedding.  Shared with the
    planner's analytic estimator (:mod:`repro.planner.estimate`).
    """
    model = setup.model
    layout = schedule_layout
    params = []
    for device in range(layout.num_devices):
        total = memory_model.transformer_stage_param_bytes(
            model, sum(layout.transformer_layers[device])
        )
        if layout.vocab_parallel:
            shard = setup.partition.shard_size
            total += memory_model.input_layer_state_bytes(model, shard)
            total += memory_model.output_layer_state_bytes(model, shard)
        else:
            padded = setup.padded_vocab_single
            if layout.input_holder is not None and layout.input_holder[0] == device:
                total += memory_model.input_layer_state_bytes(model, padded)
            if layout.output_holder is not None and layout.output_holder[0] == device:
                total += memory_model.output_layer_state_bytes(model, padded)
        if device == 0:
            # Positional embedding stays on the first device (the paper's
            # "small constant" extra, §6.4).
            total += 2.0 * model.seq_length * model.hidden_size * (
                memory_model.vocab_state_factor
            )
        params.append(total)
    return params


def _activation_events(
    result: ExecutionResult,
    setup: SimulationSetup,
    memory_model: MemoryModel,
    weight_release_fraction: float,
) -> list[tuple[list[float], list[float]]]:
    """Per-device event times and byte deltas, in emission order."""
    schedule = result.schedule
    layout = schedule.layout
    model = setup.model
    b = setup.parallel.microbatch_size
    n = setup.tokens
    h = model.hidden_size
    shard = setup.partition.shard_size
    # Parallel time/delta lists rather than (time, delta) tuples: one
    # memory report emits tens of thousands of events, and tuples are
    # objects the cyclic garbage collector must track and visit.
    events: list[tuple[list[float], list[float]]] = [
        ([], []) for _ in range(layout.num_devices)
    ]
    split = schedule.has_weight_passes
    r_w = weight_release_fraction if split else 0.0
    logits = n * setup.padded_vocab_single * FP32
    shard_act = memory_model.output_shard_activation_bytes(model, b, shard)
    # Enum member lookups cost a class-attribute resolution each on
    # Python < 3.12; the per-pass chain below compares against locals.
    F, B, W, S, T = PassType.F, PassType.B, PassType.W, PassType.S, PassType.T
    IF, IB, VF, VB = PassType.IF, PassType.IB, PassType.VF, PassType.VB
    c1_stats = CollectiveKind.C1_STATS
    input_allreduce = CollectiveKind.INPUT_ALLREDUCE
    input_broadcast = CollectiveKind.INPUT_BROADCAST
    operands_held = schedule.vocab_algorithm == 2
    operand_bytes = 2.0 * n * h * BF16
    input_bytes = n * h * BF16
    segment_bytes = n * shard * FP32 + n * h * BF16
    collective_times = result.collective_times

    for dev in range(layout.num_devices):
        times, deltas = events[dev]
        at, add = times.append, deltas.append
        # Each stage's F/B/W deltas are priced once, not per pass: (F's
        # activation bytes, B's release, W's release, whether the stage
        # holds the full output layer's logits).
        stages = []
        for chunk, layers in enumerate(layout.transformer_layers[dev]):
            act = memory_model.activation_bytes(model, b, layers)
            stages.append(
                (act, -(1.0 - r_w) * act, -r_w * act, layout.hosts_output(dev, chunk))
            )
        types, chunks, microbatches, _, ends = result.device_columns(dev)
        for type_, chunk, mb, end in zip(types, chunks, microbatches, ends):
            if type_ is F:
                stage = stages[chunk]
                at(end)
                add(stage[0])
                if stage[3]:
                    at(end)
                    add(logits)
            elif type_ is B:
                stage = stages[chunk]
                at(end)
                add(stage[1])
                if stage[3]:
                    at(end)
                    add(-logits)
            elif type_ is W:
                at(end)
                add(stages[chunk][2])
            elif type_ is S:
                at(end)
                add(shard_act)
                if operands_held:
                    # A and B operands live until the C1 barrier consumes them.
                    c1 = collective_times[(c1_stats, mb)]
                    at(end)
                    add(operand_bytes)
                    at(c1[1])
                    add(-operand_bytes)
            elif type_ is T:
                at(end)
                add(-shard_act)
            elif type_ is IF:
                iar = collective_times[(input_allreduce, mb)]
                at(end)
                add(input_bytes)
                at(iar[1])
                add(-input_bytes)
            elif type_ is IB:
                ibc = collective_times[(input_broadcast, mb)]
                at(ibc[1])
                add(input_bytes)
                at(end)
                add(-input_bytes)
            elif type_ is VF:
                at(end)
                add(segment_bytes)
            elif type_ is VB:
                at(end)
                add(-segment_bytes)
    return events


def memory_report(
    result: ExecutionResult,
    setup: SimulationSetup,
    memory_model: MemoryModel | None = None,
    weight_release_fraction: float = 1.0 / 3.0,
) -> MemoryReport:
    """Peak memory per device for an executed schedule."""
    memory_model = memory_model or MemoryModel()
    layout = result.schedule.layout
    params = device_param_bytes(setup, layout, memory_model)
    events = _activation_events(
        result, setup, memory_model, weight_release_fraction
    )
    peaks = []
    act_peaks = []
    for device, (times, deltas) in enumerate(events):
        # Running level over the time-sorted events (a stable sort, so
        # equal times keep their emission order), floored at zero.
        order = sorted(range(len(times)), key=times.__getitem__)
        peak_act = max(0.0, max(accumulate(map(deltas.__getitem__, order)), default=0.0))
        act_peaks.append(peak_act)
        peaks.append(params[device] + peak_act + memory_model.overhead_bytes)
    return MemoryReport(
        per_device_peak=peaks,
        per_device_params=params,
        per_device_peak_activation=act_peaks,
    )


def live_microbatch_peaks(
    result: ExecutionResult, weight_release_fraction: float | None = None
) -> list[float]:
    """Peak count of live transformer-activation microbatches per device.

    The schedule-unit counterpart of the paper's Figure 10 annotations:
    1F1B holds ``p`` on device 0, Vocabulary Parallelism ``p + k``
    where ``k`` is the algorithm's barrier count.  Chunked schedules
    weight each chunk by its share of the device's layers.
    """
    schedule = result.schedule
    layout = schedule.layout
    split = schedule.has_weight_passes
    r_w = (
        weight_release_fraction
        if weight_release_fraction is not None
        else (1.0 / 3.0 if split else 0.0)
    )
    peaks = []
    for device in range(layout.num_devices):
        total_layers = max(1, sum(layout.transformer_layers[device]))
        events = []
        types, chunks, _, _, ends = result.device_columns(device)
        for type_, chunk, end in zip(types, chunks, ends):
            weight = layout.transformer_layers[device][chunk] / total_layers if (
                type_ in (PassType.F, PassType.B, PassType.W)
            ) else 0.0
            if type_ is PassType.F:
                events.append((end, weight))
            elif type_ is PassType.B:
                events.append((end, -(1.0 - r_w) * weight))
            elif type_ is PassType.W:
                events.append((end, -r_w * weight))
        level = peak = 0.0
        for _, delta in sorted(events, key=lambda e: e[0]):
            level += delta
            peak = max(peak, level)
        peaks.append(peak)
    return peaks
