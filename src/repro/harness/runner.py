"""Sweep runners regenerating each table and figure of the paper.

Every runner returns a small result object with the raw numbers plus a
``render()`` method producing the ASCII table the benchmarks print;
paper-reported values are attached side by side where they exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ModelConfig, ParallelConfig
from repro.costmodel.flops import (
    vocab_to_transformer_compute_ratio,
)
from repro.costmodel.memory import GiB, MemoryModel, vocab_to_transformer_memory_ratio
from repro.harness import paper_data
from repro.harness.experiments import MethodMetrics, run_method, vocab_scaling_factor
from repro.harness.settings import (
    GEMMA2_9B,
    ONE_F_ONE_B_METHODS,
    VHALF_METHODS,
    VOCAB_SIZES,
    model_for_1f1b,
    model_for_vhalf,
    parallel_for,
)
from repro.scheduling.redistribution import redistribute_layers, uniform_layout
from repro.sim import SimulationSetup


@dataclass
class SweepResult:
    """Measured metrics for one (schedule family, gpus, seq) sweep."""

    gpus: int
    seq_length: int
    metrics: dict[tuple[str, int], MethodMetrics] = field(default_factory=dict)
    paper_table: dict | None = None

    def mfu_row(self, method: str) -> list[float | None]:
        return [
            None
            if self.metrics[(method, v)].oom
            else round(self.metrics[(method, v)].mfu_percent, 2)
            for v in self.vocab_sizes
        ]

    def memory_row(self, method: str) -> list[float | None]:
        return [
            round(self.metrics[(method, v)].peak_memory_gb, 2)
            for v in self.vocab_sizes
        ]

    @property
    def vocab_sizes(self) -> list[int]:
        return sorted({v for _, v in self.metrics})

    @property
    def methods(self) -> list[str]:
        seen: list[str] = []
        for method, _ in self.metrics:
            if method not in seen:
                seen.append(method)
        return seen

    def render(self) -> str:
        from repro.harness.tables import format_table

        headers = ["method", "metric"] + [
            f"{v // 1024}k" for v in self.vocab_sizes
        ] + ["source"]
        rows: list[list[object]] = []
        for method in self.methods:
            rows.append([method, "MFU%"] + list(self.mfu_row(method)) + ["sim"])
            paper = self._paper_row(method, "mfu")
            if paper is not None:
                rows.append([method, "MFU%"] + paper + ["paper"])
            rows.append(
                [method, "peakGB"] + list(self.memory_row(method)) + ["sim"]
            )
            paper = self._paper_row(method, "mem")
            if paper is not None:
                rows.append([method, "peakGB"] + paper + ["paper"])
        return format_table(
            headers, rows, title=f"{self.gpus} GPUs, sequence length {self.seq_length}"
        )

    def _paper_row(self, method: str, metric: str) -> list[float | None] | None:
        if self.paper_table is None:
            return None
        entry = self.paper_table.get((self.gpus, self.seq_length, method))
        if entry is None:
            return None
        full = entry[metric]
        # Align with whatever vocabulary subset was simulated.
        index = {v: i for i, v in enumerate(VOCAB_SIZES)}
        return [full[index[v]] for v in self.vocab_sizes]


def run_table5_cell(
    gpus: int,
    seq_length: int,
    vocab_sizes: tuple[int, ...] = VOCAB_SIZES,
    methods: tuple[str, ...] = ONE_F_ONE_B_METHODS,
    num_microbatches: int = 128,
) -> SweepResult:
    """Table 5 / Figures 11–12: methods on 1F1B for one (gpus, seq)."""
    sweep = SweepResult(gpus, seq_length, paper_table=paper_data.TABLE5)
    for vocab in vocab_sizes:
        model = model_for_1f1b(gpus, seq_length, vocab)
        parallel = parallel_for(gpus, num_microbatches)
        for method in methods:
            sweep.metrics[(method, vocab)] = run_method(method, model, parallel)
    return sweep


def run_table6_cell(
    gpus: int,
    seq_length: int,
    vocab_sizes: tuple[int, ...] = VOCAB_SIZES,
    methods: tuple[str, ...] = VHALF_METHODS,
    num_microbatches: int = 128,
) -> SweepResult:
    """Table 6 / Figures 13–14: V-Half baseline vs Vocab-1."""
    sweep = SweepResult(gpus, seq_length, paper_table=paper_data.TABLE6)
    for vocab in vocab_sizes:
        model = model_for_vhalf(gpus, seq_length, vocab)
        parallel = parallel_for(gpus, num_microbatches)
        for method in methods:
            sweep.metrics[(method, vocab)] = run_method(method, model, parallel)
    return sweep


@dataclass
class Figure2Result:
    """Vocabulary-to-transformer ratios for Gemma2-9B (Figure 2)."""

    vocab_sizes: list[int]
    compute_input: list[float]
    compute_output: list[float]
    memory_input: list[float]
    memory_output: list[float]

    def render(self) -> str:
        from repro.harness.tables import format_table

        rows = []
        for i, v in enumerate(self.vocab_sizes):
            rows.append(
                [
                    f"{v // 1024}k",
                    self.compute_input[i],
                    self.compute_output[i],
                    self.memory_input[i],
                    self.memory_output[i],
                ]
            )
        return format_table(
            ["vocab", "compute(in)", "compute(out)", "memory(in)", "memory(out)"],
            rows,
            title="Figure 2 — vocabulary layer cost in transformer-layer units (Gemma2-9B)",
        )


def run_figure2(
    model: ModelConfig = GEMMA2_9B,
    vocab_sizes: tuple[int, ...] = VOCAB_SIZES,
) -> Figure2Result:
    result = Figure2Result([], [], [], [], [])
    for vocab in vocab_sizes:
        sized = model.replace(vocab_size=vocab)
        c_in, c_out = vocab_to_transformer_compute_ratio(sized)
        m_in, m_out = vocab_to_transformer_memory_ratio(sized)
        result.vocab_sizes.append(vocab)
        result.compute_input.append(round(c_in, 3))
        result.compute_output.append(round(c_out, 3))
        result.memory_input.append(round(m_in, 3))
        result.memory_output.append(round(m_out, 3))
    return result


@dataclass
class Figure3Result:
    """Per-device compute/memory with and without redistribution."""

    devices: int
    uniform_compute: list[float]
    redis_compute: list[float]
    uniform_memory_gb: list[float]
    redis_memory_gb: list[float]
    uniform_layers: list[int]
    redis_layers: list[int]

    def render(self) -> str:
        from repro.harness.tables import format_table

        rows = []
        for d in range(self.devices):
            rows.append(
                [
                    d,
                    self.uniform_layers[d],
                    round(self.uniform_compute[d], 3),
                    round(self.uniform_memory_gb[d], 2),
                    self.redis_layers[d],
                    round(self.redis_compute[d], 3),
                    round(self.redis_memory_gb[d], 2),
                ]
            )
        return format_table(
            [
                "device",
                "layers",
                "compute(s)",
                "paramGB",
                "redis-layers",
                "redis-compute(s)",
                "redis-paramGB",
            ],
            rows,
            title="Figure 3 — layer redistribution, 7B GPT-like model, 128k vocabulary, 16 devices",
        )


def run_figure3(
    num_devices: int = 16,
    vocab_size: int = 128 * 1024,
) -> Figure3Result:
    """7B model of the paper's Figure 3 (32 layers, hidden 4096)."""
    model = ModelConfig(
        num_layers=32,
        hidden_size=4096,
        num_attention_heads=32,
        seq_length=2048,
        vocab_size=vocab_size,
    )
    parallel = ParallelConfig(pipeline_size=num_devices)
    setup = SimulationSetup(model, parallel)
    from repro.sim import PassTimings

    timings = PassTimings(setup)
    memory = MemoryModel()
    plan = redistribute_layers(model, num_devices)
    uniform = uniform_layout(num_devices, model.num_layers)

    def stage_compute(layers: int, has_input: bool, has_output: bool) -> float:
        time = timings.transformer_forward_time(
            layers
        ) + timings.transformer_backward_time(layers, split_weight=False)
        if has_input:
            time += timings.full_input_forward_time() + timings.full_input_backward_time()
        if has_output:
            time += timings.full_output_forward_time() + timings.full_output_backward_time()
        return time

    def stage_memory(layers: int, has_input: bool, has_output: bool) -> float:
        total = memory.transformer_stage_param_bytes(model, layers)
        if has_input:
            total += memory.input_layer_state_bytes(model, setup.padded_vocab_single)
        if has_output:
            total += memory.output_layer_state_bytes(model, setup.padded_vocab_single)
        return total / GiB

    result = Figure3Result(num_devices, [], [], [], [], [], [])
    for d in range(num_devices):
        u_layers = uniform.transformer_layers[d][0]
        r_layers = plan.layers_per_stage[d]
        first, last = d == 0, d == num_devices - 1
        result.uniform_layers.append(u_layers)
        result.redis_layers.append(r_layers)
        result.uniform_compute.append(stage_compute(u_layers, first, last))
        result.redis_compute.append(stage_compute(r_layers, first, last))
        result.uniform_memory_gb.append(stage_memory(u_layers, first, last))
        result.redis_memory_gb.append(stage_memory(r_layers, first, last))
    return result


@dataclass
class Table3Result:
    """Scaling factors of partitioned vocabulary layers (Table 3)."""

    rows: list[tuple[int, str, list[float], list[float]]]  # seq, layer, ours, paper

    def render(self) -> str:
        from repro.harness.tables import format_table

        table_rows = []
        for seq, layer, ours, paper in self.rows:
            table_rows.append(
                [seq, layer, "sim"] + [round(100 * x, 2) for x in ours]
            )
            table_rows.append([seq, layer, "paper"] + list(paper))
        return format_table(
            ["seq", "layer", "source", "8GPU", "16GPU", "32GPU"],
            table_rows,
            title="Table 3 — scaling factor (%) vs linear scaling, 256k vocabulary",
        )


def run_table3(vocab_size: int = 256 * 1024) -> Table3Result:
    rows = []
    for seq in (2048, 4096):
        for layer, algorithm, key in (
            ("output", 1, "output-vocab-1"),
            ("output", 2, "output-vocab-2"),
            ("input", None, "input"),
        ):
            ours = []
            for gpus in (8, 16, 32):
                model = model_for_1f1b(gpus, seq, vocab_size)
                ours.append(
                    vocab_scaling_factor(model, gpus, layer, algorithm)
                )
            rows.append((seq, key, ours, paper_data.TABLE3[(seq, key)]))
    return Table3Result(rows)


@dataclass
class InterlacedAblationResult:
    """Appendix B: interlaced memory factor and sync all-reduce cost."""

    sync_iteration_time: float
    nosync_iteration_time: float
    interlaced_peak_activation_gb: float
    onefoneb_peak_activation_gb: float

    @property
    def speedup_percent(self) -> float:
        """Iteration-time improvement from removing sync all-reduces."""
        return 100.0 * (1.0 - self.nosync_iteration_time / self.sync_iteration_time)

    @property
    def activation_memory_factor(self) -> float:
        """Interlaced peak activation over 1F1B's (Appendix B.1: 1.5×)."""
        return self.interlaced_peak_activation_gb / self.onefoneb_peak_activation_gb

    def render(self) -> str:
        return "\n".join(
            [
                "Appendix B — interlaced pipeline analysis (32 GPUs, ~21B model, seq 4096, 256k vocab)",
                f"  iteration time with sync all-reduces:    {self.sync_iteration_time:.3f}s",
                f"  iteration time without sync all-reduces: {self.nosync_iteration_time:.3f}s",
                f"  speedup from removing sync:              {self.speedup_percent:.2f}%"
                f"   (paper: {paper_data.INTERLACED_SYNC_ABLATION_SPEEDUP}%)",
                f"  activation memory vs 1F1B:               {self.activation_memory_factor:.2f}x"
                "   (paper: 1.5x)",
            ]
        )


def run_interlaced_ablation(
    gpus: int = 32,
    seq_length: int = 4096,
    vocab_size: int = 256 * 1024,
    num_microbatches: int = 128,
) -> InterlacedAblationResult:
    """Appendix B.1/B.2 on the 21B, 32-GPU setting."""
    import dataclasses as _dc

    from repro.harness.experiments import build_schedule
    from repro.sim import RuntimeModel, execute_schedule, memory_report

    model = model_for_1f1b(gpus, seq_length, vocab_size)
    parallel = parallel_for(gpus, num_microbatches)

    def run(sync: bool) -> tuple[float, float]:
        setup = SimulationSetup(model, parallel, interlaced_sync_allreduce=sync)
        schedule = build_schedule("interlaced", setup)
        result = execute_schedule(schedule, RuntimeModel(setup, schedule))
        report = memory_report(result, setup)
        return result.iteration_time, max(report.per_device_peak_activation) / GiB

    sync_time, interlaced_act = run(True)
    nosync_time, _ = run(False)

    setup = SimulationSetup(model, parallel)
    baseline = build_schedule("baseline", setup)
    base_result = execute_schedule(baseline, RuntimeModel(setup, baseline))
    base_report = memory_report(base_result, setup)
    base_act = max(base_report.per_device_peak_activation) / GiB
    return InterlacedAblationResult(
        sync_iteration_time=sync_time,
        nosync_iteration_time=nosync_time,
        interlaced_peak_activation_gb=interlaced_act,
        onefoneb_peak_activation_gb=base_act,
    )
