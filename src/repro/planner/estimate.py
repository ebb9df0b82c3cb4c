"""Analytic candidate pricing for the schedule planner.

The planner has to compare every schedule family before it can afford
to simulate any of them, so this module prices a candidate from the
cost model alone — no discrete-event execution.  Two quantities are
estimated per method:

* **iteration time** — per-device steady-state compute is read off a
  single-microbatch instance of the schedule (an ``m = 1`` schedule
  contains exactly one microbatch's worth of every pass stream, so
  summing its pass durations per device gives the per-microbatch cost
  ``C_d`` exactly, including folded-in vocabulary layers, S/T passes
  and the interlaced segments' synchronous all-reduces).  The probe is
  decomposed into :class:`~repro.costmodel.calibrate.PhaseFeatures`
  (steady state, ramp, per-pass overhead, collective α/β, stage P2P)
  and combined by the active
  :class:`~repro.costmodel.calibrate.CostModel`: the default analytic
  model computes the standard pipeline bound ``m · max_d C_d`` plus a
  ramp term, bit-identically to the historical estimator; a calibrated
  :class:`~repro.costmodel.calibrate.HardwareProfile` reweights the
  phases with parameters fitted against simulator ground truth;
* **peak memory** — static parameter/optimizer bytes from the layout
  (:func:`repro.sim.memory.device_param_bytes`) plus live-microbatch
  activation counts taken from the paper's per-family analysis: 1F1B
  holds ``p − d`` microbatches on device ``d``, Vocabulary Parallelism
  adds one microbatch per communication barrier (§5.1), the interlaced
  pipeline holds 1.5× 1F1B (Appendix B.1), and the V-Half families are
  memory-balanced at roughly half of 1F1B's device-0 peak (Appendix D).
  Memory is never calibrated — profiles reweight time only.

Estimates deliberately favour robustness of the *ranking* over
absolute accuracy — the planner re-measures the top candidates with
the simulator before committing (see :mod:`repro.planner.planner`),
though a calibrated profile's error bounds let it skip verifications
the analytic margin already decides (trust-gated top-k).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.config import ModelConfig, ParallelConfig
from repro.costmodel.calibrate import CostModel, PhaseFeatures, get_cost_model
from repro.costmodel.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.harness.experiments import KNOWN_METHODS, build_schedule
from repro.lru import LRU
from repro.scheduling.passes import CollectiveKind
from repro.scheduling.schedule import Schedule
from repro.sim.memory import device_param_bytes
from repro.sim.runtime import BF16, FP32, RuntimeModel, SimulationSetup


@dataclass(frozen=True)
class ProbeComponents:
    """Everything the m=1 probe exposes to feature extraction."""

    probe: Schedule
    compute: tuple[float, ...]      #: per-device pass-duration sums
    passes: tuple[int, ...]         #: per-device pass counts
    coll_alpha: float               #: per-microbatch collective latency seconds
    coll_beta: float                #: per-microbatch collective bandwidth seconds
    p2p: float                      #: fwd+bwd stage-to-stage traversal seconds


#: Memoized m=1 probes: (method, setup, cost-model digest) ->
#: ProbeComponents.  Probes are structural — the planner prices the
#: same (method, config) pair once per process instead of rebuilding
#: the probe schedule and re-summing pass durations on every call.
#: The cost-model digest is part of the key because a pluggable model
#: may reprice probe passes: two profiles must never share entries.
_PROBE_CACHE = LRU(512)


def clear_probe_cache() -> None:
    """Drop all memoized m=1 probe schedules (tests, benchmarks)."""
    _PROBE_CACHE.clear()


def probe_cache_stats() -> dict[str, int]:
    """Size of the probe memo (tests assert on keying behaviour)."""
    return {"entries": len(_PROBE_CACHE)}


def _collective_kinds(probe: Schedule) -> tuple[CollectiveKind, ...]:
    """The collective kinds the executor materializes per microbatch.

    Mirrors the graph construction in :mod:`repro.sim.compiled`: one
    instance of each kind per microbatch — C0/C1 (+C2 under
    Algorithm 1) for partitioned vocabulary layers, the input-layer
    all-reduce/broadcast pair when input passes exist.  Interlaced
    synchronous all-reduces are folded into the VF/VB pass durations
    already, so they price through ``compute``, not here.
    """
    kinds: list[CollectiveKind] = []
    if probe.vocab_algorithm is not None:
        kinds.append(CollectiveKind.C0_BROADCAST)
        kinds.append(CollectiveKind.C1_STATS)
        if probe.vocab_algorithm == 1:
            kinds.append(CollectiveKind.C2_GRAD_REDUCE)
    if probe.has_input_passes:
        kinds.append(CollectiveKind.INPUT_ALLREDUCE)
        kinds.append(CollectiveKind.INPUT_BROADCAST)
    return tuple(kinds)


def _probe(
    method: str, probe_setup: SimulationSetup, cost_model: CostModel
) -> ProbeComponents:
    """The m=1 probe schedule and its phase components, memoized.

    ``SimulationSetup`` is a frozen dataclass, so (method, setup,
    cost-model digest) is an exact key: every input of probe
    construction and pass pricing is a field of the setup, and the
    digest pins the pricing model's identity.
    """
    key = (method, probe_setup, cost_model.digest())
    cached = _PROBE_CACHE.get(key)
    if cached is not None:
        return cached
    probe = build_schedule(method, probe_setup, refine=False)
    runtime = RuntimeModel(probe_setup, probe)
    compute = tuple(
        sum(runtime.pass_duration(pass_) for pass_ in order)
        for order in probe.device_orders
    )
    passes = tuple(len(order) for order in probe.device_orders)
    kinds = _collective_kinds(probe)
    coll_alpha = 0.0
    coll_beta = 0.0
    if kinds:
        # α/β split through the real communication model: re-price the
        # same collectives with zeroed link latencies; the difference is
        # the per-microbatch latency (α) seconds, the remainder the
        # bandwidth + folded elementwise (β) seconds.
        total = math.fsum(runtime.collective_duration(kind) for kind in kinds)
        zero_latency = dataclasses.replace(
            probe_setup.hardware, link_latency=0.0, inter_node_latency=0.0
        )
        beta_runtime = RuntimeModel(
            dataclasses.replace(probe_setup, hardware=zero_latency), probe
        )
        coll_beta = math.fsum(
            beta_runtime.collective_duration(kind) for kind in kinds
        )
        coll_alpha = total - coll_beta
    p2p = 2.0 * math.fsum(
        runtime.p2p_duration(device, device + 1)
        for device in range(probe.layout.num_devices - 1)
    )
    components = ProbeComponents(
        probe=probe,
        compute=compute,
        passes=passes,
        coll_alpha=coll_alpha,
        coll_beta=coll_beta,
        p2p=p2p,
    )
    _PROBE_CACHE.put(key, components)
    return components


@dataclass(frozen=True)
class CandidateEstimate:
    """Cost-model price of one schedule family on one config."""

    method: str
    iteration_time: float
    per_device_peak: tuple[float, ...]
    per_device_compute: tuple[float, ...]

    @property
    def peak_bytes(self) -> float:
        """Max estimated peak across devices."""
        return max(self.per_device_peak)


def infeasibility_reason(
    method: str, model: ModelConfig, parallel: ParallelConfig
) -> str | None:
    """Why ``method`` cannot be instantiated on this config, or ``None``.

    These are the structural constraints the schedule generators
    enforce; the planner filters on them instead of catching
    ``ValueError`` so infeasible candidates carry a readable reason.
    """
    if method not in KNOWN_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {KNOWN_METHODS}")
    p = parallel.pipeline_size
    if method.startswith("vhalf"):
        if model.num_layers % (2 * p) != 0:
            return (
                f"V-Half needs num_layers divisible by 2p "
                f"({model.num_layers} % {2 * p} != 0)"
            )
    elif model.num_layers % p != 0:
        return (
            f"needs num_layers divisible by pipeline_size "
            f"({model.num_layers} % {p} != 0)"
        )
    return None


def _live_microbatches(method: str, device: int, p: int, m: int) -> float:
    """Estimated peak in-flight activation microbatches on ``device``.

    The per-family counts the paper derives (Figure 10 annotations,
    Appendix B.1, Appendix D), capped at ``m``.
    """
    if method.startswith("vhalf"):
        barriers = {"vhalf-vocab-1": 2, "vhalf-vocab-2": 1}.get(method, 0)
        live = p / 2.0 + barriers
    elif method == "interlaced":
        live = 1.5 * (p - device)
    elif method in ("vocab-1", "vocab-2"):
        barriers = 2 if method == "vocab-1" else 1
        live = (p - device) + barriers
    else:  # baseline / redis
        live = float(p - device)
    return min(float(m), max(1.0, live))


def _probe_setup(setup: SimulationSetup) -> SimulationSetup:
    return SimulationSetup(
        setup.model,
        setup.parallel.replace(num_microbatches=1),
        hardware=setup.hardware,
        efficiency=setup.efficiency,
        interlaced_sync_allreduce=setup.interlaced_sync_allreduce,
        pass_overhead=setup.pass_overhead,
    )


def phase_features(
    method: str,
    setup: SimulationSetup,
    cost_model: CostModel | None = None,
) -> PhaseFeatures:
    """Decompose one (method, config) estimate into phase features.

    This is the feature extractor both the planner's pricing and the
    calibration fitting loop share: ``steady`` and ``ramp`` reproduce
    the historical analytic terms exactly (so the analytic model's
    prediction is bit-identical to the old estimator), and the
    remaining components give a fitted profile per-phase knobs —
    per-pass host overhead, collective latency/bandwidth seconds,
    stage-to-stage P2P latency.
    """
    cost_model = cost_model or get_cost_model(None)
    parallel = setup.parallel
    p = parallel.pipeline_size
    m = parallel.num_microbatches
    probe = _probe(method, _probe_setup(setup), cost_model)
    compute = probe.compute
    bottleneck = max(compute)
    # Steady state is bound by the slowest device; warmup/cooldown ramps
    # add roughly one traversal of the average stage.
    ramp = (p - 1) * (sum(compute) / p)
    bottleneck_device = max(range(p), key=lambda d: (compute[d], -d))
    return PhaseFeatures(
        method=method,
        steady=m * bottleneck,
        ramp=ramp,
        overhead=m * probe.passes[bottleneck_device] * setup.pass_overhead,
        coll_alpha=m * probe.coll_alpha,
        coll_beta=m * probe.coll_beta,
        p2p=probe.p2p,
    )


def estimate_method(
    method: str,
    setup: SimulationSetup,
    memory_model: MemoryModel | None = None,
    cost_model: CostModel | None = None,
) -> CandidateEstimate:
    """Price one method with the active cost model.

    Builds a single-microbatch instance of the schedule (cheap — a few
    passes per device, memoized process-wide) to obtain the exact stage
    layout and pass durations, then extrapolates to ``m`` microbatches
    through ``cost_model`` (default: the analytic model, bit-identical
    to the planner's historical estimate).
    """
    memory_model = memory_model or DEFAULT_MEMORY_MODEL
    cost_model = cost_model or get_cost_model(None)
    model = setup.model
    parallel = setup.parallel
    p = parallel.pipeline_size
    m = parallel.num_microbatches

    probe_components = _probe(method, _probe_setup(setup), cost_model)
    probe = probe_components.probe
    compute = probe_components.compute
    features = phase_features(method, setup, cost_model)
    iteration = cost_model.predict(features)

    layout = probe.layout
    params = device_param_bytes(setup, layout, memory_model)
    n = setup.tokens
    h = model.hidden_size
    shard = setup.partition.shard_size
    b = parallel.microbatch_size
    peaks = []
    for device in range(p):
        layers = sum(layout.transformer_layers[device])
        live = _live_microbatches(method, device, p, m)
        act = live * memory_model.activation_bytes(model, b, layers)
        # Output-layer transients on top of transformer activations.
        if layout.vocab_parallel:
            act += 2.0 * n * shard * FP32
            if probe.vocab_algorithm == 2:
                act += 2.0 * n * h * BF16
            if probe.interlaced:
                act += n * h * BF16
        else:
            holds_output = any(
                layout.hosts_output(device, chunk)
                for chunk in range(layout.num_chunks)
            )
            if holds_output:
                act += n * setup.padded_vocab_single * FP32
        peaks.append(params[device] + act + memory_model.overhead_bytes)
    return CandidateEstimate(
        method=method,
        iteration_time=iteration,
        per_device_peak=tuple(peaks),
        per_device_compute=compute,
    )
