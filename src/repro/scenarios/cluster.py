"""Named cluster/workload scenarios over the homogeneous cost model.

The paper evaluates its schedules on an idealized homogeneous cluster:
every device identical, every link nominal, every kernel's duration a
pure function of its shape.  Real clusters are not like that — mixed
GPU SKUs, one thermally-throttled straggler node, oversubscribed
inter-node fabric, and per-kernel runtime jitter all perturb exactly
the compute/memory balance the vocabulary-parallel schedules are
designed around.  A :class:`ClusterScenario` describes such a cluster
as a *transformation* of the nominal model, in three orthogonal parts:

* **per-device speeds** — a cyclic pattern of relative speeds
  (heterogeneous SKUs) plus explicitly slowed nodes (stragglers); a
  device at speed ``0.8`` takes ``1/0.8`` times as long for every pass;
* **a two-tier interconnect** — separate bandwidth/latency scale
  factors for intra-node (NVLink) and inter-node (RDMA) links,
  lowered into a scenario :class:`~repro.costmodel.hardware.HardwareModel`
  so the existing α–β model (:mod:`repro.collectives.timing`) prices
  collectives and P2P transfers per tier;
* **seeded jitter** — multiplicative noise distributions over pass
  durations and communication times, consumed by
  :mod:`repro.scenarios.perturb` to build Monte Carlo binding matrices
  for :meth:`repro.sim.compiled.CompiledGraph.execute_many`.

Scenarios are frozen, hashable and cheap: binding one onto a
:class:`~repro.sim.runtime.SimulationSetup` produces a normal setup
(with scenario hardware) plus a thin runtime wrapper applying device
speeds — everything downstream (compiled graphs, structural caches,
the planner) works unchanged, re-priced under the scenario.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.config import ParallelConfig
from repro.costmodel.hardware import HardwareModel
from repro.scheduling.schedule import Schedule
from repro.sim.runtime import RuntimeModel, SimulationSetup

#: Jitter distributions understood by :mod:`repro.scenarios.perturb`.
JITTER_DISTRIBUTIONS = ("normal", "uniform")


@dataclass(frozen=True)
class ClusterScenario:
    """One named description of a non-ideal cluster.

    All perturbations default to "off", so
    ``ClusterScenario(name="x")`` is exactly the nominal homogeneous
    cluster (:attr:`is_nominal`).  Durations scale with ``1/speed``:
    a straggler at speed 0.8 runs every pass 25 % longer.

    Attributes
    ----------
    name / description:
        Registry identity and a human-readable summary.
    device_speed_pattern:
        Relative speeds cycled across pipeline devices (``(1.0, 0.85)``
        alternates fast/slow SKUs); empty means all devices nominal.
    slow_nodes:
        Indices of *nodes* (groups of ``devices_per_node`` devices,
        negative counts from the end) whose devices are additionally
        multiplied by ``slow_node_speed``.
    slow_node_speed:
        Speed multiplier of the devices on ``slow_nodes``.
    intra_bandwidth_scale / inter_bandwidth_scale:
        Bandwidth multipliers per interconnect tier (0.5 = half the
        nominal bytes/s).
    intra_latency_scale / inter_latency_scale:
        α multipliers per tier (3.0 = 3× the nominal per-message
        latency).
    pass_jitter / comm_jitter:
        Relative spread of multiplicative duration noise on compute
        passes / on collectives and P2P lags (0.05 ≈ 5 % kernel-time
        variation).  Zero disables jitter for that class.
    jitter_devices:
        Devices whose compute passes jitter (negative indices count
        from the end of the pipeline); empty means every device.  A
        narrow set — one thermally unstable straggler — confines the
        jitter support to that device's passes; the other devices'
        factors are exactly 1.0.  Communication jitter is unaffected
        (it has no home device).
    jitter_distribution:
        ``"normal"`` (a 4-uniform Bates approximation — arithmetic
        only, so the NumPy and pure-Python generators are
        bit-identical) or ``"uniform"``.
    min_jitter_factor:
        Floor of the multiplicative factor, keeping perturbed
        durations positive under extreme draws.
    seed:
        Base seed of the scenario's deterministic jitter stream;
        combined with the caller's sample seed in
        :func:`repro.scenarios.perturb.perturbation_factors`.
    """

    name: str
    description: str = ""
    device_speed_pattern: tuple[float, ...] = ()
    slow_nodes: tuple[int, ...] = ()
    slow_node_speed: float = 1.0
    intra_bandwidth_scale: float = 1.0
    inter_bandwidth_scale: float = 1.0
    intra_latency_scale: float = 1.0
    inter_latency_scale: float = 1.0
    pass_jitter: float = 0.0
    comm_jitter: float = 0.0
    jitter_devices: tuple[int, ...] = ()
    jitter_distribution: str = "normal"
    min_jitter_factor: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        for speed in self.device_speed_pattern:
            if speed <= 0:
                raise ValueError(f"device speeds must be positive, got {speed}")
        if self.slow_node_speed <= 0:
            raise ValueError(
                f"slow_node_speed must be positive, got {self.slow_node_speed}"
            )
        for field_name in (
            "intra_bandwidth_scale",
            "inter_bandwidth_scale",
            "intra_latency_scale",
            "inter_latency_scale",
        ):
            value = getattr(self, field_name)
            if value <= 0:
                raise ValueError(f"{field_name} must be positive, got {value}")
        if self.pass_jitter < 0 or self.comm_jitter < 0:
            raise ValueError(
                f"jitter spreads must be >= 0, got pass={self.pass_jitter}, "
                f"comm={self.comm_jitter}"
            )
        for device in self.jitter_devices:
            if not isinstance(device, int):
                raise ValueError(
                    f"jitter_devices must be device indices, got {device!r}"
                )
        if self.jitter_distribution not in JITTER_DISTRIBUTIONS:
            raise ValueError(
                f"jitter_distribution must be one of {JITTER_DISTRIBUTIONS}, "
                f"got {self.jitter_distribution!r}"
            )
        if not 0 < self.min_jitter_factor <= 1:
            raise ValueError(
                f"min_jitter_factor must be in (0, 1], got {self.min_jitter_factor}"
            )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def is_nominal(self) -> bool:
        """Whether this scenario leaves the nominal model untouched."""
        return (
            not self.has_heterogeneity
            and not self.has_interconnect_scaling
            and not self.has_jitter
        )

    @property
    def has_heterogeneity(self) -> bool:
        return (
            any(s != 1.0 for s in self.device_speed_pattern)
            or (bool(self.slow_nodes) and self.slow_node_speed != 1.0)
        )

    @property
    def has_interconnect_scaling(self) -> bool:
        return (
            self.intra_bandwidth_scale != 1.0
            or self.inter_bandwidth_scale != 1.0
            or self.intra_latency_scale != 1.0
            or self.inter_latency_scale != 1.0
        )

    @property
    def has_jitter(self) -> bool:
        return self.pass_jitter > 0 or self.comm_jitter > 0

    def signature(self) -> tuple:
        """Hashable identity for cache keys (every perturbation field).

        ``name``/``description`` are deliberately excluded: two
        registrations of the same physical scenario under different
        names share cache entries, and renaming a scenario does not
        invalidate them.
        """
        return (
            self.device_speed_pattern,
            self.slow_nodes,
            self.slow_node_speed,
            self.intra_bandwidth_scale,
            self.inter_bandwidth_scale,
            self.intra_latency_scale,
            self.inter_latency_scale,
            self.pass_jitter,
            self.comm_jitter,
            self.jitter_devices,
            self.jitter_distribution,
            self.min_jitter_factor,
            self.seed,
        )

    def jitter_device_set(self, num_devices: int) -> frozenset[int]:
        """Concrete device indices whose passes jitter, for a pipeline
        of ``num_devices`` (empty ``jitter_devices`` ⇒ all of them)."""
        if not self.jitter_devices:
            return frozenset(range(num_devices))
        return frozenset(d % num_devices for d in self.jitter_devices)

    # ------------------------------------------------------------------
    # Lowering onto the nominal model
    # ------------------------------------------------------------------

    def device_speeds(self, parallel: ParallelConfig) -> tuple[float, ...]:
        """Per-device relative speed for a concrete pipeline shape."""
        p = parallel.pipeline_size
        if self.device_speed_pattern:
            pattern = self.device_speed_pattern
            speeds = [pattern[d % len(pattern)] for d in range(p)]
        else:
            speeds = [1.0] * p
        if self.slow_nodes and self.slow_node_speed != 1.0:
            num_nodes = parallel.num_nodes
            slow = {node % num_nodes for node in self.slow_nodes}
            for d in range(p):
                if (d // parallel.devices_per_node) in slow:
                    speeds[d] *= self.slow_node_speed
        return tuple(speeds)

    def hardware_for(self, hardware: HardwareModel) -> HardwareModel:
        """The scenario's interconnect lowered into a hardware model."""
        if not self.has_interconnect_scaling:
            return hardware
        return dataclasses.replace(
            hardware,
            intra_node_bandwidth=hardware.intra_node_bandwidth
            * self.intra_bandwidth_scale,
            inter_node_bandwidth=hardware.inter_node_bandwidth
            * self.inter_bandwidth_scale,
            link_latency=hardware.link_latency * self.intra_latency_scale,
            inter_node_latency=hardware.inter_link_latency
            * self.inter_latency_scale,
        )

    def setup_for(self, setup: SimulationSetup) -> SimulationSetup:
        """``setup`` with this scenario's hardware substituted.

        Device speeds and jitter are *not* in the returned setup — they
        apply at runtime-binding time (:meth:`wrap_runtime`,
        :mod:`repro.scenarios.perturb`), so schedule generation keeps
        profiling nominal per-SKU durations.
        """
        if not self.has_interconnect_scaling:
            return setup
        return dataclasses.replace(
            setup, hardware=self.hardware_for(setup.hardware)
        )

    def wrap_runtime(self, runtime: RuntimeModel) -> "ScenarioRuntime | RuntimeModel":
        """Apply device speeds on top of an already-priced runtime.

        The runtime's setup must already carry the scenario hardware
        (:meth:`setup_for`); this wrapper only divides pass durations
        by the device's speed.  Homogeneous scenarios return the
        runtime unchanged.
        """
        speeds = self.device_speeds(runtime.setup.parallel)
        if all(speed == 1.0 for speed in speeds):
            return runtime
        return ScenarioRuntime(runtime, speeds)

    def runtime_for(
        self, setup: SimulationSetup, schedule: Schedule
    ) -> "ScenarioRuntime | RuntimeModel":
        """Scenario-priced runtime for a schedule.

        ``setup`` must be the scenario setup (:meth:`setup_for`) so the
        interconnect tiers are already in its hardware model.
        """
        return self.wrap_runtime(RuntimeModel(setup, schedule))

    def describe(self, parallel: ParallelConfig | None = None) -> str:
        """Multi-line human-readable rendering (CLI ``describe``)."""
        lines = [f"{self.name}: {self.description or '(no description)'}"]
        if self.device_speed_pattern:
            lines.append(f"  device speed pattern: {self.device_speed_pattern}")
        if self.slow_nodes:
            lines.append(
                f"  slow nodes {self.slow_nodes} at speed {self.slow_node_speed}"
            )
        if self.has_interconnect_scaling:
            lines.append(
                "  interconnect: intra bw ×"
                f"{self.intra_bandwidth_scale:g}, inter bw ×"
                f"{self.inter_bandwidth_scale:g}, intra α ×"
                f"{self.intra_latency_scale:g}, inter α ×"
                f"{self.inter_latency_scale:g}"
            )
        if self.has_jitter:
            lines.append(
                f"  jitter: pass ±{self.pass_jitter:.0%}, comm "
                f"±{self.comm_jitter:.0%} ({self.jitter_distribution}, "
                f"seed {self.seed})"
            )
            if self.jitter_devices:
                lines.append(
                    f"  jitter confined to devices {self.jitter_devices}"
                )
        if self.is_nominal:
            lines.append("  nominal homogeneous cluster (no perturbation)")
        if parallel is not None:
            speeds = self.device_speeds(parallel)
            lines.append(
                "  device speeds at p="
                f"{parallel.pipeline_size}: "
                + " ".join(f"{s:g}" for s in speeds)
            )
        return "\n".join(lines)


class ScenarioRuntime:
    """A runtime binding with per-device speed multipliers applied.

    Satisfies the :class:`~repro.sim.runtime.RuntimeModel` stream
    contract — ``pass_duration`` depends only on the pass's
    ``(type, device, chunk)`` — so compiled graphs may price it
    stream-wise (``rebind``) and both simulation engines accept it.
    """

    __slots__ = ("inner", "speeds")

    def __init__(self, inner: RuntimeModel, speeds: tuple[float, ...]):
        self.inner = inner
        self.speeds = speeds

    @property
    def setup(self) -> SimulationSetup:
        return self.inner.setup

    @property
    def schedule(self) -> Schedule:
        return self.inner.schedule

    def pass_duration(self, p) -> float:
        return self.inner.pass_duration(p) / self.speeds[p.device]

    def collective_duration(self, kind) -> float:
        # Collectives are gated by the interconnect (already in the
        # scenario hardware), not by a single device's clock.
        return self.inner.collective_duration(kind)

    def p2p_duration(self, src_device: int, dst_device: int) -> float:
        return self.inner.p2p_duration(src_device, dst_device)
