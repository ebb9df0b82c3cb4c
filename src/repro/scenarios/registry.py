"""Built-in cluster scenarios and the process-wide scenario registry.

The built-ins cover the perturbation classes the paper's idealized
evaluation leaves out, one axis each, so tests/benchmarks/docs can
name a well-understood cluster instead of hand-building one:

* ``homogeneous`` — the paper's testbed; the identity scenario used
  for zero-perturbation equivalence checks;
* ``mixed-sku`` — alternating fast/slow device SKUs (e.g. a cluster
  mixing full-clock and power-capped GPUs) with mild kernel jitter;
* ``slow-node`` — one straggler node at 75 % speed plus mild jitter,
  the classic "one bad host" incident;
* ``bandwidth-asymmetric`` — nominal compute, but inter-node links at
  35 % bandwidth and 3× latency (oversubscribed fabric);
* ``high-jitter`` — heavy runtime noise on compute and communication
  (busy shared cluster);
* ``straggler-device`` — kernel-time jitter confined to the last
  pipeline device (one thermally unstable card).

:func:`register_scenario` adds user scenarios; lookups are
case-sensitive by ``name``.
"""

from __future__ import annotations

from repro.scenarios.cluster import ClusterScenario

_BUILTINS = (
    ClusterScenario(
        name="homogeneous",
        description="The paper's idealized testbed: identical devices, "
        "nominal links, no jitter.",
    ),
    ClusterScenario(
        name="mixed-sku",
        description="Alternating fast/slow device SKUs (15% clock gap) "
        "with 3% kernel-time jitter.",
        device_speed_pattern=(1.0, 0.85),
        pass_jitter=0.03,
        comm_jitter=0.03,
    ),
    ClusterScenario(
        name="slow-node",
        description="One straggler node at 75% speed (thermal "
        "throttling) with 5% kernel-time jitter.",
        slow_nodes=(-1,),
        slow_node_speed=0.75,
        pass_jitter=0.05,
        comm_jitter=0.05,
    ),
    ClusterScenario(
        name="bandwidth-asymmetric",
        description="Oversubscribed inter-node fabric: 35% of nominal "
        "cross-node bandwidth, 3x cross-node latency.",
        inter_bandwidth_scale=0.35,
        inter_latency_scale=3.0,
        comm_jitter=0.05,
    ),
    ClusterScenario(
        name="high-jitter",
        description="Busy shared cluster: 15% compute jitter, "
        "30% communication jitter.",
        pass_jitter=0.15,
        comm_jitter=0.30,
    ),
    ClusterScenario(
        name="straggler-device",
        description="One thermally unstable device (last in the "
        "pipeline) with 10% kernel-time jitter; the other devices run "
        "without jitter.",
        pass_jitter=0.10,
        jitter_devices=(-1,),
    ),
)

_REGISTRY: dict[str, ClusterScenario] = {s.name: s for s in _BUILTINS}

#: Names of the scenarios shipped with the library, in gallery order.
BUILTIN_SCENARIOS: tuple[str, ...] = tuple(s.name for s in _BUILTINS)


def get_scenario(name: str) -> ClusterScenario:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown scenario {name!r}; registered scenarios: {known}"
        ) from None


def list_scenarios() -> list[ClusterScenario]:
    """Every registered scenario, built-ins first, then by name."""
    builtins = [_REGISTRY[name] for name in BUILTIN_SCENARIOS]
    extras = sorted(
        (s for name, s in _REGISTRY.items() if name not in BUILTIN_SCENARIOS),
        key=lambda s: s.name,
    )
    return builtins + extras


def register_scenario(
    scenario: ClusterScenario, replace: bool = False
) -> ClusterScenario:
    """Add a scenario to the registry (``replace=True`` to overwrite).

    Built-in names cannot be replaced — redefining what ``slow-node``
    means would silently change cached plans and golden outputs.
    """
    if scenario.name in BUILTIN_SCENARIOS:
        raise ValueError(
            f"cannot replace built-in scenario {scenario.name!r}"
        )
    if scenario.name in _REGISTRY and not replace:
        raise ValueError(
            f"scenario {scenario.name!r} already registered "
            "(pass replace=True to overwrite)"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def unregister_scenario(name: str) -> None:
    """Remove a user-registered scenario (tests); built-ins stay."""
    if name in BUILTIN_SCENARIOS:
        raise ValueError(f"cannot unregister built-in scenario {name!r}")
    _REGISTRY.pop(name, None)
