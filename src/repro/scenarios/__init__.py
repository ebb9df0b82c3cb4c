"""Cluster/workload scenarios: heterogeneity, jitter, robust planning.

The paper's evaluation assumes an idealized homogeneous cluster.  This
package models the clusters the paper does *not* cover — mixed SKUs,
straggler nodes, asymmetric interconnects, kernel-time jitter — and
prices every schedule family under them, using the batched-replay
kernel (:meth:`repro.sim.compiled.CompiledGraph.execute_many`) to make
Monte Carlo robustness essentially free per schedule structure.

Programmatic entry points:

* :class:`ClusterScenario` — a frozen description of a non-ideal
  cluster (per-device speeds, two-tier interconnect scales, seeded
  jitter distributions);
* :func:`get_scenario` / :func:`list_scenarios` /
  :func:`register_scenario` — the named registry
  (``homogeneous``, ``mixed-sku``, ``slow-node``,
  ``bandwidth-asymmetric``, ``high-jitter``);
* :func:`method_robustness` / :func:`robustness_stats` — Monte Carlo
  p50/p95/worst-case iteration time and bubble inflation for one
  schedule family or one compiled graph;
* :func:`perturbed_rows` / :func:`perturbation_factors` — the K×nodes
  duration and K×edges lag matrices consumed by ``execute_many``;
* :class:`RobustnessObjective` — how ``plan(..., scenario=...,
  robustness=...)`` samples and ranks.

CLI: ``repro-experiments scenarios list|describe|run|compare``.
"""

from repro.scenarios.cluster import (
    JITTER_DISTRIBUTIONS,
    ClusterScenario,
    ScenarioRuntime,
)
from repro.scenarios.perturb import (
    QUANTILES,
    RobustnessObjective,
    RobustnessStats,
    method_robustness,
    perturbation_factors,
    perturbed_rows,
    robustness_stats,
)
from repro.scenarios.registry import (
    BUILTIN_SCENARIOS,
    get_scenario,
    list_scenarios,
    register_scenario,
    unregister_scenario,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "ClusterScenario",
    "JITTER_DISTRIBUTIONS",
    "QUANTILES",
    "RobustnessObjective",
    "RobustnessStats",
    "ScenarioRuntime",
    "get_scenario",
    "list_scenarios",
    "method_robustness",
    "perturbation_factors",
    "perturbed_rows",
    "register_scenario",
    "robustness_stats",
    "unregister_scenario",
]
