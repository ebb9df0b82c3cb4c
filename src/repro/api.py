"""repro.api — the unified, versioned public API surface.

Everything a downstream consumer needs lives here, re-exported from its
defining module under one stable namespace:

* :func:`plan` / :class:`PlannerConstraints` / :class:`RankedPlans` —
  rank the named schedule families for one configuration;
* :func:`whatif` / :class:`WhatifResult` — price a single-device
  slowdown against a resident compiled graph;
* :func:`sweep` / :func:`grid` / :class:`SweepOutcome` — plan whole
  (devices, vocab, microbatches, budget) grids in parallel;
* :func:`optimize` / :class:`OptimizedPlan` — token-split the best
  named family's schedule while that is verifiably faster;
* :func:`calibrate` / :func:`fit_profile` / :func:`evaluate_profile` —
  fit and check simulator-calibrated cost models;
* :func:`list_scenarios` / :func:`get_scenario` /
  :func:`register_scenario` — the non-ideal cluster registry;
* :class:`PlanCache` / :func:`clear_plan_cache` — the shared result
  cache.

:data:`API_VERSION` tracks the *shape* of this surface (names and
signatures), and matches the ``api_version`` field every service
response carries.  Import from here or from the defining submodule;
the ``repro.planner`` package itself re-exports nothing.
"""

from __future__ import annotations

from repro.config import ModelConfig, ParallelConfig
from repro.costmodel.calibrate import (
    BUILTIN_PROFILE,
    CalibrationReport,
    CostModel,
    HardwareProfile,
    check_profile,
    evaluate_profile,
    fit_profile,
    get_cost_model,
    list_cost_models,
    register_cost_model,
    resolve_cost_model,
)
from repro.costmodel.hardware import A100_SXM_80G, HardwareModel
from repro.costmodel.memory import MemoryModel
from repro.optimize import (
    DEFAULT_BUDGET,
    OptimizedPlan,
    optimize,
    optimize_cache_key,
)
from repro.planner.cache import PlanCache, config_digest
from repro.planner.planner import (
    PlanCandidate,
    PlannerConstraints,
    RankedPlans,
    clear_plan_cache,
    default_plan_cache,
    plan,
    plan_cache_key,
)
from repro.planner.sweep import (
    SweepOutcome,
    SweepPoint,
    grid,
    model_for_devices,
    sweep,
)
from repro.planner.whatif import WhatifResult, whatif, whatif_cache_key
from repro.scenarios import (
    ClusterScenario,
    RobustnessObjective,
    get_scenario,
    list_scenarios,
    register_scenario,
)

#: Version of the public API *shape* — the set of names exported here
#: and the service's wire envelope.  Bumped on breaking changes to
#: either; service responses echo it as ``api_version``.
API_VERSION = 1


def calibrate(
    name: str = BUILTIN_PROFILE,
    *,
    quick: bool = False,
    seed: int = 0,
    hardware: HardwareModel = A100_SXM_80G,
) -> HardwareProfile:
    """Fit a simulator-calibrated cost-model profile.

    Facade alias for :func:`repro.costmodel.calibrate.fit_profile`,
    named for the CLI verb (``repro-experiments calibrate fit``).
    """
    return fit_profile(name, quick=quick, seed=seed, hardware=hardware)


__all__ = [
    "A100_SXM_80G",
    "API_VERSION",
    "BUILTIN_PROFILE",
    "CalibrationReport",
    "ClusterScenario",
    "CostModel",
    "DEFAULT_BUDGET",
    "HardwareModel",
    "HardwareProfile",
    "MemoryModel",
    "ModelConfig",
    "OptimizedPlan",
    "ParallelConfig",
    "PlanCache",
    "PlanCandidate",
    "PlannerConstraints",
    "RankedPlans",
    "RobustnessObjective",
    "SweepOutcome",
    "SweepPoint",
    "WhatifResult",
    "calibrate",
    "check_profile",
    "clear_plan_cache",
    "config_digest",
    "default_plan_cache",
    "evaluate_profile",
    "fit_profile",
    "get_cost_model",
    "get_scenario",
    "grid",
    "list_cost_models",
    "list_scenarios",
    "model_for_devices",
    "optimize",
    "optimize_cache_key",
    "plan",
    "plan_cache_key",
    "register_cost_model",
    "register_scenario",
    "resolve_cost_model",
    "sweep",
    "whatif",
    "whatif_cache_key",
]
