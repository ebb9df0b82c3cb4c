"""Long-running planning service (``repro-experiments serve``).

Turns the planner's one-shot CLI into sustained serving: an asyncio
HTTP front end (stdlib only) with request coalescing, a tiered
LRU → disk → compute cache hierarchy, and CPU-bound planning scheduled
on the persistent worker pools sweeps already keep warm.  See
``docs/service.md`` for the endpoint and deployment reference.

Programmatic entry points:

* :class:`PlanningService` — the server; :meth:`~PlanningService.run`
  blocks (CLI), :class:`ServiceThread` hosts it on a thread (tests,
  benchmarks, the load generator);
* :class:`PlanRequest` / :class:`SweepRequest` /
  :class:`ScenarioRequest` / :class:`WhatifRequest` /
  :class:`OptimizeRequest` — validated request bodies, each
  normalizing to a cache digest;
* :data:`OPERATIONS` — the operation table: each ``POST /v1/*``
  route's request class, worker body, renderer and disk tier;
* :class:`~repro.service.resilience.AdmissionController` /
  :class:`~repro.service.resilience.CircuitBreaker` — the resilience
  machinery (deadlines, load shedding, supervised pool recovery; see
  the "Resilience" section of ``docs/service.md``);
* :data:`ROUTES` — the served route table (ground truth for docs
  validation).
"""

from repro.service.app import (
    ROUTES,
    PlanningService,
    Route,
    ServiceStats,
    ServiceThread,
    shutdown_and_check_workers,
)
from repro.service.requests import (
    MAX_SWEEP_POINTS,
    OPERATIONS,
    OptimizeRequest,
    PlanRequest,
    RequestError,
    ScenarioRequest,
    SweepRequest,
    WhatifRequest,
    execute_plan_request,
    execute_scenario_request,
    execute_sweep_request,
    execute_whatif_request,
    plans_to_json,
    pop_deadline,
    sweep_to_json,
)
from repro.service.resilience import (
    AdmissionController,
    CircuitBreaker,
    Shed,
)

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "MAX_SWEEP_POINTS",
    "OPERATIONS",
    "OptimizeRequest",
    "PlanRequest",
    "PlanningService",
    "RequestError",
    "ROUTES",
    "Route",
    "ScenarioRequest",
    "ServiceStats",
    "ServiceThread",
    "Shed",
    "SweepRequest",
    "WhatifRequest",
    "execute_plan_request",
    "execute_scenario_request",
    "execute_sweep_request",
    "execute_whatif_request",
    "plans_to_json",
    "pop_deadline",
    "shutdown_and_check_workers",
    "sweep_to_json",
]
