"""Request layer of the planning service: validate, normalize, execute.

Every HTTP body is parsed into a frozen request dataclass
(:class:`PlanRequest`, :class:`SweepRequest`, :class:`ScenarioRequest`,
:class:`WhatifRequest`) with strict validation — unknown fields, wrong types and out-of-range
values all raise :class:`RequestError`, which the HTTP layer renders as
a 400 instead of a traceback.  A validated request *normalizes to a
digest*: plan requests resolve to the planner's own whole-plan cache
key (:func:`repro.planner.plan_cache_key`), so the service's LRU tier,
the disk-backed :class:`~repro.planner.cache.PlanCache` and the
planner's process-local cache all address the same entry; sweep and
scenario requests digest their normalized fields (scenario identity
enters as the full :meth:`~repro.scenarios.cluster.ClusterScenario.signature`,
never just the name).

The ``execute_*`` functions are the CPU-bound bodies scheduled on the
service's worker pool.  They are top-level so a
:class:`~concurrent.futures.ProcessPoolExecutor` can pickle them, and
they deliberately run through the same code paths as the CLI
(:func:`~repro.planner.plan` / :func:`~repro.planner.plan_points` /
:func:`~repro.scenarios.method_robustness`), so per-worker structural
and plan caches stay warm across requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import KNOWN_METHODS
from repro.optimize import (
    DEFAULT_BUDGET,
    STRATEGY_NAMES,
    optimize,
    optimize_cache_key,
)
from repro.planner.cache import PlanCache, config_digest
from repro.planner.estimate import infeasibility_reason
from repro.planner.planner import (
    PLANNER_VERSION,
    PlannerConstraints,
    RankedPlans,
    plan,
    plan_cache_key,
)
from repro.planner.sweep import (
    SweepOutcome,
    SweepPoint,
    grid,
    model_for_devices,
    plan_points,
)
from repro.planner.whatif import whatif, whatif_cache_key
from repro.scenarios import (
    ClusterScenario,
    RobustnessObjective,
    get_scenario,
    method_robustness,
)

#: Upper bound on grid points a single sweep request may expand to —
#: the request-level guard against one query monopolizing the pool.
MAX_SWEEP_POINTS = 512


class RequestError(ValueError):
    """A malformed or invalid request body (rendered as HTTP 400)."""


_MISSING = object()


def _field(
    payload: dict,
    name: str,
    types: type | tuple[type, ...],
    default: Any = _MISSING,
    *,
    convert: Any = None,
) -> Any:
    """One validated field: present-and-typed, or the default.

    ``bool`` is a subclass of ``int``; requests reject the confusion
    (``"devices": true``) unless bool is explicitly allowed.
    """
    if name not in payload:
        if default is _MISSING:
            raise RequestError(f"missing required field {name!r}")
        return default
    value = payload[name]
    if value is None and default is not _MISSING:
        return default
    if not isinstance(value, types) or (
        isinstance(value, bool)
        and not (types is bool or (isinstance(types, tuple) and bool in types))
    ):
        raise RequestError(
            f"field {name!r} must be {_type_names(types)}, "
            f"got {type(value).__name__}"
        )
    if convert is not None:
        value = convert(name, value)
    return value


def _type_names(types: type | tuple[type, ...]) -> str:
    if not isinstance(types, tuple):
        types = (types,)
    return "/".join(t.__name__ for t in types)


def _coerce_vocab(name: str, value: int | str) -> int:
    """A vocabulary size: ``131072`` or ``"128k"``."""
    if isinstance(value, str):
        text = value.strip().lower()
        try:
            value = int(text[:-1]) * 1024 if text.endswith("k") else int(text)
        except ValueError:
            raise RequestError(
                f"field {name!r}: invalid vocabulary size {text!r}; "
                "use e.g. 131072 or '128k'"
            ) from None
    if value <= 0:
        raise RequestError(f"field {name!r} must be positive, got {value}")
    return value


def _finite(name: str, value: int | float) -> int | float:
    # json.loads accepts the NaN and Infinity tokens; neither is a
    # value any field means, and NaN slips through every comparison.
    if not -math.inf < value < math.inf:
        raise RequestError(f"field {name!r} must be finite, got {value}")
    return value


def _positive(name: str, value: int | float) -> int | float:
    if _finite(name, value) <= 0:
        raise RequestError(f"field {name!r} must be positive, got {value}")
    return value


def _non_negative(name: str, value: int | float) -> int | float:
    if _finite(name, value) < 0:
        raise RequestError(f"field {name!r} must be >= 0, got {value}")
    return value


def pop_deadline(payload: Any, default_ms: float | None = None) -> float | None:
    """Extract ``deadline_ms`` from a parsed body → deadline in *seconds*.

    Every ``POST /v1/*`` body may carry ``deadline_ms`` (a positive
    number of milliseconds the client is willing to wait); the HTTP
    layer enforces it with a 504 on expiry.  The field is **popped**
    before the request dataclass ever sees the payload, so a deadline
    never changes a request's digest — two clients asking the same
    question with different patience share one cache entry and one
    coalesced computation.  Returns ``default_ms`` (converted) when the
    field is absent; raises :class:`RequestError` (→ 400) on a
    non-positive, non-finite or non-numeric value.
    """
    if not isinstance(payload, dict) or "deadline_ms" not in payload:
        raw = default_ms
    else:
        raw = payload.pop("deadline_ms")
        if raw is None:
            raw = default_ms
    if raw is None:
        return None
    if (
        isinstance(raw, bool)
        or not isinstance(raw, (int, float))
        or not 0 < raw < math.inf
    ):
        raise RequestError(
            f"field 'deadline_ms' must be a positive number of "
            f"milliseconds, got {raw!r}"
        )
    return float(raw) / 1000.0


def _validated(request, check):
    """``request``, once ``check()`` has built the library objects it
    denotes; their ``ValueError``/``KeyError`` become a
    :class:`RequestError` (→ 400) carrying the library's message."""
    try:
        check()
    except RequestError:
        raise
    except (ValueError, KeyError) as error:
        message = error.args[0] if error.args else error
        raise RequestError(str(message)) from None
    return request


def _reject_unknown(payload: dict, known: tuple[str, ...], what: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise RequestError(
            f"unknown field(s) in {what} request: {', '.join(unknown)}; "
            f"expected a subset of {sorted(known)}"
        )


def _methods_tuple(payload: dict) -> tuple[str, ...] | None:
    methods = _field(payload, "methods", list, None)
    if methods is None:
        return None
    for method in methods:
        if method not in KNOWN_METHODS:
            raise RequestError(
                f"unknown method {method!r}; expected one of {KNOWN_METHODS}"
            )
    return tuple(methods)


def _top_k(payload: dict) -> int | None:
    """``simulate_top_k``: an int >= 0, or ``"all"`` to simulate everything."""
    value = _field(payload, "simulate_top_k", (int, str), 3)
    if isinstance(value, str):
        if value.strip().lower() == "all":
            return None
        raise RequestError(
            f"field 'simulate_top_k' must be an int >= 0 or 'all', got {value!r}"
        )
    return int(_non_negative("simulate_top_k", value))


def _scenario_name(payload: dict, field: str = "scenario") -> str | None:
    name = _field(payload, field, str, None)
    if name is not None:
        try:
            get_scenario(name)
        except KeyError as error:
            raise RequestError(str(error.args[0])) from None
    return name


def _cost_model_name(payload: dict) -> str | None:
    """``cost_model``: a resolvable cost-model name, or ``None``.

    Resolved eagerly so an unknown profile is a 400 at validation time,
    not a traceback inside a pool worker; only built-in names resolve
    there (runtime registrations are process-local).
    """
    name = _field(payload, "cost_model", str, None)
    if name is not None:
        from repro.costmodel.calibrate import get_cost_model

        try:
            get_cost_model(name)
        except KeyError as error:
            raise RequestError(str(error.args[0])) from None
    return name


def _robustness(payload: dict) -> RobustnessObjective | None:
    """``robustness``: a quantile name or ``{rank_by, samples, seed}``."""
    value = payload.get("robustness")
    if value is None:
        return None
    try:
        if isinstance(value, str):
            return RobustnessObjective(rank_by=value)
        if isinstance(value, dict):
            _reject_unknown(
                value, ("rank_by", "samples", "seed"), "robustness"
            )
            return RobustnessObjective(
                rank_by=_field(value, "rank_by", str, "p95"),
                samples=_field(value, "samples", int, 256, convert=_positive),
                seed=_field(value, "seed", int, 0),
            )
    except ValueError as error:
        if isinstance(error, RequestError):
            raise
        raise RequestError(f"field 'robustness': {error}") from None
    raise RequestError(
        "field 'robustness' must be a quantile name ('p50'/'p95'/'worst'/"
        "'mean') or an object {rank_by, samples, seed}"
    )


# ---------------------------------------------------------------------------
# /v1/plan
# ---------------------------------------------------------------------------

_PLAN_FIELDS = (
    "devices", "vocab_size", "seq_length", "microbatches",
    "memory_budget_gib", "pass_overhead", "scenario", "methods",
    "simulate_top_k", "refine", "robustness", "cost_model",
)


@dataclass(frozen=True)
class PlanRequest:
    """One normalized ``POST /v1/plan`` body.

    Mirrors the ``repro-experiments plan`` surface: the model shape is
    derived from ``devices``/``vocab_size``/``seq_length`` through
    :func:`~repro.planner.model_for_devices`, exactly as the CLI and
    sweep layers do, so equal queries normalize to equal digests no
    matter which entry point produced them.
    """

    devices: int
    vocab_size: int
    seq_length: int = 2048
    microbatches: int = 128
    memory_budget_gib: float | None = None
    pass_overhead: float | None = None
    scenario: str | None = None
    methods: tuple[str, ...] | None = None
    simulate_top_k: int | None = 3
    refine: bool = True
    robustness: RobustnessObjective | None = None
    cost_model: str | None = None

    @classmethod
    def from_payload(cls, payload: Any) -> PlanRequest:
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        _reject_unknown(payload, _PLAN_FIELDS, "plan")
        request = cls(
            devices=_field(payload, "devices", int, convert=_positive),
            vocab_size=_field(
                payload, "vocab_size", (int, str), convert=_coerce_vocab
            ),
            seq_length=_field(
                payload, "seq_length", int, 2048, convert=_positive
            ),
            microbatches=_field(
                payload, "microbatches", int, 128, convert=_positive
            ),
            memory_budget_gib=_field(
                payload, "memory_budget_gib", (int, float), None,
                convert=_positive,
            ),
            pass_overhead=_field(
                payload, "pass_overhead", (int, float), None,
                convert=_non_negative,
            ),
            scenario=_scenario_name(payload),
            methods=_methods_tuple(payload),
            simulate_top_k=_top_k(payload),
            refine=_field(payload, "refine", bool, True),
            robustness=_robustness(payload),
            cost_model=_cost_model_name(payload),
        )
        if request.robustness is not None and request.scenario is None:
            raise RequestError(
                "field 'robustness' requires a 'scenario' (the jitter source)"
            )
        return _validated(request, request.resolve)

    def resolve(
        self,
    ) -> tuple[
        ModelConfig,
        ParallelConfig,
        PlannerConstraints,
        ClusterScenario | None,
        RobustnessObjective | None,
    ]:
        """The planner-level objects this request denotes."""
        model = model_for_devices(self.devices, self.seq_length, self.vocab_size)
        parallel = ParallelConfig(
            pipeline_size=self.devices,
            num_microbatches=self.microbatches,
            microbatch_size=1,
        )
        constraints = PlannerConstraints(
            memory_budget_gib=self.memory_budget_gib,
            methods=self.methods,
            simulate_top_k=self.simulate_top_k,
            refine=self.refine,
            cost_model=self.cost_model,
        )
        scenario = None if self.scenario is None else get_scenario(self.scenario)
        return model, parallel, constraints, scenario, self.robustness

    def digest(self) -> str:
        """The planner's whole-plan cache key for this request.

        Identical to the key :func:`repro.planner.plan` will store the
        result under — the property the tiered cache and the coalescer
        rely on.  Includes the resolved scenario *signature*, so two
        scenarios sharing a name but not a definition never collide.
        """
        model, parallel, constraints, scenario, robustness = self.resolve()
        return plan_cache_key(
            model,
            parallel,
            constraints,
            pass_overhead=self.pass_overhead,
            scenario=scenario,
            robustness=robustness,
        )


def execute_plan_request(
    request: PlanRequest,
    cache_dir: str | None = None,
    max_cache_entries: int | None = None,
) -> RankedPlans:
    """Worker body for one plan request (top-level: pool-picklable)."""
    model, parallel, constraints, scenario, robustness = request.resolve()
    cache = (
        PlanCache(cache_dir, max_entries=max_cache_entries)
        if cache_dir is not None
        else None
    )
    return plan(
        model,
        parallel,
        constraints,
        cache=cache,
        pass_overhead=request.pass_overhead,
        scenario=scenario,
        robustness=robustness,
    )


# ---------------------------------------------------------------------------
# /v1/sweep
# ---------------------------------------------------------------------------

_SWEEP_FIELDS = (
    "devices", "vocab_sizes", "seq_lengths", "microbatches",
    "memory_budgets_gib", "pass_overheads", "scenarios", "methods",
    "simulate_top_k", "refine", "cost_model",
)


def _int_list(payload: dict, name: str, default: Any = _MISSING) -> tuple:
    values = _field(payload, name, list, default)
    if not isinstance(values, tuple):
        if not values:
            raise RequestError(f"field {name!r} must be a non-empty list")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
                raise RequestError(
                    f"field {name!r} must list positive integers, got {v!r}"
                )
        values = tuple(values)
    return values


def _optional_number_list(payload: dict, name: str) -> tuple:
    values = _field(payload, name, list, (None,))
    if not isinstance(values, tuple):
        out = []
        for v in values:
            if v is None:
                out.append(None)
            elif isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0:
                raise RequestError(
                    f"field {name!r} must list positive numbers or null, "
                    f"got {v!r}"
                )
            else:
                out.append(float(v))
        values = tuple(out)
    return values


@dataclass(frozen=True)
class SweepRequest:
    """One normalized ``POST /v1/sweep`` body — a planning grid.

    Axes mirror :func:`repro.planner.grid`; the expansion is bounded by
    :data:`MAX_SWEEP_POINTS` so one request cannot monopolize the
    worker pool.
    """

    devices: tuple[int, ...]
    vocab_sizes: tuple[int, ...]
    seq_lengths: tuple[int, ...] = (2048,)
    microbatches: tuple[int, ...] = (128,)
    memory_budgets_gib: tuple[float | None, ...] = (None,)
    pass_overheads: tuple[float | None, ...] = (None,)
    scenarios: tuple[str | None, ...] = (None,)
    methods: tuple[str, ...] | None = None
    simulate_top_k: int | None = 3
    refine: bool = True
    cost_model: str | None = None

    @classmethod
    def from_payload(cls, payload: Any) -> SweepRequest:
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        _reject_unknown(payload, _SWEEP_FIELDS, "sweep")
        vocab_values = _field(payload, "vocab_sizes", list)
        if not vocab_values:
            raise RequestError("field 'vocab_sizes' must be a non-empty list")
        scenario_values = _field(payload, "scenarios", list, (None,))
        if not isinstance(scenario_values, tuple):
            names: list[str | None] = []
            for name in scenario_values:
                if name is None:
                    names.append(None)
                    continue
                if not isinstance(name, str):
                    raise RequestError(
                        "field 'scenarios' must list scenario names or null, "
                        f"got {name!r}"
                    )
                names.append(_scenario_name({"scenario": name}))
            scenario_values = tuple(names)
        request = cls(
            devices=_int_list(payload, "devices"),
            vocab_sizes=tuple(
                _coerce_vocab("vocab_sizes", v) for v in vocab_values
            ),
            seq_lengths=_int_list(payload, "seq_lengths", (2048,)),
            microbatches=_int_list(payload, "microbatches", (128,)),
            memory_budgets_gib=_optional_number_list(
                payload, "memory_budgets_gib"
            ),
            pass_overheads=_optional_number_list(payload, "pass_overheads"),
            scenarios=scenario_values,
            methods=_methods_tuple(payload),
            simulate_top_k=_top_k(payload),
            refine=_field(payload, "refine", bool, True),
            cost_model=_cost_model_name(payload),
        )
        if len(request.points()) > MAX_SWEEP_POINTS:
            raise RequestError(
                f"sweep expands to {len(request.points())} grid points; "
                f"the service caps one request at {MAX_SWEEP_POINTS}"
            )
        return _validated(request, request.constraints)

    def points(self) -> list[SweepPoint]:
        return grid(
            devices=self.devices,
            vocab_sizes=self.vocab_sizes,
            seq_lengths=self.seq_lengths,
            microbatches=self.microbatches,
            memory_budgets_gib=self.memory_budgets_gib,
            pass_overheads=self.pass_overheads,
            scenarios=self.scenarios,
        )

    def constraints(self) -> PlannerConstraints:
        return PlannerConstraints(
            methods=self.methods,
            simulate_top_k=self.simulate_top_k,
            refine=self.refine,
            cost_model=self.cost_model,
        )

    def digest(self) -> str:
        """Request digest over the normalized grid + constraints.

        Scenario axes contribute their full signatures, so re-registered
        scenario definitions invalidate rather than alias.
        """
        signatures = [
            None if name is None else list(map(repr, get_scenario(name).signature()))
            for name in self.scenarios
        ]
        return config_digest(
            "service-sweep", self.points(), self.constraints(), signatures,
            PLANNER_VERSION,
        )


def execute_sweep_request(
    request: SweepRequest,
    cache_dir: str | None = None,
    max_cache_entries: int | None = None,
) -> list[SweepOutcome]:
    """Worker body for one sweep request (structure-grouped, serial).

    One pool task plans the whole grid through
    :func:`~repro.planner.plan_points` (points pre-grouped by structure
    axes, exactly like :func:`~repro.planner.sweep`'s chunks do), so
    concurrent sweep *requests* parallelize across the pool while each
    request amortizes its structural caches in one worker.
    """
    points = request.points()
    order = sorted(
        range(len(points)), key=lambda i: points[i].structure_axes() + (i,)
    )
    outcomes = plan_points(
        [points[i] for i in order],
        request.constraints(),
        cache_dir,
        max_cache_entries,
    )
    by_input: list[SweepOutcome] = [None] * len(points)  # type: ignore[list-item]
    for position, outcome in zip(order, outcomes):
        by_input[position] = outcome
    return by_input


# ---------------------------------------------------------------------------
# /v1/whatif
# ---------------------------------------------------------------------------

_WHATIF_FIELDS = (
    "devices", "vocab_size", "seq_length", "microbatches", "method",
    "device", "factor", "pass_overhead", "scenario", "refine",
)


@dataclass(frozen=True)
class WhatifRequest:
    """One normalized ``POST /v1/whatif`` body — a what-if query.

    Prices "what if ``device`` ran ``factor``× slower?" against
    ``method``'s schedule via :func:`repro.planner.whatif` — one sweep
    of the perturbed rows over a worker-resident compiled graph, not a
    re-plan.  The model shape derives from
    ``devices``/``vocab_size``/``seq_length`` exactly like
    :class:`PlanRequest`, and the digest is the planner's own what-if
    cache key, so the service tiers and the planner's ``"whatif"``
    auxiliary cache address the same entry.
    """

    devices: int
    vocab_size: int
    method: str
    device: int
    factor: float
    seq_length: int = 2048
    microbatches: int = 128
    pass_overhead: float | None = None
    scenario: str | None = None
    refine: bool = True

    @classmethod
    def from_payload(cls, payload: Any) -> WhatifRequest:
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        _reject_unknown(payload, _WHATIF_FIELDS, "whatif")
        method = _field(payload, "method", str)
        if method not in KNOWN_METHODS:
            raise RequestError(
                f"unknown method {method!r}; expected one of {KNOWN_METHODS}"
            )
        request = cls(
            devices=_field(payload, "devices", int, convert=_positive),
            vocab_size=_field(
                payload, "vocab_size", (int, str), convert=_coerce_vocab
            ),
            method=method,
            device=_field(payload, "device", int),
            factor=float(
                _field(payload, "factor", (int, float), convert=_positive)
            ),
            seq_length=_field(
                payload, "seq_length", int, 2048, convert=_positive
            ),
            microbatches=_field(
                payload, "microbatches", int, 128, convert=_positive
            ),
            pass_overhead=_field(
                payload, "pass_overhead", (int, float), None,
                convert=_non_negative,
            ),
            scenario=_scenario_name(payload),
            refine=_field(payload, "refine", bool, True),
        )
        return _validated(request, request.digest)  # device range, config validity

    def resolve(
        self,
    ) -> tuple[ModelConfig, ParallelConfig, ClusterScenario | None]:
        """The planner-level objects this request denotes."""
        model = model_for_devices(self.devices, self.seq_length, self.vocab_size)
        parallel = ParallelConfig(
            pipeline_size=self.devices,
            num_microbatches=self.microbatches,
            microbatch_size=1,
        )
        scenario = None if self.scenario is None else get_scenario(self.scenario)
        return model, parallel, scenario

    def digest(self) -> str:
        """The planner's what-if cache key for this request.

        Identical to the ``cache_key`` :func:`repro.planner.whatif`
        stamps on its result — same normalization (scenario resolved to
        its signature, negative device indexes wrapped), so the
        service's LRU/disk tiers and the planner's auxiliary cache
        never double-compute one query.
        """
        model, parallel, scenario = self.resolve()
        return whatif_cache_key(
            model,
            parallel,
            method=self.method,
            device=self.device,
            factor=self.factor,
            pass_overhead=self.pass_overhead,
            scenario=scenario,
            refine=self.refine,
        )


def execute_whatif_request(
    request: WhatifRequest,
    cache_dir: str | None = None,
    max_cache_entries: int | None = None,
) -> dict:
    """Worker body for one what-if request (top-level: pool-picklable).

    Returns the JSON-ready result dict.  Besides the planner's
    ``"whatif"`` auxiliary entry (written by :func:`repro.planner.whatif`
    itself), the rendered payload is stored under the main digest so
    the service's *disk* tier can answer repeats without a worker
    round-trip — the same two-level arrangement ``/v1/plan`` gets from
    :func:`~repro.planner.plan`.
    """
    model, parallel, scenario = request.resolve()
    cache = (
        PlanCache(cache_dir, max_entries=max_cache_entries)
        if cache_dir is not None
        else None
    )
    result = whatif(
        model,
        parallel,
        method=request.method,
        device=request.device,
        factor=request.factor,
        pass_overhead=request.pass_overhead,
        scenario=scenario,
        refine=request.refine,
        cache=cache,
    )
    payload = result.as_dict()
    if cache is not None:
        cache.put(result.cache_key, payload)
    return payload


# ---------------------------------------------------------------------------
# /v1/scenarios
# ---------------------------------------------------------------------------

_SCENARIO_FIELDS = (
    "scenario", "method", "devices", "vocab_size", "seq_length",
    "microbatches", "samples", "seed",
)


@dataclass(frozen=True)
class ScenarioRequest:
    """One normalized ``POST /v1/scenarios`` body.

    ``method=None`` compares every implemented family (the CLI's
    ``scenarios compare``); naming a method prices just that one
    (``scenarios run``).  Defaults mirror the CLI: 12 devices so the
    two-tier node boundary is live, 32 microbatches to keep Monte Carlo
    interactive.
    """

    scenario: str
    method: str | None = None
    devices: int = 12
    vocab_size: int = 128 * 1024
    seq_length: int = 2048
    microbatches: int = 32
    samples: int = 256
    seed: int = 0

    @classmethod
    def from_payload(cls, payload: Any) -> ScenarioRequest:
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        _reject_unknown(payload, _SCENARIO_FIELDS, "scenarios")
        name = _scenario_name(payload)
        if name is None:
            raise RequestError("missing required field 'scenario'")
        method = _field(payload, "method", str, None)
        if method is not None and method not in KNOWN_METHODS:
            raise RequestError(
                f"unknown method {method!r}; expected one of {KNOWN_METHODS}"
            )
        return cls(
            scenario=name,
            method=method,
            devices=_field(payload, "devices", int, 12, convert=_positive),
            vocab_size=_field(
                payload, "vocab_size", (int, str), 128 * 1024,
                convert=_coerce_vocab,
            ),
            seq_length=_field(
                payload, "seq_length", int, 2048, convert=_positive
            ),
            microbatches=_field(
                payload, "microbatches", int, 32, convert=_positive
            ),
            samples=_field(payload, "samples", int, 256, convert=_positive),
            seed=_field(payload, "seed", int, 0),
        )

    def digest(self) -> str:
        scenario = get_scenario(self.scenario)
        return config_digest(
            "service-scenarios",
            self,
            list(map(repr, scenario.signature())),
            PLANNER_VERSION,
        )


def execute_scenario_request(request: ScenarioRequest) -> dict:
    """Worker body for one scenario request: Monte Carlo robustness.

    Returns the already-JSON-safe payload (ranked statistics plus the
    structurally skipped methods), mirroring the CLI's ``--json``
    output so service and CLI consumers read one schema.
    """
    scenario = get_scenario(request.scenario)
    model = model_for_devices(
        request.devices, request.seq_length, request.vocab_size
    )
    parallel = ParallelConfig(
        pipeline_size=request.devices,
        num_microbatches=request.microbatches,
        microbatch_size=1,
    )
    methods = [request.method] if request.method else list(KNOWN_METHODS)
    ranked = []
    skipped = []
    for method in methods:
        reason = infeasibility_reason(method, model, parallel)
        if reason is not None:
            skipped.append({"method": method, "reason": reason})
            continue
        stats = method_robustness(
            method,
            model,
            parallel,
            scenario,
            samples=request.samples,
            seed=request.seed,
        )
        ranked.append((method, stats))
    ranked.sort(key=lambda item: (item[1].p95_time, item[0]))
    return {
        "scenario": scenario.name,
        "devices": request.devices,
        "vocab_size": request.vocab_size,
        "seq_length": request.seq_length,
        "microbatches": request.microbatches,
        "samples": request.samples,
        "seed": request.seed,
        "ranked": [
            {"method": method, **stats.as_dict()} for method, stats in ranked
        ],
        "skipped": skipped,
    }


# ---------------------------------------------------------------------------
# JSON rendering of planner results
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# /v1/optimize
# ---------------------------------------------------------------------------

_OPTIMIZE_FIELDS = (
    "devices", "vocab_size", "seq_length", "microbatches",
    "memory_budget_gib", "methods", "scenario", "cost_model",
    "strategy", "seed", "budget", "pass_overhead",
)


@dataclass(frozen=True)
class OptimizeRequest:
    """One normalized ``POST /v1/optimize`` body — a rewrite search.

    Runs :func:`repro.optimize.optimize`: start from the best named
    family for the configuration and search semantics-preserving local
    rewrites for a schedule the simulator verifies as faster.  The
    model shape derives from ``devices``/``vocab_size``/``seq_length``
    exactly like :class:`PlanRequest`; the digest is the optimizer's
    own cache key, so the service tiers and the planner cache's
    ``"optimize"`` auxiliary namespace address the same search.
    """

    devices: int
    vocab_size: int
    seq_length: int = 2048
    microbatches: int = 16
    memory_budget_gib: float | None = None
    methods: tuple[str, ...] | None = None
    scenario: str | None = None
    cost_model: str | None = None
    strategy: str = "greedy"
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    pass_overhead: float | None = None

    @classmethod
    def from_payload(cls, payload: Any) -> OptimizeRequest:
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        _reject_unknown(payload, _OPTIMIZE_FIELDS, "optimize")
        strategy = _field(payload, "strategy", str, "greedy")
        if strategy not in STRATEGY_NAMES:
            raise RequestError(
                f"unknown strategy {strategy!r}; expected one of "
                f"{STRATEGY_NAMES}"
            )
        request = cls(
            devices=_field(payload, "devices", int, convert=_positive),
            vocab_size=_field(
                payload, "vocab_size", (int, str), convert=_coerce_vocab
            ),
            seq_length=_field(
                payload, "seq_length", int, 2048, convert=_positive
            ),
            microbatches=_field(
                payload, "microbatches", int, 16, convert=_positive
            ),
            memory_budget_gib=_field(
                payload, "memory_budget_gib", (int, float), None,
                convert=_positive,
            ),
            methods=_methods_tuple(payload),
            scenario=_scenario_name(payload),
            cost_model=_cost_model_name(payload),
            strategy=strategy,
            seed=_field(payload, "seed", int, 0),
            budget=_field(
                payload, "budget", int, DEFAULT_BUDGET, convert=_positive
            ),
            pass_overhead=_field(
                payload, "pass_overhead", (int, float), None,
                convert=_non_negative,
            ),
        )
        return _validated(request, request.digest)  # config validity, strategy/budget bounds

    def resolve(
        self,
    ) -> tuple[ModelConfig, ParallelConfig, PlannerConstraints,
               ClusterScenario | None]:
        """The optimizer-level objects this request denotes."""
        model = model_for_devices(self.devices, self.seq_length, self.vocab_size)
        parallel = ParallelConfig(
            pipeline_size=self.devices,
            num_microbatches=self.microbatches,
            microbatch_size=1,
        )
        constraints = PlannerConstraints(
            memory_budget_gib=self.memory_budget_gib,
            methods=self.methods,
            cost_model=self.cost_model,
        )
        scenario = None if self.scenario is None else get_scenario(self.scenario)
        return model, parallel, constraints, scenario

    def digest(self) -> str:
        """The optimizer's cache key for this request.

        Identical to the ``cache_key`` :func:`repro.optimize.optimize`
        stamps on its result, so the service's LRU/disk tiers and the
        optimizer's auxiliary cache never double-compute one search.
        """
        model, parallel, constraints, scenario = self.resolve()
        return optimize_cache_key(
            model,
            parallel,
            constraints,
            pass_overhead=self.pass_overhead,
            scenario=scenario,
            strategy=self.strategy,
            seed=self.seed,
            budget=self.budget,
        )


def execute_optimize_request(
    request: OptimizeRequest,
    cache_dir: str | None = None,
    max_cache_entries: int | None = None,
) -> dict:
    """Worker body for one optimize request (top-level: pool-picklable).

    Returns the JSON-ready result dict.  Besides the optimizer's
    ``"optimize"`` auxiliary entry (written by
    :func:`repro.optimize.optimize` itself), the rendered payload is
    stored under the main digest so the service's *disk* tier can
    answer repeats without a worker round-trip — the same two-level
    arrangement ``/v1/whatif`` uses.
    """
    model, parallel, constraints, scenario = request.resolve()
    cache = (
        PlanCache(cache_dir, max_entries=max_cache_entries)
        if cache_dir is not None
        else None
    )
    result = optimize(
        model,
        parallel,
        constraints,
        cache=cache,
        pass_overhead=request.pass_overhead,
        scenario=scenario,
        strategy=request.strategy,
        seed=request.seed,
        budget=request.budget,
    )
    payload = result.as_dict()
    if cache is not None:
        cache.put(result.cache_key, payload)
    return payload


def candidate_to_json(candidate) -> dict:
    """One :class:`~repro.planner.planner.PlanCandidate` as JSON data."""
    data = {
        "method": candidate.method,
        "feasible": candidate.feasible,
        "source": candidate.source,
        "reason": candidate.reason,
        "iteration_time": candidate.iteration_time,
        "peak_memory_gb": candidate.peak_memory_gb,
        "mfu": candidate.mfu,
        "estimated_time": candidate.estimated_time,
        "estimated_peak_gb": candidate.estimated_peak_gb,
    }
    if candidate.robust_time is not None:
        data["robust_time"] = candidate.robust_time
    if candidate.robust_stats is not None:
        data["robust_stats"] = candidate.robust_stats.as_dict()
    return data


def plans_to_json(plans: RankedPlans) -> dict:
    """A :class:`~repro.planner.planner.RankedPlans` as JSON data.

    Deterministic for a deterministic plan: serialized with sorted keys
    by the HTTP layer, coalesced/cached responses are bit-identical to
    the computed one.
    """
    return {
        "model": plans.model.as_dict(),
        "parallel": plans.parallel.as_dict(),
        "memory_budget_gib": plans.memory_budget_gib,
        "pass_overhead": plans.pass_overhead,
        "scenario": None if plans.scenario is None else plans.scenario.name,
        "robustness": (
            None if plans.robustness is None else plans.robustness.as_dict()
        ),
        "cache_key": plans.cache_key,
        "cost_model": plans.cost_model,
        "trust_gated": plans.trust_gated,
        "trust_skipped": list(plans.trust_skipped),
        "best": plans.ranked[0].method if plans.ranked else None,
        "ranked": [candidate_to_json(c) for c in plans.ranked],
        "rejected": [candidate_to_json(c) for c in plans.rejected],
    }


def sweep_to_json(outcomes: list[SweepOutcome]) -> dict:
    """A sweep's outcomes as JSON data (per-point best + full ranking)."""
    points = []
    for outcome in outcomes:
        point = outcome.point
        best = outcome.plans.best if outcome.plans.ranked else None
        points.append(
            {
                "devices": point.devices,
                "vocab_size": point.vocab_size,
                "seq_length": point.seq_length,
                "microbatches": point.num_microbatches,
                "memory_budget_gib": outcome.plans.memory_budget_gib,
                "pass_overhead": point.pass_overhead,
                "scenario": point.scenario,
                "best": None if best is None else best.method,
                "iteration_time": None if best is None else best.iteration_time,
                "mfu": None if best is None else best.mfu,
                "cache_key": outcome.plans.cache_key,
                "ranked": [
                    candidate_to_json(c) for c in outcome.plans.ranked
                ],
            }
        )
    return {"points": points}
