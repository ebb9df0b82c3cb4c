"""Operation specs: one declaration per parameter, for the wire and the CLI.

Each planning operation — plan, sweep, what-if, scenarios, optimize — is
a frozen request dataclass built from one *spec*: a tuple of
:class:`Param` records, each carrying a field's name, accepted JSON
types, default, validator, CLI flag and help text.  Everything else is
derived from that tuple, written once:

* **JSON validation** — :meth:`_Request.from_payload` parses any body
  against the spec: unknown fields, wrong types (``true`` is never an
  int), NaN/Infinity and out-of-range values raise
  :class:`RequestError`, which the HTTP layer renders as a 400;
* **CLI flags** — ``repro-experiments plan|optimize|whatif|scenarios``
  add each flagged field as an argparse option and build the same
  request objects through :meth:`~_Request.from_payload`
  (:mod:`repro.harness.cli`), so both surfaces share every default,
  check and message;
* **library objects** — :meth:`_ConfigRequest.resolve` builds the
  model, parallel, constraint and scenario objects of a request.

A validated request *normalizes to a digest*: plan requests resolve to
the planner's own whole-plan cache key
(:func:`repro.api.plan_cache_key`), so the service's LRU tier, the
disk-backed :class:`~repro.planner.cache.PlanCache` and the planner's
process-local cache all address the same entry; sweep and scenario
requests digest their normalized fields (scenario identity enters as
the full :meth:`~repro.scenarios.cluster.ClusterScenario.signature`,
never just the name).

The ``execute_*`` functions are the CPU-bound bodies scheduled on the
service's worker pool.  They are top-level so a
:class:`~concurrent.futures.ProcessPoolExecutor` can pickle them, and
they run the same library calls as the CLI (:func:`repro.api.plan`,
:func:`~repro.planner.sweep.sweep`, :func:`repro.api.whatif`,
:func:`repro.api.optimize`, :func:`~repro.scenarios.method_robustness`),
so per-worker structural and plan caches stay warm across requests.
:data:`OPERATIONS` ties each ``POST /v1/*`` route to its request class,
worker body and JSON renderer; the service serves it as data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, ClassVar, NamedTuple

from repro.config import ModelConfig, ParallelConfig
from repro.harness.experiments import KNOWN_METHODS
from repro.optimize import (
    DEFAULT_BUDGET,
    OptimizedPlan,
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
    sweep,
)
from repro.planner.whatif import WhatifResult, whatif, whatif_cache_key
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


#: Default of a field every request must carry.
REQUIRED: Any = object()


@dataclass(frozen=True)
class Param:
    """One operation parameter, declared once for the wire and the CLI.

    ``types`` are the JSON types the field accepts (``bool`` is never
    taken for an ``int``); ``None`` leaves all typing to ``check``.
    ``check(name, value)`` validates a well-typed value and returns the
    field's normalized value, raising :class:`RequestError`.  ``flag``
    is the CLI option (``None``: the field is wire-only); ``many`` lets
    it take several values, planned as a grid; ``cli_default`` replaces
    ``default`` on the CLI, where a command needs a value the wire
    requires from the client (or, for ``scenarios run``, a method).
    """

    name: str
    types: type | tuple[type, ...] | None
    default: Any = REQUIRED
    check: Callable[[str, Any], Any] | None = None
    flag: str | None = None
    help: str | None = None
    metavar: str | None = None
    many: bool = False
    cli_default: Any = REQUIRED

    def parse(self, payload: dict) -> Any:
        """This field of ``payload``: present and valid, or the default."""
        value = payload.get(self.name)
        if value is None and self.default is not REQUIRED:
            return self.default
        if self.name not in payload:
            raise RequestError(f"missing required field {self.name!r}")
        return self.accept(self.name, value)

    def accept(self, name: str, value: Any) -> Any:
        """``value`` typed and checked as this field, reported as ``name``."""
        types = self.types if isinstance(self.types, tuple) else (self.types,)
        if self.types is not None and (
            not isinstance(value, types)
            or (isinstance(value, bool) and bool not in types)
        ):
            raise RequestError(
                f"field {name!r} must be "
                f"{'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__}"
            )
        return value if self.check is None else self.check(name, value)


def _parse(spec: tuple[Param, ...], payload: dict, what: str) -> dict:
    """Every field of ``spec`` parsed from ``payload`` (a JSON object)."""
    unknown = sorted(set(payload) - {param.name for param in spec})
    if unknown:
        raise RequestError(
            f"unknown field(s) in {what} request: {', '.join(unknown)}; "
            f"expected a subset of {sorted(param.name for param in spec)}"
        )
    return {param.name: param.parse(payload) for param in spec}


# ---------------------------------------------------------------------------
# Field checks: (name, well-typed value) -> normalized value
# ---------------------------------------------------------------------------


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


def _vocab(name: str, value: int | str) -> int:
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


def _factor(name: str, value: int | float) -> float:
    return float(_positive(name, value))


def _method(name: str, value: str) -> str:
    if value not in KNOWN_METHODS:
        raise RequestError(
            f"unknown method {value!r}; expected one of {KNOWN_METHODS}"
        )
    return value


def _methods(name: str, value: list) -> tuple[str, ...]:
    return tuple(_method(name, method) for method in value)


def _top_k(name: str, value: int | str) -> int | None:
    """An int >= 0, or ``"all"`` to simulate everything (``None``)."""
    if isinstance(value, str):
        if value.strip().lower() == "all":
            return None
        raise RequestError(
            f"field {name!r} must be an int >= 0 or 'all', got {value!r}"
        )
    return int(_non_negative(name, value))


def _scenario(name: str, value: str) -> str:
    try:
        get_scenario(value)
    except KeyError as error:
        raise RequestError(str(error.args[0])) from None
    return value


def _cost_model(name: str, value: str) -> str:
    """A resolvable cost-model name.

    Resolved eagerly so an unknown profile is a 400 at validation time,
    not a traceback inside a pool worker; only built-in names resolve
    there (runtime registrations are process-local).
    """
    from repro.costmodel.calibrate import get_cost_model

    try:
        get_cost_model(value)
    except KeyError as error:
        raise RequestError(str(error.args[0])) from None
    return value


#: The object form of ``robustness``; defaults are the objective's own.
_ROBUSTNESS = (
    Param("rank_by", str, RobustnessObjective.rank_by),
    Param("samples", int, RobustnessObjective.samples, _positive),
    Param("seed", int, RobustnessObjective.seed),
)


def _robustness(name: str, value: Any) -> RobustnessObjective:
    """A quantile name, or an object ``{rank_by, samples, seed}``."""
    if not isinstance(value, (str, dict)):
        raise RequestError(
            f"field {name!r} must be a quantile name ('p50'/'p95'/'worst'/"
            "'mean') or an object {rank_by, samples, seed}"
        )
    body = {"rank_by": value} if isinstance(value, str) else value
    parsed = _parse(_ROBUSTNESS, body, name)
    try:
        return RobustnessObjective(**parsed)
    except ValueError as error:
        raise RequestError(f"field {name!r}: {error}") from None


def axis(scalar: Param, name: str) -> Param:
    """The sweep axis ``name``: a non-empty list of ``scalar`` values.

    Each element is typed and checked by the scalar field itself, so an
    element's error is the scalar field's message under the axis's
    name.  ``null`` is an element only where the scalar default is
    ``None``; the axis defaults to ``[scalar default]``.  Numbers of a
    field that accepts floats are stored as floats, as grid points
    always have been.
    """
    nullable = scalar.default is None
    as_float = isinstance(scalar.types, tuple) and float in scalar.types

    def element(name: str, value: Any) -> Any:
        if value is None and nullable:
            return None
        value = scalar.accept(name, value)
        return float(value) if as_float else value

    def check(name: str, values: list) -> tuple:
        if not values:
            raise RequestError(f"field {name!r} must be a non-empty list")
        return tuple(element(name, value) for value in values)

    default = REQUIRED if scalar.default is REQUIRED else (scalar.default,)
    return Param(name, list, default, check)


# ---------------------------------------------------------------------------
# Shared parameters (operations override help and defaults with replace())
# ---------------------------------------------------------------------------

_DEVICES = Param(
    "devices", int, REQUIRED, _positive, flag="--devices",
    help="pipeline device count",
)
_VOCAB = Param(
    "vocab_size", (int, str), REQUIRED, _vocab, flag="--vocab",
    metavar="SIZE", help="vocabulary size, e.g. 128k or 131072",
)
_SEQ = Param(
    "seq_length", int, 2048, _positive, flag="--seq", metavar="SEQ",
    help="sequence length",
)
_MICROBATCHES = Param(
    "microbatches", int, 128, _positive, flag="--microbatches",
    help="microbatches per iteration (paper: 128)",
)
_BUDGET = Param(
    "memory_budget_gib", (int, float), None, _positive,
    flag="--memory-budget", metavar="GIB",
    help="per-device peak-memory budget in GiB (default: the A100's 80)",
)
_OVERHEAD = Param(
    "pass_overhead", (int, float), None, _non_negative,
    flag="--pass-overhead", metavar="S",
    help="per-pass host overhead binding in seconds",
)
_SCENARIO = Param(
    "scenario", str, None, _scenario, flag="--scenario", metavar="NAME"
)
_METHODS = Param(
    "methods", list, None, _methods, flag="--methods", metavar="METHOD",
    help="restrict the search to these schedule families",
)
_TOP_K = Param(
    "simulate_top_k", (int, str), 3, _top_k, flag="--top-k", metavar="K",
    help="simulate the K best-estimated candidates (0: estimates only, "
    "'all': simulate everything; default %(default)s)",
)
_REFINE = Param("refine", bool, True)
_COST_MODEL = Param(
    "cost_model", str, None, _cost_model, flag="--cost-model",
    metavar="NAME",
    help="price estimates with a calibrated cost-model profile "
    "(see 'repro-experiments calibrate'); a calibrated profile "
    "also trust-gates the top-k simulation (default: analytic)",
)

_DEADLINE = Param("deadline_ms", (int, float), None, _positive)


def pop_deadline(payload: Any) -> float | None:
    """Extract ``deadline_ms`` from a parsed body → deadline in *seconds*.

    Every ``POST /v1/*`` body may carry ``deadline_ms`` (a positive
    number of milliseconds the client is willing to wait); the HTTP
    layer enforces it with a 504 on expiry.  The field is **popped**
    before the request dataclass ever sees the payload, so a deadline
    never changes a request's digest — two clients asking the same
    question with different patience share one cache entry and one
    coalesced computation.  Returns ``None`` (no deadline) when the
    field is absent or null; raises :class:`RequestError` (→ 400) on a
    value the ``deadline_ms`` field rejects.
    """
    raw = payload.pop(_DEADLINE.name, None) if isinstance(payload, dict) else None
    ms = _DEADLINE.parse({_DEADLINE.name: raw})
    return None if ms is None else float(ms) / 1000.0


#: Request fields that are :class:`PlannerConstraints` fields.
_CONSTRAINT_FIELDS = (
    "memory_budget_gib", "methods", "simulate_top_k", "refine", "cost_model",
)


def _operation(name: str, *spec: Param):
    """Class decorator: ``cls`` as the frozen request dataclass of ``spec``.

    Fields are declared in ``spec`` order, which is also the order a
    body's fields are validated in: a body with several invalid fields
    reports the first.
    """

    def build(cls):
        cls.__annotations__ = {param.name: "Any" for param in spec}
        for param in spec:
            if param.default is not REQUIRED:
                setattr(cls, param.name, param.default)
        cls.OPERATION = name
        cls.SPEC = spec
        return dataclass(frozen=True)(cls)

    return build


def _disk_cache(cache_dir: str | None) -> PlanCache | None:
    return None if cache_dir is None else PlanCache(cache_dir)


class Resolved(NamedTuple):
    """The library objects one single-configuration request denotes."""

    model: ModelConfig
    parallel: ParallelConfig
    constraints: PlannerConstraints
    scenario: ClusterScenario | None


class _Request:
    """Behaviour every operation derives from its spec."""

    #: The operation's name (``/v1/<name>``) and its parameters.
    OPERATION: ClassVar[str]
    SPEC: ClassVar[tuple[Param, ...]]

    @classmethod
    def from_payload(cls, payload: Any):
        """Validate a parsed JSON body into a request, or raise
        :class:`RequestError` carrying the reason."""
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        request = cls(**_parse(cls.SPEC, payload, cls.OPERATION))
        try:
            request.validate()
        except RequestError:
            raise
        except (ValueError, KeyError) as error:
            # The library's own check on the objects the request
            # denotes; its message is the 400's.
            message = error.args[0] if error.args else error
            raise RequestError(str(message)) from None
        return request

    def validate(self) -> None:
        """Cross-field checks; library ``ValueError``/``KeyError``
        become a :class:`RequestError` with the library's message."""

    def constraints(self) -> PlannerConstraints:
        return PlannerConstraints(
            **{name: getattr(self, name) for name in _CONSTRAINT_FIELDS if hasattr(self, name)}
        )


class _ConfigRequest(_Request):
    """A request about one model/pipeline configuration."""

    def resolve(self) -> Resolved:
        """The model, parallel, constraint and scenario objects."""
        model = model_for_devices(self.devices, self.seq_length, self.vocab_size)
        parallel = ParallelConfig(
            pipeline_size=self.devices,
            num_microbatches=self.microbatches,
            microbatch_size=1,
        )
        scenario = None if self.scenario is None else get_scenario(self.scenario)
        return Resolved(model, parallel, self.constraints(), scenario)


# ---------------------------------------------------------------------------
# /v1/plan
# ---------------------------------------------------------------------------


@_operation(
    "plan",
    replace(
        _DEVICES, many=True, cli_default=8,
        help="pipeline device counts to plan for (several values sweep a grid)",
    ),
    replace(
        _VOCAB, many=True, cli_default=128 * 1024,
        help="vocabulary sizes, e.g. 128k or 131072",
    ),
    _SEQ,
    _MICROBATCHES,
    _BUDGET,
    replace(
        _OVERHEAD, many=True,
        help="per-pass host overhead bindings in seconds (several values "
        "sweep the §7 overhead ablation over shared schedule structures)",
    ),
    replace(
        _SCENARIO,
        help="price the plan under a registered cluster scenario "
        "(see 'repro-experiments scenarios list')",
    ),
    _METHODS,
    _TOP_K,
    _REFINE,
    Param("robustness", None, None, _robustness),
    _COST_MODEL,
)
class PlanRequest(_ConfigRequest):
    """One normalized ``POST /v1/plan`` body (``repro-experiments plan``).

    The model shape is derived from ``devices``/``vocab_size``/
    ``seq_length`` through :func:`~repro.planner.sweep.model_for_devices`,
    exactly as the sweep layer does, so equal queries normalize to equal
    digests no matter which entry point produced them.
    """

    def validate(self) -> None:
        if self.robustness is not None and self.scenario is None:
            raise RequestError(
                "field 'robustness' requires a 'scenario' (the jitter source)"
            )
        self.resolve()

    def point(self) -> SweepPoint:
        """This request as one grid point of a CLI sweep."""
        return SweepPoint(
            self.devices, self.vocab_size, self.seq_length, self.microbatches,
            self.memory_budget_gib, self.pass_overhead, self.scenario,
        )

    def digest(self) -> str:
        """The planner's whole-plan cache key for this request.

        Identical to the key :func:`repro.api.plan` will store the
        result under — the property the tiered cache and the coalescer
        rely on.  Includes the resolved scenario *signature*, so two
        scenarios sharing a name but not a definition never collide.
        """
        model, parallel, constraints, scenario = self.resolve()
        return plan_cache_key(
            model,
            parallel,
            constraints,
            pass_overhead=self.pass_overhead,
            scenario=scenario,
            robustness=self.robustness,
        )

    def run(self, cache: PlanCache | None = None) -> RankedPlans:
        model, parallel, constraints, scenario = self.resolve()
        return plan(
            model,
            parallel,
            constraints,
            cache=cache,
            pass_overhead=self.pass_overhead,
            scenario=scenario,
            robustness=self.robustness,
        )


def execute_plan_request(
    request: PlanRequest, cache_dir: str | None = None
) -> RankedPlans:
    """Worker body for one plan request (top-level: pool-picklable)."""
    return request.run(_disk_cache(cache_dir))


# ---------------------------------------------------------------------------
# /v1/sweep
# ---------------------------------------------------------------------------


@_operation(
    "sweep",
    axis(_DEVICES, "devices"),
    axis(_VOCAB, "vocab_sizes"),
    axis(_SEQ, "seq_lengths"),
    axis(_MICROBATCHES, "microbatches"),
    axis(_BUDGET, "memory_budgets_gib"),
    axis(_OVERHEAD, "pass_overheads"),
    axis(_SCENARIO, "scenarios"),
    replace(_METHODS, flag=None),
    replace(_TOP_K, flag=None),
    _REFINE,
    replace(_COST_MODEL, flag=None),
)
class SweepRequest(_Request):
    """One normalized ``POST /v1/sweep`` body — a planning grid.

    Axes mirror :func:`repro.api.grid`; the expansion is bounded by
    :data:`MAX_SWEEP_POINTS` so one request cannot monopolize the
    worker pool.
    """

    def validate(self) -> None:
        if len(self.points()) > MAX_SWEEP_POINTS:
            raise RequestError(
                f"sweep expands to {len(self.points())} grid points; "
                f"the service caps one request at {MAX_SWEEP_POINTS}"
            )
        self.constraints()

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
    request: SweepRequest, cache_dir: str | None = None
) -> list[SweepOutcome]:
    """Worker body for one sweep request (structure-grouped, serial).

    One pool task plans the whole grid through a serial
    :func:`~repro.planner.sweep.sweep`, so concurrent sweep *requests*
    parallelize across the pool while each request amortizes its
    structural caches in one worker.
    """
    return sweep(
        request.points(), request.constraints(), executor="serial",
        cache_dir=cache_dir,
    )


# ---------------------------------------------------------------------------
# /v1/whatif
# ---------------------------------------------------------------------------


@_operation(
    "whatif",
    replace(_DEVICES, cli_default=8),
    replace(_VOCAB, cli_default=128 * 1024),
    Param(
        "method", str, REQUIRED, _method, flag="--method", metavar="METHOD",
        cli_default="vocab-1",
        help="schedule family to perturb (default %(default)s)",
    ),
    Param(
        "device", int, REQUIRED, flag="--device", cli_default=-1,
        help="device whose passes slow down; negative counts from the "
        "end of the pipeline (default %(default)s, the last device)",
    ),
    Param(
        "factor", (int, float), REQUIRED, _factor, flag="--factor",
        cli_default=1.3,
        help="duration multiplier for the perturbed device "
        "(default %(default)s)",
    ),
    _SEQ,
    _MICROBATCHES,
    _OVERHEAD,
    replace(
        _SCENARIO,
        help="price the baseline under a registered cluster scenario",
    ),
    _REFINE,
)
class WhatifRequest(_ConfigRequest):
    """One normalized ``POST /v1/whatif`` body (``repro-experiments whatif``).

    Prices "what if ``device`` ran ``factor``× slower?" against
    ``method``'s schedule via :func:`repro.api.whatif` — one sweep of
    the perturbed rows over a worker-resident compiled graph, not a
    re-plan.  The digest is the planner's own what-if cache key, so the
    service tiers and the planner's ``"whatif"`` auxiliary cache address
    the same entry.
    """

    def validate(self) -> None:
        self.digest()  # device range, config validity

    def digest(self) -> str:
        """The planner's what-if cache key for this request.

        Identical to the ``cache_key`` :func:`repro.api.whatif` stamps
        on its result — same normalization (scenario resolved to its
        signature, negative device indexes wrapped), so the service's
        LRU/disk tiers and the planner's auxiliary cache never
        double-compute one query.
        """
        model, parallel, _, scenario = self.resolve()
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

    def run(self, cache: PlanCache | None = None) -> WhatifResult:
        model, parallel, _, scenario = self.resolve()
        return whatif(
            model,
            parallel,
            method=self.method,
            device=self.device,
            factor=self.factor,
            pass_overhead=self.pass_overhead,
            scenario=scenario,
            refine=self.refine,
            cache=cache,
        )


def execute_stored_request(
    request: WhatifRequest | OptimizeRequest, cache_dir: str | None = None
) -> dict:
    """Worker body for one what-if or optimize request (pool-picklable).

    Returns the JSON-ready result dict.  Besides the library's own
    auxiliary entry (``"whatif"``/``"optimize"``, written by
    :func:`repro.api.whatif`/:func:`repro.api.optimize` themselves), the
    rendered payload is stored under the main digest so the service's
    *disk* tier can answer repeats without a worker round-trip — the
    same two-level arrangement ``/v1/plan`` gets from
    :func:`repro.api.plan`.
    """
    cache = _disk_cache(cache_dir)
    result = request.run(cache)
    payload = result.as_dict()
    if cache is not None:
        cache.put(result.cache_key, payload)
    return payload


#: The what-if worker body under its operation's name.
execute_whatif_request = execute_stored_request


# ---------------------------------------------------------------------------
# /v1/scenarios
# ---------------------------------------------------------------------------


@_operation(
    "scenarios",
    replace(
        _SCENARIO,
        help="registered scenario name (required for describe/run/compare)",
    ),
    Param(
        "method", str, None, _method, flag="--method", metavar="METHOD",
        cli_default="vocab-1",
        help="schedule family for 'run' (default %(default)s)",
    ),
    replace(
        _DEVICES, default=12,
        help="pipeline device count (default %(default)s — two nodes of "
        "8+4, so node-level scenarios like slow-node and "
        "bandwidth-asymmetric have a real inter-node boundary to act on)",
    ),
    replace(_VOCAB, default=128 * 1024),
    _SEQ,
    replace(
        _MICROBATCHES, default=32,
        help="microbatches per iteration (default %(default)s — smaller "
        "than the paper's 128 to keep Monte Carlo interactive)",
    ),
    Param(
        "samples", int, 256, _positive, flag="--samples", metavar="K",
        help="Monte Carlo jitter samples per method (default %(default)s)",
    ),
    Param(
        "seed", int, 0, flag="--seed",
        help="sample seed combined with the scenario's base seed",
    ),
)
class ScenarioRequest(_ConfigRequest):
    """One normalized ``POST /v1/scenarios`` body.

    ``method=None`` compares every implemented family
    (``repro-experiments scenarios compare``); naming a method prices
    just that one (``scenarios run``).  Defaults: 12 devices so the
    two-tier node boundary is live, 32 microbatches to keep Monte Carlo
    interactive.
    """

    def validate(self) -> None:
        if self.scenario is None:
            raise RequestError("missing required field 'scenario'")
        self.resolve()

    def digest(self) -> str:
        scenario = get_scenario(self.scenario)
        return config_digest(
            "service-scenarios",
            self,
            list(map(repr, scenario.signature())),
            PLANNER_VERSION,
        )


def execute_scenario_request(
    request: ScenarioRequest, cache_dir: str | None = None
) -> dict:
    """Worker body for one scenario request: Monte Carlo robustness.

    Returns the JSON-safe payload: the measured methods ranked by p95
    (method name as tie-break) plus the structurally skipped ones —
    the schema ``repro-experiments scenarios run|compare --format
    json`` prints too.  The cache argument only keeps every worker
    body's signature alike: Monte Carlo results are never disk-cached.
    """
    model, parallel, _, scenario = request.resolve()
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
# /v1/optimize
# ---------------------------------------------------------------------------


@_operation(
    "optimize",
    replace(_DEVICES, cli_default=8),
    replace(_VOCAB, cli_default=128 * 1024),
    _SEQ,
    replace(
        _MICROBATCHES, default=16,
        help="microbatches per iteration (default %(default)s — small "
        "enough to keep the search interactive, with token-split headroom)",
    ),
    _BUDGET,
    replace(_METHODS, help="restrict the starting named families"),
    replace(_SCENARIO, help="optimize under a registered cluster scenario's runtime"),
    _COST_MODEL,
    Param(
        "seed", int, 0, flag="--seed",
        help="recorded in the result and its cache key; changes no other "
        "output (default %(default)s)",
    ),
    Param(
        "budget", int, DEFAULT_BUDGET, _positive, flag="--budget",
        metavar="N",
        help="oracle evaluations the search may spend; the split chain "
        "spends at most 3 (default %(default)s)",
    ),
    _OVERHEAD,
)
class OptimizeRequest(_ConfigRequest):
    """One normalized ``POST /v1/optimize`` body — a token-split search.

    Runs :func:`repro.api.optimize`: take the best named family for the
    configuration and token-split its schedule at factors 2 and 4 while
    the simulator verifies each split as fitting and faster.  The
    digest is the optimizer's own cache key, so the service tiers and
    the planner cache's ``"optimize"`` auxiliary namespace address the
    same search.  A configuration no family fits raises
    :class:`~repro.planner.planner.NoFeasibleSchedule`, which the
    service answers with a 422.
    """

    def validate(self) -> None:
        self.digest()  # config validity, budget bound

    def digest(self) -> str:
        """The optimizer's cache key for this request.

        Identical to the ``cache_key`` :func:`repro.api.optimize`
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
            seed=self.seed,
            budget=self.budget,
        )

    def run(self, cache: PlanCache | None = None) -> OptimizedPlan:
        model, parallel, constraints, scenario = self.resolve()
        return optimize(
            model,
            parallel,
            constraints,
            cache=cache,
            pass_overhead=self.pass_overhead,
            scenario=scenario,
            seed=self.seed,
            budget=self.budget,
        )


# ---------------------------------------------------------------------------
# JSON rendering of planner results
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# The operation table
# ---------------------------------------------------------------------------


class Operation(NamedTuple):
    """One ``POST /v1/<OPERATION>`` endpoint of the service, as data."""

    #: The request dataclass a body validates into.
    request: type[_Request]
    #: Worker body ``(request, cache_dir)``, run on
    #: the pool on a full cache miss (top-level: pool-picklable).
    execute: Callable[..., Any]
    #: Whether the leader probes the disk tier for the whole result
    #: (the worker stored it under the request digest).
    disk: bool
    #: The route's one-line description.
    description: str
    #: The worker's result as the envelope's JSON ``result`` (``None``:
    #: the worker already returns JSON data).
    render: Callable[[Any], dict] | None = None


#: Every planning operation by its route, in documentation order: the
#: service's handler, admission classes and ``POST /v1/*`` routes, and
#: the docs check's request fields, all come from this table.
OPERATIONS: dict[str, Operation] = {
    f"/v1/{operation.request.OPERATION}": operation
    for operation in (
        Operation(
            PlanRequest, execute_plan_request, True,
            "rank schedule families for one configuration", plans_to_json,
        ),
        # No whole-request disk tier: the per-point plans inside the
        # worker hit the disk-backed PlanCache individually.
        Operation(
            SweepRequest, execute_sweep_request, False,
            "plan a grid of configurations", sweep_to_json,
        ),
        Operation(
            ScenarioRequest, execute_scenario_request, False,
            "Monte Carlo robustness under a cluster scenario",
        ),
        Operation(
            WhatifRequest, execute_stored_request, True,
            "price a single-device slowdown on a resident compiled graph",
        ),
        Operation(
            OptimizeRequest, execute_stored_request, True,
            "token-split the best named family's schedule while that is faster",
        ),
    )
}
