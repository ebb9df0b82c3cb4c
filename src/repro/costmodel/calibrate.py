"""Calibrated, pluggable cost models for the schedule planner.

The planner prices every candidate with an analytic model before it
simulates any of them (:mod:`repro.planner.estimate`).  That model uses
fixed hardware constants, so its estimates are trusted enough to *rank*
candidates but never to *skip* the expensive top-k simulation verify
step.  This module closes the loop the way profiled cost models do
(MATCH/ZigZag's extensible cost-model classes, fitted overhead factors
regressed from measured vs theoretical cycles):

* :class:`CostModel` — the pluggable ABC.  :class:`AnalyticCostModel`
  is the default subclass and reproduces today's estimate bit for bit;
  :class:`CalibratedCostModel` applies a fitted
  :class:`HardwareProfile`.
* :class:`HardwareProfile` — per-SKU fitted parameters, serialized as
  versioned JSON and digest-keyed into every planner cache.
* :func:`fit_profile` — the fitting loop: regress per-phase parameters
  (steady-state compute, ramp, per-pass overhead, collective α/β,
  stage-to-stage latency, fixed cost) against simulator ground truth
  over a seeded config grid.  The least-squares solve is deterministic
  pure Python: every reduction goes through :func:`math.fsum`, which is
  exactly rounded and therefore order-independent.
* :class:`CalibrationReport` — predicted-vs-simulated error per
  schedule family, embedded in the profile; the planner's trust-gated
  verification reads these bounds (``repro-experiments calibrate
  fit|report|show`` surfaces them).

The fit minimizes **relative** residuals (rows are scaled by the
simulated time) with a tiny ridge term pulling toward the analytic
identity, so the fitted parameters can never be worse than the
uncalibrated model in summed squared relative error on the training
grid, and an uncalibrated profile *is* the analytic model exactly.
Profiles calibrate iteration time only; the memory model is untouched.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.costmodel.hardware import A100_SXM_80G, HardwareModel

#: Bumped whenever the estimator's feature extraction or the simulator's
#: pricing semantics change: a profile fitted under another version is
#: *stale* — the planner falls back to full top-k verification and
#: ``calibrate report --check`` fails until the profile is re-fitted.
COSTMODEL_VERSION = 1

#: Schema version of the profile JSON files.
PROFILE_SCHEMA_VERSION = 1

#: Feature order of every fitted parameter vector (see
#: :class:`PhaseFeatures`); profiles record it so a file fitted against
#: a different feature set is detected instead of misapplied.
FEATURE_NAMES: tuple[str, ...] = (
    "steady", "ramp", "overhead", "coll_alpha", "coll_beta", "p2p", "fixed",
)

#: Ridge weight pulling the fit toward the analytic identity — small
#: enough not to bias well-conditioned fits, large enough to pin the
#: collinear directions a single family's grid cannot identify.
RIDGE_LAMBDA = 1e-6

#: Name of the committed reference profile shipped with the package.
BUILTIN_PROFILE = "a100-sim"


@dataclass(frozen=True)
class PhaseFeatures:
    """Per-phase analytic components of one (method, config) estimate.

    Extracted by :func:`repro.planner.estimate.phase_features` from the
    memoized m=1 probe schedule.  The analytic model is the fixed
    combination ``steady + ramp``; a calibrated model reweights all
    seven components.  All values are seconds except ``fixed`` (the
    intercept, always 1).
    """

    method: str
    steady: float        #: m · max_d C_d — the pipeline steady-state bound
    ramp: float          #: (p − 1) · mean_d C_d — warmup/cooldown traversal
    overhead: float      #: m · (passes on the bottleneck device) · pass_overhead
    coll_alpha: float    #: m · per-microbatch collective latency (α) seconds
    coll_beta: float     #: m · per-microbatch collective bandwidth (β) seconds
    p2p: float           #: one forward+backward stage-to-stage P2P traversal
    fixed: float = 1.0   #: intercept

    def vector(self) -> tuple[float, ...]:
        """The values in :data:`FEATURE_NAMES` order."""
        return (
            self.steady, self.ramp, self.overhead, self.coll_alpha,
            self.coll_beta, self.p2p, self.fixed,
        )

    def analytic_time(self) -> float:
        """The uncalibrated combination — bit-identical to the planner's
        historical ``m · bottleneck + ramp`` estimate."""
        return self.steady + self.ramp


@dataclass(frozen=True)
class FamilyFit:
    """Fitted parameters and training-grid accuracy for one family."""

    method: str
    params: tuple[float, ...]
    samples: int
    mean_abs_rel_error: float
    max_abs_rel_error: float

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "params": list(self.params),
            "samples": self.samples,
            "mean_abs_rel_error": self.mean_abs_rel_error,
            "max_abs_rel_error": self.max_abs_rel_error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> FamilyFit:
        return cls(
            method=data["method"],
            params=tuple(float(v) for v in data["params"]),
            samples=int(data["samples"]),
            mean_abs_rel_error=float(data["mean_abs_rel_error"]),
            max_abs_rel_error=float(data["max_abs_rel_error"]),
        )


@dataclass(frozen=True)
class FamilyAccuracy:
    """Predicted-vs-simulated error of one family on one scenario."""

    method: str
    scenario: str  # "nominal" or a registered scenario name
    samples: int
    mean_abs_rel_error: float
    max_abs_rel_error: float
    baseline_mean_abs_rel_error: float  # the uncalibrated analytic model
    baseline_max_abs_rel_error: float

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "scenario": self.scenario,
            "samples": self.samples,
            "mean_abs_rel_error": self.mean_abs_rel_error,
            "max_abs_rel_error": self.max_abs_rel_error,
            "baseline_mean_abs_rel_error": self.baseline_mean_abs_rel_error,
            "baseline_max_abs_rel_error": self.baseline_max_abs_rel_error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> FamilyAccuracy:
        return cls(
            method=data["method"],
            scenario=data["scenario"],
            samples=int(data["samples"]),
            mean_abs_rel_error=float(data["mean_abs_rel_error"]),
            max_abs_rel_error=float(data["max_abs_rel_error"]),
            baseline_mean_abs_rel_error=float(data["baseline_mean_abs_rel_error"]),
            baseline_max_abs_rel_error=float(data["baseline_max_abs_rel_error"]),
        )


@dataclass(frozen=True)
class CalibrationReport:
    """Accuracy of a profile: per-family predicted-vs-simulated error.

    ``baseline_*`` columns price the same grid with the uncalibrated
    analytic model, so the report is simultaneously the fit's
    improvement statement and the planner's trust-gating input
    (family-level ``max_abs_rel_error`` bounds).
    """

    grid: str  # "full" / "quick" — which seeded grid produced it
    seed: int
    points: int
    families: tuple[FamilyAccuracy, ...]

    def family(self, method: str, scenario: str = "nominal") -> FamilyAccuracy | None:
        for row in self.families:
            if row.method == method and row.scenario == scenario:
                return row
        return None

    @property
    def mean_abs_rel_error(self) -> float:
        """Grid-wide mean absolute relative error (sample-weighted)."""
        total = math.fsum(f.mean_abs_rel_error * f.samples for f in self.families)
        count = sum(f.samples for f in self.families)
        return total / count if count else 0.0

    @property
    def baseline_mean_abs_rel_error(self) -> float:
        total = math.fsum(
            f.baseline_mean_abs_rel_error * f.samples for f in self.families
        )
        count = sum(f.samples for f in self.families)
        return total / count if count else 0.0

    def as_dict(self) -> dict:
        return {
            "grid": self.grid,
            "seed": self.seed,
            "points": self.points,
            "families": [f.as_dict() for f in self.families],
        }

    @classmethod
    def from_dict(cls, data: dict) -> CalibrationReport:
        return cls(
            grid=data["grid"],
            seed=int(data["seed"]),
            points=int(data["points"]),
            families=tuple(
                FamilyAccuracy.from_dict(f) for f in data["families"]
            ),
        )

    def render(self) -> str:
        """ASCII table in the style of the paper-table runners."""
        from repro.harness.tables import format_table

        rows = [
            [
                f.method,
                f.scenario,
                f.samples,
                f"{100.0 * f.mean_abs_rel_error:.2f}",
                f"{100.0 * f.max_abs_rel_error:.2f}",
                f"{100.0 * f.baseline_mean_abs_rel_error:.2f}",
                f"{100.0 * f.baseline_max_abs_rel_error:.2f}",
            ]
            for f in self.families
        ]
        title = (
            f"Calibration accuracy — grid {self.grid} (seed {self.seed}, "
            f"{self.points} points): fitted MARE "
            f"{100.0 * self.mean_abs_rel_error:.2f}% vs analytic "
            f"{100.0 * self.baseline_mean_abs_rel_error:.2f}%"
        )
        return format_table(
            [
                "method", "scenario", "n", "MARE%", "max|e|%",
                "analytic MARE%", "analytic max%",
            ],
            rows,
            title=title,
        )


@dataclass(frozen=True)
class HardwareProfile:
    """Per-SKU fitted cost-model parameters, serialized as versioned JSON.

    A profile with no fits is the analytic model; ``digest()`` keys the
    profile *content* into every planner cache, so two profiles — even
    two fits of the same SKU — never share estimate or probe entries.
    """

    name: str
    sku: str = A100_SXM_80G.name
    schema_version: int = PROFILE_SCHEMA_VERSION
    costmodel_version: int = COSTMODEL_VERSION
    seed: int = 0
    feature_names: tuple[str, ...] = FEATURE_NAMES
    fits: tuple[FamilyFit, ...] = ()
    report: CalibrationReport | None = None

    @property
    def calibrated(self) -> bool:
        """Whether the planner may trust this profile's error bounds.

        Requires fitted parameters, an embedded accuracy report, a
        matching feature set, and a current :data:`COSTMODEL_VERSION` —
        a profile fitted under older estimator semantics is stale and
        must not gate verification.
        """
        return (
            bool(self.fits)
            and self.report is not None
            and self.feature_names == FEATURE_NAMES
            and self.costmodel_version == COSTMODEL_VERSION
            and self.schema_version == PROFILE_SCHEMA_VERSION
        )

    def fit_for(self, method: str) -> FamilyFit | None:
        for fit in self.fits:
            if fit.method == method:
                return fit
        return None

    def error_bound(self, method: str, scenario: str | None = None) -> float | None:
        """Family-level |relative error| bound, or ``None`` if untrusted.

        ``None`` means the planner must fall back to full verification
        for this family: the profile is uncalibrated/stale, the family
        was never fitted, or the report does not cover ``scenario``.
        """
        if not self.calibrated:
            return None
        if self.fit_for(method) is None:
            return None
        row = self.report.family(method, scenario or "nominal")
        return None if row is None else row.max_abs_rel_error

    def digest(self) -> str:
        """SHA-256 over the canonical JSON rendering of the profile."""
        payload = json.dumps(self.as_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "sku": self.sku,
            "schema_version": self.schema_version,
            "costmodel_version": self.costmodel_version,
            "seed": self.seed,
            "feature_names": list(self.feature_names),
            "fits": [f.as_dict() for f in self.fits],
            "report": None if self.report is None else self.report.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> HardwareProfile:
        return cls(
            name=data["name"],
            sku=data["sku"],
            schema_version=int(data["schema_version"]),
            costmodel_version=int(data["costmodel_version"]),
            seed=int(data["seed"]),
            feature_names=tuple(data["feature_names"]),
            fits=tuple(FamilyFit.from_dict(f) for f in data["fits"]),
            report=(
                None
                if data.get("report") is None
                else CalibrationReport.from_dict(data["report"])
            ),
        )

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys; ``repr`` floats round-trip)."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: str | Path) -> HardwareProfile:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ValueError(f"cannot load hardware profile {path}: {error}") from None
        return cls.from_dict(data)


class CostModel:
    """Pluggable iteration-time predictor for planner candidates.

    Subclasses override :meth:`predict` (seconds from a
    :class:`PhaseFeatures`) and may report per-family
    :meth:`error_bound`\\ s, which is what entitles the planner to
    shrink its top-k verification.  The ``profile`` ties the model to a
    content digest, keying every planner cache.
    """

    @property
    def profile(self) -> HardwareProfile:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def calibrated(self) -> bool:
        return False

    def digest(self) -> str:
        return self.profile.digest()

    def predict(self, features: PhaseFeatures) -> float:
        raise NotImplementedError

    def error_bound(self, method: str, scenario: str | None = None) -> float | None:
        """|relative error| bound for ``method``, or ``None`` = untrusted."""
        return None


class AnalyticCostModel(CostModel):
    """The default model: the paper's fixed analytic combination.

    ``predict`` returns ``steady + ramp`` — the exact float operations
    the planner has always used, so plans priced through the default
    model are bit-identical to the pre-calibration planner.
    """

    _PROFILE = HardwareProfile(name="analytic")

    @property
    def profile(self) -> HardwareProfile:
        return self._PROFILE

    def predict(self, features: PhaseFeatures) -> float:
        return features.analytic_time()


class CalibratedCostModel(CostModel):
    """A fitted :class:`HardwareProfile` applied per schedule family.

    Families without a fit (or a stale/feature-mismatched profile) fall
    back to the analytic combination, so a partially fitted profile
    degrades gracefully rather than mispricing unknown families.
    """

    def __init__(self, profile: HardwareProfile):
        self._profile = profile

    @property
    def profile(self) -> HardwareProfile:
        return self._profile

    @property
    def calibrated(self) -> bool:
        return self._profile.calibrated

    def predict(self, features: PhaseFeatures) -> float:
        if not self._profile.calibrated:
            return features.analytic_time()
        fit = self._profile.fit_for(features.method)
        if fit is None:
            return features.analytic_time()
        return predict_time(fit.params, features.vector())

    def error_bound(self, method: str, scenario: str | None = None) -> float | None:
        return self._profile.error_bound(method, scenario)


def predict_time(params: Sequence[float], vector: Sequence[float]) -> float:
    """θ · x with an exactly-rounded (order-independent) reduction."""
    return math.fsum(p * x for p, x in zip(params, vector))


# ---------------------------------------------------------------------------
# Cost-model registry
# ---------------------------------------------------------------------------

_ANALYTIC = AnalyticCostModel()
_REGISTRY: dict[str, CostModel] = {}


def builtin_profiles_dir() -> Path:
    """Directory of the profiles shipped inside the package."""
    return Path(__file__).resolve().parent / "profiles"


def register_cost_model(name: str, model: CostModel | HardwareProfile) -> None:
    """Register a model under ``name`` for lookup by the planner/CLI.

    Registration is process-local: sweep *process* pools resolve only
    built-in names ("analytic", shipped profiles) in their workers.
    """
    if name == "analytic":
        raise ValueError("'analytic' is reserved for the default model")
    if isinstance(model, HardwareProfile):
        model = CalibratedCostModel(model)
    _REGISTRY[name] = model


def get_cost_model(name: str | None = None) -> CostModel:
    """Resolve a cost model by name.

    ``None`` or ``"analytic"`` is the default analytic model; other
    names look up runtime registrations first, then the profile JSONs
    shipped in :func:`builtin_profiles_dir`.
    """
    if name is None or name == "analytic":
        return _ANALYTIC
    model = _REGISTRY.get(name)
    if model is not None:
        return model
    path = builtin_profiles_dir() / f"{name}.json"
    if path.exists():
        model = CalibratedCostModel(HardwareProfile.load(path))
        _REGISTRY[name] = model
        return model
    raise KeyError(
        f"unknown cost model {name!r}; expected 'analytic', a registered "
        f"name or a built-in profile ({', '.join(sorted(list_cost_models()))})"
    )


def resolve_cost_model(spec: CostModel | HardwareProfile | str | None) -> CostModel:
    """Normalize any cost-model spec (name, profile, model) to a model."""
    if spec is None or isinstance(spec, str):
        return get_cost_model(spec)
    if isinstance(spec, HardwareProfile):
        return CalibratedCostModel(spec)
    return spec


def list_cost_models() -> tuple[str, ...]:
    """Every resolvable name: analytic, registered, and built-in profiles."""
    names = {"analytic", *_REGISTRY}
    directory = builtin_profiles_dir()
    if directory.is_dir():
        names.update(p.stem for p in directory.glob("*.json"))
    return tuple(sorted(names))


# ---------------------------------------------------------------------------
# The seeded calibration grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationConfig:
    """One (family, config) cell of the calibration grid.

    ``shape`` picks the model factory: ``"1f1b"`` (Table 1 shapes) or
    ``"vhalf"`` (Table 2 shapes).  ``"auto"`` infers it from the method
    prefix, the historical behaviour.  The grid crosses every family
    with *both* shape blocks: a plan prices all 8 families on one model
    config, so the fitted error bounds must hold for e.g. ``vocab-2``
    on a Table 2 shape too, not just on the shapes its own table uses.
    """

    method: str
    devices: int
    vocab_size: int
    seq_length: int
    microbatches: int
    shape: str = "auto"


@dataclass(frozen=True)
class CalibrationPoint:
    """One grid cell with its extracted features and simulated truth."""

    config: CalibrationConfig
    features: PhaseFeatures
    simulated: float

    @property
    def analytic(self) -> float:
        return self.features.analytic_time()


#: Microbatch counts of the fitting grid.  They bracket the planner's
#: interactive range and extend high enough that the (near-linear in m)
#: fit extrapolates to the paper's m=128 without leaving its support.
_FULL_MICROBATCHES = (8, 16, 32, 64)

#: (shape block, device counts, vocabulary sizes) of the grid — the
#: Table 5/6 model shapes the evaluation itself sweeps.
_SHAPE_BLOCKS = (
    ("1f1b", (8, 16), (64 * 1024, 256 * 1024)),
    ("vhalf", (16,), (64 * 1024, 128 * 1024, 256 * 1024)),
)


def calibration_grid(
    quick: bool = False, seed: int = 0
) -> tuple[CalibrationConfig, ...]:
    """The seeded config grid the fitting loop regresses over.

    Table 5/6 model shapes (the evaluation's own configs) on 8/16
    GPUs, vocabularies 64k–256k, microbatches
    :data:`_FULL_MICROBATCHES` — and, on every config, **every**
    schedule family that is structurally feasible there, not just the
    families of the config's own table.  A single :func:`plan` call
    prices all families on one model shape, so a family's stored error
    bound is only sound for trust gating if its fit saw that family on
    every shape block the planner can pair it with.  ``quick``
    subsamples deterministically under ``seed`` (same seed → same grid
    → bit-identical fit), keeping at least :data:`FEATURE_NAMES` + 1
    points per family so the quick fit stays well-posed.
    """
    from repro.config import ParallelConfig
    from repro.harness.experiments import KNOWN_METHODS
    from repro.planner.estimate import infeasibility_reason

    configs: list[CalibrationConfig] = []
    for shape, device_counts, vocabs in _SHAPE_BLOCKS:
        for devices in device_counts:
            for vocab in vocabs:
                for m in _FULL_MICROBATCHES:
                    for method in KNOWN_METHODS:
                        config = CalibrationConfig(
                            method, devices, vocab, 2048, m, shape
                        )
                        parallel = ParallelConfig(
                            pipeline_size=devices,
                            num_microbatches=m,
                            microbatch_size=1,
                        )
                        if (
                            infeasibility_reason(
                                method, _model_for(config), parallel
                            )
                            is None
                        ):
                            configs.append(config)
    if not quick:
        return tuple(configs)
    rng = random.Random(seed)
    keep = max(len(FEATURE_NAMES) + 1, 8)
    quick_configs: list[CalibrationConfig] = []
    for method in KNOWN_METHODS:
        family = [c for c in configs if c.method == method]
        # Stratified across shape blocks: half the budget per block, so
        # a quick fit never extrapolates to a shape it has not seen.
        sampled: list[CalibrationConfig] = []
        for shape, _, _ in _SHAPE_BLOCKS:
            block = [c for c in family if c.shape == shape]
            sampled.extend(rng.sample(block, min(keep // 2, len(block))))
        if len(sampled) < keep:
            rest = [c for c in family if c not in sampled]
            sampled.extend(rng.sample(rest, min(keep - len(sampled), len(rest))))
        quick_configs.extend(
            sorted(
                sampled,
                key=lambda c: (c.shape, c.devices, c.vocab_size, c.microbatches),
            )
        )
    return tuple(quick_configs)


def _model_for(config: CalibrationConfig):
    from repro.harness.settings import model_for_1f1b, model_for_vhalf

    shape = config.shape
    if shape == "auto":
        shape = "vhalf" if config.method.startswith("vhalf") else "1f1b"
    factory = model_for_vhalf if shape == "vhalf" else model_for_1f1b
    return factory(config.devices, config.seq_length, config.vocab_size)


def collect_points(
    configs: Iterable[CalibrationConfig],
    *,
    hardware: HardwareModel = A100_SXM_80G,
    refine: bool = True,
) -> list[CalibrationPoint]:
    """Features + simulator ground truth for every grid config.

    Ground truth is the discrete-event simulator's iteration time
    through the exact code path the planner verifies with
    (:func:`repro.harness.experiments.run_method`), so a fitted profile
    predicts precisely the quantity trust-gated planning skips.
    """
    from repro.config import ParallelConfig
    from repro.harness.experiments import run_method
    from repro.planner.estimate import phase_features
    from repro.sim.runtime import SimulationSetup

    points: list[CalibrationPoint] = []
    for config in configs:
        model = _model_for(config)
        parallel = ParallelConfig(
            pipeline_size=config.devices,
            num_microbatches=config.microbatches,
            microbatch_size=1,
        )
        setup = SimulationSetup(model, parallel, hardware=hardware)
        features = phase_features(config.method, setup)
        metrics = run_method(
            config.method, model, parallel, setup=setup, refine=refine
        )
        points.append(
            CalibrationPoint(
                config=config, features=features, simulated=metrics.iteration_time
            )
        )
    return points


# ---------------------------------------------------------------------------
# Deterministic least squares (pure Python)
# ---------------------------------------------------------------------------


def _solve_linear(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting — deterministic."""
    k = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0.0:
            raise ValueError("singular normal equations; widen the fitting grid")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
        for row in range(col + 1, k):
            factor = a[row][col] / a[col][col]
            if factor != 0.0:
                for j in range(col, k + 1):
                    a[row][j] -= factor * a[col][j]
    theta = [0.0] * k
    for col in range(k - 1, -1, -1):
        acc = a[col][k] - math.fsum(a[col][j] * theta[j] for j in range(col + 1, k))
        theta[col] = acc / a[col][col]
    return theta


def _analytic_identity() -> tuple[float, ...]:
    """θ₀: the parameter vector that *is* the analytic model."""
    return tuple(
        1.0 if name in ("steady", "ramp") else 0.0 for name in FEATURE_NAMES
    )


def fit_family(
    points: Sequence[CalibrationPoint],
    *,
    ridge: float = RIDGE_LAMBDA,
) -> tuple[float, ...]:
    """Fit one family's parameter vector against simulated ground truth.

    Ridge-regularized least squares on *relative* residuals:
    minimize ``Σ ((θ·x_i − y_i) / y_i)² + λ Σ d_a (θ_a − θ0_a)²`` with
    ``d_a`` the Gram diagonal (scale-free regularization) and ``θ0`` the
    analytic identity.  Since ``θ0`` is feasible, the fit's summed
    squared relative error can never exceed the uncalibrated model's on
    the same points.  Deterministic: fsum reductions + partial-pivot
    elimination.
    """
    if not points:
        raise ValueError("cannot fit a family with no calibration points")
    vectors = [p.features.vector() for p in points]
    targets = [p.simulated for p in points]
    if any(y <= 0.0 for y in targets):
        raise ValueError("simulated iteration times must be positive")
    scaled = [[x / y for x in vector] for vector, y in zip(vectors, targets)]
    k = len(FEATURE_NAMES)
    gram = [
        [math.fsum(row[a] * row[b] for row in scaled) for b in range(k)]
        for a in range(k)
    ]
    rhs = [math.fsum(row[a] for row in scaled) for a in range(k)]
    theta0 = _analytic_identity()
    for a in range(k):
        d = gram[a][a] if gram[a][a] > 0.0 else 1.0
        gram[a][a] += ridge * d
        rhs[a] += ridge * d * theta0[a]
    return tuple(_solve_linear(gram, rhs))


def _errors(
    points: Sequence[CalibrationPoint], params: Sequence[float] | None
) -> tuple[float, float]:
    """(mean, max) absolute relative error of ``params`` (None = analytic)."""
    rel = []
    for p in points:
        predicted = (
            p.analytic if params is None else predict_time(params, p.features.vector())
        )
        rel.append(abs(predicted - p.simulated) / p.simulated)
    return math.fsum(rel) / len(rel), max(rel)


def sum_squared_relative_error(
    points: Sequence[CalibrationPoint], params: Sequence[float] | None = None
) -> float:
    """Σ of squared relative errors — the fitting objective's data term."""
    return math.fsum(
        (
            (
                (p.analytic if params is None else predict_time(params, p.features.vector()))
                - p.simulated
            )
            / p.simulated
        )
        ** 2
        for p in points
    )


def fit_points(
    points: Sequence[CalibrationPoint],
    *,
    name: str = BUILTIN_PROFILE,
    grid: str = "full",
    seed: int = 0,
    sku: str = A100_SXM_80G.name,
) -> HardwareProfile:
    """Fit a :class:`HardwareProfile` from pre-collected points."""
    by_family: dict[str, list[CalibrationPoint]] = {}
    for point in points:
        by_family.setdefault(point.config.method, []).append(point)
    fits: list[FamilyFit] = []
    rows: list[FamilyAccuracy] = []
    for method in sorted(by_family):
        family_points = by_family[method]
        params = fit_family(family_points)
        mean_err, max_err = _errors(family_points, params)
        base_mean, base_max = _errors(family_points, None)
        fits.append(
            FamilyFit(
                method=method,
                params=params,
                samples=len(family_points),
                mean_abs_rel_error=mean_err,
                max_abs_rel_error=max_err,
            )
        )
        rows.append(
            FamilyAccuracy(
                method=method,
                scenario="nominal",
                samples=len(family_points),
                mean_abs_rel_error=mean_err,
                max_abs_rel_error=max_err,
                baseline_mean_abs_rel_error=base_mean,
                baseline_max_abs_rel_error=base_max,
            )
        )
    report = CalibrationReport(
        grid=grid, seed=seed, points=len(list(points)), families=tuple(rows)
    )
    return HardwareProfile(
        name=name, sku=sku, seed=seed, fits=tuple(fits), report=report
    )


def fit_profile(
    name: str = BUILTIN_PROFILE,
    *,
    quick: bool = False,
    seed: int = 0,
    hardware: HardwareModel = A100_SXM_80G,
) -> HardwareProfile:
    """The full fitting loop: seeded grid → simulate → regress → report."""
    configs = calibration_grid(quick=quick, seed=seed)
    points = collect_points(configs, hardware=hardware)
    return fit_points(
        points,
        name=name,
        grid="quick" if quick else "full",
        seed=seed,
        sku=hardware.name,
    )


def evaluate_profile(
    profile: HardwareProfile,
    *,
    quick: bool = True,
    seed: int | None = None,
    hardware: HardwareModel = A100_SXM_80G,
) -> CalibrationReport:
    """Re-measure a profile's accuracy against the *current* simulator.

    This is the drift detector: the committed reference profile's
    stored bounds are only as good as the estimator/simulator pair they
    were fitted under, so CI re-prices a seeded grid and compares.
    """
    seed = profile.seed if seed is None else seed
    configs = calibration_grid(quick=quick, seed=seed)
    points = collect_points(configs, hardware=hardware)
    model = CalibratedCostModel(profile)
    by_family: dict[str, list[CalibrationPoint]] = {}
    for point in points:
        by_family.setdefault(point.config.method, []).append(point)
    rows: list[FamilyAccuracy] = []
    for method in sorted(by_family):
        family_points = by_family[method]
        rel = [
            abs(model.predict(p.features) - p.simulated) / p.simulated
            for p in family_points
        ]
        base_mean, base_max = _errors(family_points, None)
        rows.append(
            FamilyAccuracy(
                method=method,
                scenario="nominal",
                samples=len(family_points),
                mean_abs_rel_error=math.fsum(rel) / len(rel),
                max_abs_rel_error=max(rel),
                baseline_mean_abs_rel_error=base_mean,
                baseline_max_abs_rel_error=base_max,
            )
        )
    return CalibrationReport(
        grid="quick" if quick else "full",
        seed=seed,
        points=len(points),
        families=tuple(rows),
    )


def check_profile(
    profile: HardwareProfile,
    report: CalibrationReport,
    *,
    tolerance: float = 1.25,
) -> list[str]:
    """Problems that should fail CI: staleness or drifted accuracy.

    ``report`` is a fresh :func:`evaluate_profile` run; each family's
    re-measured max error may exceed the profile's stored bound by at
    most ``tolerance``× (the stored bound is what trust-gated planning
    relies on).
    """
    problems: list[str] = []
    if not profile.calibrated:
        problems.append(
            f"profile {profile.name!r} is not calibrated "
            f"(costmodel_version {profile.costmodel_version} vs "
            f"current {COSTMODEL_VERSION})"
        )
        return problems
    for fit in profile.fits:
        row = report.family(fit.method)
        if row is None:
            problems.append(
                f"{fit.method}: fitted family missing from the evaluation grid"
            )
            continue
        bound = tolerance * max(fit.max_abs_rel_error, 1e-9)
        if row.max_abs_rel_error > bound:
            problems.append(
                f"{fit.method}: re-measured max error "
                f"{100 * row.max_abs_rel_error:.2f}% exceeds "
                f"{tolerance}x the stored bound "
                f"{100 * fit.max_abs_rel_error:.2f}% — estimator drift; "
                f"re-fit the profile"
            )
    return problems
