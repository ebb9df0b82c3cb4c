"""Lower a scenario into Monte Carlo binding matrices for ``execute_many``.

PR 3's batched replay kernel
(:meth:`repro.sim.compiled.CompiledGraph.execute_many`) executes K
runtime bindings of one compiled schedule in a handful of NumPy calls.
This module produces those bindings from a
:class:`~repro.scenarios.cluster.ClusterScenario`: the graph's bound
durations/lags are the scenario's *nominal* binding (device speeds and
interconnect tiers already applied), and K multiplicative jitter
matrices perturb them into K samples.  Robustness statistics
(p50/p95/worst-case iteration time, bubble inflation) then cost a few
NumPy calls per schedule structure.

Determinism is load-bearing (tests, golden CLI output, cache keys), so
jitter does **not** use :mod:`numpy.random` or :mod:`random`.  Instead
a counter-based SplitMix64 generator produces 53-bit uniforms, and the
distribution transforms use arithmetic only (a 4-uniform Bates sum for
"normal", an affine map for "uniform").  Both steps are implemented
twice — vectorized NumPy and pure Python — and produce **bit-identical
matrices**, so robustness numbers do not depend on whether the
optional NumPy extra is installed (the pure-Python path is just
slower), mirroring ``execute_many``'s own exact fallback.  Every draw
has a fixed counter position, so a caller can draw any subset of a
matrix's columns — :func:`perturbed_rows` draws only the slots a factor
can change — and get exactly the values the full matrix holds there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._lazy import optional_numpy
from repro.scenarios.cluster import ClusterScenario
from repro.sim.compiled import CompiledGraph

#: NumPy vectorizes factor generation; pure Python is bit-identical.
#: Imported on the first jitter draw (see :mod:`repro._lazy`).
_np = optional_numpy(globals(), "_np")

#: SplitMix64 constants (Steele, Lea & Flood 2014).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
#: Uniforms per jitter factor (the Bates-4 normal approximation).
_DRAWS = 4
#: √3 rescales a centered 4-uniform sum to unit variance.
_SQRT3 = math.sqrt(3.0)
#: Generator states mixed per NumPy block: the state, its shift scratch
#: and the uniforms (256 KiB each) stay cache-resident.
_BLOCK = 1 << 15

#: Quantile names accepted by :meth:`RobustnessStats.quantile_time`
#: and :attr:`RobustnessObjective.rank_by`.
QUANTILES = ("p50", "p95", "worst", "mean")


def _stream_seed(scenario_seed: int, sample_seed: int) -> int:
    """Combine the scenario's base seed with a caller seed (64-bit)."""
    return ((scenario_seed & _MASK) * _GOLDEN + (sample_seed & _MASK)) & _MASK


def _factors_py(
    scenario: ClusterScenario,
    seed: int,
    start: int,
    rows: int,
    width: int,
    columns,
    sigma,
) -> list[list[float]]:
    """Jitter factors of ``columns`` in a ``rows × width`` factor matrix
    whose stream begins at counter ``start``, as ``rows`` pure-Python
    rows (one value per column, ``sigma`` holding each column's scale).

    Draw ``d`` of factor ``(k, j)`` sits at counter position
    ``start + (k·width + j)·_DRAWS + d``, so any subset of columns
    draws exactly the values the full matrix holds there.
    """
    floor = scenario.min_jitter_factor
    normal = scenario.jitter_distribution == "normal"
    column_step = _DRAWS * _GOLDEN
    out = []
    for k in range(rows):
        # The draw at counter c mixes the state seed + (c + 2)·γ.
        row_state = seed + _GOLDEN + (start + 1 + k * width * _DRAWS) * _GOLDEN
        row = []
        for j, s in zip(columns, sigma):
            state = row_state + j * column_step
            if normal:
                total = 0.0
                for _ in range(_DRAWS):
                    z = state & _MASK
                    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
                    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
                    total += ((z ^ (z >> 31)) >> 11) * 2.0**-53
                    state += _GOLDEN
                x = (total - 2.0) * _SQRT3
            else:
                z = state & _MASK
                z = ((z ^ (z >> 30)) * _MIX1) & _MASK
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK
                x = 2.0 * (((z ^ (z >> 31)) >> 11) * 2.0**-53) - 1.0
            row.append(max(1.0 + s * x, floor))
        out.append(row)
    return out


def _factors_np(
    scenario: ClusterScenario,
    seed: int,
    start: int,
    rows: int,
    width: int,
    columns,
    sigma,
):
    """NumPy twin of :func:`_factors_py`, transposed: a
    ``len(columns) × rows`` array, bit-identical value for value.

    The generator state is a column term plus a (draw, sample) term,
    both precomputed; each block of columns adds them, then mixes and
    transforms in place, sized so the working set stays in cache.
    """
    normal = scenario.jitter_distribution == "normal"
    draws = _DRAWS if normal else 1
    u64 = _np.uint64
    column_state = _np.asarray(columns, dtype=u64) * u64(_DRAWS * _GOLDEN & _MASK)
    draw_state = _np.asarray(
        [
            (seed + _GOLDEN + (start + 1 + d) * _GOLDEN) & _MASK
            for d in range(draws)
        ],
        dtype=u64,
    )
    sample_state = _np.arange(rows, dtype=u64) * u64(
        width * _DRAWS * _GOLDEN & _MASK
    )
    row_state = draw_state[:, None] + sample_state[None, :]
    sigma = _np.asarray(sigma, dtype=_np.float64)
    out = _np.empty((column_state.size, rows), dtype=_np.float64)
    step = max(1, _BLOCK // (draws * rows))
    state = _np.empty((step, draws, rows), dtype=u64)
    shifted = _np.empty_like(state)
    uniform = _np.empty(state.shape, dtype=_np.float64)
    for lo in range(0, column_state.size, step):
        hi = min(lo + step, column_state.size)
        z, t, u = state[: hi - lo], shifted[: hi - lo], uniform[: hi - lo]
        _np.add(column_state[lo:hi, None, None], row_state[None], out=z)
        _np.right_shift(z, u64(30), out=t)
        z ^= t
        z *= u64(_MIX1)
        _np.right_shift(z, u64(27), out=t)
        z ^= t
        z *= u64(_MIX2)
        _np.right_shift(z, u64(31), out=t)
        z ^= t
        z >>= u64(11)
        _np.multiply(z, 2.0**-53, out=u)
        f = out[lo:hi]
        if normal:
            _np.add(u[:, 0], u[:, 1], out=f)
            f += u[:, 2]
            f += u[:, 3]
            f -= 2.0
            f *= _SQRT3
        else:
            _np.multiply(u[:, 0], 2.0, out=f)
            f -= 1.0
        f *= sigma[lo:hi, None]
        f += 1.0
        _np.maximum(f, scenario.min_jitter_factor, out=f)
    return out


def _node_sigma(graph: CompiledGraph, scenario: ClusterScenario) -> list[float]:
    """Each node's jitter scale: ``pass_jitter`` for passes on jittered
    devices, 0 for the rest, ``comm_jitter`` for collective barriers."""
    jittered = scenario.jitter_device_set(len(graph.device_nodes))
    node_device = graph.node_device
    pass_sigma = scenario.pass_jitter
    return [
        pass_sigma if node_device[i] in jittered else 0.0
        for i in range(graph.num_passes)
    ] + [scenario.comm_jitter] * (graph.num_nodes - graph.num_passes)


def perturbation_factors(
    graph: CompiledGraph,
    scenario: ClusterScenario,
    samples: int,
    seed: int = 0,
) -> tuple:
    """K×num_nodes duration factors and K×num_edges lag factors.

    Compute passes jitter with ``pass_jitter``; collective barrier
    nodes and edge lags (P2P transfers) jitter with ``comm_jitter``.
    The stream is a pure function of ``(scenario.seed, seed)`` and the
    graph's node/edge counts — same seed, same shape ⇒ bit-identical
    matrices, with or without NumPy.  Devices outside the scenario's
    jitter set have zero sigma, so their factors are exactly 1.0; their
    draws still occupy their counter positions, so narrowing the
    support never shifts anyone else's draws.
    """
    if samples <= 0:
        raise ValueError(f"samples must be positive, got {samples}")
    num_nodes = graph.num_nodes
    num_edges = len(graph.succ_node)
    stream = _stream_seed(scenario.seed, seed)
    lag_start = samples * num_nodes * _DRAWS
    return (
        _factor_matrix(
            scenario, stream, 0, samples, num_nodes, range(num_nodes),
            _node_sigma(graph, scenario),
        ),
        _factor_matrix(
            scenario, stream, lag_start, samples, num_edges, range(num_edges),
            [scenario.comm_jitter] * num_edges,
        ),
    )


def _factor_matrix(scenario, seed, start, rows, width, columns, sigma):
    """``rows × len(columns)`` factors from the available backend: a
    transposed view of :func:`_factors_np`, or :func:`_factors_py`."""
    if _np is not None:
        return _factors_np(scenario, seed, start, rows, width, columns, sigma).T
    return _factors_py(scenario, seed, start, rows, width, columns, sigma)


def _jittered(scenario, seed, start, samples, width, base, columns, sigma):
    """``samples`` copies of the row ``base``, ``columns`` multiplied by
    their factors; with NumPy, a transposed view of a ``width × samples``
    array."""
    if _np is not None:
        base = _np.asarray(base, dtype=_np.float64)
        block = _factors_np(scenario, seed, start, samples, width, columns, sigma)
        block *= base[columns][:, None]
        if len(columns) < width:
            drawn, block = block, _np.empty((width, samples))
            block[:] = base[:, None]
            block[columns] = drawn
        return block.T
    factors = _factors_py(scenario, seed, start, samples, width, columns, sigma)
    rows = [list(base) for _ in range(samples)]
    for row, values in zip(rows, factors):
        for j, f in zip(columns, values):
            row[j] = base[j] * f
    return rows


def perturbed_rows(
    graph: CompiledGraph,
    scenario: ClusterScenario,
    samples: int,
    seed: int = 0,
) -> tuple:
    """K perturbed duration rows and lag rows for ``execute_many``.

    The base binding is the graph's currently bound durations/lags —
    i.e. the scenario's deterministic part (device speeds, interconnect
    tiers) must already be priced into the graph
    (:meth:`~repro.scenarios.cluster.ClusterScenario.runtime_for`).
    Jitter multiplies on top.  Bit-identical to multiplying
    :func:`perturbation_factors` onto the base, but only the slots a
    factor can change are drawn: a zero-sigma factor is exactly 1.0 and
    ``0.0 × f`` is exactly ``0.0``, so a node with zero sigma or zero
    duration, and every zero-lag edge, keeps its base value.  (Edges
    without a P2P transfer therefore stay exactly zero, and the batched
    kernel adds only its compact block of P2P lags.)  The counter-based
    stream draws each remaining slot at its own position.

    With NumPy the matrices are transposed views of node-major
    (``num_nodes × K``) arrays — the layout the batched kernel sweeps.
    """
    if samples <= 0:
        raise ValueError(f"samples must be positive, got {samples}")
    num_nodes = graph.num_nodes
    num_edges = len(graph.succ_node)
    base_dur, base_lag = graph.durations, graph.succ_lag
    stream = _stream_seed(scenario.seed, seed)
    lag_start = samples * num_nodes * _DRAWS
    sigma = _node_sigma(graph, scenario)
    dur_cols = [j for j in range(num_nodes) if sigma[j] and base_dur[j]]
    comm = scenario.comm_jitter
    lag_cols = [k for k in range(num_edges) if comm and base_lag[k]]
    return (
        _jittered(
            scenario, stream, 0, samples, num_nodes, base_dur, dur_cols,
            [sigma[j] for j in dur_cols],
        ),
        _jittered(
            scenario, stream, lag_start, samples, num_edges, base_lag, lag_cols,
            [comm] * len(lag_cols),
        ),
    )


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list."""
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    h = (n - 1) * q
    lo = int(h)
    if lo >= n - 1:
        return sorted_values[-1]
    frac = h - lo
    return sorted_values[lo] + frac * (sorted_values[lo + 1] - sorted_values[lo])


@dataclass(frozen=True)
class RobustnessStats:
    """Monte Carlo robustness of one schedule under one scenario.

    ``nominal_time`` is the deterministic scenario execution (device
    speeds and interconnect applied, no jitter); the sample statistics
    describe the seeded jitter distribution around it.  ``*_bubble``
    are mean bubble fractions (the paper's ⌀).
    """

    samples: int
    seed: int
    nominal_time: float
    mean_time: float
    std_time: float
    best_time: float
    p50_time: float
    p95_time: float
    worst_time: float
    nominal_bubble: float
    p95_bubble: float

    @property
    def p95_inflation(self) -> float:
        """Relative iteration-time inflation of the 95th percentile."""
        if self.nominal_time <= 0:
            return 0.0
        return self.p95_time / self.nominal_time - 1.0

    def quantile_time(self, which: str) -> float:
        """One of ``p50``/``p95``/``worst``/``mean``."""
        try:
            return {
                "p50": self.p50_time,
                "p95": self.p95_time,
                "worst": self.worst_time,
                "mean": self.mean_time,
            }[which]
        except KeyError:
            raise ValueError(
                f"unknown quantile {which!r}; expected one of {QUANTILES}"
            ) from None

    def as_dict(self) -> dict:
        """Plain-dict rendering (JSON output, cache digests)."""
        return {
            "samples": self.samples,
            "seed": self.seed,
            "nominal_time": self.nominal_time,
            "mean_time": self.mean_time,
            "std_time": self.std_time,
            "best_time": self.best_time,
            "p50_time": self.p50_time,
            "p95_time": self.p95_time,
            "worst_time": self.worst_time,
            "p95_inflation": self.p95_inflation,
            "nominal_bubble": self.nominal_bubble,
            "p95_bubble": self.p95_bubble,
        }


@dataclass(frozen=True)
class RobustnessObjective:
    """How a robust planning pass samples and ranks.

    ``rank_by`` selects the statistic candidates are ordered by
    (:data:`QUANTILES`); ``samples``/``seed`` control the Monte Carlo
    draw (the seed combines with the scenario's own base seed).
    """

    samples: int = 256
    rank_by: str = "p95"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if self.rank_by not in QUANTILES:
            raise ValueError(
                f"rank_by must be one of {QUANTILES}, got {self.rank_by!r}"
            )

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "rank_by": self.rank_by,
            "seed": self.seed,
        }


def _mean_bubble_fractions(summaries) -> list[float]:
    """Every summary's ``mean_bubble_fraction()``, computed as K-vectors.

    Device by device, each sample's bubble fraction (``0.0`` when its
    iteration time is not positive) is added to a running total from
    ``0.0`` and the total divided by the device count: per sample, the
    scalar method's IEEE operations in its order.
    """
    iteration = _np.array([s.iteration_time for s in summaries])
    busy = _np.array([s.device_busy for s in summaries])
    idle = iteration <= 0
    total = _np.zeros(len(summaries))
    with _np.errstate(divide="ignore", invalid="ignore"):
        for device_busy in busy.T:
            total += _np.where(idle, 0.0, 1.0 - device_busy / iteration)
    return (total / busy.shape[1]).tolist()


def robustness_stats(
    graph: CompiledGraph,
    scenario: ClusterScenario,
    samples: int = 256,
    seed: int = 0,
) -> RobustnessStats:
    """Monte Carlo statistics of one compiled, scenario-bound graph.

    One :meth:`~repro.sim.compiled.CompiledGraph.execute_many_summary`
    call prices all ``samples`` jitter draws; statistics are computed
    in pure Python from the resulting iteration times (the bubble
    fractions as NumPy K-vectors, with the scalar operations in the
    scalar order) so they are identical whichever kernel backend ran
    the sweep.  A jitter-free scenario degenerates to the nominal
    execution (every quantile equals ``nominal_time`` exactly).
    """
    nominal = graph.execute()
    nominal_time = nominal.iteration_time
    nominal_bubble = nominal.mean_bubble_fraction()
    if not scenario.has_jitter:
        return RobustnessStats(
            samples=samples,
            seed=seed,
            nominal_time=nominal_time,
            mean_time=nominal_time,
            std_time=0.0,
            best_time=nominal_time,
            p50_time=nominal_time,
            p95_time=nominal_time,
            worst_time=nominal_time,
            nominal_bubble=nominal_bubble,
            p95_bubble=nominal_bubble,
        )
    durations, lags = perturbed_rows(graph, scenario, samples, seed)
    summaries = graph.execute_many_summary(durations, lags)
    times = sorted(s.iteration_time for s in summaries)
    if _np is not None:
        bubbles = sorted(_mean_bubble_fractions(summaries))
    else:
        bubbles = sorted(s.mean_bubble_fraction() for s in summaries)
    mean = sum(times) / len(times)
    variance = sum((t - mean) ** 2 for t in times) / len(times)
    return RobustnessStats(
        samples=samples,
        seed=seed,
        nominal_time=nominal_time,
        mean_time=mean,
        std_time=math.sqrt(variance),
        best_time=times[0],
        p50_time=_quantile(times, 0.50),
        p95_time=_quantile(times, 0.95),
        worst_time=times[-1],
        nominal_bubble=nominal_bubble,
        p95_bubble=_quantile(bubbles, 0.95),
    )


def method_robustness(
    method: str,
    model,
    parallel,
    scenario: ClusterScenario,
    *,
    setup=None,
    samples: int = 256,
    seed: int = 0,
    refine: bool = True,
) -> RobustnessStats:
    """Robustness of one schedule family under a scenario.

    Builds the method's (optionally refined) schedule under the
    scenario setup, compiles/rebinds it through the process-wide
    structural caches, and runs the Monte Carlo sweep.  ``setup`` is
    the *nominal* :class:`~repro.sim.SimulationSetup` (the scenario
    transform is applied here exactly once).  Schedule generation and
    graph lowering are cache hits when the planner simulated this
    method first.  The refined orders are memoized per full runtime
    binding (method, setup, scenario, engine) by
    :func:`~repro.harness.experiments.build_schedule`, so a cold robust
    ``plan()`` pays roughly one extra refinement per top-k candidate and
    a warm one, under any Monte Carlo seed, pays none.
    """
    # Imported lazily: harness.experiments consumes scenarios through
    # duck typing, so the package dependency points this way only.
    from repro.harness.experiments import build_schedule, compiled_graph_for
    from repro.sim import SimulationSetup

    base = setup or SimulationSetup(model, parallel)
    schedule = build_schedule(method, base, refine=refine, scenario=scenario)
    scenario_setup = scenario.setup_for(base)
    runtime = scenario.runtime_for(scenario_setup, schedule)
    graph = compiled_graph_for(schedule, runtime)
    return robustness_stats(graph, scenario, samples=samples, seed=seed)
