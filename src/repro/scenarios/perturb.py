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
    rows (one value per column, ``sigma`` holding each column's scale;
    ``sigma=None`` returns the unscaled values ``x`` instead of
    ``max(1 + σ·x, floor)``).

    Draw ``d`` of factor ``(k, j)`` sits at counter position
    ``start + (k·width + j)·_DRAWS + d``, so any subset of columns
    draws exactly the values the full matrix holds there.
    """
    floor = scenario.min_jitter_factor
    normal = scenario.jitter_distribution == "normal"
    column_step = _DRAWS * _GOLDEN
    scales = [None] * len(columns) if sigma is None else sigma
    out = []
    for k in range(rows):
        # The draw at counter c mixes the state seed + (c + 2)·γ.
        row_state = seed + _GOLDEN + (start + 1 + k * width * _DRAWS) * _GOLDEN
        row = []
        for j, s in zip(columns, scales):
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
            row.append(x if s is None else max(1.0 + s * x, floor))
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
    out=None,
):
    """NumPy twin of :func:`_factors_py`, transposed: a
    ``len(columns) × rows`` array (``out`` when given), bit-identical
    value for value (unscaled too when ``sigma`` is ``None``).

    The generator state is a column term plus a (draw, sample) term,
    both precomputed; each block adds them, then mixes and transforms
    in place, sized so the working set stays in cache.  A block is
    draw-major and holds whole rows of a run of columns, or — when one
    column's rows outgrow it (:class:`DrawStream` draws its prefix as
    the rows of one column) — a run of one column's rows, whose
    sample term is offset through the column term.
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
    row_step = min(rows, max(1, _BLOCK // draws))
    step = max(1, _BLOCK // (draws * row_step))
    row_stride = width * _DRAWS * _GOLDEN
    sample_state = _np.arange(row_step, dtype=u64) * u64(row_stride & _MASK)
    row_state = draw_state[:, None] + sample_state[None, :]
    if sigma is not None:
        sigma = _np.asarray(sigma, dtype=_np.float64)
    if out is None:
        out = _np.empty((column_state.size, rows), dtype=_np.float64)
    state = _np.empty((draws, step, row_step), dtype=u64)
    shifted = _np.empty_like(state)
    uniform = _np.empty(state.shape, dtype=_np.float64)
    blocks = (
        (lo, min(lo + step, column_state.size), r0, min(r0 + row_step, rows))
        for r0 in range(0, rows, row_step)
        for lo in range(0, column_state.size, step)
    )
    for lo, hi, r0, r1 in blocks:
        z, t, u = (
            a[:, : hi - lo, : r1 - r0] for a in (state, shifted, uniform)
        )
        column = column_state[lo:hi]
        if r0:
            column = column + u64(r0 * row_stride & _MASK)
        _np.add(column[None, :, None], row_state[:, None, : r1 - r0], out=z)
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
        f = out[lo:hi, r0:r1]
        if normal:
            _np.add(u[0], u[1], out=f)
            f += u[2]
            f += u[3]
            f -= 2.0
            f *= _SQRT3
        else:
            _np.multiply(u[0], 2.0, out=f)
            f -= 1.0
        if sigma is None:
            continue
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


#: Recycled :class:`DrawStream` prefix buffers: a release keeps its
#: buffer only when none is waiting (list ``pop``/``append`` are atomic,
#: so concurrent rankings at worst keep one each).  A
#: prefix lives for one robust ranking; allocating a fresh one for
#: every ranking makes the allocator return and re-fault megabytes of
#: pages per plan, which costs about as much as the prefix saves
#: (``docs/performance.md``, "Warm robust plans: each draw once").
_SPARE: list = []
#: Largest buffer kept for reuse, in values (8 MiB).
_SPARE_VALUES = 1 << 20


class DrawStream:
    """The unscaled jitter values of one Monte Carlo stream, each drawn
    at most once however many graphs read it.

    Factor ``(k, j)`` of a block whose stream begins at counter
    ``_DRAWS·S`` is ``max(1 + σ·x[g], floor)`` with ``g = S + k·width +
    j``, and ``x[g]`` is a pure function of ``(scenario.seed, seed)``,
    the distribution and ``g`` — not of the graph.  So candidates
    ranked under one scenario and seed all read one stream: the stream
    keeps a dense prefix ``x[:P]`` and serves every block it covers by
    a gather, then the same scaling IEEE operations, in the same order,
    as :func:`_factors_np`/:func:`_factors_py`.  A block past the
    prefix extends it when that costs no more draws than the block's
    own columns; otherwise (sparse jitter, lag blocks) the block draws
    its columns at their own counters.  ``drawn`` counts the values
    drawn either way.

    A robust :func:`~repro.planner.planner.plan` makes one stream per
    ranking, passes it down as ``_draws`` and releases it at the end
    (:meth:`release`); any other caller of :func:`perturbed_rows` gets
    a private one per call.  No array handed out views the prefix, so
    its buffer can be recycled.
    """

    __slots__ = ("key", "drawn", "_size", "_values")

    def __init__(self, scenario: ClusterScenario, seed: int) -> None:
        self.key = (_stream_seed(scenario.seed, seed), scenario.jitter_distribution)
        self.drawn = 0
        self._size = 0  # P
        self._values = None  # x[:P], in a buffer of at least P values

    def _check(self, scenario: ClusterScenario, seed: int) -> None:
        if self.key != (_stream_seed(scenario.seed, seed), scenario.jitter_distribution):
            raise ValueError("jitter stream belongs to another scenario or seed")

    def _extend(self, scenario: ClusterScenario, end: int) -> None:
        """Draw ``x[P:end]`` onto the prefix: the rows of a one-column
        block at counter ``_DRAWS·P``."""
        have, count = self._size, end - self._size
        start = have * _DRAWS
        if _np is None:
            rows = _factors_py(scenario, self.key[0], start, count, 1, (0,), None)
            self._values = (self._values or []) + [row[0] for row in rows]
        else:
            values = self._values
            if values is None:
                try:
                    values = _SPARE.pop()
                except IndexError:
                    pass
            if values is None or len(values) < end:
                grown = _np.empty(end)
                grown[:have] = values[:have] if have else 0.0
                values = grown
            _factors_np(
                scenario, self.key[0], start, count, 1, (0,), None,
                out=values[have:end].reshape(1, count),
            )
            self._values = values
        self._size = end
        self.drawn += count

    def release(self) -> None:
        """Forget the prefix; keep its buffer for the next stream."""
        values, self._values, self._size = self._values, None, 0
        if _np is not None and values is not None and len(values) <= _SPARE_VALUES:
            if not _SPARE:
                _SPARE.append(values)

    def factors(self, scenario, start, rows, width, columns, sigma):
        """Factors of ``columns`` in the ``rows × width`` block of values
        ``x[start:]``: a fresh ``len(columns) × rows`` array with NumPy
        (``columns``/``sigma`` as arrays), ``rows`` lists of
        ``len(columns)`` without."""
        count = len(columns)
        need = start + rows * width
        if self._size < need <= self._size + rows * count:
            self._extend(scenario, need)
        if not count or need > self._size:
            self.drawn += rows * count
            backend = _factors_np if _np is not None else _factors_py
            return backend(
                scenario, self.key[0], start * _DRAWS, rows, width, columns, sigma
            )
        floor = scenario.min_jitter_factor
        values = self._values
        if _np is not None:
            # The row-major block, gathered node-major into a new array.
            x = values[start:need].reshape(rows, width).T[columns]
            x *= sigma[:, None]
            x += 1.0
            _np.maximum(x, floor, out=x)
            return x
        return [
            [max(1.0 + s * values[row + j], floor) for j, s in zip(columns, sigma)]
            for row in range(start, need, width)
        ]


class _Slots:
    """The slots of one bound row (durations or lags) jitter can change:
    the row's base values, the ascending columns with a nonzero base and
    a nonzero scale, and their scales."""

    __slots__ = ("base", "columns", "sigma", "_arrays")

    def __init__(self, base, sigma) -> None:
        self.base = list(base)
        self.columns = [j for j, (b, s) in enumerate(zip(base, sigma)) if s and b]
        self.sigma = [sigma[j] for j in self.columns]
        self._arrays = None

    def arrays(self):
        """``(base, columns, sigma)`` as NumPy arrays, built once."""
        if self._arrays is None:
            self._arrays = (
                _np.asarray(self.base, dtype=_np.float64),
                _np.asarray(self.columns, dtype=_np.intp),
                _np.asarray(self.sigma, dtype=_np.float64),
            )
        return self._arrays


def _column_plan(graph: CompiledGraph, scenario: ClusterScenario) -> tuple:
    """``(durations, lags)`` :class:`_Slots` of a scenario-bound graph.

    A zero-sigma factor is exactly 1.0 and ``0.0 × f`` is exactly
    ``0.0``, so only a slot with a nonzero base and scale can change.
    """
    num_edges = len(graph.succ_node)
    return (
        _Slots(graph.durations, _node_sigma(graph, scenario)),
        _Slots(graph.succ_lag, [scenario.comm_jitter] * num_edges),
    )


def _jittered(scenario, draws, start, samples, slots):
    """``samples`` copies of the row ``slots.base``, its jittered
    columns multiplied by their factors (values ``x[start:]`` of
    ``draws``); with NumPy, a transposed view of a ``width × samples``
    array."""
    width = len(slots.base)
    if _np is not None:
        base, columns, sigma = slots.arrays()
        block = draws.factors(scenario, start, samples, width, columns, sigma)
        block *= base[columns][:, None]
        if len(columns) < width:
            drawn, block = block, _np.empty((width, samples))
            block[:] = base[:, None]
            block[columns] = drawn
        return block.T
    factors = draws.factors(
        scenario, start, samples, width, slots.columns, slots.sigma
    )
    rows = [list(slots.base) for _ in range(samples)]
    for row, values in zip(rows, factors):
        for j, f in zip(slots.columns, values):
            row[j] = slots.base[j] * f
    return rows


def perturbed_rows(
    graph: CompiledGraph,
    scenario: ClusterScenario,
    samples: int,
    seed: int = 0,
    *,
    _draws: DrawStream | None = None,
    _columns: tuple | None = None,
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
    stream draws each remaining slot at its own position, or reads it
    from ``_draws``' prefix (:class:`DrawStream`) when another graph
    of the same ranking drew it already.  ``_columns`` is the graph's
    memoized :func:`_column_plan`.

    With NumPy the matrices are transposed views of node-major
    (``num_nodes × K``) arrays — the layout the batched kernel sweeps.
    """
    if samples <= 0:
        raise ValueError(f"samples must be positive, got {samples}")
    draws = _draws or DrawStream(scenario, seed)
    draws._check(scenario, seed)
    durations, lags = _columns or _column_plan(graph, scenario)
    rows = (
        _jittered(scenario, draws, 0, samples, durations),
        _jittered(scenario, draws, samples * graph.num_nodes, samples, lags),
    )
    if _draws is None:
        draws.release()
    return rows


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


@dataclass(frozen=True)
class _Nominal:
    """The seed-independent half of a robustness run: a scenario-bound
    graph, its nominal iteration time and mean bubble fraction, and its
    :func:`_column_plan` (``None`` for a jitter-free scenario)."""

    graph: CompiledGraph
    time: float
    bubble: float
    columns: tuple | None


def _nominal_binding(graph: CompiledGraph, scenario: ClusterScenario) -> _Nominal:
    nominal = graph.execute()
    return _Nominal(
        graph=graph,
        time=nominal.iteration_time,
        bubble=nominal.mean_bubble_fraction(),
        columns=_column_plan(graph, scenario) if scenario.has_jitter else None,
    )


def robustness_stats(
    graph: CompiledGraph,
    scenario: ClusterScenario,
    samples: int = 256,
    seed: int = 0,
    *,
    _draws: DrawStream | None = None,
    _nominal: _Nominal | None = None,
) -> RobustnessStats:
    """Monte Carlo statistics of one compiled, scenario-bound graph.

    One :meth:`~repro.sim.compiled.CompiledGraph.execute_many_summary`
    call prices all ``samples`` jitter draws; statistics are computed
    in pure Python from the resulting iteration times (the bubble
    fractions as NumPy K-vectors, with the scalar operations in the
    scalar order) so they are identical whichever kernel backend ran
    the sweep.  A jitter-free scenario degenerates to the nominal
    execution (every quantile equals ``nominal_time`` exactly).
    ``_nominal`` is ``graph``'s memoized :func:`_nominal_binding` and
    ``_draws`` the ranking's shared :class:`DrawStream`
    (:func:`method_robustness` passes both).
    """
    nominal = _nominal or _nominal_binding(graph, scenario)
    nominal_time = nominal.time
    nominal_bubble = nominal.bubble
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
    durations, lags = perturbed_rows(
        graph, scenario, samples, seed, _draws=_draws, _columns=nominal.columns
    )
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
    _draws: DrawStream | None = None,
) -> RobustnessStats:
    """Robustness of one schedule family under a scenario.

    Builds the method's (optionally refined) schedule under the
    scenario setup, compiles/rebinds it through the process-wide
    structural caches, and runs the Monte Carlo sweep.  ``setup`` is
    the *nominal* :class:`~repro.sim.SimulationSetup` (the scenario
    transform is applied here exactly once).  Schedule generation and
    graph lowering are cache hits when the planner simulated this
    method first.

    Everything that does not depend on the Monte Carlo seed — the
    scenario-bound graph, its nominal time and bubble fraction, and
    which duration/lag slots jitter (with their scales and base values)
    — is memoized per (method, setup, scenario, refine, engine) by
    :func:`~repro.harness.experiments.robust_nominal`, so a warm robust
    ``plan()`` under any seed re-binds nothing and sweeps the nominal
    binding never again: it pays the jitter draws and the batched
    sweep.  ``_draws`` is the ranking's shared :class:`DrawStream`, so
    the candidates of one ranking draw each jitter value once; without
    it the call draws privately.
    """
    # Imported lazily: harness.experiments consumes scenarios through
    # duck typing, so the package dependency points this way only.
    from repro.harness.experiments import (
        build_schedule,
        compiled_graph_for,
        robust_nominal,
    )
    from repro.sim import SimulationSetup

    base = setup or SimulationSetup(model, parallel)

    def bind() -> _Nominal:
        schedule = build_schedule(method, base, refine=refine, scenario=scenario)
        runtime = scenario.runtime_for(scenario.setup_for(base), schedule)
        return _nominal_binding(compiled_graph_for(schedule, runtime), scenario)

    nominal = robust_nominal(method, base, scenario, refine, bind)
    return robustness_stats(
        nominal.graph, scenario, samples=samples, seed=seed,
        _draws=_draws, _nominal=nominal,
    )
