"""In-process workloads: ``plan-cold`` and ``explore-warm``.

Both run one closed-loop caller in this process through ``repro.api``.
Every op is timed on its own; the windows between ops (cache clearing,
parameter drawing) are not timed.  Output checks re-run a seeded sample
of ops under ``REPRO_SIM_ENGINE=reference`` after the timed window and
require bit-equal results.
"""

from __future__ import annotations

import os
import random
import statistics
from contextlib import contextmanager
from time import perf_counter

from common import HostSpeed, Outcome, percentile, ratio, self_peak_rss_mib, window_timings
from layers import Tracing

from repro.api import (
    ParallelConfig,
    PlanCache,
    PlannerConstraints,
    RobustnessObjective,
    clear_plan_cache,
    model_for_devices,
    optimize,
    plan,
    whatif,
)
from repro.harness.experiments import (
    build_schedule,
    clear_structural_caches,
    structural_cache_stats,
)
from repro.planner.estimate import clear_probe_cache
from repro.planner.whatif import clear_whatif_graphs
from repro.sim import RuntimeModel, SimulationSetup, execute_schedule

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: ``plan-cold`` ops re-run under the reference engine per run.
COLD_CHECKS = 2
#: ``plan-cold`` ops replayed untraced and traced to price tracing.
OVERHEAD_OPS = 8
#: Timed seconds between samples of the host's speed; a sample is taken
#: before the first op after this much op time (about 24 ms each).
SPEED_SAMPLE_EVERY_S = 0.5

VOCAB_RANGE = (32 * 1024, 256 * 1024)

#: One ``plan-cold`` round as (devices, microbatches, seq).  Latencies
#: cluster by devices × microbatches.  Five configs cost less than the
#: two (8, 64) ones and five cost more, so p50 falls in the middle of the
#: (8, 64) cluster and p90 inside the (16, 128) one, away from the gaps
#: between clusters.  Runs stop only at round boundaries, so every run
#: measures the same mix.
COLD_ROUND = (
    (4, 32, 2048), (8, 64, 4096), (16, 128, 2048),
    (4, 64, 4096), (8, 128, 2048), (16, 32, 4096),
    (4, 128, 2048), (8, 32, 4096), (16, 64, 2048),
    (8, 64, 2048), (16, 128, 2048), (8, 128, 2048),
)
TINY_COLD_ROUND = ((4, 8, 2048), (4, 16, 2048))

#: ``explore-warm`` structures as (devices, vocab, seq, microbatches).
EXPLORE_STRUCTURES = ((4, 256 * 1024, 2048, 32), (8, 128 * 1024, 4096, 16))
TINY_EXPLORE_STRUCTURES = ((4, 64 * 1024, 2048, 8),)
#: One structure's share of the fixed op schedule: 32 what-ifs, 14
#: budget re-ranks, one robust plan and one optimize.  Slow ops stay
#: under 5% of ops, so p50 and p90 fall among what-ifs and re-ranks.
EXPLORE_CYCLE = ("whatif", "whatif", "rerank") * 14 + ("whatif",) * 4 + ("robust", "optimize")
TINY_EXPLORE_CYCLE = ("whatif", "whatif", "rerank", "robust", "optimize")
SCENARIO = "slow-node"
#: Evaluations per optimize.  Greedy search scores up to 16 rewrites a
#: round, so this budget ends every search after one round: the same
#: work whichever seed samples the sites.
OPTIMIZE_BUDGET = 16


def clear_caches() -> None:
    """Drop every process-wide cache the planner stack keeps."""
    clear_structural_caches()
    clear_probe_cache()
    clear_whatif_graphs()
    clear_plan_cache()


@contextmanager
def reference_engine():
    previous = os.environ.get("REPRO_SIM_ENGINE")
    os.environ["REPRO_SIM_ENGINE"] = "reference"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_SIM_ENGINE"]
        else:
            os.environ["REPRO_SIM_ENGINE"] = previous


def resolve(devices: int, vocab: int, seq: int, microbatches: int):
    model = model_for_devices(devices, seq, vocab)
    parallel = ParallelConfig(
        pipeline_size=devices, num_microbatches=microbatches, microbatch_size=1
    )
    return model, parallel


def plan_summary(plans) -> dict:
    """The outputs a plan's correctness rests on, JSON-ready."""
    return {
        "ranked": [
            [c.method, c.source, c.iteration_time, c.peak_memory_gb, c.robust_time]
            for c in plans.ranked
        ],
        "rejected": [[c.method, c.source] for c in plans.rejected],
    }


def simulated_share(plans) -> tuple[int, int]:
    """(simulated, priced) candidates; structural rejects are not priced."""
    priced = [c for c in plans.ranked + plans.rejected if c.source != "structural"]
    return sum(c.simulated for c in priced), len(priced)


def unique_draw(rng: random.Random, seen: set, draw):
    while True:
        value = draw(rng)
        if value not in seen:
            seen.add(value)
            return value


def median_setup(setup, import_s: float) -> tuple[float, float, object]:
    """Run ``setup`` SETUP_REPEATS times; (import plus median seconds at
    the reference host speed, the same in raw seconds, last result)."""
    speed = HostSpeed()
    speed.measure()
    times = []
    result = None
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        result = setup()
        times.append(perf_counter() - start)
        speed.measure()
    factors = speed.factors()
    scaled = import_s * factors[0] + statistics.median(t * f for t, f in zip(times, factors))
    return scaled, import_s + statistics.median(times), result


class Timer:
    """Times ops one by one, grouped in windows (a ``plan-cold`` round,
    an ``explore-warm`` cycle), and samples the host's speed between ops;
    when traced, records spans and the structural-cache counters inside
    ops only (``plan-cold`` clears the caches, and with them the
    counters, between ops)."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.latencies: list[float] = []
        #: Per window, (latency, index of the host-speed sample before it).
        self.windows: list[list[tuple[float, int]]] = []
        self.speed = HostSpeed()
        self.unsampled_s = 0.0
        self.structural: dict[str, int] = {}

    def new_window(self) -> None:
        self.windows.append([])

    def close(self) -> None:
        """Take the sample that ends the last ops' stretch."""
        self.speed.measure()

    def latency_windows(self, scaled: bool) -> list[list[float]]:
        """Each window's latencies, raw or at the reference host speed."""
        factors = self.speed.factors()
        return [
            [latency * (factors[sample] if scaled else 1.0) for latency, sample in window]
            for window in self.windows
        ]

    def run(self, op):
        if not self.speed.samples or self.unsampled_s >= SPEED_SAMPLE_EVERY_S:
            self.speed.measure()
            self.unsampled_s = 0.0
        recorder = self.recorder
        if recorder is not None:
            before = structural_cache_stats()
            recorder.active = True
        start = perf_counter()
        try:
            return op()
        finally:
            latency = perf_counter() - start
            self.latencies.append(latency)
            self.windows[-1].append((latency, len(self.speed.samples) - 1))
            self.unsampled_s += latency
            if recorder is not None:
                recorder.active = False
                for key, value in structural_cache_stats().items():
                    self.structural[key] = self.structural.get(key, 0) + value - before[key]

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def finish_e2e(out: Outcome, setup_s: float, raw_setup_s: float, timer: Timer,
               peak_rss: float) -> None:
    """End-to-end metrics at the reference host speed; the raw figures go
    to the result file's notes."""
    scaled = timer.latency_windows(scaled=True)
    raw = timer.latency_windows(scaled=False)
    out.e2e.update(setup_s=setup_s, peak_rss_mib=peak_rss,
                   **window_timings(scaled, [sum(window) for window in scaled]))
    out.notes["raw"] = {"setup_s": raw_setup_s,
                        **window_timings(raw, [sum(window) for window in raw])}
    out.notes["host_speed"] = statistics.median(timer.speed.factors())
    out.samples.update(setup=SETUP_REPEATS, latency=len(timer.latencies),
                       latency_windows=len(timer.windows),
                       speed_samples=len(timer.speed.samples))


def layer_metrics(out: Outcome, recorder, timer: Timer) -> None:
    """Per-layer numbers from the recorder and the structural counters."""
    delta = timer.structural
    calls, self_s, counts = recorder.calls, recorder.self_s, recorder.counts
    layers = out.layers
    for layer in (
        "scheduling.generate", "scheduling.validate", "sim.compile",
        "sim.refine", "sim.memory", "sim.replay", "sim.delta",
        "scenarios.perturb", "planner.estimate", "planner.digest",
        "optimize.score", "optimize.rewrite",
    ):
        layers[f"{layer}.calls"] = calls.get(layer, 0)
        layers[f"{layer}.self_ms"] = self_s.get(layer, 0.0) * 1e3
    layers["sim.batch.rows"] = counts.get("sim.batch.rows", 0)
    layers["sim.batch.self_ms"] = self_s.get("sim.batch", 0.0) * 1e3
    layers["sim.compile.nodes"] = counts.get("sim.compile.nodes", 0)
    layers["sim.nodes_per_s"] = ratio(
        counts.get("sim.replay.nodes", 0), self_s.get("sim.replay", 0.0)
    )
    layers["harness.schedule_cache.hit_ratio"] = ratio(
        delta["schedule_hits"], delta["schedule_hits"] + delta["schedule_misses"]
    )
    layers["harness.graph_cache.hit_ratio"] = ratio(
        delta["graph_hits"], delta["graph_hits"] + delta["graph_misses"]
    )
    for name in ("planner.probe_cache", "planner.cache"):
        hits = counts.get(f"{name}.hits", 0)
        layers[f"{name}.hit_ratio"] = ratio(hits, hits + counts.get(f"{name}.misses", 0))
    layers["trace.coverage"] = ratio(recorder.root_s, timer.wall)
    out.samples["traced_ops"] = len(timer.latencies)


def overhead_share(pairs) -> float:
    """Tracing cost: equivalent ops run untraced and traced, ABBA order.

    Each pair holds two factories that prepare (untimed) an op doing the
    same work — same config, same cache state — and return it.  One runs
    without wrappers and one with them recording; which goes first
    alternates from pair to pair, so warm-up and drift cancel.
    """
    totals = {False: 0.0, True: 0.0}
    for index, pair in enumerate(pairs):
        order = (False, True) if index % 2 == 0 else (True, False)
        for traced, make in zip(order, pair):
            tracing = Tracing() if traced else None
            recorder = tracing.install() if traced else None
            try:
                op = make()
                if traced:
                    recorder.active = True
                start = perf_counter()
                op()
                totals[traced] += perf_counter() - start
            finally:
                if traced:
                    recorder.active = False
                    tracing.uninstall()
    return ratio(totals[True] - totals[False], totals[False])


# ---------------------------------------------------------------------------
# plan-cold
# ---------------------------------------------------------------------------


def cold_rounds(seed: int, tiny: bool):
    """Endless seeded rounds of configs (devices, vocab, seq, microbatches);
    no config repeats."""
    rng = random.Random(f"plan-cold/{seed}")
    seen: set = set()
    while True:
        yield [
            (devices, unique_draw(rng, seen, lambda r: r.randint(*VOCAB_RANGE)), seq,
             microbatches)
            for devices, microbatches, seq in (TINY_COLD_ROUND if tiny else COLD_ROUND)
        ]


def cold_plan(config):
    clear_caches()
    model, parallel = resolve(*config)
    return lambda: plan(model, parallel, cache=PlanCache())


def run_plan_cold(seed: int, seconds: float, trace: bool, tiny: bool,
                  import_s: float) -> Outcome:
    out = Outcome()
    warm_config = (4, 32 * 1024 - 8, 2048, 8)  # outside the rounds' range

    def setup():
        clear_caches()
        rounds = cold_rounds(seed, tiny)
        plan(*resolve(*warm_config), cache=PlanCache())
        clear_caches()
        return rounds

    setup_s, raw_setup_s, rounds = median_setup(setup, import_s)
    tracing = Tracing() if trace else None
    recorder = tracing.install() if trace else None
    timer = Timer(recorder)
    configs = []
    simulated = priced = 0
    deadline = perf_counter() + seconds
    try:
        while perf_counter() < deadline or not configs:
            timer.new_window()
            for config in next(rounds):
                op = cold_plan(config)
                out.attempted += 1
                try:
                    plans = timer.run(op)
                except Exception as error:  # a failed op is counted, not fatal
                    out.fail(f"plan {config}: {type(error).__name__}: {error}")
                    continue
                configs.append(config)
                out.outputs.append({"config": list(config), **plan_summary(plans)})
                sim, pri = simulated_share(plans)
                simulated += sim
                priced += pri
    finally:
        if tracing is not None:
            tracing.uninstall()
    timer.close()
    finish_e2e(out, setup_s, raw_setup_s, timer, self_peak_rss_mib())
    if trace:
        layer_metrics(out, recorder, timer)
        out.layers["planner.simulated_share"] = ratio(simulated, priced)
        replay = configs[:OVERHEAD_OPS]
        out.layers["trace.overhead_share"] = overhead_share(
            [(lambda c=c: cold_plan(c), lambda c=c: cold_plan(c)) for c in replay]
        )
        out.samples["overhead_ops"] = len(replay)

    rng = random.Random(f"plan-cold/check/{seed}")
    checked = rng.sample(range(len(configs)), min(COLD_CHECKS, len(configs)))
    for index in sorted(checked):
        config = configs[index]
        with reference_engine():
            clear_caches()
            expected = plan_summary(plan(*resolve(*config), cache=PlanCache()))
        if expected != {k: v for k, v in out.outputs[index].items() if k != "config"}:
            out.fail(f"plan {config}: differs from the reference engine")
    out.samples["reference_checks"] = len(checked)
    return out


# ---------------------------------------------------------------------------
# explore-warm
# ---------------------------------------------------------------------------


class Structure:
    """One fixed config, warmed in set-up, and the seeded op parameters."""

    def __init__(self, config, cache: PlanCache) -> None:
        self.config = config
        self.model, self.parallel = resolve(*config)
        self.cache = cache
        self.next_device = 0

    def warm(self) -> None:
        model, parallel, cache = self.model, self.parallel, self.cache
        plans = plan(model, parallel, cache=cache)
        self.best = plans.best.method
        # Re-rank budgets keep the leanest simulated candidate feasible.
        self.budget_range = (
            min(c.peak_memory_gb for c in plans.ranked if c.simulated) * 1.01,
            80.0,
        )
        # optimize() plans with every family simulated; robust plans need
        # the scenario's metrics; what-ifs need the resident graph.
        plan(model, parallel, PlannerConstraints(simulate_top_k=None), cache=cache)
        plan(model, parallel, cache=cache, scenario=SCENARIO,
             robustness=RobustnessObjective(seed=0))
        whatif(model, parallel, method=self.best, device=0, factor=1.5, cache=cache)


def explore_params(kind: str, structure: Structure, rng: random.Random, seen: set):
    """Fresh seeded parameters for one op, never repeated within a run.

    What-ifs take devices round-robin (a what-if's cost follows the
    perturbed device's cone), so every cycle prices the same device mix.
    """
    if kind == "whatif":
        devices = structure.config[0]
        device = structure.next_device % devices
        structure.next_device += 1
        return unique_draw(rng, seen, lambda r: (
            "whatif", structure.config, device, round(r.uniform(1.05, 2.0), 6)
        ))[2:]
    if kind == "rerank":
        low, high = structure.budget_range
        return unique_draw(rng, seen, lambda r: (
            "rerank", structure.config, round(r.uniform(low, high), 6)
        ))[2:]
    return unique_draw(rng, seen, lambda r: (kind, structure.config, r.randrange(1, 2**31)))[2:]


def explore_op(kind: str, structure: Structure, params: tuple):
    """Zero-argument op for ``kind``; returns its JSON-ready output."""
    model, parallel, cache = structure.model, structure.parallel, structure.cache
    if kind == "whatif":
        device, factor = params

        def run():
            result = whatif(model, parallel, method=structure.best, device=device,
                            factor=factor, cache=cache)
            return {"baseline_time": result.baseline_time, "whatif_time": result.whatif_time}

    elif kind == "rerank":
        (budget,) = params

        def run():
            plans = plan(model, parallel, PlannerConstraints(memory_budget_gib=budget),
                         cache=cache)
            return {**plan_summary(plans), "share": simulated_share(plans)}

    elif kind == "robust":
        (seed,) = params

        def run():
            plans = plan(model, parallel, cache=cache, scenario=SCENARIO,
                         robustness=RobustnessObjective(seed=seed))
            return {**plan_summary(plans), "share": simulated_share(plans)}

    else:
        (seed,) = params

        def run():
            result = optimize(model, parallel, cache=cache, seed=seed,
                              budget=OPTIMIZE_BUDGET)
            return {
                "baseline_method": result.baseline_method,
                "baseline_time": result.baseline_time,
                "optimized_time": result.optimized_time,
                "speedup": result.speedup,
                "evaluations": result.evaluations,
            }

    return run


class SlowDevice:
    """A runtime with every pass of one device ``factor``× longer."""

    def __init__(self, inner, device: int, factor: float) -> None:
        self.inner, self.device, self.factor = inner, device, factor
        self.setup, self.schedule = inner.setup, inner.schedule

    def pass_duration(self, p) -> float:
        duration = self.inner.pass_duration(p)
        return self.factor * duration if p.device == self.device else duration

    def collective_duration(self, kind) -> float:
        return self.inner.collective_duration(kind)

    def p2p_duration(self, src_device: int, dst_device: int) -> float:
        return self.inner.p2p_duration(src_device, dst_device)


def reference_output(kind: str, structure: Structure, params: tuple) -> dict:
    """One op recomputed from scratch under the reference engine."""
    fresh = Structure(structure.config, PlanCache())
    fresh.best = structure.best
    with reference_engine():
        clear_caches()
        if kind != "whatif":
            output = explore_op(kind, fresh, params)()
            output.pop("share", None)
            return output
        device, factor = params
        setup = SimulationSetup(fresh.model, fresh.parallel)
        schedule = build_schedule(structure.best, setup, refine=True)
        runtime = RuntimeModel(setup, schedule)
        return {
            "baseline_time": execute_schedule(schedule, runtime).iteration_time,
            "whatif_time": execute_schedule(
                schedule, SlowDevice(runtime, device, factor)
            ).iteration_time,
        }


def run_explore_warm(seed: int, seconds: float, trace: bool, tiny: bool,
                     import_s: float) -> Outcome:
    out = Outcome()
    configs = TINY_EXPLORE_STRUCTURES if tiny else EXPLORE_STRUCTURES
    cycle = TINY_EXPLORE_CYCLE if tiny else EXPLORE_CYCLE

    def setup():
        clear_caches()
        cache = PlanCache()
        structures = [Structure(config, cache) for config in configs]
        for structure in structures:
            structure.warm()
        return structures

    setup_s, raw_setup_s, structures = median_setup(setup, import_s)
    rng = random.Random(f"explore-warm/{seed}")
    seen: set = set()

    def next_cycle():
        return [
            (kind, structure, explore_params(kind, structure, rng, seen))
            for structure in structures
            for kind in cycle
        ]

    tracing = Tracing() if trace else None
    recorder = tracing.install() if trace else None
    timer = Timer(recorder)
    done: list[tuple] = []
    by_kind: dict[str, list[float]] = {}
    evaluations = improved = simulated = priced = 0
    optimize_s = 0.0
    deadline = perf_counter() + seconds
    try:
        while perf_counter() < deadline or not done:
            timer.new_window()
            for kind, structure, params in next_cycle():
                out.attempted += 1
                try:
                    output = timer.run(explore_op(kind, structure, params))
                except Exception as error:  # a failed op is counted, not fatal
                    out.fail(f"{kind} {structure.config} {params}: "
                             f"{type(error).__name__}: {error}")
                    continue
                latency = timer.latencies[-1]
                by_kind.setdefault(kind, []).append(latency)
                if kind == "optimize":
                    evaluations += output["evaluations"]
                    improved += output["speedup"] > 1.0
                    optimize_s += latency
                sim, pri = output.pop("share", (0, 0))
                simulated += sim
                priced += pri
                done.append((kind, structure, params))
                out.outputs.append({"op": [kind, list(structure.config), list(params)],
                                    **output})
    finally:
        if tracing is not None:
            tracing.uninstall()
    timer.close()
    finish_e2e(out, setup_s, raw_setup_s, timer, self_peak_rss_mib())
    for kind in ("whatif", "rerank", "robust", "optimize"):
        out.samples[kind] = len(by_kind.get(kind, ()))
    if trace:
        layer_metrics(out, recorder, timer)
        out.layers["planner.simulated_share"] = ratio(simulated, priced)
        out.layers["optimize.improved_share"] = ratio(improved, len(by_kind.get("optimize", ())))
        for kind in ("whatif", "rerank", "robust"):
            out.layers[f"explore.{kind}_p50_ms"] = percentile(by_kind.get(kind, []), 50) * 1e3
        out.layers["explore.optimize_evals_per_s"] = ratio(evaluations, optimize_s)
        # One more fixed cycle, each op once untraced and once traced
        # with fresh parameters of the same kind and structure.  Optimize
        # is left out: its cost follows the evaluations its seed spends.
        ops = [op for op in next_cycle() if op[0] != "optimize"]
        pairs = [
            (lambda k=k, s=s, p=p: explore_op(k, s, p),
             lambda k=k, s=s: explore_op(k, s, explore_params(k, s, rng, seen)))
            for k, s, p in ops
        ]
        out.layers["trace.overhead_share"] = overhead_share(pairs)
        out.samples["overhead_ops"] = len(pairs)

    check_rng = random.Random(f"explore-warm/check/{seed}")
    checked = []
    for kind in ("whatif", "whatif", "rerank", "robust", "optimize"):
        candidates = [i for i, op in enumerate(done) if op[0] == kind and i not in checked]
        if candidates:
            checked.append(check_rng.choice(candidates))
    for index in checked:
        kind, structure, params = done[index]
        measured = {k: v for k, v in out.outputs[index].items() if k != "op"}
        if reference_output(kind, structure, params) != measured:
            out.fail(f"{kind} {structure.config} {params}: differs from the reference engine")
    out.samples["reference_checks"] = len(checked)
    return out
