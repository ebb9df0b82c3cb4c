#!/usr/bin/env python
"""Measure the simulator/planner perf trajectory and emit ``BENCH_sim.json``.

Times the hot paths of the reproduction on the paper's Table 5/6
config classes, comparing the frozen **reference** engine (the
pre-compiled-graph executor, ``REPRO_SIM_ENGINE=reference``) against
the **compiled** engine (:mod:`repro.sim.compiled`):

* ``execute_*`` — one in-order `execute_schedule` (reference rebuilds
  the DAG from dicts; compiled replays the precompiled graph, the
  steady state of every planner/sweep loop);
* ``dataflow_*`` — one work-conserving execution;
* ``plan_*`` — one end-to-end :func:`repro.planner.planner.plan` call
  (enumerate → price → simulate top-k → rank) with a cold cache;
* ``calibrated_plan_*`` — full verification (simulate *every* feasible
  candidate) vs the same search trust-gated by the committed
  ``a100-sim`` calibrated profile, which skips candidates its error
  bounds prove out; top-1 identity with full verification is asserted
  every run;
* ``execute_many_*`` — pricing one compiled structure under 16 runtime
  bindings: the "reference" side loops ``rebind().replay()`` per
  binding, the "compiled" side is one batched
  :meth:`~repro.sim.compiled.CompiledGraph.execute_many` pass;
* ``sweep_grid_*`` — an 8-point memory-budget grid sharing one
  schedule structure: the "reference" side plans each point with all
  process-wide caches cleared (the pre-structural-cache behaviour),
  the "compiled" side is one structure-grouped ``sweep()``;
* ``robust_plan_*`` — one warm robust :func:`repro.planner.planner.plan`
  (``slow-node``, K=256, a fresh Monte Carlo seed every round, so
  nothing but the plan cache misses): the candidates' jitter draws from
  one shared stream, the batched sweeps and the ranking, compiled only;
* ``scenario_robustness_*`` — Monte Carlo robustness (K=256 seeded
  jitter samples of the ``slow-node`` cluster scenario): the
  "reference" side executes the perturbed bindings one at a time, the
  "compiled" side is one batched
  :meth:`~repro.sim.compiled.CompiledGraph.execute_many_summary` pass
  over the same matrices; ``stats_s`` records one end-to-end
  :func:`~repro.scenarios.perturb.robustness_stats` call (jitter
  draws, the batched sweep and the statistics; not gated);
* ``incremental_whatif_*`` — one single-device what-if (the last
  device 1.25× slower): the "reference" side is the reference engine
  fully re-relaxing the perturbed binding from scratch, the "compiled"
  side is one sweep of the perturbed rows on the resident graph
  (:meth:`~repro.sim.compiled.CompiledGraph.execute_delta_summary`);
  ``resweep_s`` records the same sweep through a fresh rebind clone's
  K=1 ``execute_many_summary`` (no resident graph);
* ``optimize_*`` — one token-split search
  (:func:`repro.optimize.optimize`: full-verify named-family baseline
  + the start and at most two token splits, a ``/v1/optimize`` cache
  miss) on a cold cache; the "reference" side is the identical search
  on the reference engine (the discovered speedup is asserted
  bit-equal across engines every run).

With ``--service`` the *serving* trajectory is measured instead (and
written to ``BENCH_service.json``), driving a live in-process
:class:`~repro.service.app.PlanningService` over HTTP:

* ``service_hot_cache_*`` — steady-state latency of a request the LRU
  tier answers; the "reference" side is one cold ``plan_point`` with
  every process-wide cache cleared (what each CLI invocation used to
  pay);
* ``service_coalesced_burst_*`` — N synchronized duplicate requests on
  a never-seen digest; the "reference" side is N× the measured
  single-request cost (what the burst would cost un-coalesced), and
  ``cost_ratio`` records burst wall time over one request (~1 when
  coalescing works);
* ``service_chaos_*`` — tail latency under the deterministic quick
  chaos profile (slow workers, corrupted/torn cache writes, dropped
  connections) against a tiny-LRU service with a throwaway disk tier:
  ``compiled_s`` is the p99 of successful requests and
  ``availability`` the non-shed success rate;

Every entry records reference seconds, compiled seconds and the
speedup (for the two sweep-era classes, "reference" means the
unbatched/uncached equivalent path, not the reference *engine*).  A
calibration sample (a fixed pure-Python workload) is taken before the
first entry and after every entry, and each entry records the median of
the samples on either side of it as its ``calibration_s``: regression
checks use times *normalized by calibration*, so a slower CI box does
not fail the perf-smoke job, and a host whose speed drifts during the
run is measured around each entry, not once before them all.  The
host's ``python`` version, ``nproc`` and ``numpy`` version (``null``
without NumPy) are recorded beside it.

Usage::

    PYTHONPATH=src python tools/bench_trajectory.py             # full + quick, write BENCH_sim.json
    PYTHONPATH=src python tools/bench_trajectory.py --quick     # quick classes only, no write
    PYTHONPATH=src python tools/bench_trajectory.py --quick --check BENCH_sim.json
    PYTHONPATH=src python tools/bench_trajectory.py --service   # write BENCH_service.json
    PYTHONPATH=src python tools/bench_trajectory.py --service --quick --check BENCH_service.json

``--check`` exits non-zero when any current quick entry is more than
``--threshold`` (default 2×) slower than the committed baseline after
calibration normalization — the CI perf-smoke gate (both baselines).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.harness.settings import (  # noqa: E402
    ONE_F_ONE_B_METHODS,
    VHALF_METHODS,
    model_for_1f1b,
    model_for_vhalf,
    parallel_for,
)

#: (name suffix, gpus, method or method tuple, model factory)
PANELS = [
    ("tab5_8gpu", 8, "vocab-1", ONE_F_ONE_B_METHODS, model_for_1f1b),
    ("tab6_16gpu", 16, "vhalf-vocab-1", VHALF_METHODS, model_for_vhalf),
]

#: Microbatch counts per trajectory class.
MICROBATCHES = {"full": 128, "quick": 32}
#: Runtime bindings per execute_many batch.
BINDINGS = 16
#: Monte Carlo samples of the scenario-robustness classes.
MC_SAMPLES = 256
#: Cluster scenario priced by the scenario-robustness classes.
MC_SCENARIO = "slow-node"
#: Memory-budget grid (GiB) of the sweep-throughput classes — one
#: schedule structure, eight re-rankings.
SWEEP_BUDGETS = (24.0, 32.0, 40.0, 48.0, 56.0, 64.0, 72.0, 80.0)
#: Best-of rounds: the quick class gates CI on millisecond timings, so
#: it takes more rounds to suppress shared-runner noise.
ROUNDS = {"full": 3, "quick": 5}
#: Oracle-evaluation budget of the optimize_* classes.  The split
#: chain spends at most 3 (``evaluations`` records how many): at the
#: quick m=32 it finds its token-split improvement on both panels; at
#: the full m=128 it does not (those entries record ``improved: 0``).
OPTIMIZE_BUDGET = 16
#: Seed of the optimize_* classes (recorded; it changes no output).
OPTIMIZE_SEED = 0
#: Synchronized duplicate requests of the service coalesced-burst class.
SERVICE_DUPLICATES = 8
#: Sequential hot requests averaged per service hot-cache round.
SERVICE_HOT_REQUESTS = 25
#: Requests of the service chaos class (p99 wants a real sample).
SERVICE_CHAOS_REQUESTS = 40
#: Fault profile of the service chaos class: the quick subset of the
#: loadtest's chaos spec (no worker kill — the class runs a thread
#: executor and measures serving cost, not pool resurrection).
SERVICE_CHAOS_FAULTS = (
    "slow-worker:rate=0.25,seed=5,delay_ms=20;"
    "corrupt-cache-entry:rate=0.9,seed=7;"
    "torn-cache-write:rate=0.4,seed=11;"
    "drop-connection-mid-response:rate=0.15,seed=3"
)

def best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibration() -> float:
    """Seconds for a fixed pure-Python workload (machine-speed proxy)."""

    def workload() -> int:
        total = 0
        for i in range(200_000):
            total += i % 7
        return total

    return best_of(workload, rounds=3)


class Entries(dict):
    """The trajectory entries of one class, each normalized by the host
    speed around it: a calibration sample is taken when the recorder is
    made and after every entry, and an entry's ``calibration_s`` is the
    median of the samples before and after it."""

    def __init__(self, width: int) -> None:
        super().__init__()
        self.width = width
        self.sample = calibration()

    def add(self, name: str, reference_s: float | None, compiled_s: float, **extra) -> None:
        before, self.sample = self.sample, calibration()
        entry = self[name] = {
            "compiled_s": compiled_s,
            "calibration_s": statistics.median((before, self.sample)),
            **extra,
        }
        label = f"{name:{self.width}s}"
        if reference_s is None:
            print(f"  {label} compiled {compiled_s * 1e3:9.2f} ms")
            return
        entry["reference_s"] = reference_s
        entry["speedup"] = reference_s / compiled_s if compiled_s > 0 else 0.0
        print(
            f"  {label} reference {reference_s * 1e3:9.2f} ms   "
            f"compiled {compiled_s * 1e3:9.2f} ms   "
            f"{entry['speedup']:5.1f}x"
        )


class _ScaledRuntime:
    """Deterministic runtime variations for the execute_many batch."""

    def __init__(self, inner, factor: float):
        self.inner = inner
        self.factor = factor

    def pass_duration(self, p):
        return self.factor * self.inner.pass_duration(p)

    def collective_duration(self, kind):
        return self.factor * self.inner.collective_duration(kind)

    def p2p_duration(self, src, dst):
        return self.factor * self.inner.p2p_duration(src, dst)


def clear_all_planner_caches() -> None:
    """Reset every process-wide cache the planner stack keeps."""
    from repro.harness.experiments import clear_structural_caches
    from repro.planner.estimate import clear_probe_cache
    from repro.planner.planner import clear_plan_cache

    clear_plan_cache()
    clear_probe_cache()
    clear_structural_caches()


def engine(name: str):
    """Context manager pinning ``REPRO_SIM_ENGINE``."""

    class _Engine:
        def __enter__(self):
            self._old = os.environ.get("REPRO_SIM_ENGINE")
            os.environ["REPRO_SIM_ENGINE"] = name

        def __exit__(self, *exc):
            if self._old is None:
                os.environ.pop("REPRO_SIM_ENGINE", None)
            else:
                os.environ["REPRO_SIM_ENGINE"] = self._old

    return _Engine()


def measure_class(
    klass: str, with_reference: bool = True
) -> dict[str, dict[str, float]]:
    """All trajectory entries for one class ('full' or 'quick').

    ``with_reference=False`` (the ``--check`` gate) times only the
    compiled engine — the regression check never reads the reference
    numbers, and the reference runs dominate wall-clock.
    """
    from repro.harness.experiments import generate_method_schedule
    from repro.planner.cache import PlanCache
    from repro.planner.planner import PlannerConstraints, plan
    from repro.sim import RuntimeModel, SimulationSetup, compile_schedule
    from repro.sim.reference_executor import (
        reference_execute_schedule,
        reference_execute_schedule_dataflow,
    )

    m = MICROBATCHES[klass]
    rounds = ROUNDS[klass]
    entries = Entries(22)
    add = entries.add

    for tag, gpus, method, methods, model_for in PANELS:
        model = model_for(gpus, 2048, 256 * 1024)
        parallel = parallel_for(gpus, num_microbatches=m)
        setup = SimulationSetup(model, parallel)
        schedule = generate_method_schedule(method, setup)
        runtime = RuntimeModel(setup, schedule)
        t0 = time.perf_counter()
        graph = compile_schedule(schedule, runtime)
        compile_s = time.perf_counter() - t0
        mode = "zero-bubble" if schedule.has_weight_passes else "strict"

        add(
            f"execute_{tag}",
            best_of(lambda: reference_execute_schedule(schedule, runtime), rounds)
            if with_reference
            else None,
            best_of(graph.replay, rounds),
            compile_s=compile_s,
        )
        add(
            f"dataflow_{tag}",
            best_of(
                lambda: reference_execute_schedule_dataflow(
                    schedule, runtime, lookahead=64, mode=mode
                ),
                rounds,
            )
            if with_reference
            else None,
            best_of(
                lambda: graph.execute_dataflow(lookahead=64, mode=mode), rounds
            ),
        )

        constraints = PlannerConstraints(methods=methods)

        def run_plan() -> None:
            plan(model, parallel, constraints, cache=PlanCache())

        plan_reference = None
        if with_reference:
            with engine("reference"):
                plan_reference = best_of(run_plan, rounds)
        with engine("compiled"):
            plan_compiled = best_of(run_plan, rounds)
        add(f"plan_{tag}", plan_reference, plan_compiled)

        # Trust-gated verification: full verification (simulate every
        # feasible candidate) under the analytic model vs the same
        # search under the committed calibrated profile, whose stored
        # error bounds prove most candidates out of the simulated set.
        # Unlike the panel-restricted plan_* class this searches the
        # full 8-family space (a default plan() call): gating earns its
        # keep on families whose estimates are provably apart, while
        # near-ties stay simulated.  Both sides run the compiled engine
        # on a cold per-call cache; the "reference" is the full-verify
        # wall time the shrink saves, and top-1 identity is asserted,
        # not assumed.
        full_constraints = PlannerConstraints(simulate_top_k=None)
        gated_constraints = PlannerConstraints(
            simulate_top_k=None, cost_model="a100-sim"
        )

        def full_verify():
            return plan(model, parallel, full_constraints, cache=PlanCache())

        def gated_verify():
            return plan(model, parallel, gated_constraints, cache=PlanCache())

        with engine("compiled"):
            full_plans = full_verify()
            gated_plans = gated_verify()
            assert full_plans.best.method == gated_plans.best.method, (
                f"trust-gated top-1 {gated_plans.best.method} != "
                f"full-verify top-1 {full_plans.best.method}"
            )
            full_verify_s = (
                best_of(full_verify, rounds) if with_reference else None
            )
            gated_s = best_of(gated_verify, rounds)
        add(
            f"calibrated_plan_{tag}",
            full_verify_s,
            gated_s,
            cost_model="a100-sim",
            top1_match=1.0,
            simulated_full=sum(c.simulated for c in full_plans.ranked),
            simulated_gated=sum(c.simulated for c in gated_plans.ranked),
            trust_skipped=len(gated_plans.trust_skipped),
        )

        # Batched replay: one structure, BINDINGS runtime bindings.  The
        # reference side loops the pre-batch planner behaviour (a fresh
        # compile + execute per binding); rebind_loop_s additionally
        # records the strongest manual alternative (compile once, rebind
        # + replay per binding) for transparency.
        runtimes = [
            _ScaledRuntime(runtime, 0.5 + 0.1 * i) for i in range(BINDINGS)
        ]

        def compile_loop_bindings() -> None:
            for scaled in runtimes:
                compile_schedule(schedule, scaled).execute()

        def rebind_loop_bindings() -> None:
            for scaled in runtimes:
                graph.rebind(scaled).replay()

        def batch_bindings() -> None:
            graph.execute_bindings(runtimes)

        add(
            f"execute_many_{tag}",
            best_of(compile_loop_bindings, rounds) if with_reference else None,
            best_of(batch_bindings, rounds),
            bindings=BINDINGS,
            rebind_loop_s=best_of(rebind_loop_bindings, rounds),
        )

        # Scenario robustness: K=256 seeded-jitter samples of one
        # scenario-bound structure.  The "reference" side sweeps the
        # same perturbed duration/lag matrices one binding at a time
        # (the natural pre-batch Monte Carlo loop); the compiled side
        # is one execute_many_summary pass.
        from repro.scenarios import get_scenario, perturbed_rows, robustness_stats

        scenario = get_scenario(MC_SCENARIO)
        scenario_setup = scenario.setup_for(setup)
        scenario_schedule = generate_method_schedule(method, scenario_setup)
        scenario_graph = compile_schedule(
            scenario_schedule,
            scenario.runtime_for(scenario_setup, scenario_schedule),
        )
        dur_rows, lag_rows = perturbed_rows(
            scenario_graph, scenario, MC_SAMPLES, seed=0
        )

        def per_binding_robustness() -> None:
            for k in range(MC_SAMPLES):
                scenario_graph.execute_many([dur_rows[k]], [lag_rows[k]])

        def batched_robustness() -> None:
            scenario_graph.execute_many_summary(dur_rows, lag_rows)

        add(
            f"scenario_robustness_{tag}",
            best_of(per_binding_robustness, rounds) if with_reference else None,
            best_of(batched_robustness, rounds),
            samples=MC_SAMPLES,
            scenario=MC_SCENARIO,
            stats_s=best_of(
                lambda: robustness_stats(
                    scenario_graph, scenario, MC_SAMPLES, seed=0
                ),
                rounds,
            ),
        )

        # Warm robust plan: the panel's families ranked by the p95 of
        # MC_SAMPLES jitter draws, every structure, metric and nominal
        # binding warm; a fresh seed each round misses only the plan
        # cache, so the round pays the candidates' draws (one shared
        # stream), their batched sweeps and the ranking.
        from repro.scenarios import RobustnessObjective

        robust_cache = PlanCache()
        seeds = itertools.count()

        def robust_plan() -> None:
            plan(
                model, parallel, constraints, cache=robust_cache,
                scenario=MC_SCENARIO,
                robustness=RobustnessObjective(samples=MC_SAMPLES, seed=next(seeds)),
            )

        robust_plan()
        add(
            f"robust_plan_{tag}",
            None,
            best_of(robust_plan, rounds),
            samples=MC_SAMPLES,
            scenario=MC_SCENARIO,
        )

        # What-if: one single-device perturbation (the last device 1.25x
        # slower) priced by one sweep of the perturbed rows on the
        # resident graph, vs the reference engine fully re-relaxing the
        # perturbed binding from scratch.  resweep_s additionally
        # records a fresh rebind clone sweeping the perturbed row
        # through execute_many_summary (no resident graph).
        from repro.scenarios.cluster import ScenarioRuntime

        whatif_device, whatif_factor = gpus - 1, 1.25
        whatif_pert = graph.device_perturbation(whatif_device, whatif_factor)
        whatif_row = list(graph.durations)
        for node, value in whatif_pert.durations:
            whatif_row[node] = value
        whatif_runtime = ScenarioRuntime(
            runtime,
            tuple(
                1 / whatif_factor if d == whatif_device else 1.0
                for d in range(gpus)
            ),
        )
        full_graph = graph.rebind(runtime)

        def full_whatif() -> None:
            reference_execute_schedule(schedule, whatif_runtime)

        def resweep_whatif() -> None:
            full_graph.execute_many_summary([whatif_row])

        def delta_whatif() -> None:
            graph.execute_delta_summary(whatif_pert)

        add(
            f"incremental_whatif_{tag}",
            best_of(full_whatif, rounds) if with_reference else None,
            best_of(delta_whatif, rounds),
            device=whatif_device,
            factor=whatif_factor,
            support=whatif_pert.support,
            resweep_s=best_of(resweep_whatif, rounds),
        )

        # Sweep throughput: an 8-budget grid over one schedule structure.
        from repro.planner.sweep import grid as make_grid
        from repro.planner.sweep import plan_point, sweep as run_sweep

        points = make_grid(
            devices=(gpus,),
            vocab_sizes=(256 * 1024,),
            microbatches=(m,),
            memory_budgets_gib=SWEEP_BUDGETS,
        )
        # The sweep plans model_for_devices shapes (not the per-panel
        # Table 1/2 models), so search the full family space and let
        # structural rejection filter per device count.
        sweep_constraints = PlannerConstraints()

        def pointwise() -> None:
            # The pre-structural-cache equivalent: every point pays
            # schedule generation, probing, compilation and simulation
            # from scratch.
            for point in points:
                clear_all_planner_caches()
                plan_point(point, sweep_constraints)

        def structured_sweep() -> None:
            clear_all_planner_caches()
            run_sweep(points, sweep_constraints, executor="serial")

        add(
            f"sweep_grid_{tag}",
            best_of(pointwise, rounds) if with_reference else None,
            best_of(structured_sweep, rounds),
            points=len(points),
        )

        # Token-split optimizer search: one optimize() call on a cold
        # cache — the full-verify named-family baseline plus the scored
        # split chain, at most 3 oracle evaluations (what the CLI
        # `optimize` subcommand and /v1/optimize pay on a cache miss).
        # The engines are bit-identical by construction, so "reference"
        # is the same search on the reference engine; the discovered
        # speedup is asserted identical across both every run.  The
        # refined-schedule and split-chain memos are dropped every round
        # (generated schedules and compiled graphs stay warm), so each
        # round still pays the refine and chain scoring of a miss.
        from repro.harness.experiments import clear_derived_caches
        from repro.optimize import optimize as optimize_search

        def run_optimize():
            clear_derived_caches()
            return optimize_search(
                model, parallel, cache=PlanCache(),
                seed=OPTIMIZE_SEED, budget=OPTIMIZE_BUDGET,
            )

        optimize_reference = None
        if with_reference:
            with engine("reference"):
                reference_plan = run_optimize()
                optimize_reference = best_of(run_optimize, rounds)
        with engine("compiled"):
            optimized = run_optimize()
            optimize_compiled = best_of(run_optimize, rounds)
        if with_reference:
            assert reference_plan.speedup == optimized.speedup, (
                f"optimize engine divergence: reference speedup "
                f"{reference_plan.speedup} != compiled {optimized.speedup}"
            )
        add(
            f"optimize_{tag}",
            optimize_reference,
            optimize_compiled,
            budget=OPTIMIZE_BUDGET,
            seed=OPTIMIZE_SEED,
            evaluations=optimized.evaluations,
            improved=float(optimized.improved),
            search_speedup=optimized.speedup,
        )
        clear_all_planner_caches()

    return entries


def measure_service_class(
    klass: str, with_reference: bool = True
) -> dict[str, dict[str, float]]:
    """Service trajectory entries for one class ('full' or 'quick').

    Drives a live in-process service over real HTTP (thread executor —
    the classes measure the serving tiers, not pool spawn noise).  The
    hot-cache "reference" is a cold ``plan_point`` with all process
    caches cleared: the per-invocation price of the pre-service CLI.
    """
    sys.path.insert(0, str(REPO / "tools"))
    import loadtest_service as lt

    from repro.planner.planner import PlannerConstraints
    from repro.planner.sweep import SweepPoint, plan_point
    from repro.service import PlanningService, ServiceThread

    m = MICROBATCHES[klass]
    rounds = ROUNDS[klass]
    devices, vocab = 8, 256 * 1024
    tag = "tab5_8gpu"
    entries = Entries(28)
    add = entries.add

    point = SweepPoint(devices, vocab, 2048, m)
    constraints = PlannerConstraints()

    def cold_plan() -> None:
        clear_all_planner_caches()
        plan_point(point, constraints)

    cold_s = best_of(cold_plan, rounds) if with_reference else None
    clear_all_planner_caches()

    service = PlanningService(port=0, executor="thread", lru_size=512)
    with ServiceThread(service) as live:
        payload = {"devices": devices, "vocab_size": vocab, "microbatches": m}

        def request(body: dict) -> None:
            status, response = lt.request_json(
                live.host, live.port, "POST", "/v1/plan", body
            )
            assert status == 200, response

        request(payload)  # prime the LRU

        def hot_requests() -> None:
            for _ in range(SERVICE_HOT_REQUESTS):
                request(payload)

        hot_s = best_of(hot_requests, rounds) / SERVICE_HOT_REQUESTS
        add(
            f"service_hot_cache_{tag}", cold_s, hot_s,
            requests=SERVICE_HOT_REQUESTS,
        )

        # Fresh digests that still cost a real plan: each distinct
        # pass_overhead binding forces fresh estimate/metrics entries
        # (a top-k re-simulation) while schedule structures and
        # compiled graphs stay warm — the steady-state price of one
        # never-seen query, not just an LRU-miss re-rank.
        overheads = iter(1e-12 * (i + 1) for i in range(8 * max(rounds, 1) * 4))

        def fresh_payload() -> dict:
            return dict(payload, pass_overhead=next(overheads))

        def single_request() -> None:
            request(fresh_payload())

        single_s = best_of(single_request, rounds)

        def burst_round() -> float:
            latencies, bodies, errors = lt.run_duplicate_burst(
                live.host, live.port, fresh_payload(), SERVICE_DUPLICATES
            )
            assert not errors and len(bodies) == 1, (errors, len(bodies))
            return max(latencies)

        burst_s = min(burst_round() for _ in range(rounds))
        add(
            f"service_coalesced_burst_{tag}",
            SERVICE_DUPLICATES * single_s if with_reference else None,
            burst_s,
            duplicates=SERVICE_DUPLICATES,
            single_request_s=single_s,
            cost_ratio=burst_s / single_s if single_s > 0 else 0.0,
        )

    # Chaos class: tail latency + availability while the deterministic
    # quick fault profile is live — slow workers, corrupted and torn
    # cache writes, dropped connections.  A fresh service with a tiny
    # LRU over a throwaway disk tier, so repeats are forced through the
    # checksum/quarantine/recompute path; ``compiled_s`` is the p99 of
    # successful requests (the perf-smoke gate), ``availability`` the
    # non-shed success rate (deliberately < 1 under dropped
    # connections; see tools/loadtest_service.py --chaos for the full
    # contract run).
    import http.client
    import tempfile

    from repro import faultinject

    with tempfile.TemporaryDirectory() as chaos_dir:
        faultinject.install(SERVICE_CHAOS_FAULTS)
        try:
            chaos_service = PlanningService(
                port=0, executor="thread", lru_size=2, cache_dir=chaos_dir,
            )
            with ServiceThread(chaos_service) as live:
                latencies: list[float] = []
                attempts = shed = failed = 0
                for i in range(SERVICE_CHAOS_REQUESTS):
                    body = dict(payload, microbatches=m + (i % 6))
                    attempts += 1
                    start = time.perf_counter()
                    try:
                        status, _response = lt.request_json(
                            live.host, live.port, "POST", "/v1/plan", body
                        )
                    except (
                        OSError,
                        http.client.HTTPException,
                        json.JSONDecodeError,
                    ):
                        failed += 1  # a deliberately dropped connection
                        continue
                    if status == 200:
                        latencies.append(time.perf_counter() - start)
                    elif status == 429:
                        shed += 1
                    else:
                        failed += 1
                availability = (
                    len(latencies) / (attempts - shed)
                    if attempts > shed
                    else 0.0
                )
                add(
                    f"service_chaos_{tag}",
                    None,
                    lt.percentile(latencies, 99.0),
                    availability=availability,
                    requests=attempts,
                    shed=shed,
                    failed=failed,
                )
        finally:
            faultinject.reset()

    clear_all_planner_caches()
    return entries


def check(current: dict, baseline: dict, threshold: float) -> list[str]:
    """Normalized-regression failures of ``current`` vs ``baseline``."""
    problems = []
    base_cal = baseline.get("calibration_s")
    base_entries = baseline.get("quick", {})
    cur_cal = current["calibration_s"]
    if not base_cal or not base_entries:
        return ["baseline has no quick entries/calibration to check against"]
    for name, entry in current["quick"].items():
        base = base_entries.get(name)
        if base is None:
            continue
        # Baselines recorded before per-entry samples fall back to the
        # single file-level one.
        cur_norm = entry["compiled_s"] / entry.get("calibration_s", cur_cal)
        base_norm = base["compiled_s"] / base.get("calibration_s", base_cal)
        ratio = cur_norm / base_norm if base_norm > 0 else float("inf")
        status = "OK" if ratio <= threshold else "REGRESSION"
        print(
            f"  {name:22s} normalized {cur_norm:8.2f} vs baseline "
            f"{base_norm:8.2f}  ({ratio:4.2f}x)  {status}"
        )
        if ratio > threshold:
            problems.append(
                f"{name}: compiled path {ratio:.2f}x slower than baseline "
                f"(threshold {threshold:.1f}x)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="measure only the quick class (smaller m); skip writing output",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="measure the planning-service classes instead "
        "(writes/checks BENCH_service.json)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare against a committed BENCH_sim.json; exit 1 on regression",
    )
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="allowed normalized slowdown vs baseline (default 2.0x)",
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write the trajectory JSON (full runs only; "
        "default BENCH_sim.json, or BENCH_service.json with --service)",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = str(
            REPO / ("BENCH_service.json" if args.service else "BENCH_sim.json")
        )
    measure = measure_service_class if args.service else measure_class

    try:
        import numpy
    except ImportError:  # the pure-Python kernels are measured then
        numpy = None
    result: dict = {
        "schema": 1,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": None if numpy is None else numpy.__version__,
        "microbatches": MICROBATCHES,
        "calibration_s": calibration(),
    }
    with_reference = args.check is None
    print(f"calibration: {result['calibration_s'] * 1e3:.2f} ms")
    print(f"quick class (m={MICROBATCHES['quick']}):")
    result["quick"] = measure("quick", with_reference=with_reference)
    if not args.quick:
        print(f"full class (m={MICROBATCHES['full']}):")
        result["full"] = measure("full", with_reference=with_reference)

    if args.check is not None:
        baseline = json.loads(Path(args.check).read_text())
        print(f"checking against {args.check} (threshold {args.threshold}x):")
        problems = check(result, baseline, args.threshold)
        if problems:
            print("\n".join(problems))
            return 1
        print("perf-smoke OK: no regression beyond threshold")
        return 0

    if not args.quick:
        Path(args.output).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
