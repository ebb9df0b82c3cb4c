"""The planner's top choice must agree with the simulator's fastest.

These are the acceptance checks tying the planner back to the paper:
on the Table 5 (1F1B family) and Table 6 (V-Half family) experiment
configs, :func:`repro.planner.plan` — with its default top-k pruning —
must pick exactly the schedule a brute-force simulation of every
family would pick.
"""

import pytest

from repro.harness import model_for_1f1b, model_for_vhalf, run_method
from repro.harness.settings import (
    ONE_F_ONE_B_METHODS,
    VHALF_METHODS,
    parallel_for,
)
from repro.api import PlanCache, PlannerConstraints, plan

#: Enough microbatches for steady-state behaviour, small enough for CI.
MICROBATCHES = 32


def simulator_fastest(methods, model, parallel) -> str:
    """Brute force: simulate every family, return the fastest feasible."""
    metrics = {m: run_method(m, model, parallel) for m in methods}
    feasible = {m: r for m, r in metrics.items() if not r.oom}
    return min(feasible, key=lambda m: feasible[m].iteration_time)


@pytest.mark.parametrize("gpus", [8, 16])
@pytest.mark.parametrize("vocab", [64 * 1024, 256 * 1024])
def test_table5_planner_matches_simulator(gpus, vocab):
    model = model_for_1f1b(gpus, 2048, vocab)
    parallel = parallel_for(gpus, num_microbatches=MICROBATCHES)
    plans = plan(
        model,
        parallel,
        PlannerConstraints(methods=ONE_F_ONE_B_METHODS),
        cache=PlanCache(),
    )
    winner = simulator_fastest(ONE_F_ONE_B_METHODS, model, parallel)
    assert plans.best.method == winner
    assert plans.best.source == "sim"
    # And the paper's claim holds: a vocabulary-parallel schedule wins.
    assert plans.best.method in ("vocab-1", "vocab-2", "interlaced")


@pytest.mark.parametrize("vocab", [64 * 1024, 256 * 1024])
def test_table6_planner_matches_simulator(vocab):
    gpus = 16
    model = model_for_vhalf(gpus, 2048, vocab)
    parallel = parallel_for(gpus, num_microbatches=MICROBATCHES)
    plans = plan(
        model,
        parallel,
        PlannerConstraints(methods=VHALF_METHODS),
        cache=PlanCache(),
    )
    winner = simulator_fastest(VHALF_METHODS, model, parallel)
    assert plans.best.method == winner
    assert plans.best.method == "vhalf-vocab-1"


def test_planner_iteration_times_match_run_method():
    """Simulated candidates carry exactly run_method's numbers."""
    model = model_for_1f1b(8, 2048, 256 * 1024)
    parallel = parallel_for(8, num_microbatches=MICROBATCHES)
    plans = plan(
        model,
        parallel,
        PlannerConstraints(methods=ONE_F_ONE_B_METHODS, simulate_top_k=None),
        cache=PlanCache(),
    )
    for candidate in plans.ranked:
        metrics = run_method(candidate.method, model, parallel)
        assert candidate.iteration_time == pytest.approx(metrics.iteration_time)
        assert candidate.peak_memory_gb == pytest.approx(metrics.peak_memory_gb)
        assert candidate.mfu == pytest.approx(metrics.mfu)
