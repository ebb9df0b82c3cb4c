"""``optimize()`` against its strongest simple baseline.

The baseline scores every feasible named family at token-split factor
1, 2 and 4 with the search's own oracle (:class:`ScoreContext`) and
rewrite (:class:`TokenSplit`), and searches nothing.  The search must
land exactly on the baseline's best time for every golden case (they
include every configuration the golden once searched with annealing).
"""

import pytest

from repro.api import PlanCache, PlannerConstraints, optimize, plan
from repro.costmodel.memory import GiB
from repro.harness.experiments import build_schedule
from repro.optimize import ScoreContext, TokenSplit
from repro.scenarios import get_scenario
from repro.sim import SimulationSetup
from tests.optimize.test_optimize_golden import OPTIMIZE_CASES, _config


def split_baseline(model, parallel, methods, scenario) -> list[float]:
    """Feasible times of every named family at token-split factor 1, 2, 4."""
    scenario = None if scenario is None else get_scenario(scenario)
    constraints = PlannerConstraints(methods=methods, simulate_top_k=None)
    plans = plan(model, parallel, constraints, cache=PlanCache(), scenario=scenario)
    setup = SimulationSetup(model, parallel)
    ctx = ScoreContext(setup, scenario=scenario, budget_bytes=plans.memory_budget_gib * GiB)
    times = []
    for method in (c.method for c in plans.ranked if c.iteration_time is not None):
        schedule = build_schedule(method, setup, refine=constraints.refine, scenario=scenario)
        scored = ctx.score(schedule, ())
        while scored is not None:
            if scored.feasible:
                times.append(scored.time)
            if not TokenSplit().sites(scored.schedule, model.seq_length):
                break
            schedule, step = TokenSplit().apply(scored.schedule)
            scored = ctx.score(schedule, scored.trace + (step,))
    return times


@pytest.mark.parametrize("name", sorted(OPTIMIZE_CASES))
def test_search_equals_the_split_baseline(name):
    config, method, scenario, seed, budget = OPTIMIZE_CASES[name]
    model, parallel = _config(config)
    methods = None if method is None else (method,)
    result = optimize(
        model, parallel, PlannerConstraints(methods=methods), cache=PlanCache(),
        scenario=scenario, seed=seed, budget=budget,
    )
    assert result.optimized_time == min(split_baseline(model, parallel, methods, scenario))
