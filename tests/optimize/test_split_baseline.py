"""``optimize()`` against its strongest simple baseline.

The baseline scores every feasible named family at token-split factor
1, 2 and 4 with the search's own oracle (:class:`ScoreContext`) and
rewrite (:class:`TokenSplit`), and searches nothing.  Without memory
pressure the search must land exactly on the baseline's best time for
every golden case (they include every configuration the golden once
searched with annealing).  Under a budget that no split satisfies, the
handoff repair is what the search adds.
"""

import pytest

from repro.api import PlanCache, PlannerConstraints, optimize, plan
from repro.costmodel.memory import GiB
from repro.harness.experiments import build_schedule
from repro.optimize import ScheduleIR, ScoreContext, TokenSplit, default_rewrites, greedy_search
from repro.scenarios import get_scenario
from repro.sim import SimulationSetup
from tests.optimize.test_optimize_golden import HANDOFF_CASES, OPTIMIZE_CASES, _config


def split_baseline(model, parallel, methods, scenario, budget_gib=None) -> list[float]:
    """Feasible times of every named family at token-split factor 1, 2, 4."""
    scenario = None if scenario is None else get_scenario(scenario)
    constraints = PlannerConstraints(methods=methods, simulate_top_k=None)
    plans = plan(model, parallel, constraints, cache=PlanCache(), scenario=scenario)
    setup = SimulationSetup(model, parallel)
    budget_gib = plans.memory_budget_gib if budget_gib is None else budget_gib
    ctx = ScoreContext(setup, scenario=scenario, budget_bytes=budget_gib * GiB)
    times = []
    for method in (c.method for c in plans.ranked if c.iteration_time is not None):
        schedule = build_schedule(method, setup, refine=constraints.refine, scenario=scenario)
        scored = ctx.score(ScheduleIR.from_schedule(schedule), ())
        while scored is not None:
            if scored.feasible:
                times.append(scored.time)
            if not TokenSplit().sites(scored.ir, scored.rewrite_ctx):
                break
            ir, step = TokenSplit().apply(scored.ir, ())
            scored = ctx.score(ir, scored.trace + (step,))
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


def handoff_start():
    method, budget_gib, _, _ = HANDOFF_CASES["handoff-greedy"]
    model, parallel = _config("small")
    plans = plan(model, parallel, PlannerConstraints(methods=(method,)), cache=PlanCache())
    ctx = ScoreContext(SimulationSetup(model, parallel), budget_bytes=budget_gib * GiB)
    return ctx, ctx.score(ScheduleIR.from_schedule(plans.build_best_schedule()), ())


def test_handoff_repair_is_what_the_search_adds():
    method, budget_gib, seed, budget = HANDOFF_CASES["handoff-greedy"]
    model, parallel = _config("small")
    assert split_baseline(model, parallel, (method,), None, budget_gib) == []
    ctx, start = handoff_start()
    assert not start.feasible
    final = greedy_search(ctx, default_rewrites(), start, budget=budget, seed=seed)
    assert final.feasible and final.peak_bytes <= budget_gib * GiB
    assert final.time == 0.14177680114409322
    assert [step.rule for step in final.trace] == ["activation-handoff", "token-split"]


class Recording(ScoreContext):
    """A context that records every (rule, site) the search scores."""

    def score_rewrite(self, current, rewrite, site):
        self.scored.append((rewrite.name, site))
        return super().score_rewrite(current, rewrite, site)


def test_seed_picks_the_sites_a_short_budget_scores():
    _, start = handoff_start()
    sites = [(r.name, s) for r in default_rewrites() for s in r.sites(start.ir, start.rewrite_ctx)]
    assert len(sites) > 1

    def scored(seed: int) -> list:
        budget_gib = HANDOFF_CASES["handoff-greedy"][1]
        ctx = Recording(SimulationSetup(*_config("small")), budget_bytes=budget_gib * GiB)
        ctx.scored = []
        ctx.adopt(start)
        greedy_search(ctx, default_rewrites(), start, budget=2, seed=seed)
        return ctx.scored

    picks = {seed: tuple(scored(seed)) for seed in range(8)}
    assert all(len(pick) == 1 and pick[0] in sites for pick in picks.values())
    assert len(set(picks.values())) > 1, "every seed scored the same site"
    assert tuple(scored(0)) == picks[0]
