"""What :func:`repro.api.optimize` can return: a feasible token split of
the best named family, whatever the seed.

Over the ``small`` golden configuration, with no restriction and with
each single family, nominal and under ``slow-node``, at memory budgets
just above each family's simulated peak and at evaluation budgets 1,
2, 3 and 48, every call either raises :class:`NoFeasibleSchedule` (no
family fits) or returns a result that fits its memory budget, whose
every trace step is a token split, and whose report is the same for
seeds 0 and 7 except the seed itself and the cache key it addresses.
"""

import pickle

import pytest

from repro.api import PlanCache, PlannerConstraints, optimize, plan
from repro.harness.experiments import KNOWN_METHODS
from repro.planner.planner import NoFeasibleSchedule
from tests.optimize.test_optimize_golden import _config

MODEL, PARALLEL = _config("small")
SCENARIOS = (None, "slow-node")
RESTRICTIONS = (None, *((method,) for method in KNOWN_METHODS))


@pytest.fixture(scope="module")
def cache() -> PlanCache:
    return PlanCache()


@pytest.fixture(scope="module")
def peaks(cache) -> dict:
    """Each family's simulated peak in GiB, per scenario."""
    out = {}
    for scenario in SCENARIOS:
        plans = plan(
            MODEL, PARALLEL, PlannerConstraints(simulate_top_k=None),
            cache=cache, scenario=scenario,
        )
        for method in KNOWN_METHODS:
            out[scenario, method] = plans.candidate(method).peak_memory_gb
    return out


def report(result) -> dict:
    body = result.as_dict()
    del body["seed"], body["cache_key"]
    return body


@pytest.mark.parametrize("above", KNOWN_METHODS)
@pytest.mark.parametrize("methods", RESTRICTIONS, ids=lambda m: m[0] if m else "all")
@pytest.mark.parametrize("scenario", SCENARIOS, ids=["nominal", "slow-node"])
def test_seed_changes_nothing(cache, peaks, scenario, methods, above):
    constraints = PlannerConstraints(
        methods=methods, memory_budget_gib=peaks[scenario, above] * 1.0005
    )
    for budget in (1, 2, 3, 48):
        results = []
        for seed in (0, 7):
            try:
                results.append(optimize(
                    MODEL, PARALLEL, constraints, cache=cache,
                    scenario=scenario, seed=seed, budget=budget,
                ))
            except NoFeasibleSchedule as error:
                assert error.rejected
                results.append(None)
        first, second = results
        if first is None:
            assert second is None
            continue
        assert report(first) == report(second)
        assert first.peak_memory_gib <= first.memory_budget_gib
        assert {step.rule for step in first.trace} <= {"token-split"}
        assert first.evaluations <= min(budget, 3)


def test_no_feasible_schedule_carries_the_rejections():
    constraints = PlannerConstraints(methods=("baseline",), memory_budget_gib=6.9)
    with pytest.raises(NoFeasibleSchedule) as caught:
        optimize(MODEL, PARALLEL, constraints, cache=PlanCache())
    plans = plan(MODEL, PARALLEL, constraints, cache=PlanCache())
    assert caught.value.rejected == tuple((c.method, c.reason) for c in plans.rejected)
    assert isinstance(caught.value, ValueError)
    # The service's process pool hands it back pickled.
    again = pickle.loads(pickle.dumps(caught.value))
    assert (str(again), again.rejected) == (str(caught.value), caught.value.rejected)
