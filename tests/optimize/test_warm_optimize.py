"""Warm :func:`repro.api.optimize`: the memoized start state, its
memoized token-split child and the cached result's schedule.

A search's start — the best named family's refined schedule, scored by
the oracle, and its scored token-split child — does not depend on the
seed or budget, so it is memoized beside the structural caches.  A warm search must equal a cold
one in every output, including its ``evaluations`` count (the start and
every use of the child are one evaluation each).  The result cached per
seed holds its schedule as integer orders only.
"""

import dataclasses
import pickle

import pytest

from repro.api import PlanCache, PlannerConstraints, optimize, plan
from repro.costmodel.memory import DEFAULT_MEMORY_MODEL, GiB
from repro.harness import experiments
from repro.harness.experiments import clear_structural_caches, structural_cache_stats
from repro.harness.settings import model_for_1f1b, parallel_for
from repro.optimize import optimizer
from repro.optimize.ir import ScheduleIR
from repro.optimize.rewrites import default_rewrites
from repro.optimize.search import ScoreContext, greedy_search
from repro.scenarios import get_scenario
from repro.scheduling.schedule import Schedule
from repro.sim import SimulationSetup

MODEL = model_for_1f1b(8, 2048, 64 * 1024)
PARALLEL = parallel_for(8, 16)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_structural_caches()
    yield
    clear_structural_caches()


def run(**kwargs):
    return optimize(MODEL, PARALLEL, cache=PlanCache(), **kwargs)


def outputs(result) -> tuple:
    """Everything a search produces: the report and the schedule."""
    schedule = result.schedule
    return (
        result.as_dict(),
        result.trace,
        schedule.metadata,
        schedule.structure_key(),
        schedule.device_orders,
    )


def search_scoring_its_own_start(scenario, seed, budget):
    """The search without any memo: one context scores the start itself
    and then spends the rest of the budget.  Returns its evaluation
    count and final candidate."""
    scenario = get_scenario(scenario)
    plans = plan(
        MODEL, PARALLEL, PlannerConstraints(simulate_top_k=None),
        cache=PlanCache(), scenario=scenario,
    )
    ctx = ScoreContext(
        SimulationSetup(MODEL, PARALLEL),
        scenario=scenario,
        budget_bytes=plans.memory_budget_gib * GiB,
        memory_model=DEFAULT_MEMORY_MODEL,
    )
    start = ctx.score(ScheduleIR.from_schedule(plans.build_best_schedule()), ())
    final = greedy_search(ctx, default_rewrites(), start, budget=budget, seed=seed)
    return ctx.evaluations, final


def cold_and_warm(**kwargs):
    clear_structural_caches()
    cold = run(**kwargs)
    assert structural_cache_stats()["start_misses"] == 1
    clear_structural_caches()
    # Warm the memo with another seed's search first.
    run(**{**kwargs, "seed": kwargs["seed"] + 100})
    warm = run(**kwargs)
    stats = structural_cache_stats()
    assert (stats["start_misses"], stats["start_hits"]) == (1, 1)
    return cold, warm


class TestStartStateMemo:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_warm_equals_cold(self, seed):
        cold, warm = cold_and_warm(scenario="slow-node", seed=seed, budget=24)
        assert warm.optimized_time == cold.optimized_time
        assert warm.evaluations == cold.evaluations
        assert outputs(warm) == outputs(cold)
        # Each first round scores the token split: the warm search was
        # served the child its warm-up search scored.
        assert child_stats() == (1, 1)
        evaluations, final = search_scoring_its_own_start("slow-node", seed, 24)
        assert warm.evaluations == evaluations
        assert (warm.optimized_time, warm.trace) == (final.time, final.trace)
        assert warm.schedule.device_orders == final.schedule.device_orders

    def test_multi_round_greedy_warm_equals_cold(self):
        cold, warm = cold_and_warm(scenario="slow-node", seed=0, budget=40)
        # Two rounds (the split child improves, its own split does not),
        # stopped before the budget ran out, so the count shows whether
        # the start was counted.
        assert cold.evaluations == 3
        assert [step.rule for step in cold.trace] == ["token-split"]
        assert outputs(warm) == outputs(cold)
        evaluations, final = search_scoring_its_own_start("slow-node", 0, 40)
        assert warm.evaluations == evaluations
        assert warm.trace == final.trace

    def test_start_counts_as_one_evaluation(self):
        cold, warm = cold_and_warm(seed=0, budget=1)
        assert cold.evaluations == warm.evaluations == 1
        assert warm.trace == ()
        assert warm.optimized_time == warm.baseline_time

    def test_key_leaves_out_seed_and_budget_only(self):
        run(seed=0, budget=2)
        run(seed=5, budget=3)
        assert structural_cache_stats()["start_hits"] == 1
        run(seed=0, budget=2, scenario="slow-node")
        run(seed=0, budget=2, pass_overhead=1e-3)
        stats = structural_cache_stats()
        assert (stats["start_misses"], stats["start_hits"]) == (3, 1)

    def test_results_share_no_mutable_state(self):
        # Budget 1 returns the memoized start itself as the result.
        first = run(seed=0, budget=1)
        first.schedule.metadata["poisoned"] = True
        first.schedule.device_orders[0].reverse()
        second = run(seed=1, budget=1)
        assert structural_cache_stats()["start_hits"] == 1
        assert "poisoned" not in second.schedule.metadata
        second.schedule.validate()

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(experiments._START_CACHE, "capacity", 1)
        run(seed=0, budget=2)
        run(seed=0, budget=2, scenario="slow-node")
        assert len(experiments._START_CACHE) == 1
        run(seed=0, budget=2)
        assert structural_cache_stats()["start_misses"] == 3


def child_stats() -> tuple[int, int]:
    stats = structural_cache_stats()
    return stats["child_misses"], stats["child_hits"]


class TestSplitChildMemo:
    """Every greedy round from the start scores its one token-split
    site, so the scored split child is kept on the memoized start
    (warm equals cold with it: ``TestStartStateMemo``)."""

    def test_counter_rises_and_child_is_shared(self):
        for seed in range(4):
            run(seed=seed, budget=24)
            assert child_stats() == (1, seed)
        (start,) = experiments._START_CACHE.values()
        (key,) = start.children
        assert key == ("token-split", ())
        child = start.children[key]
        assert child.ir.split == 2 and child.trace[0].rule == "token-split"
        assert child.children is None, "only the start memoizes children"

    def test_every_use_counts_as_one_evaluation(self):
        # Budget 2: the start, then the split child, served cold and
        # then warm.
        for seed, expected in ((0, (1, 0)), (1, (1, 1))):
            result = run(seed=seed, budget=2)
            assert child_stats() == expected
            assert result.evaluations == 2

    @pytest.mark.parametrize("clear", [clear_structural_caches, experiments.clear_derived_caches])
    def test_dropped_on_clear(self, clear):
        run(seed=0, budget=24)
        (start,) = experiments._START_CACHE.values()
        assert start.children
        clear()
        assert not experiments._START_CACHE
        run(seed=1, budget=24)
        (fresh,) = experiments._START_CACHE.values()
        assert fresh is not start and fresh.children
        misses, hits = child_stats()
        assert hits == 0
        assert misses == (1 if clear is clear_structural_caches else 2)


@pytest.fixture
def searched(monkeypatch):
    """An improving slow-node search (it token-splits) and the schedule
    its search returned, captured before the result trims it."""
    finals = []

    def capturing(*args, **kwargs):
        finals.append(greedy_search(*args, **kwargs))
        return finals[-1]

    monkeypatch.setattr(optimizer, "greedy_search", capturing)
    result = run(scenario="slow-node", seed=0, budget=24)
    assert result.token_split > 1
    return result, finals[0].schedule


class TestCachedSchedule:
    def test_holds_integer_orders_only(self, searched):
        result, _ = searched
        table = result.schedule.order_table()
        assert result.schedule._lists is None
        assert table._passes is None and table._source is None

    def test_orders_equal_the_search_result(self, searched):
        result, final = searched
        assert result.schedule.device_orders == final.device_orders
        assert result.schedule.structure_key() == final.structure_key()
        assert result.schedule.metadata == final.metadata
        result.schedule.validate()

    def test_pickle_round_trip(self, searched):
        result, final = searched
        loaded = pickle.loads(pickle.dumps(result))
        assert loaded == result
        assert loaded.as_dict() == result.as_dict()
        assert loaded.schedule.device_orders == final.device_orders
        assert loaded.schedule.structure_key() == final.structure_key()

    def test_disk_cache_round_trip(self, searched, tmp_path):
        result, final = searched
        PlanCache(str(tmp_path)).put_aux("optimize", result.cache_key, result)
        loaded = PlanCache(str(tmp_path)).get_aux("optimize", result.cache_key)
        assert loaded.as_dict() == result.as_dict()
        assert loaded.schedule.device_orders == final.device_orders

    @pytest.mark.parametrize("form", ["pass-list field", "pass-list memo"])
    def test_legacy_pickles_load(self, searched, form):
        result, final = searched
        lists = [list(order) for order in final.device_orders]
        if form == "pass-list field":
            # Before the integer orders: ``device_orders`` was a plain
            # instance attribute.
            state = {
                field.name: getattr(result.schedule, field.name)
                for field in dataclasses.fields(Schedule)
            }
            state["device_orders"] = lists
            schedule = _Pickled(state)
        else:
            # A pass-list backed schedule pickles its lists, not a table.
            schedule = dataclasses.replace(result.schedule, device_orders=lists)
        legacy = dataclasses.replace(result, schedule=schedule)
        loaded = pickle.loads(pickle.dumps(legacy))
        assert type(loaded.schedule) is Schedule
        assert loaded.as_dict() == result.as_dict()
        assert loaded.schedule.device_orders == lists
        assert loaded.schedule.structure_key() == final.structure_key()


class _Pickled:
    """Pickles as a bare :class:`Schedule` instance with ``state``."""

    def __init__(self, state: dict) -> None:
        self.state = state

    def __reduce__(self):
        import copyreg

        return (copyreg._reconstructor, (Schedule, object, None), self.state)
