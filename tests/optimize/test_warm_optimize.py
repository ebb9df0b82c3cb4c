"""Warm :func:`repro.api.optimize`: the memoized split chain and the
cached result's schedule.

A search's scored split chain — the best named family's refined
schedule and its token splits at factors 2 and 4, each scored by the
oracle — depends on neither the seed nor the budget, so it is memoized
beside the structural caches, and each call replays its first
``budget`` entries.  A warm search must equal a cold one in every
output, including its ``evaluations`` count.  The memo and the result
cached per seed hold schedules as integer orders only.
"""

import dataclasses
import gc
import pickle

import pytest

from repro.api import PlanCache, PlannerConstraints, optimize, plan
from repro.costmodel.memory import DEFAULT_MEMORY_MODEL, GiB
from repro.harness import experiments
from repro.harness.experiments import clear_structural_caches, structural_cache_stats
from repro.optimize.search import ScoreContext, replay, split_chain
from repro.scenarios import get_scenario
from repro.scheduling.schedule import Schedule
from repro.sim import SimulationSetup
from repro.sim.compiled import CompiledGraph
from tests.optimize.test_optimize_golden import OPTIMIZE_CASES, _config

#: The golden search whose chain splits twice (to factor 4).
SPLIT_4 = OPTIMIZE_CASES["baseline-slow-node-greedy-split-4"]
MODEL, PARALLEL = _config(SPLIT_4[0])
CONSTRAINTS = PlannerConstraints(methods=(SPLIT_4[1],))
SCENARIO = SPLIT_4[2]


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_structural_caches()
    yield
    clear_structural_caches()


def run(**kwargs):
    kwargs = {"scenario": SCENARIO, "seed": 0, **kwargs}
    return optimize(MODEL, PARALLEL, CONSTRAINTS, cache=PlanCache(), **kwargs)


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


def cold(**kwargs):
    clear_structural_caches()
    result = run(**kwargs)
    assert structural_cache_stats()["chain_misses"] == 1
    return outputs(result)


def chain_stats() -> tuple[int, int]:
    stats = structural_cache_stats()
    return stats["chain_misses"], stats["chain_hits"]


def search_scoring_its_own_chain(budget):
    """The search without any memo: one context scores the start and
    its splits.  Returns the evaluations spent and the final candidate."""
    scenario = get_scenario(SCENARIO)
    plans = plan(
        MODEL, PARALLEL, dataclasses.replace(CONSTRAINTS, simulate_top_k=None),
        cache=PlanCache(), scenario=scenario,
    )
    ctx = ScoreContext(
        SimulationSetup(MODEL, PARALLEL),
        scenario=scenario,
        budget_bytes=plans.memory_budget_gib * GiB,
        memory_model=DEFAULT_MEMORY_MODEL,
    )
    schedule = plans.build_best_schedule()
    start = ctx.score(
        dataclasses.replace(schedule, device_orders=schedule.order_table(), metadata={}), ()
    )
    final, evaluations = replay(split_chain(ctx, start), budget)
    return evaluations, final


class TestChainMemo:
    @pytest.mark.parametrize(
        "first, then", [(16, (1, 2, 3, 16)), (1, (16, 3, 2, 1))],
        ids=["widest-first", "narrowest-first"],
    )
    def test_warm_equals_cold(self, first, then):
        expected = {budget: cold(budget=budget) for budget in {first, *then}}
        clear_structural_caches()
        assert outputs(run(budget=first)) == expected[first]
        for budget in then:
            assert outputs(run(budget=budget)) == expected[budget]
        assert chain_stats() == (1, len(then))

    def test_chain_reaches_split_4(self):
        result = run(budget=16)
        assert result.token_split == 4 and result.evaluations == 3
        assert [step.rule for step in result.trace] == ["token-split"] * 2
        (chain,) = experiments._CHAIN_CACHE.values()
        assert len(chain) == 3

    @pytest.mark.parametrize("budget", [1, 2, 3, 16])
    def test_equals_a_search_scoring_its_own_chain(self, budget):
        run(budget=16)
        warm = run(budget=budget, seed=5)
        evaluations, final = search_scoring_its_own_chain(budget)
        assert warm.evaluations == evaluations == min(budget, 3)
        assert (warm.optimized_time, warm.trace) == (final.time, final.trace)
        assert warm.schedule.device_orders == final.schedule.device_orders
        assert warm.schedule.metadata == final.schedule.metadata

    def test_memo_holds_no_compiled_graph(self):
        run(budget=16)
        (chain,) = experiments._CHAIN_CACHE.values()
        seen, stack = set(), [chain]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, CompiledGraph)
            stack.extend(gc.get_referents(obj))
        for candidate in chain:
            table = candidate.schedule.order_table()
            assert candidate.schedule._lists is None
            assert table._passes is None and table._source is None

    def test_key_leaves_out_seed_and_budget_only(self):
        run(budget=2)
        run(seed=5, budget=3)
        assert chain_stats() == (1, 1)
        run(budget=2, scenario=None)
        run(budget=2, pass_overhead=1e-3)
        assert chain_stats() == (3, 1)

    def test_results_share_no_mutable_state(self):
        # Budget 1 returns the memoized start as the result.
        first = run(budget=1)
        first.schedule.metadata["poisoned"] = True
        first.schedule.device_orders[0].reverse()
        second = run(seed=1, budget=1)
        assert chain_stats() == (1, 1)
        assert "poisoned" not in second.schedule.metadata
        second.schedule.validate()

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(experiments._CHAIN_CACHE, "capacity", 1)
        run(budget=2)
        run(budget=2, scenario=None)
        assert len(experiments._CHAIN_CACHE) == 1
        run(budget=2)
        assert chain_stats() == (3, 0)

    @pytest.mark.parametrize("clear", [clear_structural_caches, experiments.clear_derived_caches])
    def test_dropped_on_clear(self, clear):
        run(budget=16)
        (chain,) = experiments._CHAIN_CACHE.values()
        clear()
        assert not experiments._CHAIN_CACHE
        run(seed=1, budget=16)
        (fresh,) = experiments._CHAIN_CACHE.values()
        assert fresh is not chain
        assert [(c.time, c.trace) for c in fresh] == [(c.time, c.trace) for c in chain]
        assert chain_stats() == ((1, 0) if clear is clear_structural_caches else (2, 0))


@pytest.fixture
def searched():
    """A search that token-splits, and the final candidate of the same
    search scored without the memo."""
    result = run(budget=24)
    assert result.token_split > 1
    return result, search_scoring_its_own_chain(24)[1].schedule


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
