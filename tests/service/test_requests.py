"""Request validation and digest normalization of the service layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import (
    MAX_SWEEP_POINTS,
    PlanRequest,
    RequestError,
    ScenarioRequest,
    SweepRequest,
    execute_plan_request,
)


def small_plan_payload(**overrides) -> dict:
    payload = {
        "devices": 4,
        "vocab_size": "32k",
        "microbatches": 8,
        "simulate_top_k": 1,
    }
    payload.update(overrides)
    return payload


class TestPlanValidation:
    def test_minimal_payload_parses(self):
        request = PlanRequest.from_payload(small_plan_payload())
        assert request.devices == 4
        assert request.vocab_size == 32 * 1024
        assert request.seq_length == 2048  # default
        assert request.simulate_top_k == 1

    def test_vocab_accepts_int_and_k_suffix(self):
        a = PlanRequest.from_payload(small_plan_payload(vocab_size=32768))
        b = PlanRequest.from_payload(small_plan_payload(vocab_size="32K"))
        assert a.vocab_size == b.vocab_size == 32768
        with pytest.raises(RequestError, match="vocabulary size"):
            PlanRequest.from_payload(small_plan_payload(vocab_size="huge"))

    def test_unknown_fields_rejected(self):
        with pytest.raises(RequestError, match="frobnicate"):
            PlanRequest.from_payload(small_plan_payload(frobnicate=1))

    def test_missing_required_fields(self):
        with pytest.raises(RequestError, match="devices"):
            PlanRequest.from_payload({"vocab_size": "32k"})

    def test_type_errors_rejected(self):
        with pytest.raises(RequestError, match="'devices' must be int"):
            PlanRequest.from_payload(small_plan_payload(devices="8"))
        # bool is not an int here, even though Python says it is.
        with pytest.raises(RequestError, match="'devices'"):
            PlanRequest.from_payload(small_plan_payload(devices=True))
        with pytest.raises(RequestError, match="must be positive"):
            PlanRequest.from_payload(small_plan_payload(devices=0))

    def test_non_object_body_rejected(self):
        with pytest.raises(RequestError, match="JSON object"):
            PlanRequest.from_payload([1, 2, 3])

    def test_unknown_method_and_scenario(self):
        with pytest.raises(RequestError, match="unknown method"):
            PlanRequest.from_payload(small_plan_payload(methods=["nope"]))
        with pytest.raises(RequestError, match="unknown scenario"):
            PlanRequest.from_payload(small_plan_payload(scenario="nope"))

    def test_top_k_all(self):
        request = PlanRequest.from_payload(
            small_plan_payload(simulate_top_k="all")
        )
        assert request.simulate_top_k is None
        with pytest.raises(RequestError, match="simulate_top_k"):
            PlanRequest.from_payload(small_plan_payload(simulate_top_k="most"))

    def test_robustness_requires_scenario(self):
        with pytest.raises(RequestError, match="requires a 'scenario'"):
            PlanRequest.from_payload(small_plan_payload(robustness="p95"))

    def test_robustness_object_form(self):
        request = PlanRequest.from_payload(
            small_plan_payload(
                scenario="high-jitter",
                robustness={"rank_by": "p50", "samples": 16},
            )
        )
        assert request.robustness.rank_by == "p50"
        assert request.robustness.samples == 16
        with pytest.raises(RequestError, match="robustness"):
            PlanRequest.from_payload(
                small_plan_payload(
                    scenario="high-jitter", robustness={"quantile": "p95"}
                )
            )


class TestPlanDigest:
    def test_digest_matches_planner_cache_key(self):
        """The normative property of the tiered cache: the request's
        digest is exactly the key plan() stores its result under."""
        request = PlanRequest.from_payload(small_plan_payload())
        plans = execute_plan_request(request)
        assert request.digest() == plans.cache_key

    def test_digest_matches_planner_cache_key_with_scenario(self):
        request = PlanRequest.from_payload(
            small_plan_payload(scenario="slow-node")
        )
        plans = execute_plan_request(request)
        assert request.digest() == plans.cache_key

    def test_digest_is_deterministic_across_instances(self):
        a = PlanRequest.from_payload(small_plan_payload())
        b = PlanRequest.from_payload(small_plan_payload(vocab_size=32768))
        assert a.digest() == b.digest()

    def test_digest_keyed_on_scenario_signature(self):
        nominal = PlanRequest.from_payload(small_plan_payload())
        slow = PlanRequest.from_payload(small_plan_payload(scenario="slow-node"))
        jitter = PlanRequest.from_payload(
            small_plan_payload(scenario="high-jitter")
        )
        assert len({nominal.digest(), slow.digest(), jitter.digest()}) == 3

    def test_redefined_scenario_changes_digest(self):
        """Same name, different definition => different digest: the
        digest carries the full scenario signature, not the name."""
        import dataclasses

        from repro.scenarios import get_scenario
        from repro.scenarios.registry import _REGISTRY

        request = PlanRequest.from_payload(
            small_plan_payload(scenario="slow-node")
        )
        before = request.digest()
        original = get_scenario("slow-node")
        try:
            _REGISTRY["slow-node"] = dataclasses.replace(
                original, slow_node_speed=original.slow_node_speed / 2
            )
            assert request.digest() != before
        finally:
            _REGISTRY["slow-node"] = original

    def test_binding_knobs_change_digest(self):
        base = PlanRequest.from_payload(small_plan_payload())
        budget = PlanRequest.from_payload(
            small_plan_payload(memory_budget_gib=40.0)
        )
        overhead = PlanRequest.from_payload(
            small_plan_payload(pass_overhead=1e-3)
        )
        assert len({base.digest(), budget.digest(), overhead.digest()}) == 3


class TestSweepValidation:
    def test_expansion_and_defaults(self):
        request = SweepRequest.from_payload(
            {"devices": [4, 8], "vocab_sizes": ["32k", "64k"]}
        )
        assert len(request.points()) == 4
        assert request.seq_lengths == (2048,)

    def test_point_cap(self):
        with pytest.raises(RequestError, match=str(MAX_SWEEP_POINTS)):
            SweepRequest.from_payload(
                {
                    "devices": list(range(4, 4 + 40)),
                    "vocab_sizes": ["32k"] * 20,
                }
            )

    def test_bad_axis_values(self):
        with pytest.raises(RequestError, match="'devices' must be positive"):
            SweepRequest.from_payload(
                {"devices": [4, -1], "vocab_sizes": ["32k"]}
            )
        with pytest.raises(RequestError, match="non-empty"):
            SweepRequest.from_payload({"devices": [], "vocab_sizes": ["32k"]})

    def test_digest_depends_on_grid_and_constraints(self):
        a = SweepRequest.from_payload(
            {"devices": [4], "vocab_sizes": ["32k"]}
        )
        b = SweepRequest.from_payload(
            {"devices": [4], "vocab_sizes": ["64k"]}
        )
        c = SweepRequest.from_payload(
            {"devices": [4], "vocab_sizes": ["32k"], "simulate_top_k": 0}
        )
        assert len({a.digest(), b.digest(), c.digest()}) == 3


#: Each ``/v1/sweep`` axis and the ``/v1/plan`` field its elements obey.
AXES = {
    "devices": "devices",
    "vocab_sizes": "vocab_size",
    "seq_lengths": "seq_length",
    "microbatches": "microbatches",
    "memory_budgets_gib": "memory_budget_gib",
    "pass_overheads": "pass_overhead",
    "scenarios": "scenario",
}

#: One JSON value of every kind a client can put in an axis list.
ELEMENTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 20), max_value=1 << 20),
    st.sampled_from([0, -1, 1, float("nan"), float("inf"), float("-inf"), 0.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["128k", "x", "slow-node"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _outcome(param, name, value):
    """``(True, parsed)`` or ``(False, message)`` of one field parse."""
    try:
        return True, param.parse({name: value})
    except RequestError as error:
        return False, str(error)


@settings(max_examples=300, deadline=None)
@given(axis=st.sampled_from(sorted(AXES)), value=ELEMENTS)
def test_axis_elements_obey_their_plan_field(axis, value):
    scalar = {param.name: param for param in PlanRequest.SPEC}[AXES[axis]]
    grid_axis = {param.name: param for param in SweepRequest.SPEC}[axis]
    scalar_ok, scalar_out = _outcome(scalar, scalar.name, value)
    axis_ok, axis_out = _outcome(grid_axis, axis, [value])
    if value is None:
        # null is an axis element only where the scalar default is None.
        assert axis_ok == (scalar.default is None)
    else:
        assert axis_ok == scalar_ok, (scalar_out, axis_out)
    if axis_ok:
        assert axis_out == (scalar_out,)
    elif not scalar_ok:
        assert axis_out.replace(repr(axis), repr(scalar.name)) == scalar_out
    # A whole body with that element is a request or a 400, never a 500.
    body = {"devices": [4], "vocab_sizes": ["32k"], axis: [value]}
    try:
        SweepRequest.from_payload(body)
    except RequestError:
        pass


class TestCostModelField:
    def test_accepted_and_threaded_into_constraints(self):
        request = PlanRequest.from_payload(
            small_plan_payload(cost_model="a100-sim")
        )
        assert request.cost_model == "a100-sim"
        constraints = request.resolve()[2]
        assert constraints.cost_model == "a100-sim"

    def test_default_is_analytic(self):
        request = PlanRequest.from_payload(small_plan_payload())
        assert request.cost_model is None
        assert request.resolve()[2].cost_model is None
        # "analytic" is normalized to the default spelling.
        explicit = PlanRequest.from_payload(
            small_plan_payload(cost_model="analytic")
        )
        assert explicit.resolve()[2].cost_model is None

    def test_unknown_name_is_a_request_error(self):
        with pytest.raises(RequestError, match="unknown cost model"):
            PlanRequest.from_payload(small_plan_payload(cost_model="h100-???"))
        with pytest.raises(RequestError, match="unknown cost model"):
            SweepRequest.from_payload(
                {
                    "devices": [4],
                    "vocab_sizes": ["32k"],
                    "cost_model": "h100-???",
                }
            )

    def test_digest_keyed_on_cost_model(self):
        analytic = PlanRequest.from_payload(small_plan_payload())
        explicit = PlanRequest.from_payload(
            small_plan_payload(cost_model="analytic")
        )
        calibrated = PlanRequest.from_payload(
            small_plan_payload(cost_model="a100-sim")
        )
        # "analytic" and the default are the SAME model — same digest;
        # the calibrated profile's content digest separates it.
        assert analytic.digest() == explicit.digest()
        assert calibrated.digest() != analytic.digest()

    def test_sweep_accepts_cost_model(self):
        request = SweepRequest.from_payload(
            {
                "devices": [4],
                "vocab_sizes": ["32k"],
                "cost_model": "a100-sim",
            }
        )
        assert request.constraints().cost_model == "a100-sim"

    def test_plans_to_json_carries_trust_fields(self):
        from repro.service.requests import plans_to_json

        request = PlanRequest.from_payload(
            small_plan_payload(cost_model="a100-sim", simulate_top_k="all")
        )
        data = plans_to_json(execute_plan_request(request))
        assert data["cost_model"] == "a100-sim"
        assert isinstance(data["trust_gated"], bool)
        assert isinstance(data["trust_skipped"], list)
        assert data["cache_key"] == request.digest()


class TestScenarioValidation:
    def test_scenario_required(self):
        with pytest.raises(RequestError, match="scenario"):
            ScenarioRequest.from_payload({"method": "vocab-1"})

    def test_compare_is_default(self):
        request = ScenarioRequest.from_payload({"scenario": "slow-node"})
        assert request.method is None
        assert request.devices == 12

    def test_unknown_method(self):
        with pytest.raises(RequestError, match="unknown method"):
            ScenarioRequest.from_payload(
                {"scenario": "slow-node", "method": "nope"}
            )

    def test_invalid_model_is_a_request_error(self):
        # Resolved at validation time: a 400, not a failure in a worker.
        with pytest.raises(RequestError, match="vocab_size must be > 1"):
            ScenarioRequest.from_payload({"scenario": "slow-node", "vocab_size": 1})

    def test_digest_depends_on_sampling(self):
        a = ScenarioRequest.from_payload(
            {"scenario": "slow-node", "samples": 8}
        )
        b = ScenarioRequest.from_payload(
            {"scenario": "slow-node", "samples": 16}
        )
        assert a.digest() != b.digest()
