"""Trust-gated top-k verification never changes the chosen plan.

The calibrated cost model entitles :func:`repro.api.plan` to skip
simulating candidates whose error-inflated analytic estimates provably
lose to the leader.  That is an *optimization*, not a ranking change:
the differential tests here assert the trust-gated planner picks the
same top-1 as exhaustive verification across both paper shape families,
and that every situation the gate does not understand — registered
scenarios the report does not cover, uncalibrated or stale profiles,
Monte Carlo ranking — falls back to full verification.

Also the probe-cache regression from this PR: per-(method, setup) probe
entries are keyed on the cost model's content digest, so two profiles
never share m=1 probe pricing.
"""

from __future__ import annotations

import pytest

from repro.costmodel import (
    BUILTIN_PROFILE,
    HardwareProfile,
    get_cost_model,
    register_cost_model,
)
from repro.costmodel.calibrate import _REGISTRY
from repro.harness.settings import model_for_1f1b, model_for_vhalf, parallel_for
from repro.api import PlanCache, PlannerConstraints, plan
from repro.planner.estimate import (
    clear_probe_cache,
    estimate_method,
    probe_cache_stats,
)
from repro.sim import SimulationSetup

FULL = PlannerConstraints(simulate_top_k=None)
GATED = PlannerConstraints(simulate_top_k=None, cost_model=BUILTIN_PROFILE)

# (label, model, parallel) covering both paper shape blocks at two
# vocabulary sizes each — the configurations the committed profile's
# error bounds must generalize over.
CONFIGS = [
    (
        f"{shape}-{vocab // 1024}k",
        factory(devices, 2048, vocab),
        parallel_for(devices, num_microbatches=16),
    )
    for shape, factory, devices, vocabs in (
        ("1f1b", model_for_1f1b, 8, (64 * 1024, 256 * 1024)),
        ("vhalf", model_for_vhalf, 16, (64 * 1024, 256 * 1024)),
    )
    for vocab in vocabs
]


@pytest.fixture
def scratch_model():
    """Register a throwaway cost model; always unregister after."""

    def _register(name, profile):
        register_cost_model(name, profile)
        return name

    created = []

    def factory(name, profile):
        created.append(name)
        return _register(name, profile)

    yield factory
    for name in created:
        _REGISTRY.pop(name, None)


class TestDifferentialTop1:
    @pytest.mark.parametrize(
        "label,model,parallel", CONFIGS, ids=[c[0] for c in CONFIGS]
    )
    def test_same_winner_as_full_verification(self, label, model, parallel):
        full = plan(model, parallel, FULL, cache=PlanCache())
        gated = plan(model, parallel, GATED, cache=PlanCache())
        assert gated.best.method == full.best.method, label
        assert gated.cost_model == BUILTIN_PROFILE
        # Candidates the gate skipped keep their analytic price and are
        # marked unsimulated; everything else carries simulated metrics.
        for candidate in gated.ranked:
            if candidate.method in gated.trust_skipped:
                assert not candidate.simulated
        assert gated.best.simulated  # the winner is always verified

    def test_gate_actually_skips_somewhere(self):
        skipped = 0
        for _, model, parallel in CONFIGS:
            plans = plan(model, parallel, GATED, cache=PlanCache())
            if plans.trust_gated:
                skipped += len(plans.trust_skipped)
        assert skipped > 0, (
            "trust gating never skipped a candidate on any config — "
            "the bench speedup claim would be vacuous"
        )

    def test_gated_plan_renders_skip_line(self):
        _, model, parallel = CONFIGS[0][0], CONFIGS[0][1], CONFIGS[0][2]
        plans = plan(model, parallel, GATED, cache=PlanCache())
        if plans.trust_skipped:
            rendered = plans.render()
            assert "trust-gated" in rendered


class TestFallbacks:
    def test_scenario_plans_fall_back_to_full_verification(self):
        # The committed report only covers the nominal cluster; under a
        # registered scenario every error_bound() is None, so the gate
        # must not fire.
        _, model, parallel = CONFIGS[0]
        plans = plan(
            model, parallel, GATED, cache=PlanCache(), scenario="slow-node"
        )
        assert not plans.trust_gated
        assert plans.trust_skipped == ()

    def test_uncalibrated_profile_falls_back(self, scratch_model):
        name = scratch_model("test-uncalibrated", HardwareProfile(name="blank"))
        _, model, parallel = CONFIGS[0]
        constraints = PlannerConstraints(simulate_top_k=None, cost_model=name)
        plans = plan(model, parallel, constraints, cache=PlanCache())
        assert not plans.trust_gated
        assert plans.trust_skipped == ()
        # An uncalibrated profile prices exactly like the analytic model.
        full = plan(model, parallel, FULL, cache=PlanCache())
        assert [c.method for c in plans.ranked] == [
            c.method for c in full.ranked
        ]

    def test_stale_profile_falls_back(self, scratch_model):
        import dataclasses

        reference = get_cost_model(BUILTIN_PROFILE).profile
        stale = dataclasses.replace(
            reference, costmodel_version=reference.costmodel_version - 1
        )
        assert not stale.calibrated
        name = scratch_model("test-stale", stale)
        _, model, parallel = CONFIGS[0]
        constraints = PlannerConstraints(simulate_top_k=None, cost_model=name)
        plans = plan(model, parallel, constraints, cache=PlanCache())
        assert not plans.trust_gated

    def test_top_k_zero_and_one_never_gate(self):
        _, model, parallel = CONFIGS[0]
        for top_k in (0, 1):
            constraints = PlannerConstraints(
                simulate_top_k=top_k, cost_model=BUILTIN_PROFILE
            )
            plans = plan(model, parallel, constraints, cache=PlanCache())
            assert not plans.trust_gated


class TestCacheIdentity:
    def test_probe_cache_is_cost_model_keyed(self):
        # Regression for the pre-PR bug: probe entries ignored the cost
        # model, so a calibrated profile could read (and poison) the
        # analytic model's memoized m=1 pricing.
        model = CONFIGS[0][1]
        parallel = CONFIGS[0][2]
        setup = SimulationSetup(model, parallel)
        clear_probe_cache()
        estimate_method("baseline", setup, None, get_cost_model(None))
        analytic_entries = probe_cache_stats()["entries"]
        assert analytic_entries > 0
        estimate_method("baseline", setup, None, get_cost_model(BUILTIN_PROFILE))
        assert probe_cache_stats()["entries"] == 2 * analytic_entries
        # Same model again: a hit, not a third entry.
        estimate_method("baseline", setup, None, get_cost_model(BUILTIN_PROFILE))
        assert probe_cache_stats()["entries"] == 2 * analytic_entries

    def test_plan_cache_key_differs_by_profile_content(self, scratch_model):
        from repro.api import plan_cache_key

        _, model, parallel = CONFIGS[0]
        analytic_key = plan_cache_key(model, parallel, FULL)
        gated_key = plan_cache_key(model, parallel, GATED)
        assert analytic_key != gated_key
        # Re-fitting under the SAME name must invalidate: key follows
        # the profile content digest, not the name.
        import dataclasses

        reference = get_cost_model(BUILTIN_PROFILE).profile
        tweaked = dataclasses.replace(reference, seed=reference.seed + 1)
        name = scratch_model("test-refit", tweaked)
        refit_key = plan_cache_key(
            model,
            parallel,
            PlannerConstraints(simulate_top_k=None, cost_model=name),
        )
        assert refit_key not in (analytic_key, gated_key)
