"""The unified public surface (:mod:`repro.api`).

Two contracts: every ``repro.api.__all__`` name resolves, and the
``repro`` top level lazily re-exports the facade subset.
"""

import importlib
import inspect

import repro
import repro.api


class TestFacade:
    def test_api_version(self):
        assert repro.api.API_VERSION == 1

    def test_every_declared_name_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None, name

    def test_all_is_sorted_and_deduplicated(self):
        assert list(repro.api.__all__) == sorted(set(repro.api.__all__))

    def test_core_entry_points_are_present(self):
        from repro.api import (  # noqa: F401
            OptimizedPlan,
            PlannerConstraints,
            RankedPlans,
            WhatifResult,
            calibrate,
            optimize,
            plan,
            sweep,
            whatif,
        )

        assert callable(plan) and callable(optimize)

    def test_calibrate_takes_fit_profiles_arguments(self):
        from repro.costmodel.calibrate import fit_profile

        def params(fn):
            return list(inspect.signature(fn).parameters.values())

        assert params(repro.api.calibrate) == params(fit_profile)

    def test_calibrate_fits_a_profile(self):
        profile = repro.api.calibrate(quick=True)
        assert profile.name == repro.api.BUILTIN_PROFILE

    def test_facade_names_match_defining_modules(self):
        from repro.api import PlanCache, optimize, plan, sweep, whatif

        assert plan is importlib.import_module("repro.planner.planner").plan
        assert sweep is importlib.import_module("repro.planner.sweep").sweep
        assert whatif is importlib.import_module("repro.planner.whatif").whatif
        assert PlanCache is importlib.import_module("repro.planner.cache").PlanCache
        assert optimize is importlib.import_module("repro.optimize").optimize


class TestTopLevelReExports:
    def test_lazy_facade_subset(self):
        for name in ("plan", "sweep", "whatif", "calibrate", "API_VERSION"):
            assert getattr(repro, name) is getattr(repro.api, name)

    def test_optimize_is_the_subpackage_at_top_level(self):
        # ``repro.optimize`` is a subpackage; the callable is only on
        # the facade, so the name can never silently flip meaning.
        import repro.optimize as subpackage

        assert repro.optimize is subpackage
        assert "optimize" not in repro.__all__
