"""``PlannerConstraints`` rejects inputs that would give wrong plans.

A NaN memory budget compares false against every peak, so the planner
used to reject every simulated candidate ("exceeds budget nan GiB")
while ranking the estimate-only ones as feasible; an empty ``methods``
silently planned every family under a cache key of its own; duplicated
methods were ranked twice.  The library raises ``ValueError``, the
service's request validation turns it into a 400 (see
``tests/service/test_service.py``), and the CLI into an argparse-style
error.
"""

import math

import pytest

from repro.api import PlannerConstraints
from repro.harness.cli import main
from repro.service.requests import (
    OptimizeRequest,
    PlanRequest,
    RequestError,
    SweepRequest,
)

NON_FINITE = (math.nan, math.inf, -math.inf)


class TestLibrary:
    @pytest.mark.parametrize("budget", NON_FINITE + (0.0, -4.0))
    def test_memory_budget_must_be_positive_and_finite(self, budget):
        with pytest.raises(ValueError, match="memory_budget_gib must be positive and finite"):
            PlannerConstraints(memory_budget_gib=budget)

    @pytest.mark.parametrize("margin", NON_FINITE + (0.5,))
    def test_estimate_margin_must_be_finite(self, margin):
        with pytest.raises(ValueError, match="estimate_margin must be finite and >= 1"):
            PlannerConstraints(estimate_margin=margin)

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError, match="at least one method"):
            PlannerConstraints(methods=())

    def test_duplicated_methods_rejected(self):
        with pytest.raises(ValueError, match="vocab-1 more than once"):
            PlannerConstraints(methods=("vocab-1", "vocab-2", "vocab-1"))

    def test_valid_inputs_still_accepted(self):
        constraints = PlannerConstraints(
            memory_budget_gib=40, methods=("vocab-1", "vocab-2"), estimate_margin=1.0
        )
        assert constraints.methods == ("vocab-1", "vocab-2")
        assert PlannerConstraints(methods=None).methods is None


PLAN = {"devices": 4, "vocab_size": "64k", "microbatches": 8}


class TestRequests:
    @pytest.mark.parametrize(
        "methods, message",
        [([], "at least one method"), (["vocab-1", "vocab-1"], "more than once")],
    )
    @pytest.mark.parametrize("request_type", [PlanRequest, OptimizeRequest])
    def test_methods(self, request_type, methods, message):
        with pytest.raises(RequestError, match=message):
            request_type.from_payload(dict(PLAN, methods=methods))

    @pytest.mark.parametrize(
        "methods, message",
        [([], "at least one method"), (["vocab-2", "vocab-2"], "more than once")],
    )
    def test_sweep_methods(self, methods, message):
        with pytest.raises(RequestError, match=message):
            SweepRequest.from_payload(
                {"devices": [4], "vocab_sizes": ["64k"], "microbatches": [8],
                 "methods": methods}
            )

    @pytest.mark.parametrize("request_type", [PlanRequest, OptimizeRequest])
    def test_non_finite_budget(self, request_type):
        with pytest.raises(RequestError, match="must be finite"):
            request_type.from_payload(dict(PLAN, memory_budget_gib=math.nan))


class TestCli:
    BASE = ["--devices", "4", "--vocab", "64k", "--microbatches", "8"]

    @pytest.mark.parametrize("command", ["plan", "optimize"])
    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget(self, command, budget):
        with pytest.raises(SystemExit, match="field 'memory_budget_gib' must be finite"):
            main([command, *self.BASE, "--memory-budget", budget])

    @pytest.mark.parametrize("command", ["plan", "optimize"])
    def test_duplicated_methods(self, command):
        with pytest.raises(SystemExit, match="vocab-1 more than once"):
            main([command, *self.BASE, "--methods", "vocab-1", "vocab-1"])
