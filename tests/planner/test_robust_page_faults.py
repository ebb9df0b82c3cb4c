"""Warm robust plans sweep in memory that stays mapped.

A warm robust ``plan()`` prices K = 256 jitter samples per candidate in
``nodes × K`` work arrays.  Allocated afresh per call, they went back
to the operating system between plans and faulted in again on the next
one: 2,736 minor page faults per warm robust plan on the structure
below.  Lent from :mod:`repro.spares` they stay mapped, so a warm plan
faults in almost nothing.
"""

import sys

import pytest

from repro.api import plan
from repro.config import ParallelConfig
from repro.planner.cache import PlanCache
from repro.planner.planner import RobustnessObjective
from repro.planner.sweep import model_for_devices
from repro.sim import compiled

resource = pytest.importorskip("resource")

#: Mean minor faults per warm robust plan allowed; the fresh-array
#: sweep faulted 2,736 per plan here, and recycling only the kernel's
#: buffers (the jitter rows still fresh) 1,492.
MAX_FAULTS = 200


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
@pytest.mark.skipif(compiled._np is None, reason="the batched sweep needs numpy")
def test_warm_robust_plans_fault_in_almost_nothing():
    model = model_for_devices(4, 2048, 64 * 1024)
    parallel = ParallelConfig(pipeline_size=4, num_microbatches=16, microbatch_size=1)
    cache = PlanCache()

    def robust(seed):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        plan(
            model, parallel, cache=cache, scenario="slow-node",
            robustness=RobustnessObjective(seed=seed),
        )
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    for seed in range(3):
        robust(seed)
    faults = [robust(seed) for seed in range(3, 8)]
    assert sum(faults) / len(faults) < MAX_FAULTS, faults
