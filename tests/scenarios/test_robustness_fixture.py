"""Pinned Monte Carlo robustness statistics.

``robustness_stats.json`` holds every :class:`RobustnessStats` field of
256-sample runs on two planner-sized structures (p=4, vocab 256k, m=32
and p=8, vocab 128k, m=16) under every jittered built-in scenario and
seeds 0 and 7, plus one p=16, vocab 128k, m=32 ``straggler-device``
run.  The four dense scenarios were recorded before the factor
generator learned to skip draws that cannot change a value and the
batched kernel learned to summarize every sample at once; the
``straggler-device`` cases were recorded while narrow-jitter samples
still went through per-sample delta replay, before they joined the
dense kernel.  Every change since is exact, so the statistics must
match to the last bit — with NumPy and without it.
"""

import json
from pathlib import Path

import pytest

import repro.scenarios.perturb as perturb
import repro.sim.compiled as compiled
from repro.config import ParallelConfig
from repro.planner.sweep import model_for_devices
from repro.scenarios import get_scenario, method_robustness

FIXTURE = json.loads(
    (Path(__file__).with_name("robustness_stats.json")).read_text()
)
CASES = FIXTURE["cases"]


def _case_id(case: dict) -> str:
    return f"p{case['devices']}-{case['scenario']}-seed{case['seed']}"


def _stats(case: dict) -> dict:
    model = model_for_devices(case["devices"], case["seq"], case["vocab"])
    parallel = ParallelConfig(
        pipeline_size=case["devices"],
        num_microbatches=case["microbatches"],
        microbatch_size=1,
    )
    return method_robustness(
        case["method"],
        model,
        parallel,
        get_scenario(case["scenario"]),
        samples=FIXTURE["samples"],
        seed=case["seed"],
    ).as_dict()


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_stats_match_fixture(case):
    assert _stats(case) == case["stats"]


@pytest.mark.skipif(compiled._np is None, reason="already the pure-Python path")
@pytest.mark.parametrize(
    "case",
    [
        c for c in CASES
        if c["scenario"] in ("slow-node", "straggler-device")
        and c["seed"] == 7
    ],
    ids=_case_id,
)
def test_stats_match_fixture_without_numpy(case, monkeypatch):
    monkeypatch.setattr(perturb, "_np", None)
    monkeypatch.setattr(compiled, "_np", None)
    assert _stats(case) == case["stats"]
