"""Cold start: the planner's entry points never load NumPy.

NumPy is imported on the first *vectorized* call (the seam in
:mod:`repro._lazy`).  A cold ``plan()``, ``whatif()``, ``optimize()``,
the CLI's ``plan`` verb and the service's plan/what-if worker bodies run
no batched kernel, so each must finish with ``numpy`` absent from
``sys.modules``; a robust ``plan()`` draws Monte Carlo jitter and must
load it.  Every case runs in a fresh interpreter with NumPy installed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

ROOT = Path(__file__).resolve().parents[1]

SMALL = """
from repro.config import ModelConfig, ParallelConfig
model = ModelConfig(num_layers=8, hidden_size=256, num_attention_heads=4,
                    seq_length=256, vocab_size=8 * 1024)
parallel = ParallelConfig(pipeline_size=4, num_microbatches=8)
"""

CASES = {
    "import repro": "import repro",
    "import repro.api": "import repro.api",
    "plan": SMALL + """
from repro.api import plan
assert plan(model, parallel).ranked
""",
    "whatif": SMALL + """
from repro.api import whatif
whatif(model, parallel, method="vocab-1", device=-1, factor=1.3)
""",
    "optimize": SMALL + """
from repro.api import optimize
optimize(model, parallel, budget=8)
""",
    "cli plan": """
from repro.harness.cli import main
main(["plan", "--devices", "4", "--vocab", "32k", "--microbatches", "8"])
""",
    "service plan": """
from repro.service.requests import PlanRequest, execute_plan_request
request = PlanRequest.from_payload(
    {"devices": 4, "vocab_size": "32k", "microbatches": 8})
assert execute_plan_request(request).ranked
""",
    "service whatif": """
from repro.service.requests import WhatifRequest, execute_whatif_request
request = WhatifRequest.from_payload(
    {"devices": 4, "vocab_size": "32k", "microbatches": 8,
     "method": "vocab-1", "device": -1, "factor": 1.3})
execute_whatif_request(request)
""",
}


def run_isolated(body: str) -> dict:
    """Run ``body`` in a fresh interpreter; the JSON it leaves in ``out``
    plus whether NumPy was loaded."""
    script = (
        "import json, sys\nout = {}\n" + body
        + "\nout['numpy'] = 'numpy' in sys.modules\nprint(json.dumps(out))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
        cwd=str(ROOT),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("body", CASES.values(), ids=CASES.keys())
def test_entry_point_never_loads_numpy(body):
    assert run_isolated(body)["numpy"] is False


def test_robust_plan_loads_numpy_and_matches_fixture():
    fixture = json.loads(
        (ROOT / "tests" / "scenarios" / "robustness_stats.json").read_text()
    )
    case = fixture["cases"][0]
    out = run_isolated(f"""
from repro.api import ParallelConfig, RobustnessObjective, model_for_devices, plan
model = model_for_devices({case['devices']}, {case['seq']}, {case['vocab']})
parallel = ParallelConfig(pipeline_size={case['devices']},
                          num_microbatches={case['microbatches']}, microbatch_size=1)
plans = plan(model, parallel, scenario={case['scenario']!r},
             robustness=RobustnessObjective(samples={fixture['samples']},
                                            seed={case['seed']}))
out['stats'] = plans.candidate({case['method']!r}).robust_stats.as_dict()
""")
    assert out["numpy"] is True
    assert out["stats"] == case["stats"]
