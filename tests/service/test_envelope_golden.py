"""Pinned response envelopes of every ``/v1/*`` endpoint.

``envelopes.json`` maps each case below to the status and body a fresh
service answered when the corpus was recorded, minus ``meta.timings``
(wall-clock, never reproducible).  The corpus covers every
``400 bad_request`` rule of the request layer (unknown field, wrong
type, ``true`` as an int, NaN/Infinity, non-positive numbers, unknown
method/scenario/cost model, the removed ``strategy`` field, robustness
without a scenario, the sweep point cap, a what-if device out of range,
a bad ``deadline_ms``), the ``payload_too_large``/``not_found``/``method_not_allowed`` codes,
the ``422 no_feasible_schedule`` of an optimize no family fits, and one
success per endpoint on a tiny configuration.  It holds the
service's validation messages and result schemas byte-for-byte while
the request layer changes underneath.

Re-record only when a response is meant to change::

    PYTHONPATH=src python tests/service/test_envelope_golden.py
"""

import http.client
import json
import sys
from pathlib import Path

import pytest

from repro.service import PlanningService, ServiceThread

FIXTURE_PATH = Path(__file__).with_name("envelopes.json")

PLAN = {"devices": 4, "vocab_size": "32k", "microbatches": 8}
SWEEP = {"devices": [4], "vocab_sizes": ["32k"], "microbatches": [8]}
WHATIF = dict(PLAN, method="vocab-1", device=0, factor=1.5)
SCENARIOS = dict(PLAN, scenario="slow-node", method="vocab-1", samples=4)
OPTIMIZE = dict(PLAN, budget=8, seed=0)

#: ``(name, HTTP method, path, body)``.  A ``dict``/``list`` body is
#: sent as JSON, a ``str`` body verbatim (NaN/Infinity tokens, broken
#: JSON), an ``int`` body as a bare ``Content-Length`` header with no
#: payload (the oversized-body refusal never reads one).
CASES = [
    # -- success, one per endpoint ------------------------------------
    ("plan/ok", "POST", "/v1/plan", dict(PLAN, simulate_top_k=1)),
    ("sweep/ok", "POST", "/v1/sweep", dict(SWEEP, simulate_top_k=0)),
    ("whatif/ok", "POST", "/v1/whatif", WHATIF),
    ("scenarios/ok", "POST", "/v1/scenarios", SCENARIOS),
    ("optimize/ok", "POST", "/v1/optimize", OPTIMIZE),
    # -- routing and framing ------------------------------------------
    ("route/not-found", "POST", "/v1/nope", {}),
    ("route/not-found-get", "GET", "/nope", None),
    ("route/method-not-allowed", "GET", "/v1/plan", None),
    ("route/payload-too-large", "POST", "/v1/plan", 2_000_000),
    ("body/invalid-json", "POST", "/v1/plan", "{not json"),
    ("body/not-object", "POST", "/v1/plan", [1, 2, 3]),
    ("body/empty", "POST", "/v1/plan", ""),
    # -- deadline_ms ----------------------------------------------------
    ("deadline/negative", "POST", "/v1/plan", dict(PLAN, deadline_ms=-1)),
    ("deadline/zero", "POST", "/v1/whatif", dict(WHATIF, deadline_ms=0)),
    ("deadline/string", "POST", "/v1/sweep", dict(SWEEP, deadline_ms="1s")),
    ("deadline/bool", "POST", "/v1/optimize", dict(OPTIMIZE, deadline_ms=True)),
    ("deadline/infinity", "POST", "/v1/scenarios",
     '{"scenario": "slow-node", "deadline_ms": Infinity}'),
    # -- /v1/plan -------------------------------------------------------
    ("plan/unknown-field", "POST", "/v1/plan", dict(PLAN, frobnicate=1)),
    ("plan/missing-devices", "POST", "/v1/plan", {"vocab_size": "32k"}),
    ("plan/missing-vocab", "POST", "/v1/plan", {"devices": 4}),
    ("plan/null-devices", "POST", "/v1/plan", dict(PLAN, devices=None)),
    ("plan/devices-string", "POST", "/v1/plan", dict(PLAN, devices="8")),
    ("plan/devices-true", "POST", "/v1/plan", dict(PLAN, devices=True)),
    ("plan/devices-float", "POST", "/v1/plan", dict(PLAN, devices=4.0)),
    ("plan/devices-zero", "POST", "/v1/plan", dict(PLAN, devices=0)),
    ("plan/seq-negative", "POST", "/v1/plan", dict(PLAN, seq_length=-2)),
    ("plan/microbatches-zero", "POST", "/v1/plan", dict(PLAN, microbatches=0)),
    ("plan/vocab-text", "POST", "/v1/plan", dict(PLAN, vocab_size="huge")),
    ("plan/vocab-zero", "POST", "/v1/plan", dict(PLAN, vocab_size=0)),
    ("plan/vocab-float", "POST", "/v1/plan", dict(PLAN, vocab_size=3.5)),
    ("plan/budget-zero", "POST", "/v1/plan", dict(PLAN, memory_budget_gib=0)),
    ("plan/budget-nan", "POST", "/v1/plan",
     '{"devices": 4, "vocab_size": "32k", "memory_budget_gib": NaN}'),
    ("plan/budget-string", "POST", "/v1/plan",
     dict(PLAN, memory_budget_gib="40")),
    ("plan/overhead-negative", "POST", "/v1/plan", dict(PLAN, pass_overhead=-1)),
    ("plan/overhead-infinity", "POST", "/v1/plan",
     '{"devices": 4, "vocab_size": "32k", "pass_overhead": Infinity}'),
    ("plan/unknown-scenario", "POST", "/v1/plan", dict(PLAN, scenario="nope")),
    ("plan/scenario-int", "POST", "/v1/plan", dict(PLAN, scenario=5)),
    ("plan/unknown-method", "POST", "/v1/plan", dict(PLAN, methods=["nope"])),
    ("plan/methods-string", "POST", "/v1/plan", dict(PLAN, methods="vocab-1")),
    ("plan/methods-empty", "POST", "/v1/plan", dict(PLAN, methods=[])),
    ("plan/top-k-text", "POST", "/v1/plan", dict(PLAN, simulate_top_k="most")),
    ("plan/top-k-negative", "POST", "/v1/plan", dict(PLAN, simulate_top_k=-1)),
    ("plan/top-k-float", "POST", "/v1/plan", dict(PLAN, simulate_top_k=1.5)),
    ("plan/refine-int", "POST", "/v1/plan", dict(PLAN, refine=1)),
    ("plan/robustness-without-scenario", "POST", "/v1/plan",
     dict(PLAN, robustness="p95")),
    ("plan/robustness-unknown-quantile", "POST", "/v1/plan",
     dict(PLAN, scenario="high-jitter", robustness="p42")),
    ("plan/robustness-unknown-key", "POST", "/v1/plan",
     dict(PLAN, scenario="high-jitter", robustness={"quantile": "p95"})),
    ("plan/robustness-samples-zero", "POST", "/v1/plan",
     dict(PLAN, scenario="high-jitter", robustness={"samples": 0})),
    ("plan/robustness-int", "POST", "/v1/plan",
     dict(PLAN, scenario="high-jitter", robustness=5)),
    ("plan/unknown-cost-model", "POST", "/v1/plan",
     dict(PLAN, cost_model="h100-???")),
    ("plan/cost-model-int", "POST", "/v1/plan", dict(PLAN, cost_model=1)),
    # -- /v1/sweep ------------------------------------------------------
    ("sweep/unknown-field", "POST", "/v1/sweep", dict(SWEEP, frobnicate=1)),
    ("sweep/missing-devices", "POST", "/v1/sweep", {"vocab_sizes": ["32k"]}),
    ("sweep/missing-vocab", "POST", "/v1/sweep", {"devices": [4]}),
    ("sweep/devices-int", "POST", "/v1/sweep", dict(SWEEP, devices=4)),
    ("sweep/devices-empty", "POST", "/v1/sweep", dict(SWEEP, devices=[])),
    ("sweep/vocab-empty", "POST", "/v1/sweep", dict(SWEEP, vocab_sizes=[])),
    ("sweep/devices-negative", "POST", "/v1/sweep", dict(SWEEP, devices=[4, -1])),
    ("sweep/devices-true", "POST", "/v1/sweep", dict(SWEEP, devices=[True])),
    ("sweep/vocab-text", "POST", "/v1/sweep", dict(SWEEP, vocab_sizes=["huge"])),
    ("sweep/microbatches-zero", "POST", "/v1/sweep", dict(SWEEP, microbatches=[0])),
    ("sweep/budget-zero", "POST", "/v1/sweep",
     dict(SWEEP, memory_budgets_gib=[0])),
    ("sweep/overhead-string", "POST", "/v1/sweep",
     dict(SWEEP, pass_overheads=["x"])),
    ("sweep/scenario-int", "POST", "/v1/sweep", dict(SWEEP, scenarios=[5])),
    ("sweep/vocab-null", "POST", "/v1/sweep", dict(SWEEP, vocab_sizes=[None])),
    ("sweep/vocab-float", "POST", "/v1/sweep", dict(SWEEP, vocab_sizes=[3.5])),
    ("sweep/budget-nan", "POST", "/v1/sweep",
     '{"devices": [4], "vocab_sizes": ["32k"], "memory_budgets_gib": [NaN]}'),
    ("sweep/budget-infinity", "POST", "/v1/sweep",
     '{"devices": [4], "vocab_sizes": ["32k"], "memory_budgets_gib": [Infinity]}'),
    ("sweep/overhead-nan", "POST", "/v1/sweep",
     '{"devices": [4], "vocab_sizes": ["32k"], "pass_overheads": [NaN]}'),
    ("sweep/overhead-infinity", "POST", "/v1/sweep",
     '{"devices": [4], "vocab_sizes": ["32k"], "pass_overheads": [Infinity]}'),
    ("sweep/overhead-negative-infinity", "POST", "/v1/sweep",
     '{"devices": [4], "vocab_sizes": ["32k"], "pass_overheads": [-Infinity]}'),
    ("sweep/overhead-negative", "POST", "/v1/sweep",
     dict(SWEEP, pass_overheads=[-1])),
    ("sweep/overhead-zero", "POST", "/v1/sweep",
     dict(SWEEP, simulate_top_k=0, pass_overheads=[0])),
    ("sweep/budget-empty", "POST", "/v1/sweep", dict(SWEEP, memory_budgets_gib=[])),
    ("sweep/overhead-empty", "POST", "/v1/sweep", dict(SWEEP, pass_overheads=[])),
    ("sweep/scenarios-empty", "POST", "/v1/sweep", dict(SWEEP, scenarios=[])),
    ("sweep/unknown-scenario", "POST", "/v1/sweep", dict(SWEEP, scenarios=["nope"])),
    ("sweep/unknown-method", "POST", "/v1/sweep", dict(SWEEP, methods=["nope"])),
    ("sweep/unknown-cost-model", "POST", "/v1/sweep",
     dict(SWEEP, cost_model="h100-???")),
    ("sweep/point-cap", "POST", "/v1/sweep",
     {"devices": list(range(4, 44)), "vocab_sizes": ["32k"] * 20}),
    # -- /v1/whatif -----------------------------------------------------
    ("whatif/unknown-field", "POST", "/v1/whatif", dict(WHATIF, frobnicate=1)),
    ("whatif/missing-method", "POST", "/v1/whatif",
     {k: v for k, v in WHATIF.items() if k != "method"}),
    ("whatif/missing-device", "POST", "/v1/whatif",
     {k: v for k, v in WHATIF.items() if k != "device"}),
    ("whatif/missing-factor", "POST", "/v1/whatif",
     {k: v for k, v in WHATIF.items() if k != "factor"}),
    ("whatif/unknown-method", "POST", "/v1/whatif", dict(WHATIF, method="nope")),
    ("whatif/device-out-of-range", "POST", "/v1/whatif", dict(WHATIF, device=99)),
    ("whatif/device-true", "POST", "/v1/whatif", dict(WHATIF, device=True)),
    ("whatif/factor-zero", "POST", "/v1/whatif", dict(WHATIF, factor=0)),
    ("whatif/factor-nan", "POST", "/v1/whatif",
     '{"devices": 4, "vocab_size": "32k", "method": "vocab-1", '
     '"device": 0, "factor": NaN}'),
    ("whatif/factor-string", "POST", "/v1/whatif", dict(WHATIF, factor="2")),
    ("whatif/overhead-negative", "POST", "/v1/whatif",
     dict(WHATIF, pass_overhead=-1)),
    ("whatif/unknown-scenario", "POST", "/v1/whatif", dict(WHATIF, scenario="nope")),
    ("whatif/devices-zero", "POST", "/v1/whatif", dict(WHATIF, devices=0)),
    # -- /v1/scenarios --------------------------------------------------
    ("scenarios/unknown-field", "POST", "/v1/scenarios",
     dict(SCENARIOS, frobnicate=1)),
    ("scenarios/missing-scenario", "POST", "/v1/scenarios", {"method": "vocab-1"}),
    ("scenarios/null-scenario", "POST", "/v1/scenarios", {"scenario": None}),
    ("scenarios/unknown-scenario", "POST", "/v1/scenarios", {"scenario": "nope"}),
    ("scenarios/unknown-method", "POST", "/v1/scenarios",
     dict(SCENARIOS, method="nope")),
    ("scenarios/samples-zero", "POST", "/v1/scenarios", dict(SCENARIOS, samples=0)),
    ("scenarios/devices-zero", "POST", "/v1/scenarios", dict(SCENARIOS, devices=0)),
    ("scenarios/seed-float", "POST", "/v1/scenarios", dict(SCENARIOS, seed=1.5)),
    ("scenarios/vocab-text", "POST", "/v1/scenarios",
     dict(SCENARIOS, vocab_size="huge")),
    # -- /v1/optimize ---------------------------------------------------
    ("optimize/unknown-field", "POST", "/v1/optimize",
     dict(OPTIMIZE, frobnicate=1)),
    ("optimize/missing-devices", "POST", "/v1/optimize", {"vocab_size": "32k"}),
    ("optimize/unknown-strategy", "POST", "/v1/optimize",
     dict(OPTIMIZE, strategy="tabu")),
    ("optimize/strategy-int", "POST", "/v1/optimize", dict(OPTIMIZE, strategy=1)),
    ("optimize/budget-zero", "POST", "/v1/optimize", dict(OPTIMIZE, budget=0)),
    ("optimize/seed-string", "POST", "/v1/optimize", dict(OPTIMIZE, seed="0")),
    ("optimize/overhead-negative", "POST", "/v1/optimize",
     dict(OPTIMIZE, pass_overhead=-1)),
    ("optimize/unknown-method", "POST", "/v1/optimize",
     dict(OPTIMIZE, methods=["nope"])),
    ("optimize/unknown-scenario", "POST", "/v1/optimize",
     dict(OPTIMIZE, scenario="nope")),
    ("optimize/unknown-cost-model", "POST", "/v1/optimize",
     dict(OPTIMIZE, cost_model="h100-???")),
    ("optimize/budget-nan", "POST", "/v1/optimize",
     '{"devices": 4, "vocab_size": "32k", "memory_budget_gib": NaN}'),
    ("optimize/no-feasible-schedule", "POST", "/v1/optimize",
     dict(OPTIMIZE, vocab_size="64k", seq_length=1024, methods=["baseline"],
          memory_budget_gib=6.9)),
]


def send(service, method: str, path: str, body) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(service.host, service.port, timeout=240)
    try:
        if isinstance(body, int):
            conn.putrequest(method, path)
            conn.putheader("Content-Length", str(body))
            conn.endheaders()
        else:
            if body is not None and not isinstance(body, str):
                body = json.dumps(body)
            conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def pinned(status: int, body: dict) -> dict:
    """The reproducible part of one response."""
    body = json.loads(json.dumps(body))
    body.get("meta", {}).pop("timings", None)
    return {"status": status, "body": body}


def record(service) -> dict:
    return {
        name: pinned(*send(service, method, path, body))
        for name, method, path, body in CASES
    }


@pytest.fixture(scope="module")
def live():
    service = PlanningService(port=0, executor="thread", lru_size=1)
    with ServiceThread(service) as running:
        yield running


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE_PATH.read_text())


def test_corpus_matches_fixture_keys(fixture):
    assert sorted(fixture) == sorted(name for name, *_ in CASES)


@pytest.mark.parametrize(
    "name,method,path,body", CASES, ids=[name for name, *_ in CASES]
)
def test_envelope_is_pinned(live, fixture, name, method, path, body):
    assert pinned(*send(live, method, path, body)) == fixture[name]


if __name__ == "__main__":
    service = PlanningService(port=0, executor="thread", lru_size=1)
    with ServiceThread(service) as running:
        recorded = record(running)
    FIXTURE_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} envelopes to {FIXTURE_PATH}", file=sys.stderr)
