"""Resilience machinery: deadlines, admission control, the breaker.

Unit tests drive the state machines with an injected fake clock;
HTTP-level tests run thread-executor services (the process-pool
breaker cycle is covered end-to-end by CI's chaos-smoke job via
``tools/loadtest_service.py --chaos``).
"""

import http.client
import json
import math
import threading
import time

import pytest

from repro import faultinject
from repro.service import (
    AdmissionController,
    CircuitBreaker,
    PlanningService,
    RequestError,
    ServiceThread,
    Shed,
    pop_deadline,
)

SMALL_PLAN = {
    "devices": 4,
    "vocab_size": "32k",
    "microbatches": 8,
    "simulate_top_k": 1,
}


@pytest.fixture(autouse=True)
def disarm():
    faultinject.reset()
    yield
    faultinject.reset()


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def request_raw(service, method, path, payload=None):
    """One request returning (status, body, response headers)."""
    conn = http.client.HTTPConnection(service.host, service.port, timeout=120)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return (
            response.status,
            json.loads(response.read()),
            {k.lower(): v for k, v in response.getheaders()},
        )
    finally:
        conn.close()


class TestAdmissionController:
    def test_inflight_budget_sheds_and_releases(self):
        admission = AdmissionController(max_inflight=2)
        admission.admit("/v1/plan")
        admission.admit("/v1/plan")
        with pytest.raises(Shed) as caught:
            admission.admit("/v1/plan")
        assert caught.value.retry_after_s > 0
        # Classes are budgeted independently.
        admission.admit("/v1/sweep")
        admission.release("/v1/plan")
        admission.admit("/v1/plan")
        snap = admission.snapshot()
        assert snap["shed_by_class"] == {"/v1/plan": 1}
        assert snap["inflight"] == {"/v1/plan": 2, "/v1/sweep": 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)


class TestDerivedRetryAfter:
    """In-flight sheds advertise a wait derived from observed work.

    ``Retry-After`` used to be hardcoded to one second on this path;
    these tests pin the replacement: an EWMA of completed work
    durations divided by the configured budget.
    """

    def test_before_any_work_falls_back_to_one_second(self):
        admission = AdmissionController(max_inflight=1, clock=FakeClock())
        assert admission.retry_after_s() == pytest.approx(1.0)
        admission.admit("/v1/plan")
        with pytest.raises(Shed) as caught:
            admission.admit("/v1/plan")
        assert caught.value.retry_after_s == pytest.approx(1.0)

    def test_shed_wait_is_ewma_over_budget(self):
        clock = FakeClock()
        admission = AdmissionController(max_inflight=2, clock=clock)
        admission.admit("/v1/plan")
        clock.advance(4.0)
        admission.release("/v1/plan")
        assert admission.work_ewma_s == pytest.approx(4.0)
        # 4 s of work, 2 slots: the next one frees in about 2 s.
        assert admission.retry_after_s() == pytest.approx(2.0)
        admission.admit("/v1/plan")
        admission.admit("/v1/plan")
        with pytest.raises(Shed) as caught:
            admission.admit("/v1/plan")
        assert caught.value.retry_after_s == pytest.approx(2.0)

    def test_wait_tracks_the_configured_budget(self):
        # The same observed durations advertise a shorter wait on a
        # bigger budget — the header tracks configuration, not a
        # constant.
        waits = {}
        for budget in (1, 2, 4):
            clock = FakeClock()
            admission = AdmissionController(max_inflight=budget, clock=clock)
            admission.admit("/v1/plan")
            clock.advance(4.0)
            admission.release("/v1/plan")
            waits[budget] = admission.retry_after_s()
        assert waits == {
            1: pytest.approx(4.0), 2: pytest.approx(2.0),
            4: pytest.approx(1.0),
        }

    def test_ewma_smooths_durations(self):
        clock = FakeClock()
        admission = AdmissionController(max_inflight=1, clock=clock)
        for duration in (2.0, 6.0):
            admission.admit("/v1/plan")
            clock.advance(duration)
            admission.release("/v1/plan")
        assert admission.work_ewma_s == pytest.approx(0.3 * 6.0 + 0.7 * 2.0)

    def test_snapshot_exposes_the_derivation(self):
        clock = FakeClock()
        admission = AdmissionController(max_inflight=4, clock=clock)
        admission.admit("/v1/plan")
        clock.advance(2.0)
        admission.release("/v1/plan")
        snap = admission.snapshot()
        assert snap["work_ewma_s"] == pytest.approx(2.0)
        assert snap["retry_after_s"] == pytest.approx(0.5)


class TestCircuitBreaker:
    def test_full_cycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(backoff_s=0.5, clock=clock)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

        breaker.record_failure("worker crashed")
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()  # backoff not expired
        snap = breaker.snapshot()
        assert snap["trips"] == 1
        assert snap["degraded_since"] == pytest.approx(0.0)
        assert snap["retry_in_s"] == pytest.approx(0.5)
        assert snap["last_failure"] == "worker crashed"

        clock.advance(0.6)
        assert breaker.allow()  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.snapshot()["recovery_attempts"] == 1

        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        snap = breaker.snapshot()
        assert snap["recoveries"] == 1
        assert snap["degraded_since"] is None
        assert snap["backoff_s"] == pytest.approx(0.5)  # reset to base

    def test_failed_probe_doubles_backoff(self):
        clock = FakeClock()
        breaker = CircuitBreaker(backoff_s=0.5, max_backoff_s=1.5, clock=clock)
        breaker.record_failure("first")
        clock.advance(0.6)
        assert breaker.allow()
        breaker.record_failure("probe failed")  # re-open, doubled wait
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.snapshot()["trips"] == 1  # re-opens are not trips
        assert breaker.snapshot()["retry_in_s"] == pytest.approx(1.0)
        clock.advance(0.6)
        assert not breaker.allow()  # 0.6 < 1.0: still waiting
        clock.advance(0.5)
        assert breaker.allow()
        breaker.record_failure("again")
        # Capped at max_backoff_s.
        assert breaker.snapshot()["retry_in_s"] == pytest.approx(1.5)

    def test_degraded_since_spans_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(backoff_s=0.5, clock=clock)
        breaker.record_failure("first")
        clock.advance(0.6)
        breaker.allow()
        breaker.record_failure("probe failed")
        clock.advance(1.4)
        # Degradation is measured from the *first* failure, not the
        # latest re-open — the operator-facing "how long has this been
        # broken" number.
        assert breaker.snapshot()["degraded_since"] == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(backoff_s=0.0)


class TestPopDeadline:
    def test_absent_is_no_deadline(self):
        assert pop_deadline({}) is None

    def test_popped_before_validation(self):
        payload = dict(SMALL_PLAN, deadline_ms=1500)
        assert pop_deadline(payload) == pytest.approx(1.5)
        assert payload == SMALL_PLAN  # digest input unchanged

    def test_explicit_null_is_no_deadline(self):
        payload = {"deadline_ms": None}
        assert pop_deadline(payload) is None
        assert payload == {}

    @pytest.mark.parametrize("bad", [0, -5, "fast", True])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(RequestError):
            pop_deadline({"deadline_ms": bad})


class TestDeadlinesOverHttp:
    def test_expiry_is_504_and_leader_survives(self):
        # A slow computation (the injected delay dwarfs the plan) under
        # a short deadline: the client gets 504, but the shielded
        # leader finishes and lands in the caches — the retry is an
        # LRU hit even though the first client gave up.
        faultinject.install("slow-worker:rate=1,limit=1,delay_ms=2000")
        service = PlanningService(port=0, executor="thread", lru_size=32)
        with ServiceThread(service) as live:
            status, body, _ = request_raw(
                live, "POST", "/v1/plan", dict(SMALL_PLAN, deadline_ms=100)
            )
            assert status == 504
            assert "deadline" in body["error"]["message"]
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, body, _ = request_raw(
                    live, "POST", "/v1/plan", dict(SMALL_PLAN)
                )
                assert status == 200
                if body["meta"]["cache"] == "lru":
                    break
                time.sleep(0.05)
            assert body["meta"]["cache"] == "lru"
            stats = service.stats_payload()
            assert stats["resilience"]["deadline_timeouts"] == 1
            # One computation total: the 504'd leader's, reused.
            assert stats["computed"] == 1

    def test_deadline_does_not_change_digest(self):
        service = PlanningService(port=0, executor="thread", lru_size=32)
        with ServiceThread(service) as live:
            _, patient, _ = request_raw(
                live, "POST", "/v1/plan", dict(SMALL_PLAN, deadline_ms=60000)
            )
            _, unbounded, _ = request_raw(live, "POST", "/v1/plan", SMALL_PLAN)
            assert patient["meta"]["digest"] == unbounded["meta"]["digest"]
            assert unbounded["meta"]["cache"] == "lru"

    def test_null_deadline_is_unbounded(self):
        # A null deadline_ms means no deadline: the 1 s of injected
        # delay would miss any short default, yet the request answers
        # 200 and shares the digest of a body without the field.
        faultinject.install("slow-worker:rate=1,limit=1,delay_ms=1000")
        service = PlanningService(port=0, executor="thread", lru_size=32)
        with ServiceThread(service) as live:
            status, body, _ = request_raw(
                live, "POST", "/v1/plan", dict(SMALL_PLAN, deadline_ms=None)
            )
            assert (status, body["meta"]["cache"]) == (200, "computed")
            _, unbounded, _ = request_raw(live, "POST", "/v1/plan", SMALL_PLAN)
            assert unbounded["meta"]["digest"] == body["meta"]["digest"]
            assert unbounded["meta"]["cache"] == "lru"
            assert service.stats_payload()["resilience"]["deadline_timeouts"] == 0

    def test_bad_deadline_is_400(self):
        service = PlanningService(port=0, executor="thread", lru_size=32)
        with ServiceThread(service) as live:
            status, body, _ = request_raw(
                live, "POST", "/v1/plan", dict(SMALL_PLAN, deadline_ms=-1)
            )
            assert status == 400
            assert "deadline_ms" in body["error"]["message"]


class TestAdmissionOverHttp:
    def test_inflight_shed_retry_after_derives_from_observed_work(self):
        # Make work measurably slow, complete one request to seed the
        # EWMA, then fill the single-slot budget and observe the shed:
        # the header must reflect the ~2 s of observed work, not the
        # old hardcoded 1 s.
        faultinject.install("slow-worker:rate=1,delay_ms=1800")
        service = PlanningService(port=0, executor="thread", lru_size=32)
        service.admission = AdmissionController(max_inflight=1)
        cached = dict(SMALL_PLAN, pass_overhead=1e-9)
        with ServiceThread(service) as live:
            status, _, _ = request_raw(live, "POST", "/v1/plan", cached)
            assert status == 200
            ewma = service.admission.work_ewma_s
            assert ewma is not None and ewma >= 1.8

            # The leader re-takes the single slot until the probe has
            # observed a shed: its first attempt can itself be shed if
            # a probe wins the slot race.  Every payload is fresh so no
            # request is answered from the LRU (cache hits bypass
            # admission and would mask the 429 forever).
            stop = threading.Event()

            def occupy_slot():
                attempt = 0
                while not stop.is_set():
                    attempt += 1
                    status, _, _ = request_raw(
                        live, "POST", "/v1/plan",
                        dict(SMALL_PLAN, pass_overhead=2e-9 * attempt),
                    )
                    if status != 200:
                        time.sleep(0.01)

            leader = threading.Thread(target=occupy_slot)
            leader.start()
            try:
                deadline = time.monotonic() + 10
                probe = 0
                status = None
                while time.monotonic() < deadline:
                    probe += 1
                    status, body, headers = request_raw(
                        live, "POST", "/v1/plan",
                        dict(SMALL_PLAN, pass_overhead=3e-9 + probe * 1e-12),
                    )
                    if status == 429:
                        break
                    time.sleep(0.02)
                assert status == 429
                assert body["error"]["retry_after_s"] >= 1.8
                # max(1, ceil(ewma / 1 slot)) with >= 1.8 s of work.
                assert int(headers["retry-after"]) >= 2
                assert int(headers["retry-after"]) == max(
                    1, math.ceil(body["error"]["retry_after_s"])
                )
            finally:
                stop.set()
                leader.join(timeout=30)
            snap = service.stats_payload()["resilience"]["admission"]
            assert snap["work_ewma_s"] is not None
            assert snap["retry_after_s"] >= 1.8

    def test_full_budget_sheds_work_not_lookups(self):
        # One slow leader fills the single-slot budget for 3 s.  While
        # it runs, a fresh digest is shed, a cached digest answers from
        # the LRU and a request for the leader's own digest rides it.
        service = PlanningService(port=0, executor="thread", lru_size=32)
        service.admission = AdmissionController(max_inflight=1)
        cached = dict(SMALL_PLAN, pass_overhead=1e-9)
        slow = dict(SMALL_PLAN, pass_overhead=2e-9)
        with ServiceThread(service) as live:
            assert request_raw(live, "POST", "/v1/plan", cached)[0] == 200
            faultinject.install("slow-worker:rate=1,limit=1,delay_ms=3000")
            results = {}
            leader = threading.Thread(
                target=lambda: results.update(
                    leader=request_raw(live, "POST", "/v1/plan", slow)
                )
            )
            leader.start()
            try:
                deadline = time.monotonic() + 10
                while not service.admission.snapshot()["inflight"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                status, body, headers = request_raw(
                    live, "POST", "/v1/plan",
                    dict(SMALL_PLAN, pass_overhead=3e-9),
                )
                assert status == 429
                assert int(headers["retry-after"]) >= 1
                status, body, _ = request_raw(live, "POST", "/v1/plan", cached)
                assert (status, body["meta"]["cache"]) == (200, "lru")
                status, rider, _ = request_raw(live, "POST", "/v1/plan", slow)
                assert (status, rider["meta"]["cache"]) == (200, "coalesced")
            finally:
                leader.join(timeout=30)
            status, body, _ = results["leader"]
            assert (status, body["meta"]["cache"]) == (200, "computed")
            assert body["result"] == rider["result"]
            stats = service.stats_payload()
            assert stats["resilience"]["shed"] == 1
            assert stats["resilience"]["admission"]["shed_by_class"] == {
                "/v1/plan": 1
            }
            assert stats["computed"] == 2
            assert stats["coalesced"] == 1


class TestObservability:
    def test_stats_and_healthz_expose_resilience(self):
        service = PlanningService(port=0, executor="thread", lru_size=32)
        with ServiceThread(service) as live:
            status, health, _ = request_raw(live, "GET", "/healthz")
            assert status == 200
            assert health["breaker"] == "closed"
            status, stats, _ = request_raw(live, "GET", "/stats")
            assert status == 200
            resilience = stats["resilience"]
            assert resilience["breaker"]["state"] == "closed"
            assert resilience["breaker"]["degraded_since"] is None
            assert resilience["breaker"]["recovery_attempts"] == 0
            assert resilience["admission"]["max_inflight"] == 64
            assert resilience["faults"] == {}
            assert stats["disk"]["enabled"] is False

    def test_degradation_surfaces_in_stats(self):
        service = PlanningService(port=0, executor="thread", lru_size=32)
        service.breaker.record_failure("injected for the test")
        with ServiceThread(service) as live:
            _, health, _ = request_raw(live, "GET", "/healthz")
            assert health["breaker"] == "open"
            _, stats, _ = request_raw(live, "GET", "/stats")
            breaker = stats["resilience"]["breaker"]
            assert breaker["state"] == "open"
            assert breaker["trips"] == 1
            assert breaker["degraded_since"] >= 0.0
            assert breaker["retry_in_s"] is not None
            assert breaker["last_failure"] == "injected for the test"

    def test_armed_faults_visible_in_stats(self):
        faultinject.install("slow-worker:rate=0.5,delay_ms=10")
        service = PlanningService(port=0, executor="thread", lru_size=32)
        with ServiceThread(service) as live:
            _, stats, _ = request_raw(live, "GET", "/stats")
            assert stats["resilience"]["faults"] == {
                "slow-worker": {"rate": 0.5, "events": 0, "fires": 0}
            }
