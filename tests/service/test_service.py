"""End-to-end planning service: HTTP, tiers, coalescing, shutdown.

All tests run the service with the thread executor (process pools are
covered by CI's service-smoke job via ``tools/loadtest_service.py``,
and are not reliably available in restricted sandboxes); the worker
leak check alone drives a real process pool, and skips without one.
"""

import asyncio
import http.client
import json
import logging
import threading
import time

import pytest

from repro.planner.sweep import get_pool
from repro.service import (
    PlanningService,
    PlanRequest,
    ServiceThread,
    execute_plan_request,
    shutdown_and_check_workers,
)

SMALL_PLAN = {
    "devices": 4,
    "vocab_size": "32k",
    "microbatches": 8,
    "simulate_top_k": 1,
}


def request_json(service, method, path, payload=None, timeout=120.0):
    conn = http.client.HTTPConnection(service.host, service.port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.fixture(scope="module")
def live():
    """One shared thread-hosted service for the HTTP surface tests."""
    service = PlanningService(port=0, executor="thread", lru_size=32)
    with ServiceThread(service) as running:
        yield running


class TestHttpSurface:
    def test_healthz(self, live):
        status, body = request_json(live, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0

    def test_plan_computed_then_lru(self, live):
        status, first = request_json(live, "POST", "/v1/plan", SMALL_PLAN)
        assert status == 200
        # module-shared server: either tier is legal for the opener
        assert first["api_version"] == 1
        assert first["meta"]["cache"] in ("computed", "lru")
        assert first["meta"]["timings"]["total_ms"] >= 0
        assert first["result"]["best"] is not None
        assert first["result"]["cache_key"] == first["meta"]["digest"]
        status, second = request_json(live, "POST", "/v1/plan", SMALL_PLAN)
        assert status == 200
        assert second["meta"]["cache"] == "lru"
        assert second["result"] == first["result"]

    def test_plan_rejects_bad_payload(self, live):
        status, body = request_json(
            live, "POST", "/v1/plan", dict(SMALL_PLAN, bogus=1)
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "bogus" in body["error"]["message"]

    @pytest.mark.parametrize(
        "path, fields, message",
        [
            ("/v1/plan", {"methods": []}, "at least one method"),
            ("/v1/plan", {"methods": ["vocab-1", "vocab-1"]}, "more than once"),
            ("/v1/optimize", {"methods": []}, "at least one method"),
        ],
    )
    def test_invalid_constraints_are_bad_requests(self, live, path, fields, message):
        payload = {"devices": 4, "vocab_size": "32k", "microbatches": 8, **fields}
        status, body = request_json(live, "POST", path, payload)
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert message in body["error"]["message"]

    def test_plan_rejects_malformed_json(self, live):
        conn = http.client.HTTPConnection(live.host, live.port, timeout=30)
        try:
            conn.request("POST", "/v1/plan", body="{not json")
            response = conn.getresponse()
            assert response.status == 400
            assert "JSON" in json.loads(response.read())["error"]["message"]
        finally:
            conn.close()

    def test_unknown_route_404_lists_routes(self, live):
        status, body = request_json(live, "GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert {"method": "POST", "path": "/v1/plan"} in body["error"]["routes"]

    def test_wrong_method_405(self, live):
        status, body = request_json(live, "GET", "/v1/plan")
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"
        assert body["error"]["allowed"] == ["POST"]

    def test_sweep_endpoint(self, live):
        status, body = request_json(
            live,
            "POST",
            "/v1/sweep",
            {
                "devices": [4],
                "vocab_sizes": ["32k"],
                "microbatches": [8],
                "memory_budgets_gib": [40.0, 80.0],
                "simulate_top_k": 1,
            },
        )
        assert status == 200
        points = body["result"]["points"]
        assert len(points) == 2
        assert [p["memory_budget_gib"] for p in points] == [40.0, 80.0]
        assert all(p["best"] is not None for p in points)

    def test_scenarios_endpoint(self, live):
        status, body = request_json(
            live,
            "POST",
            "/v1/scenarios",
            {
                "scenario": "slow-node",
                "method": "vocab-1",
                "devices": 4,
                "vocab_size": "32k",
                "microbatches": 8,
                "samples": 8,
            },
        )
        assert status == 200
        ranked = body["result"]["ranked"]
        assert [r["method"] for r in ranked] == ["vocab-1"]
        assert ranked[0]["p95_time"] >= ranked[0]["p50_time"]

    def test_stats_counters(self, live):
        request_json(live, "POST", "/v1/plan", SMALL_PLAN)
        status, stats = request_json(live, "GET", "/stats")
        assert status == 200
        assert stats["requests"]["/v1/plan"] >= 1
        assert stats["computed"] >= 1
        assert stats["lru"]["hits"] >= 1
        assert stats["executor"]["kind"] == "thread"
        assert stats["disk"] == {"enabled": False}

    def test_benchmark_driver_contract(self, live):
        # Exactly what perfbench/service.py reads from the service: a
        # trim that drops one of these breaks the serve-mixed workload.
        status, body = request_json(live, "POST", "/v1/plan", SMALL_PLAN)
        assert status == 200
        meta = body["meta"]
        assert isinstance(meta["digest"], str)
        assert meta["cache"] in ("computed", "lru", "coalesced", "disk")
        assert isinstance(meta["timings"]["total_ms"], float)
        stats = live.stats_payload()
        for count in (
            stats["lru"]["hits"], stats["lru"]["misses"], stats["computed"],
            stats["coalesced"], stats["resilience"]["shed"],
        ):
            assert isinstance(count, int)

    def test_keep_alive_connection_reuse(self, live):
        conn = http.client.HTTPConnection(live.host, live.port, timeout=30)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()


class TestCoalescing:
    def run_concurrent(self, service, payload, copies):
        """Dispatch N identical requests on one event loop."""

        async def one():
            return await service._post("/v1/plan", payload)

        async def gather():
            return await asyncio.gather(*[one() for _ in range(copies)])

        return asyncio.run(gather())

    def test_k_identical_requests_one_plan(self):
        """Coalescing determinism: K concurrent identical requests
        perform exactly one plan and return bit-identical plans."""
        service = PlanningService(port=0, executor="thread")
        payload = dict(SMALL_PLAN, seq_length=1024)
        results = self.run_concurrent(service, payload, copies=5)
        assert service.stats.computed == 1
        assert service.stats.coalesced == 4
        tiers = sorted(r["meta"]["cache"] for r in results)
        assert tiers == ["coalesced"] * 4 + ["computed"]
        bodies = {json.dumps(r["result"], sort_keys=True) for r in results}
        assert len(bodies) == 1

    def test_coalesced_over_http_burst(self):
        service = PlanningService(port=0, executor="thread")
        with ServiceThread(service) as live:
            payload = dict(SMALL_PLAN, seq_length=512)
            barrier = threading.Barrier(4)
            results = []
            lock = threading.Lock()

            def worker():
                barrier.wait()
                result = request_json(live, "POST", "/v1/plan", payload)
                with lock:
                    results.append(result)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(status == 200 for status, _ in results)
            # However the burst interleaved, the plan ran exactly once.
            assert service.stats.computed == 1
            bodies = {
                json.dumps(body["result"], sort_keys=True)
                for _, body in results
            }
            assert len(bodies) == 1

    def test_distinct_requests_do_not_coalesce(self):
        service = PlanningService(port=0, executor="thread")
        a = dict(SMALL_PLAN)
        b = dict(SMALL_PLAN, memory_budget_gib=40.0)

        async def gather():
            return await asyncio.gather(
                service._post("/v1/plan", a), service._post("/v1/plan", b)
            )

        results = asyncio.run(gather())
        assert service.stats.computed == 2
        assert service.stats.coalesced == 0
        assert results[0]["meta"]["digest"] != results[1]["meta"]["digest"]


class TestDiskTier:
    def test_disk_tier_survives_restart(self, tmp_path):
        cache_dir = str(tmp_path / "plans")
        first = PlanningService(
            port=0, executor="thread", cache_dir=cache_dir
        )
        result = asyncio.run(first._post("/v1/plan", SMALL_PLAN))
        assert result["meta"]["cache"] == "computed"

        # A fresh service instance (cold LRU) finds the entry on disk.
        second = PlanningService(
            port=0, executor="thread", cache_dir=cache_dir
        )
        again = asyncio.run(second._post("/v1/plan", SMALL_PLAN))
        assert again["meta"]["cache"] == "disk"
        assert again["result"] == result["result"]
        assert second.stats.computed == 0
        # And the LRU now fronts the disk entry.
        third = asyncio.run(second._post("/v1/plan", SMALL_PLAN))
        assert third["meta"]["cache"] == "lru"


class TestShutdown:
    def test_post_shutdown_stops_server(self):
        service = PlanningService(port=0, executor="thread")
        handle = ServiceThread(service)
        live = handle.__enter__()
        try:
            status, body = request_json(live, "POST", "/shutdown")
            assert status == 200
            assert body["status"] == "shutting-down"
            handle._thread.join(timeout=30.0)
            assert not handle._thread.is_alive()
            with pytest.raises(OSError):
                request_json(live, "GET", "/healthz", timeout=5.0)
        finally:
            handle.__exit__(None, None, None)

    def test_idle_keep_alive_connection_does_not_stall_shutdown(self, caplog):
        """A client holding an idle keep-alive connection is closed at
        once, not drained until its timeout, and nothing is logged."""
        service = PlanningService(port=0, executor="thread")
        handle = ServiceThread(service)
        live = handle.__enter__()
        idle = http.client.HTTPConnection(live.host, live.port, timeout=30)
        try:
            with caplog.at_level(logging.WARNING):
                idle.request("GET", "/healthz")
                response = idle.getresponse()
                assert response.status == 200
                response.read()  # the connection stays open, idle
                started = time.monotonic()
                status, _ = request_json(live, "POST", "/shutdown")
                assert status == 200
                handle._thread.join(timeout=30.0)
                elapsed = time.monotonic() - started
            assert not handle._thread.is_alive()
            assert elapsed < 5.0, f"shutdown took {elapsed:.1f}s"
            assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        finally:
            idle.close()
            handle.__exit__(None, None, None)

    def test_process_pool_teardown_reports_no_leaked_workers(self):
        """The leak check must not race the executor's own reaping of
        workers that already exited cleanly."""
        request = PlanRequest.from_payload(SMALL_PLAN)
        for _ in range(20):
            pool = get_pool("process", 2)
            if pool is None:
                pytest.skip("process pools are unavailable here")
            futures = [
                pool.submit(execute_plan_request, request) for _ in range(2)
            ]
            for future in futures:
                future.result(timeout=120)
            assert shutdown_and_check_workers() == 0

    def test_busy_worker_is_reported_within_the_join_timeout(self, capsys):
        """A worker still computing at shutdown is reported as leaked
        once the join timeout runs out, not waited for."""
        pool = get_pool("process", 1)
        if pool is None:
            pytest.skip("process pools are unavailable here")
        future = pool.submit(time.sleep, 3.0)
        deadline = time.monotonic() + 30.0
        while not future.running() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert future.running()
        started = time.monotonic()
        assert shutdown_and_check_workers(join_timeout_s=0.3) == 1
        assert time.monotonic() - started < 2.0
        assert "still alive after shutdown" in capsys.readouterr().err
        future.result(timeout=30)

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            PlanningService(executor="carrier-pigeon")
