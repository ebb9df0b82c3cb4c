"""Contract tests for ``POST /v1/whatif``: validation, digests, tiers.

Mirrors the ``/v1/plan`` contract: strict request validation (unknown
fields are a 400, never silently ignored), the request digest is the
planner's own what-if cache key, concurrent duplicates coalesce into
one computation with bit-identical bodies, and every tier shows up in
``GET /stats``.
"""

import asyncio
import http.client
import json
import threading

import pytest

from repro.config import ParallelConfig
from repro.planner.sweep import model_for_devices
from repro.planner.whatif import whatif
from repro.service import (
    PlanningService,
    RequestError,
    ServiceThread,
    WhatifRequest,
    execute_whatif_request,
)


def request_json(service, method, path, payload=None, timeout=120.0):
    conn = http.client.HTTPConnection(service.host, service.port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def small_whatif_payload(**overrides) -> dict:
    payload = {
        "devices": 4,
        "vocab_size": "32k",
        "microbatches": 8,
        "method": "vocab-1",
        "device": -1,
        "factor": 1.3,
    }
    payload.update(overrides)
    return payload


class TestWhatifValidation:
    def test_minimal_payload_parses(self):
        request = WhatifRequest.from_payload(small_whatif_payload())
        assert request.devices == 4
        assert request.vocab_size == 32 * 1024
        assert request.seq_length == 2048  # default
        assert request.device == -1
        assert request.factor == 1.3

    def test_unknown_fields_rejected(self):
        with pytest.raises(RequestError, match="frobnicate"):
            WhatifRequest.from_payload(small_whatif_payload(frobnicate=1))

    def test_missing_required_fields(self):
        for missing in ("devices", "vocab_size", "method", "device", "factor"):
            payload = small_whatif_payload()
            del payload[missing]
            with pytest.raises(RequestError, match=missing):
                WhatifRequest.from_payload(payload)

    def test_type_and_range_errors(self):
        with pytest.raises(RequestError, match="'device' must be int"):
            WhatifRequest.from_payload(small_whatif_payload(device="last"))
        with pytest.raises(RequestError, match="'factor' must be"):
            WhatifRequest.from_payload(small_whatif_payload(factor="slow"))
        with pytest.raises(RequestError, match="must be positive"):
            WhatifRequest.from_payload(small_whatif_payload(factor=0))
        # bool is not an int here, even though Python says it is.
        with pytest.raises(RequestError, match="'device'"):
            WhatifRequest.from_payload(small_whatif_payload(device=True))

    def test_device_out_of_range(self):
        with pytest.raises(RequestError, match=r"device must be in \[-4, 4\)"):
            WhatifRequest.from_payload(small_whatif_payload(device=4))
        with pytest.raises(RequestError, match="device"):
            WhatifRequest.from_payload(small_whatif_payload(device=-5))

    def test_unknown_method_and_scenario(self):
        with pytest.raises(RequestError, match="unknown method"):
            WhatifRequest.from_payload(small_whatif_payload(method="nope"))
        with pytest.raises(RequestError, match="unknown scenario"):
            WhatifRequest.from_payload(small_whatif_payload(scenario="nope"))

    def test_non_object_body_rejected(self):
        with pytest.raises(RequestError, match="JSON object"):
            WhatifRequest.from_payload([1, 2, 3])


class TestNonFiniteNumbers:
    """``json.loads`` accepts the ``NaN``/``Infinity`` tokens; no numeric
    field may take them, and neither may the library call."""

    TOKENS = ("NaN", "Infinity", "-Infinity")

    @pytest.mark.parametrize("token", TOKENS)
    def test_payload_tokens_rejected(self, token):
        for name in ("factor", "microbatches"):
            payload = json.loads(
                json.dumps(small_whatif_payload(**{name: 1})).replace(
                    f'"{name}": 1', f'"{name}": {token}'
                )
            )
            with pytest.raises(RequestError, match=f"'{name}' must be"):
                WhatifRequest.from_payload(payload)

    @pytest.mark.parametrize("factor", (float("nan"), float("inf")))
    def test_library_call_rejects(self, factor):
        with pytest.raises(ValueError, match="finite"):
            whatif(
                model_for_devices(4, 2048, 32 * 1024),
                ParallelConfig(pipeline_size=4, num_microbatches=8),
                method="vocab-1",
                device=-1,
                factor=factor,
            )


class TestWhatifDigest:
    def test_digest_matches_planner_cache_key(self):
        """The normative tiered-cache property: the request digest is
        exactly the key the planner stamps on its WhatifResult."""
        request = WhatifRequest.from_payload(small_whatif_payload())
        result = execute_whatif_request(request)
        assert request.digest() == result["cache_key"]

    def test_digest_matches_planner_cache_key_with_scenario(self):
        request = WhatifRequest.from_payload(
            small_whatif_payload(scenario="slow-node")
        )
        result = execute_whatif_request(request)
        assert request.digest() == result["cache_key"]

    def test_negative_device_normalizes(self):
        last = WhatifRequest.from_payload(small_whatif_payload(device=-1))
        explicit = WhatifRequest.from_payload(small_whatif_payload(device=3))
        assert last.digest() == explicit.digest()

    def test_digest_keyed_on_perturbation(self):
        base = WhatifRequest.from_payload(small_whatif_payload())
        device = WhatifRequest.from_payload(small_whatif_payload(device=0))
        factor = WhatifRequest.from_payload(small_whatif_payload(factor=2.0))
        method = WhatifRequest.from_payload(
            small_whatif_payload(method="baseline")
        )
        assert len(
            {base.digest(), device.digest(), factor.digest(), method.digest()}
        ) == 4

    def test_digest_keyed_on_scenario_signature(self):
        nominal = WhatifRequest.from_payload(small_whatif_payload())
        slow = WhatifRequest.from_payload(
            small_whatif_payload(scenario="slow-node")
        )
        assert nominal.digest() != slow.digest()


class TestWhatifEndpoint:
    @pytest.fixture(scope="class")
    def live(self):
        service = PlanningService(port=0, executor="thread", lru_size=32)
        with ServiceThread(service) as running:
            yield running

    def test_computed_then_lru(self, live):
        payload = small_whatif_payload()
        status, first = request_json(live, "POST", "/v1/whatif", payload)
        assert status == 200
        assert first["api_version"] == 1
        assert first["meta"]["cache"] in ("computed", "lru")
        body = first["result"]
        assert body["cache_key"] == first["meta"]["digest"]
        assert body["whatif_time"] > body["baseline_time"]
        assert body["slowdown"] > 1.0
        assert body["support"] > 0
        status, second = request_json(live, "POST", "/v1/whatif", payload)
        assert status == 200
        assert second["meta"]["cache"] == "lru"
        assert second["result"] == body

    def test_unknown_field_is_400(self, live):
        status, body = request_json(
            live, "POST", "/v1/whatif", small_whatif_payload(bogus=1)
        )
        assert status == 400
        assert "bogus" in body["error"]["message"]

    @pytest.mark.parametrize("factor", (float("nan"), float("inf")))
    def test_non_finite_factor_is_400(self, live, factor):
        # json.dumps writes these as the bare NaN / Infinity tokens.
        status, body = request_json(
            live, "POST", "/v1/whatif", small_whatif_payload(factor=factor)
        )
        assert status == 400
        assert "'factor' must be finite" in body["error"]["message"]

    def test_non_finite_deadline_is_400(self, live):
        status, body = request_json(
            live, "POST", "/v1/whatif",
            small_whatif_payload(deadline_ms=float("nan")),
        )
        assert status == 400
        assert "deadline_ms" in body["error"]["message"]

    def test_speedup_factor_below_one(self, live):
        status, body = request_json(
            live, "POST", "/v1/whatif",
            small_whatif_payload(device=0, factor=0.5),
        )
        assert status == 200
        assert body["result"]["slowdown"] <= 1.0

    def test_stats_counters(self, live):
        request_json(live, "POST", "/v1/whatif", small_whatif_payload())
        status, stats = request_json(live, "GET", "/stats")
        assert status == 200
        assert stats["requests"]["/v1/whatif"] >= 1
        assert stats["computed"] >= 1
        assert stats["lru"]["hits"] >= 1


class TestWhatifCoalescing:
    def test_concurrent_duplicates_coalesce(self):
        """K concurrent identical what-ifs run exactly one computation
        and every caller receives a bit-identical body."""
        service = PlanningService(port=0, executor="thread")
        payload = small_whatif_payload(seq_length=1024)

        async def gather():
            return await asyncio.gather(
                *[service._post("/v1/whatif", payload) for _ in range(5)]
            )

        results = asyncio.run(gather())
        assert service.stats.computed == 1
        assert service.stats.coalesced == 4
        tiers = sorted(r["meta"]["cache"] for r in results)
        assert tiers == ["coalesced"] * 4 + ["computed"]
        bodies = {json.dumps(r["result"], sort_keys=True) for r in results}
        assert len(bodies) == 1

    def test_coalesced_over_http_burst(self):
        service = PlanningService(port=0, executor="thread")
        with ServiceThread(service) as live:
            payload = small_whatif_payload(seq_length=512)
            barrier = threading.Barrier(4)
            results = []
            lock = threading.Lock()

            def worker():
                barrier.wait()
                result = request_json(live, "POST", "/v1/whatif", payload)
                with lock:
                    results.append(result)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(status == 200 for status, _ in results)
            assert service.stats.computed == 1
            bodies = {
                json.dumps(body["result"], sort_keys=True)
                for _, body in results
            }
            assert len(bodies) == 1

    def test_distinct_requests_do_not_coalesce(self):
        service = PlanningService(port=0, executor="thread")
        a = small_whatif_payload()
        b = small_whatif_payload(factor=2.0)

        async def gather():
            return await asyncio.gather(
                service._post("/v1/whatif", a), service._post("/v1/whatif", b)
            )

        results = asyncio.run(gather())
        assert service.stats.computed == 2
        assert service.stats.coalesced == 0
        assert results[0]["meta"]["digest"] != results[1]["meta"]["digest"]


class TestWhatifDiskTier:
    def test_disk_tier_survives_restart(self, tmp_path):
        cache_dir = str(tmp_path / "plans")
        payload = small_whatif_payload()
        first = PlanningService(port=0, executor="thread", cache_dir=cache_dir)
        result = asyncio.run(first._post("/v1/whatif", payload))
        assert result["meta"]["cache"] == "computed"

        # A fresh service instance (cold LRU) finds the entry on disk.
        second = PlanningService(
            port=0, executor="thread", cache_dir=cache_dir
        )
        again = asyncio.run(second._post("/v1/whatif", payload))
        assert again["meta"]["cache"] == "disk"
        assert again["result"] == result["result"]
        assert second.stats.computed == 0
        third = asyncio.run(second._post("/v1/whatif", payload))
        assert third["meta"]["cache"] == "lru"
