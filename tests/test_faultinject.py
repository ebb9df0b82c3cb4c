"""Deterministic fault injection: spec parsing and stream behaviour.

The chaos suite (``tools/loadtest_service.py --chaos``) can only
assert exact outcomes because the injector is a pure function of its
spec — these tests pin that contract down.
"""

import pytest

from repro import faultinject
from repro.faultinject import (
    ENV_VAR,
    KNOWN_SITES,
    Fault,
    FaultInjector,
    corrupt_bytes,
    parse_spec,
)


@pytest.fixture(autouse=True)
def disarm():
    """Never leak an armed process-wide injector into other tests."""
    faultinject.reset()
    yield
    faultinject.reset()


def fire_pattern(injector: FaultInjector, site: str, n: int) -> list[bool]:
    return [injector.should_fire(site) for _ in range(n)]


class TestParseSpec:
    def test_bare_site_fires_every_event(self):
        injector = parse_spec("slow-worker")
        assert fire_pattern(injector, "slow-worker", 5) == [True] * 5

    def test_full_clause(self):
        injector = parse_spec(
            "slow-worker:rate=0.5,seed=7,after=2,limit=3,delay_ms=150"
        )
        fault = injector.fault("slow-worker")
        assert fault == Fault(
            "slow-worker", rate=0.5, seed=7, after=2, limit=3, delay_ms=150.0
        )

    def test_multiple_clauses_and_whitespace(self):
        injector = parse_spec(
            " slow-worker : rate=1 ; torn-cache-write : seed=3 ; "
        )
        assert injector.fault("slow-worker") is not None
        assert injector.fault("torn-cache-write").seed == 3
        assert injector.fault("corrupt-cache-entry") is None

    def test_empty_spec_is_disarmed(self):
        injector = parse_spec("")
        assert not injector
        assert not injector.should_fire("slow-worker")

    @pytest.mark.parametrize(
        "spec",
        [
            "definitely-not-a-site",  # unknown site
            "slow-worker:rate=2",  # rate out of range
            "slow-worker:rate=abc",  # malformed value
            "slow-worker:bogus=1",  # unknown option
            "slow-worker:rate",  # not key=value
            "slow-worker:after=-1",  # negative skip
            "slow-worker:limit=0",  # limit below 1
            "slow-worker;slow-worker",  # duplicate site
        ],
    )
    def test_bad_specs_are_rejected_loudly(self, spec):
        with pytest.raises(ValueError):
            parse_spec(spec)

    def test_unknown_site_error_names_token_and_valid_sites(self):
        with pytest.raises(ValueError) as excinfo:
            parse_spec("slow-worker:rate=1;kill-pool-wroker:rate=1")
        message = str(excinfo.value)
        assert "\n" not in message  # one line, greppable in startup logs
        assert "'kill-pool-wroker'" in message
        for site in KNOWN_SITES:
            assert site in message

    def test_swapped_separator_gets_a_hint(self):
        # `site=rate...` instead of `site:rate...` — the whole clause
        # parses as one unknown "site"; the error should say so.
        with pytest.raises(ValueError, match="did you swap '='"):
            parse_spec("slow-worker=rate:1")

    def test_unknown_option_error_names_key_and_site(self):
        with pytest.raises(ValueError) as excinfo:
            parse_spec("kill-pool-worker:bogus=1")
        message = str(excinfo.value)
        assert "'bogus'" in message and "'kill-pool-worker'" in message
        assert "rate/seed/after/limit/delay_ms" in message

    def test_malformed_value_error_names_value_key_and_site(self):
        with pytest.raises(ValueError) as excinfo:
            parse_spec("slow-worker:delay_ms=fast")
        message = str(excinfo.value)
        assert "'fast'" in message
        assert "'delay_ms'" in message
        assert "'slow-worker'" in message

    @pytest.mark.parametrize("site", KNOWN_SITES)
    def test_every_known_site_parses_with_all_options(self, site):
        injector = parse_spec(
            f"{site}:rate=0.5,seed=4,after=1,limit=2,delay_ms=900"
        )
        assert injector.fault(site) == Fault(
            site, rate=0.5, seed=4, after=1, limit=2, delay_ms=900.0
        )
        assert [other for other in KNOWN_SITES if injector.fault(other)] == [
            site
        ]


class TestDeterminism:
    def test_same_spec_same_schedule(self):
        spec = "corrupt-cache-entry:rate=0.4,seed=11"
        first = fire_pattern(parse_spec(spec), "corrupt-cache-entry", 200)
        second = fire_pattern(parse_spec(spec), "corrupt-cache-entry", 200)
        assert first == second
        assert any(first) and not all(first)  # a real 0<rate<1 stream

    def test_seed_changes_schedule(self):
        a = fire_pattern(
            parse_spec("slow-worker:rate=0.5,seed=1"), "slow-worker", 200
        )
        b = fire_pattern(
            parse_spec("slow-worker:rate=0.5,seed=2"), "slow-worker", 200
        )
        assert a != b

    def test_sites_sharing_a_seed_draw_independent_streams(self):
        injector = parse_spec(
            "torn-cache-write:rate=0.5,seed=9;"
            "corrupt-cache-entry:rate=0.5,seed=9"
        )
        torn = fire_pattern(injector, "torn-cache-write", 200)
        corrupt = fire_pattern(injector, "corrupt-cache-entry", 200)
        assert torn != corrupt

    def test_rate_is_roughly_honoured(self):
        fired = fire_pattern(
            parse_spec("slow-worker:rate=0.25,seed=3"), "slow-worker", 2000
        )
        assert 0.15 < sum(fired) / len(fired) < 0.35


class TestAfterAndLimit:
    def test_after_skips_leading_events(self):
        injector = parse_spec("kill-pool-worker:rate=1,after=3")
        assert fire_pattern(injector, "kill-pool-worker", 6) == [
            False, False, False, True, True, True,
        ]

    def test_limit_caps_total_fires(self):
        injector = parse_spec("kill-pool-worker:rate=1,limit=2")
        fired = fire_pattern(injector, "kill-pool-worker", 10)
        assert fired == [True, True] + [False] * 8

    def test_snapshot_counts_events_and_fires(self):
        injector = parse_spec("kill-pool-worker:rate=1,after=1,limit=1")
        fire_pattern(injector, "kill-pool-worker", 5)
        snap = injector.snapshot()
        assert snap["kill-pool-worker"] == {
            "rate": 1.0, "events": 5, "fires": 1,
        }

    def test_disarmed_site_keeps_no_state(self):
        injector = parse_spec("slow-worker")
        assert not injector.should_fire("torn-cache-write")
        assert "torn-cache-write" not in injector.snapshot()


class TestProcessWideInjector:
    def test_install_and_reset(self):
        faultinject.install("slow-worker:limit=1")
        assert faultinject.should_fire("slow-worker")
        assert not faultinject.should_fire("slow-worker")
        faultinject.reset()
        assert not faultinject.should_fire("slow-worker")

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "torn-cache-write:rate=1,limit=1")
        faultinject.reset()  # forget any cached resolution
        assert faultinject.should_fire("torn-cache-write")
        assert not faultinject.should_fire("torn-cache-write")

    def test_install_accepts_injector_instance(self):
        injector = FaultInjector((Fault("slow-worker"),))
        assert faultinject.install(injector) is injector
        assert faultinject.get_injector() is injector


class TestCorruptBytes:
    def test_flips_exactly_one_byte_deterministically(self):
        payload = bytes(range(64))
        mutated = corrupt_bytes(payload, seed=5)
        assert mutated != payload
        assert len(mutated) == len(payload)
        diffs = [i for i, (a, b) in enumerate(zip(payload, mutated)) if a != b]
        assert len(diffs) == 1
        assert corrupt_bytes(payload, seed=5) == mutated

    def test_empty_payload_is_untouched(self):
        assert corrupt_bytes(b"") == b""


def test_known_sites_is_the_documented_set():
    assert KNOWN_SITES == (
        "kill-pool-worker",
        "slow-worker",
        "corrupt-cache-entry",
        "torn-cache-write",
        "drop-connection-mid-response",
    )
