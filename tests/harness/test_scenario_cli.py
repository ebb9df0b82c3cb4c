"""Golden-output tests for ``repro-experiments scenarios``."""

import json
import re

import pytest

from repro.harness.cli import main
from repro.harness.experiments import KNOWN_METHODS
from repro.scenarios import BUILTIN_SCENARIOS

#: A configuration small enough for interactive test runs.
SMALL = [
    "--devices", "4", "--vocab", "32k", "--microbatches", "8",
    "--samples", "16",
]


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestList:
    def test_lists_every_builtin(self, capsys):
        out = run_cli(capsys, "scenarios", "list")
        for name in BUILTIN_SCENARIOS:
            assert name in out

    def test_json_mode(self, capsys):
        payload = json.loads(run_cli(capsys, "scenarios", "list", "--format", "json"))
        assert {entry["name"] for entry in payload} >= set(BUILTIN_SCENARIOS)


class TestDescribe:
    def test_describe_shows_knobs_and_speeds(self, capsys):
        out = run_cli(
            capsys, "scenarios", "describe", "--scenario", "slow-node",
            "--devices", "12",
        )
        assert "slow-node" in out
        assert "0.75" in out
        assert "device speeds at p=12" in out

    def test_describe_requires_scenario(self):
        with pytest.raises(SystemExit, match="--scenario is required"):
            main(["scenarios", "describe"])

    def test_unknown_scenario_is_an_error(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenarios", "describe", "--scenario", "nope"])


class TestCompare:
    def test_golden_reproducible_and_complete(self, capsys):
        """Fixed seed ⇒ byte-identical output, all 8 families ranked."""
        argv = ["scenarios", "compare", "--scenario", "slow-node",
                "--seed", "7", *SMALL]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        for method in KNOWN_METHODS:
            assert method in first
        assert "ranked by p95" in first

    def test_json_ranked_by_p95(self, capsys):
        payload = json.loads(
            run_cli(
                capsys, "scenarios", "compare", "--scenario", "high-jitter",
                "--format", "json", *SMALL,
            )
        )
        assert payload["scenario"] == "high-jitter"
        assert payload["samples"] == 16
        methods = [entry["method"] for entry in payload["ranked"]]
        assert sorted(methods) == sorted(KNOWN_METHODS)
        p95s = [entry["p95_time"] for entry in payload["ranked"]]
        assert p95s == sorted(p95s)
        assert not payload["skipped"]

    def test_seed_changes_stats_not_structure(self, capsys):
        base = ["scenarios", "compare", "--scenario", "high-jitter",
                "--format", "json", *SMALL]
        a = json.loads(run_cli(capsys, *base, "--seed", "1"))
        b = json.loads(run_cli(capsys, *base, "--seed", "2"))
        assert a != b
        assert {e["method"] for e in a["ranked"]} == {
            e["method"] for e in b["ranked"]
        }


class TestRun:
    def test_single_method_table(self, capsys):
        out = run_cli(
            capsys, "scenarios", "run", "--scenario", "mixed-sku",
            "--method", "vocab-2", *SMALL,
        )
        assert "vocab-2" in out
        assert "p95(s)" in out

    def test_unknown_method_is_an_error(self):
        with pytest.raises(SystemExit, match="unknown method"):
            main(["scenarios", "run", "--scenario", "mixed-sku",
                  "--method", "vocab-9", *SMALL])


class TestInvalidNumbers:
    """Invalid counts exit with the service's field message, not a traceback."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["run", "--scenario", "slow-node", "--samples", "0"],
                "scenarios run: error: field 'samples' must be positive, got 0",
            ),
            (
                ["compare", "--scenario", "slow-node", "--devices", "0"],
                "scenarios compare: error: field 'devices' must be positive, got 0",
            ),
            (
                ["describe", "--scenario", "slow-node", "--microbatches", "0"],
                "scenarios describe: error: field 'microbatches' must be "
                "positive, got 0",
            ),
        ],
        ids=["run-samples", "compare-devices", "describe-microbatches"],
    )
    def test_error_exit(self, argv, message):
        with pytest.raises(SystemExit, match=re.escape(message)):
            main(["scenarios", *argv])
