"""The user documentation must exist and stay internally consistent."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_checker():
    """Import tools/check_docs_links.py as a module (tools/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "check_docs_links", REPO / "tools" / "check_docs_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_pages_exist():
    assert (REPO / "README.md").is_file()
    assert (REPO / "docs" / "architecture.md").is_file()
    assert (REPO / "docs" / "schedules.md").is_file()
    assert (REPO / "docs" / "scenarios.md").is_file()
    assert (REPO / "docs" / "performance.md").is_file()
    assert (REPO / "docs" / "service.md").is_file()


def test_docs_link_checker_passes():
    result = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs_links.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_scenario_gallery_is_generated_and_current():
    """The docs/scenarios.md gallery is simulator output: regenerating it
    must be a no-op, so a hand-edited or stale gallery fails here."""
    result = subprocess.run(
        [
            sys.executable,
            str(REPO / "tools" / "gen_scenario_gallery.py"),
            "--check",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_readme_documents_every_subcommand():
    from repro.harness.cli import SUBCOMMANDS

    text = (REPO / "README.md").read_text() + (
        REPO / "docs" / "schedules.md"
    ).read_text()
    for name in (
        "fig2", "table5", "table6", "schedules", "plan", "scenarios", "serve"
    ):
        assert name in SUBCOMMANDS and name in text


def test_readme_quickstart_commands_run():
    """The README's first CLI command works exactly as written."""
    from repro.harness.cli import main

    assert main(["fig2"]) == 0


class TestCheckerCatchesDrift:
    """The extended checker must actually flag stale CLI/API mentions."""

    def check_text(self, tmp_path, text: str) -> list[str]:
        """Run the real check_file over a synthetic page, minus the
        file-reference checks (a tmp page can't resolve repo paths)."""
        checker = load_checker()
        page = tmp_path / "page.md"
        page.write_text(text)
        problems = checker.check_file(
            page,
            checker.cli_surface(),
            checker.known_callables(),
            checker.service_routes(),
        )
        return [p for p in problems if "missing file reference" not in p]

    def test_cli_surface_covers_all_subcommands(self):
        checker = load_checker()
        from repro.harness.cli import SUBCOMMANDS

        cli = checker.cli_surface()
        assert set(cli) == set(SUBCOMMANDS)
        assert "--scenario" in cli["plan"]
        assert "--samples" in cli["scenarios"]

    def test_flags_unknown_subcommand_and_option(self, tmp_path):
        problems = self.check_text(
            tmp_path,
            "Run `repro-experiments scenariosz list` or\n"
            "`repro-experiments plan --devices 8 --frobnicate`.\n",
        )
        assert any("scenariosz" in p for p in problems)
        assert any("--frobnicate" in p for p in problems)

    def test_accepts_valid_cli_usage(self, tmp_path):
        problems = self.check_text(
            tmp_path,
            "`repro-experiments scenarios compare --scenario slow-node "
            "--samples 64 --format json`\n",
        )
        assert problems == []

    def test_flags_request_field_missing_from_service_section(self):
        checker = load_checker()
        fields = {"/v1/plan": ("devices", "vocab_size", "cost_model")}
        text = (
            "### `POST /v1/plan`\n\n"
            '```json\n{"devices": 8, "vocab_size": "128k"}\n```\n\n'
            "### `POST /v1/sweep`\n\nAlso `cost_model`.\n"
        )
        problems = checker.check_request_fields(fields, text)
        assert problems == [
            "docs/service.md: `POST /v1/plan` section never names field "
            "'cost_model'"
        ]
        assert checker.check_request_fields(
            fields, text.replace('"vocab_size"', '"vocab_size", "cost_model"')
        ) == []

    def test_request_fields_cover_every_planning_route(self):
        checker = load_checker()
        planning = {path for method, path in checker.service_routes()
                    if path.startswith("/v1/")}
        assert set(checker.request_fields()) == planning

    def test_flags_unknown_kwarg_in_python_block(self, tmp_path):
        problems = self.check_text(
            tmp_path,
            "```python\n"
            "from repro.planner import plan\n"
            "plan(model, parallel, scenario='slow-node', frobnicate=3)\n"
            "```\n",
        )
        assert any("frobnicate" in p for p in problems)

    def test_flags_unknown_scenario_kwarg(self, tmp_path):
        problems = self.check_text(
            tmp_path,
            "```python\n"
            "from repro.scenarios import ClusterScenario\n"
            "ClusterScenario(name='x', straggler_speed=0.5)\n"
            "```\n",
        )
        assert any("straggler_speed" in p for p in problems)

    def test_flags_unparseable_python_block(self, tmp_path):
        problems = self.check_text(
            tmp_path, "```python\nplan(model,, parallel)\n```\n"
        )
        assert any("does not parse" in p for p in problems)

    def test_flags_unknown_http_endpoint(self, tmp_path):
        problems = self.check_text(
            tmp_path,
            "Call `POST /v1/frobnicate` or `GET /healthz-extra` to plan.\n",
        )
        assert any("/v1/frobnicate" in p for p in problems)
        assert any("/healthz-extra" in p for p in problems)

    def test_flags_wrong_method_on_real_route(self, tmp_path):
        problems = self.check_text(tmp_path, "Use `GET /v1/plan`.\n")
        assert any("GET /v1/plan" in p for p in problems)

    def test_accepts_valid_endpoints(self, tmp_path):
        problems = self.check_text(
            tmp_path,
            "`POST /v1/plan`, `GET /healthz`, `GET /stats` and "
            "`POST /shutdown` are all live.\n",
        )
        assert problems == []

    def test_route_coverage_flags_undocumented_route(self):
        checker = load_checker()
        routes = checker.service_routes()
        assert ("POST", "/v1/plan") in routes
        problems = checker.check_route_coverage(
            routes, "Only `GET /healthz` is documented here.\n"
        )
        assert any("/v1/plan" in p for p in problems)
        full_text = "\n".join(
            f"`{method} {path}`" for method, path in routes
        )
        assert checker.check_route_coverage(routes, full_text) == []

    def test_accepts_valid_kwargs(self, tmp_path):
        problems = self.check_text(
            tmp_path,
            "```python\n"
            "from repro.planner import PlannerConstraints, plan\n"
            "plans = plan(model, parallel,\n"
            "             PlannerConstraints(memory_budget_gib=40.0),\n"
            "             scenario='slow-node', robustness='p95')\n"
            "```\n",
        )
        assert problems == []
