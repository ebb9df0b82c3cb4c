#!/usr/bin/env python
"""Validate the user documentation: links, files, CLI usage, API kwargs.

Checks, over ``README.md`` and every ``docs/*.md``:

* relative markdown links ``[text](target)`` resolve to files that
  exist (anchors are stripped; http(s)/mailto links are skipped);
* backticked file references like ``benchmarks/bench_planner.py``
  point at real files (paths are also tried relative to ``src/repro/``
  so module references in docs/architecture.md resolve);
* every ``repro-experiments <subcommand>`` shown in the docs names a
  real subcommand, and every ``--option`` on the same line exists on
  that subcommand — both introspected from the live argparse parser
  (:func:`repro.harness.cli.build_parser`), so the docs cannot drift
  from the CLI;
* every fenced ``python`` code block parses, and every keyword
  argument passed to a known public callable (``plan``, ``sweep``,
  ``grid``, ``ClusterScenario``, ``RobustnessObjective``, …) exists in
  that callable's real signature — so documented kwargs cannot drift
  from the API;
* every backticked HTTP endpoint (``POST /v1/plan``) names a live
  route of the planning service — introspected from
  :data:`repro.service.ROUTES` — and, conversely, every served route
  is documented in ``docs/service.md``;
* each ``### `POST /v1/<op>``` section of ``docs/service.md`` names
  every request field of that operation's spec, read from the
  service's operation table (:data:`repro.service.OPERATIONS`),
  backticked or as a JSON key.

Exit code 0 when clean, 1 with a list of problems otherwise.  Run
from the repository root (CI does)::

    PYTHONPATH=src python tools/check_docs_links.py
"""

from __future__ import annotations

import argparse
import ast
import inspect
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

LINK = re.compile(r"\[[^\]]*\]\(([^)]+)\)")
BACKTICK_PATH = re.compile(r"`([A-Za-z0-9_./-]+\.(?:py|md|toml|yml))`")
# The option tail stops at a backtick so inline-code mentions do not
# leak surrounding prose (or table-cell neighbours) into the scan.
CLI_COMMAND = re.compile(r"repro-experiments\s+([a-z0-9-]+)([^`\n]*)")
CLI_OPTION = re.compile(r"(--[a-z][a-z0-9-]*)")
PYTHON_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
# Backticked endpoint mentions like `POST /v1/plan` or `GET /healthz`.
HTTP_ENDPOINT = re.compile(r"`(GET|POST|PUT|DELETE|PATCH)\s+(/[^\s`]*)`")


def doc_files() -> list[Path]:
    """README plus every markdown page under docs/."""
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def resolves(target: str, base: Path, allow_module_paths: bool = False) -> bool:
    """Whether a referenced path exists (docs-relative or repo-relative).

    ``allow_module_paths`` additionally tries ``src/repro/<target>`` —
    only for backticked module references; markdown *links* must point
    at real files so they do not 404 when rendered.
    """
    candidates = [base.parent / target, REPO / target]
    if allow_module_paths:
        candidates.append(REPO / "src" / "repro" / target)
    return any(c.exists() for c in candidates)


def cli_surface() -> dict[str, set[str]]:
    """Subcommand → option strings, introspected from the live parser."""
    from repro.harness.cli import build_parser

    surface: dict[str, set[str]] = {}
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                options: set[str] = set()
                for sub_action in subparser._actions:
                    options.update(sub_action.option_strings)
                surface[name] = options
    return surface


def service_routes() -> set[tuple[str, str]]:
    """(method, path) pairs the planning service actually serves."""
    from repro.service import ROUTES

    return {(route.method, route.path) for route in ROUTES}


def check_route_coverage(routes: set[tuple[str, str]], text: str) -> list[str]:
    """Routes the service serves but ``docs/service.md`` never mentions."""
    documented = {
        (match.group(1), match.group(2))
        for match in HTTP_ENDPOINT.finditer(text)
    }
    return [
        f"docs/service.md: served route `{method} {path}` is undocumented"
        for method, path in sorted(routes - documented)
    ]


def request_fields() -> dict[str, tuple[str, ...]]:
    """``/v1/<op>`` path → the request fields of that operation's spec."""
    from repro.service import OPERATIONS

    return {
        path: tuple(param.name for param in operation.request.SPEC)
        for path, operation in OPERATIONS.items()
    }


def check_request_fields(fields: dict[str, tuple[str, ...]], text: str) -> list[str]:
    """Spec fields a ``### `POST /v1/<op>``` section never names."""
    problems = []
    for path, names in sorted(fields.items()):
        heading = re.search(rf"^### `POST {re.escape(path)}`$", text, re.MULTILINE)
        if heading is None:
            problems.append(f"docs/service.md: no `### POST {path}` section")
            continue
        following = re.search(r"^##", text[heading.end():], re.MULTILINE)
        section = text[heading.end():][: following.start() if following else None]
        problems += [
            f"docs/service.md: `POST {path}` section never names field {name!r}"
            for name in names
            if f"`{name}`" not in section and f'"{name}"' not in section
        ]
    return problems


def known_callables() -> dict[str, object]:
    """Public callables whose documented kwargs must stay real.

    Every name exported by :mod:`repro.api` and
    :mod:`repro.scenarios`, plus the harness/sim/config entry points
    docs quote.  Documented calls to *other* names are not checked —
    this is a drift detector for the public planning/scenario API, not
    a type checker.
    """
    import repro
    import repro.api
    import repro.scenarios
    from repro.harness import experiments
    from repro.sim import RuntimeModel, SimulationSetup, compile_schedule

    known: dict[str, object] = {}
    for module in (repro.api, repro.scenarios):
        for name in module.__all__:
            value = getattr(module, name)
            if callable(value):
                known[name] = value
    for value in (
        experiments.run_method,
        experiments.run_method_bindings,
        experiments.build_schedule,
        experiments.generate_method_schedule,
        repro.ModelConfig,
        repro.ParallelConfig,
        RuntimeModel,
        SimulationSetup,
        compile_schedule,
    ):
        known[value.__name__] = value
    return known


def _signature_params(value: object) -> tuple[set[str], bool]:
    """Keyword-addressable parameter names and whether **kwargs exist."""
    try:
        signature = inspect.signature(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return set(), True
    names: set[str] = set()
    var_kwargs = False
    for param in signature.parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            var_kwargs = True
        elif param.kind is not inspect.Parameter.VAR_POSITIONAL:
            names.add(param.name)
    return names, var_kwargs


def check_python_block(
    code: str, rel: str, known: dict[str, object]
) -> list[str]:
    """Problems in one fenced python block (parse + kwarg existence)."""
    try:
        tree = ast.parse(code)
    except SyntaxError as error:
        return [f"{rel}: python code block does not parse -> {error.msg}"]
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        target = known.get(node.func.id)
        if target is None:
            continue
        params, var_kwargs = _signature_params(target)
        if var_kwargs:
            continue
        for keyword in node.keywords:
            if keyword.arg is not None and keyword.arg not in params:
                problems.append(
                    f"{rel}: unknown kwarg {keyword.arg!r} in documented "
                    f"call {node.func.id}(...) — real signature has "
                    f"{sorted(params)}"
                )
    return problems


def check_file(
    path: Path,
    cli: dict[str, set[str]],
    known: dict[str, object],
    routes: set[tuple[str, str]] | None = None,
) -> list[str]:
    """All problems found in one markdown file.

    ``path`` is usually under the repo, but any readable markdown file
    works (the tests point this at synthetic pages in a tmp dir).
    """
    text = path.read_text()
    try:
        rel = str(path.relative_to(REPO))
    except ValueError:
        rel = path.name
    problems = []
    for match in LINK.finditer(text):
        target = match.group(1).split("#")[0].strip()
        if not target or target.startswith(("http://", "https://", "mailto:")):
            continue
        if not resolves(target, path):
            problems.append(f"{rel}: broken link -> {target}")
    for match in BACKTICK_PATH.finditer(text):
        target = match.group(1)
        if not resolves(target, path, allow_module_paths=True):
            problems.append(f"{rel}: missing file reference -> {target}")
    for match in CLI_COMMAND.finditer(text):
        command = match.group(1)
        if command not in cli:
            problems.append(
                f"{rel}: unknown repro-experiments subcommand -> {command}"
            )
            continue
        for option in CLI_OPTION.findall(match.group(2) or ""):
            if option not in cli[command]:
                problems.append(
                    f"{rel}: repro-experiments {command} has no option "
                    f"{option}"
                )
    if routes is not None:
        for match in HTTP_ENDPOINT.finditer(text):
            endpoint = (match.group(1), match.group(2))
            if endpoint not in routes:
                problems.append(
                    f"{rel}: documented endpoint `{endpoint[0]} "
                    f"{endpoint[1]}` is not in the service route table"
                )
    for match in PYTHON_FENCE.finditer(text):
        problems.extend(check_python_block(match.group(1), rel, known))
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    cli = cli_surface()
    known = known_callables()
    routes = service_routes()

    problems: list[str] = []
    files = doc_files()
    if len(files) < 2:
        problems.append("expected README.md plus docs/*.md pages")
    for path in files:
        problems.extend(check_file(path, cli, known, routes))
    service_page = REPO / "docs" / "service.md"
    if service_page.exists():
        problems.extend(
            check_route_coverage(routes, service_page.read_text())
        )
        problems.extend(
            check_request_fields(request_fields(), service_page.read_text())
        )
    else:
        problems.append("docs/service.md is missing (the service reference)")
    if problems:
        print("\n".join(problems))
        return 1
    print(f"docs check OK: {len(files)} files, no broken references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
