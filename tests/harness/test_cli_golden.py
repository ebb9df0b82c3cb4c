"""Pinned ``--help`` text and invalid-input exits of ``repro-experiments``.

``cli_help.txt`` is the ``--help`` text of the top-level parser and of
every subcommand at an 80-column terminal; ``cli_errors.json`` maps
each invalid command line below to its exit code and the last line it
writes to stderr.  Commands run in-process through
:func:`repro.harness.cli.main`; an escaping exception is reported the
way the interpreter would (exit 1, the ``Type: message`` line of the
traceback), so a traceback is pinned as such and shows in review.

Re-record only when the CLI surface is meant to change::

    PYTHONPATH=src python tests/harness/test_cli_golden.py
"""

import argparse
import contextlib
import io
import json
import os
import sys
import traceback
from pathlib import Path

import pytest

from repro.harness.cli import build_parser, main

HELP_PATH = Path(__file__).with_name("cli_help.txt")
ERRORS_PATH = Path(__file__).with_name("cli_errors.json")

#: Invalid command lines, each failing on exactly one input.
ERROR_CASES = [
    ["plan", "--devices", "abc"],
    ["plan", "--devices", "0"],
    ["plan", "--devices", "4", "0", "--executor", "serial"],
    ["plan", "--vocab", "huge"],
    ["plan", "--vocab", "0"],
    ["plan", "--seq", "0"],
    ["plan", "--microbatches", "0"],
    ["plan", "--memory-budget", "0"],
    ["plan", "--pass-overhead", "-1", "--devices", "4", "--vocab", "32k",
     "--microbatches", "8", "--top-k", "1"],
    ["plan", "--top-k", "most"],
    ["plan", "--top-k", "-1"],
    ["plan", "--methods", "nope"],
    ["plan", "--scenario", "nope"],
    ["plan", "--cost-model", "nope"],
    ["plan", "--format", "yaml"],
    ["plan", "--devices", "4", "8", "--chunk-size", "0"],
    ["optimize", "--strategy", "tabu"],
    ["optimize", "--budget", "0"],
    ["optimize", "--devices", "0"],
    ["optimize", "--microbatches", "0"],
    ["optimize", "--vocab", "huge"],
    ["optimize", "--pass-overhead", "-1", "--devices", "4", "--vocab", "32k",
     "--microbatches", "8", "--budget", "4"],
    ["optimize", "--memory-budget", "-5"],
    ["optimize", "--methods", "nope"],
    ["optimize", "--scenario", "nope"],
    ["optimize", "--cost-model", "nope"],
    ["optimize", "--devices", "4", "--vocab", "64k", "--seq", "1024",
     "--microbatches", "8", "--methods", "baseline", "--memory-budget", "6.9"],
    ["whatif", "--device", "99"],
    ["whatif", "--method", "nope"],
    ["whatif", "--factor", "0"],
    ["whatif", "--devices", "0"],
    ["whatif", "--microbatches", "0"],
    ["whatif", "--pass-overhead", "-1", "--devices", "4", "--vocab", "32k",
     "--microbatches", "8"],
    ["whatif", "--scenario", "nope"],
    ["scenarios", "frobnicate"],
    ["scenarios", "describe"],
    ["scenarios", "describe", "--scenario", "nope"],
    ["scenarios", "describe", "--scenario", "slow-node", "--microbatches", "0"],
    ["scenarios", "run"],
    ["scenarios", "run", "--scenario", "nope"],
    ["scenarios", "run", "--scenario", "slow-node", "--method", "vocab-9"],
    ["scenarios", "run", "--scenario", "slow-node", "--samples", "0"],
    ["scenarios", "run", "--scenario", "slow-node", "--seq", "0"],
    ["scenarios", "compare", "--scenario", "slow-node", "--devices", "0"],
    ["scenarios", "compare", "--scenario", "slow-node", "--vocab", "huge"],
    ["schedules", "--devices", "0"],
    ["schedules", "--microbatches", "0"],
    ["schedules", "--width", "0", "--devices", "2", "--microbatches", "2"],
    ["calibrate", "show", "--profile", "nope"],
    ["serve", "--port", "abc"],
    ["serve", "--executor", "nope"],
    ["serve", "--lru-size", "0"],
    ["serve", "--breaker-backoff", "0"],
    ["serve", "--faults", "nope"],
    ["serve", "--max-inflight", "4"],
    ["serve", "--tenant-rate", "5"],
    ["serve", "--tenant-burst", "5"],
    ["serve", "--default-deadline-ms", "100"],
    ["table5", "--gpus", "12"],
    ["table5", "--microbatches", "0"],
    ["appendix-b", "--microbatches", "0"],
]


def help_text() -> str:
    """``--help`` of the parser and every subcommand, one section each."""
    parser = build_parser()
    sections = [("repro-experiments", parser)]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            sections += [
                (f"repro-experiments {name}", sub)
                for name, sub in action.choices.items()
            ]
    return "".join(
        f"=== {title} --help\n{sub.format_help()}\n" for title, sub in sections
    )


def run(argv: list[str]) -> dict:
    """Exit code and last stderr line of one in-process invocation."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            if exit_.code is None or isinstance(exit_.code, int):
                code = exit_.code or 0
            else:
                print(exit_.code, file=sys.stderr)
                code = 1
        except Exception as error:  # noqa: BLE001 - pinned as a traceback
            print(traceback.format_exception_only(error)[-1], end="", file=sys.stderr)
            code = 1
    lines = stderr.getvalue().strip().splitlines()
    return {"argv": argv, "exit": code, "stderr": lines[-1] if lines else ""}


@pytest.fixture
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_help_is_pinned(columns):
    assert help_text() == HELP_PATH.read_text()


@pytest.mark.parametrize("argv", ERROR_CASES, ids=[" ".join(a) for a in ERROR_CASES])
def test_invalid_input_exit_is_pinned(columns, argv):
    pinned = {tuple(case["argv"]): case for case in json.loads(ERRORS_PATH.read_text())}
    assert run(argv) == pinned[tuple(argv)]


def test_corpus_matches_fixture():
    recorded = [case["argv"] for case in json.loads(ERRORS_PATH.read_text())]
    assert recorded == ERROR_CASES


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    HELP_PATH.write_text(help_text())
    ERRORS_PATH.write_text(
        json.dumps([run(argv) for argv in ERROR_CASES], indent=1) + "\n"
    )
    print(f"recorded {HELP_PATH} and {len(ERROR_CASES)} cases to {ERRORS_PATH}",
          file=sys.stderr)
