"""One operation spec drives the service and the CLI.

Each planning operation declares its parameters once
(:mod:`repro.service.requests`); the CLI's flags and the service's JSON
validation are both derived from that declaration.  These tests hold
the two surfaces together:

* a field's CLI flag and its wire field parse equal inputs to equal
  requests (same values, same types, same digest);
* every flag defaults to the wire's default, except the convenience
  defaults the CLI gives fields the wire requires;
* the only hand-written options of those subcommands are CLI-only ones;
* ``repro-experiments <op> --format json`` prints exactly the result
  the service answers for the same configuration.
"""

import argparse
import http.client
import json

import pytest

from repro.harness.cli import _request, build_parser, main
from repro.service import PlanningService, ServiceThread
from repro.service.requests import (
    REQUIRED,
    OptimizeRequest,
    PlanRequest,
    ScenarioRequest,
    WhatifRequest,
)

#: (subcommand argv prefix, request type, smallest valid wire body).
OPERATIONS = {
    "plan": (["plan"], PlanRequest, {"devices": 8, "vocab_size": 128 * 1024}),
    "optimize": (
        ["optimize"], OptimizeRequest, {"devices": 8, "vocab_size": 128 * 1024}
    ),
    "whatif": (
        ["whatif"],
        WhatifRequest,
        {
            "devices": 8, "vocab_size": 128 * 1024, "method": "vocab-1",
            "device": -1, "factor": 1.3,
        },
    ),
    "scenarios run": (
        ["scenarios", "run", "--scenario", "slow-node"],
        ScenarioRequest,
        {"scenario": "slow-node", "method": "vocab-1"},
    ),
}

#: Defaults the CLI sets on fields the wire requires (or, for
#: ``scenarios run``, on the method the 'run' action needs).
CONVENIENCE = {
    ("plan", "devices"), ("plan", "vocab_size"),
    ("optimize", "devices"), ("optimize", "vocab_size"),
    ("whatif", "devices"), ("whatif", "vocab_size"),
    ("whatif", "method"), ("whatif", "device"), ("whatif", "factor"),
    ("scenarios run", "method"),
}

#: Options of these subcommands that are not request fields.
CLI_ONLY = {"-h", "--help", "--format", "--cache-dir", "--executor", "--workers",
            "--chunk-size"}

#: One (flag text, equal wire value) per flagged field name.
SAMPLES = {
    "devices": (["4"], 4),
    "vocab_size": (["64k"], "64k"),
    "seq_length": (["1024"], 1024),
    "microbatches": (["8"], 8),
    "memory_budget_gib": (["40.5"], 40.5),
    "pass_overhead": (["0.001"], 0.001),
    "scenario": (["high-jitter"], "high-jitter"),
    "methods": (["vocab-1", "vocab-2"], ["vocab-1", "vocab-2"]),
    "simulate_top_k": (["all"], "all"),
    "cost_model": (["a100-sim"], "a100-sim"),
    "method": (["vocab-2"], "vocab-2"),
    "device": (["-2"], -2),
    "factor": (["1.5"], 1.5),
    "samples": (["16"], 16),
    "seed": (["7"], 7),
    "budget": (["12"], 12),
}


def subparser(prefix: list[str]) -> argparse.ArgumentParser:
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices[prefix[0]]


def cli_request(op: str, argv: list[str]):
    """The request ``repro-experiments`` builds for one command line."""
    prefix, request_type, _ = OPERATIONS[op]
    args = build_parser().parse_args([*prefix, *argv])
    # A grid flag's single value is the request's field, as in _cmd_plan.
    fields = {
        param.name: getattr(args, param.name)[0]
        for param in request_type.SPEC
        if param.many
    }
    if request_type is ScenarioRequest:
        fields["method"] = args.method
    return _request(request_type, args, **fields)


def flagged(op: str):
    _, request_type, _ = OPERATIONS[op]
    return [param for param in request_type.SPEC if param.flag is not None]


CASES = [(op, param) for op in OPERATIONS for param in flagged(op)]


@pytest.mark.parametrize(
    "op,param", CASES, ids=[f"{op}-{param.name}" for op, param in CASES]
)
def test_flag_and_wire_field_parse_alike(op, param):
    _, request_type, base = OPERATIONS[op]
    text, value = SAMPLES[param.name]
    from_cli = cli_request(op, [param.flag, *text])
    from_wire = request_type.from_payload({**base, param.name: value})
    assert from_cli == from_wire
    assert type(getattr(from_cli, param.name)) is type(getattr(from_wire, param.name))
    assert from_cli.digest() == from_wire.digest()


@pytest.mark.parametrize("op", OPERATIONS)
def test_defaults_agree_across_surfaces(op):
    prefix, request_type, base = OPERATIONS[op]
    defaults = {
        action.dest: action.default for action in subparser(prefix)._actions
    }
    wire = request_type.from_payload(base)
    for param in flagged(op):
        cli_default = defaults[param.name]
        if param.many:
            (cli_default,) = cli_default
        if (op, param.name) in CONVENIENCE:
            assert param.default in (REQUIRED, None), param.name
            continue
        assert cli_default == param.default, param.name
        if param.name not in base:
            assert getattr(wire, param.name) == param.default, param.name


@pytest.mark.parametrize("op", OPERATIONS)
def test_every_other_option_is_cli_only(op):
    prefix, _, _ = OPERATIONS[op]
    options = {
        option
        for action in subparser(prefix)._actions
        for option in action.option_strings
    }
    assert options - {param.flag for param in flagged(op)} <= CLI_ONLY


def test_every_flag_has_a_sample():
    assert {param.name for _, param in CASES} <= set(SAMPLES)


SMALL = {"devices": 4, "vocab_size": 32 * 1024, "microbatches": 8}

#: (CLI argv, service path, equal service body).
JSON_CASES = [
    (
        ["plan", "--devices", "4", "--vocab", "32k", "--microbatches", "8",
         "--top-k", "1"],
        "/v1/plan",
        dict(SMALL, simulate_top_k=1),
    ),
    (
        ["whatif", "--devices", "4", "--vocab", "32k", "--microbatches", "8",
         "--method", "vocab-1", "--device", "0", "--factor", "1.5"],
        "/v1/whatif",
        dict(SMALL, method="vocab-1", device=0, factor=1.5),
    ),
    (
        ["optimize", "--devices", "4", "--vocab", "32k", "--microbatches", "8",
         "--budget", "8"],
        "/v1/optimize",
        dict(SMALL, budget=8),
    ),
    (
        ["scenarios", "run", "--scenario", "slow-node", "--method", "vocab-1",
         "--devices", "4", "--vocab", "32k", "--microbatches", "8",
         "--samples", "4"],
        "/v1/scenarios",
        dict(SMALL, scenario="slow-node", method="vocab-1", samples=4),
    ),
]


@pytest.fixture(scope="module")
def live():
    service = PlanningService(port=0, executor="thread")
    with ServiceThread(service) as running:
        yield running


@pytest.mark.parametrize(
    "argv,path,body", JSON_CASES, ids=[argv[0] for argv, _, _ in JSON_CASES]
)
def test_cli_json_is_the_service_result(live, capsys, argv, path, body):
    assert main([*argv, "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    conn = http.client.HTTPConnection(live.host, live.port, timeout=240)
    try:
        conn.request("POST", path, body=json.dumps(body))
        response = conn.getresponse()
        assert response.status == 200
        served = json.loads(response.read())
    finally:
        conn.close()
    assert printed == served["result"]
