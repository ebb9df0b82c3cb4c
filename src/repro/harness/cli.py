"""``repro-experiments`` — regenerate the paper's results and plan schedules.

Subcommands:

* ``fig2`` — Figure 2: vocabulary/transformer cost ratios (Gemma2-9B);
* ``fig3`` — Figure 3: layer redistribution per-device view;
* ``table3`` — Table 3: partitioned vocabulary scaling factors;
* ``table5`` — Table 5 / Figures 11–12: methods on 1F1B;
* ``table6`` — Table 6 / Figures 13–14: the V-Half family;
* ``appendix-b`` — Appendix B: interlaced pipeline ablation;
* ``schedules`` — ASCII schedule timelines (Figures 1/10);
* ``plan`` — rank all schedule families for a configuration
  (:mod:`repro.planner`); accepts multiple ``--devices``/``--vocab``
  values and sweeps the grid in parallel;
* ``optimize`` — token-split schedule search (:mod:`repro.optimize`):
  take the best named family's schedule and split its microbatches
  along tokens at factors 2 and 4 while the simulator verifies each
  split as fitting and faster;
* ``scenarios`` — cluster scenarios (:mod:`repro.scenarios`): list and
  describe the registry, and price schedule robustness on non-ideal
  clusters with seeded Monte Carlo jitter;
* ``calibrate`` — calibrated cost models
  (:mod:`repro.costmodel.calibrate`): fit per-SKU hardware profiles
  against simulator ground truth, re-measure predicted-vs-simulated
  accuracy (``report``, with ``--check`` as a CI drift gate), and
  inspect committed profiles (``show``);
* ``whatif`` — price one single-device slowdown
  (:func:`repro.api.whatif`): one sweep of the perturbed rows over
  a resident compiled graph instead of a full re-plan;
* ``serve`` — the long-running planning service (:mod:`repro.service`):
  one process answering plan/sweep/scenario/what-if/optimize queries
  over HTTP, with request coalescing, tiered caches and CPU-bound work
  on a supervised worker pool (see ``docs/service.md``);
* ``all`` — every table and figure (several minutes).

``plan``, ``optimize``, ``whatif`` and ``scenarios run|compare|describe``
are the service's operations: their options are derived from the
request specs in :mod:`repro.service.requests`, an invocation builds
the same request object a JSON body would, and an invalid value exits
with the service's 400 message.  Only table rendering and the
CLI-only options (``--format``, ``--cache-dir``, the sweep pool's
``--executor``/``--workers``/``--chunk-size``) live here.

Examples::

    repro-experiments fig2
    repro-experiments fig3
    repro-experiments table3
    repro-experiments table5 --gpus 8 --seq 2048
    repro-experiments table6 --gpus 16 --seq 4096 --microbatches 64
    repro-experiments appendix-b
    repro-experiments schedules --devices 4
    repro-experiments plan --devices 8 --vocab 128k
    repro-experiments plan --devices 8 16 --vocab 64k 256k --memory-budget 40
    repro-experiments plan --devices 8 --scenario slow-node
    repro-experiments optimize --scenario slow-node
    repro-experiments optimize --devices 8 --budget 2
    repro-experiments scenarios list
    repro-experiments scenarios describe --scenario slow-node
    repro-experiments scenarios run --scenario high-jitter --method vocab-1
    repro-experiments scenarios compare --scenario slow-node
    repro-experiments plan --devices 8 --cost-model a100-sim --top-k all
    repro-experiments calibrate fit --name a100-sim
    repro-experiments calibrate report --quick --check
    repro-experiments calibrate show --profile a100-sim
    repro-experiments whatif --devices 8 --method vocab-1 --device -1 --factor 1.3
    repro-experiments serve --port 8181 --cache-dir /tmp/plans
    repro-experiments all
"""

from __future__ import annotations

import argparse
import sys

#: One line per subcommand, rendered into ``--help``'s epilog.
SUBCOMMANDS = {
    "fig2": "Figure 2: vocabulary/transformer cost ratios",
    "fig3": "Figure 3: layer redistribution per-device view",
    "table3": "Table 3: partitioned vocabulary scaling factors",
    "table5": "Table 5 / Figures 11-12: methods on 1F1B",
    "table6": "Table 6 / Figures 13-14: V-Half",
    "appendix-b": "Appendix B: interlaced ablation",
    "schedules": "ASCII schedule timelines (Figures 1/10)",
    "plan": "rank schedule families for a config (planner)",
    "optimize": "token-split the best family's schedule while that is faster",
    "scenarios": "cluster scenarios: robustness on non-ideal clusters",
    "calibrate": "fit/inspect calibrated cost-model profiles",
    "whatif": "single-device what-if on a resident compiled graph",
    "serve": "HTTP planning service: one process, worker pool, caches",
    "all": "everything (several minutes)",
}


def _positive_int(text: str) -> int:
    """argparse type of the hand-written count options."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--microbatches",
        type=_positive_int,
        default=128,
        help="microbatches per iteration (paper: 128)",
    )


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="output format (default table)",
    )


def _int_or_text(text: str) -> int | str:
    """A flag value the wire takes as an int or a string (``128k``, ``all``)."""
    try:
        return int(text)
    except ValueError:
        return text


#: argparse ``type`` of a spec field's flag, by the JSON types the wire
#: accepts; absent entries (``str``, ``list`` of ``str``) take the text.
_FLAG_TYPES = {int: int, (int, float): float, (int, str): _int_or_text}


def _add_spec_flags(parser: argparse.ArgumentParser, request_type) -> None:
    """The options of one operation, derived from its request spec.

    Defaults are the wire's (or a field's ``cli_default`` where the
    wire requires it); values are validated by the request itself, so
    a bad flag fails with the service's message (see :func:`_request`).
    """
    from repro.service.requests import REQUIRED

    for param in request_type.SPEC:
        if param.flag is None:
            continue
        default = param.default if param.cli_default is REQUIRED else param.cli_default
        parser.add_argument(
            param.flag,
            dest=param.name,
            type=_FLAG_TYPES.get(param.types),
            nargs="+" if param.many or param.types is list else None,
            default=[default] if param.many else default,
            metavar=param.metavar,
            help=param.help,
        )


def _request(request_type, args: argparse.Namespace, **fields):
    """The request an invocation denotes, validated like a JSON body."""
    payload = {
        param.name: getattr(args, param.name)
        for param in request_type.SPEC
        if param.flag is not None
    }
    return request_type.from_payload({**payload, **fields})


def _print_json(data) -> None:
    import json

    print(json.dumps(data, indent=2))


def _cmd_fig2(_args: argparse.Namespace) -> None:
    from repro.harness.runner import run_figure2

    print(run_figure2().render())


def _cmd_fig3(_args: argparse.Namespace) -> None:
    from repro.harness.runner import run_figure3

    print(run_figure3().render())


def _cmd_table3(_args: argparse.Namespace) -> None:
    from repro.harness.runner import run_table3

    print(run_table3().render())


def _cmd_table5(args: argparse.Namespace) -> None:
    from repro.harness.runner import run_table5_cell

    for gpus in args.gpus:
        for seq in args.seq:
            print(
                run_table5_cell(
                    gpus, seq, num_microbatches=args.microbatches
                ).render()
            )
            print()


def _cmd_table6(args: argparse.Namespace) -> None:
    from repro.harness.runner import run_table6_cell

    for gpus in args.gpus:
        for seq in args.seq:
            print(
                run_table6_cell(
                    gpus, seq, num_microbatches=args.microbatches
                ).render()
            )
            print()


def _cmd_appendix_b(args: argparse.Namespace) -> None:
    from repro.harness.runner import run_interlaced_ablation

    print(run_interlaced_ablation(num_microbatches=args.microbatches).render())


def _cmd_schedules(args: argparse.Namespace) -> None:
    from repro.config import ModelConfig, ParallelConfig
    from repro.harness.experiments import build_schedule
    from repro.sim import RuntimeModel, SimulationSetup, execute_schedule, render_timeline

    p = args.devices
    model = ModelConfig(
        num_layers=4 * p,
        hidden_size=2048,
        num_attention_heads=16,
        seq_length=2048,
        vocab_size=128 * 1024,
    )
    parallel = ParallelConfig(pipeline_size=p, num_microbatches=args.microbatches)
    setup = SimulationSetup(model, parallel)
    for method in ("baseline", "vocab-1", "vocab-2"):
        schedule = build_schedule(method, setup)
        result = execute_schedule(schedule, RuntimeModel(setup, schedule))
        print(render_timeline(result, width=args.width, mode=args.mode))
        print()


def _cmd_plan(args: argparse.Namespace) -> None:
    import itertools

    from repro.planner.sweep import best_method_table, sweep
    from repro.service.requests import (
        PlanRequest,
        execute_plan_request,
        plans_to_json,
        sweep_to_json,
    )

    # Several values of a grid flag (--devices/--vocab/--pass-overhead)
    # make one request per grid point, in repro.api.grid's order.
    axes = [param.name for param in PlanRequest.SPEC if param.many]
    requests = [
        _request(PlanRequest, args, **dict(zip(axes, values)))
        for values in itertools.product(*(getattr(args, name) for name in axes))
    ]
    if len(requests) == 1:
        plans = execute_plan_request(requests[0], args.cache_dir)
        if args.format == "json":
            _print_json(plans_to_json(plans))
        else:
            print(plans.render())
        return
    outcomes = sweep(
        [request.point() for request in requests],
        requests[0].constraints(),
        executor=args.executor,
        max_workers=args.workers,
        cache_dir=args.cache_dir,
        chunk_size=args.chunk_size,
    )
    if args.format == "json":
        _print_json(sweep_to_json(outcomes))
        return
    for outcome in outcomes:
        print(outcome.plans.render())
        print()
    print(best_method_table(outcomes))


def _cmd_optimize(args: argparse.Namespace) -> None:
    from repro.planner.cache import PlanCache
    from repro.service.requests import OptimizeRequest

    cache = None if args.cache_dir is None else PlanCache(args.cache_dir)
    result = _request(OptimizeRequest, args).run(cache)
    if args.format == "json":
        _print_json(result.as_dict())
        return
    print(result.render())


def _cmd_scenarios(args: argparse.Namespace) -> None:
    from repro.harness.tables import format_table
    from repro.scenarios import list_scenarios
    from repro.service.requests import (
        RequestError,
        ScenarioRequest,
        execute_scenario_request,
    )

    if args.action == "list":
        scenarios = list_scenarios()
        if args.format == "json":
            _print_json(
                [{"name": s.name, "description": s.description} for s in scenarios]
            )
            return
        rows = [
            [
                s.name,
                "yes" if s.has_heterogeneity else "-",
                "yes" if s.has_interconnect_scaling else "-",
                f"{s.pass_jitter:.0%}/{s.comm_jitter:.0%}" if s.has_jitter else "-",
                s.description,
            ]
            for s in scenarios
        ]
        print(
            format_table(
                ["name", "hetero", "interconnect", "jitter", "description"],
                rows,
                title="Registered cluster scenarios",
            )
        )
        return

    if args.scenario is None:
        raise RequestError("--scenario is required")
    # 'run' prices --method; 'compare' (method None) every family.
    request = _request(
        ScenarioRequest, args, method=args.method if args.action == "run" else None
    )
    if args.action == "describe":
        resolved = request.resolve()
        print(resolved.scenario.describe(resolved.parallel))
        return
    result = execute_scenario_request(request)
    if args.format == "json":
        _print_json(result)
        return
    # Times to 4 decimals: format_table's default 2 would hide
    # single-digit-percent jitter spreads.
    rows = [
        [
            rank,
            entry["method"],
            *(
                f"{entry[key]:.4f}"
                for key in ("nominal_time", "p50_time", "p95_time", "worst_time")
            ),
            round(100.0 * entry["p95_inflation"], 2),
            round(100.0 * entry["p95_bubble"], 2),
        ]
        for rank, entry in enumerate(result["ranked"], start=1)
    ]
    title = (
        f"Scenario {result['scenario']} — {request.devices} devices, "
        f"vocab {request.vocab_size // 1024}k, seq {request.seq_length}, "
        f"m={request.microbatches}, K={request.samples}, seed {request.seed} "
        "(ranked by p95)"
    )
    print(
        format_table(
            [
                "rank", "method", "nominal(s)", "p50(s)", "p95(s)",
                "worst(s)", "infl%", "bubble95%",
            ],
            rows,
            title=title,
        )
    )
    for entry in result["skipped"]:
        print(f"  skipped {entry['method']:15s} {entry['reason']}")


def _cmd_calibrate(args: argparse.Namespace) -> int | None:
    import json
    from pathlib import Path

    from repro.costmodel.calibrate import (
        HardwareProfile,
        builtin_profiles_dir,
        check_profile,
        evaluate_profile,
        fit_profile,
        get_cost_model,
    )

    def load_profile() -> HardwareProfile:
        """``--profile``: a JSON path, or a resolvable model name."""
        spec = args.profile
        if Path(spec).suffix == ".json" or "/" in spec:
            try:
                return HardwareProfile.load(spec)
            except ValueError as error:
                raise SystemExit(
                    f"repro-experiments calibrate: error: {error}"
                ) from None
        try:
            model = get_cost_model(spec)
        except KeyError as error:
            raise SystemExit(
                f"repro-experiments calibrate: error: {error.args[0]}"
            ) from None
        try:
            return model.profile
        except NotImplementedError:
            raise SystemExit(
                f"repro-experiments calibrate: error: cost model {spec!r} "
                "carries no hardware profile to inspect"
            ) from None

    if args.action == "fit":
        try:
            profile = fit_profile(
                args.name,
                quick=args.quick,
                seed=0 if args.seed is None else args.seed,
            )
        except ValueError as error:
            raise SystemExit(
                f"repro-experiments calibrate fit: error: {error}"
            ) from None
        out = Path(
            args.out
            if args.out is not None
            else builtin_profiles_dir() / f"{args.name}.json"
        )
        profile.save(out)
        if args.format == "json":
            print(profile.to_json(), end="")
        else:
            print(profile.report.render())
            print(f"saved profile {profile.name!r} (digest {profile.digest()[:12]}) to {out}")
        return None

    profile = load_profile()
    if args.action == "show":
        if args.format == "json":
            print(profile.to_json(), end="")
            return None
        print(
            f"profile {profile.name!r} — SKU {profile.sku}, "
            f"seed {profile.seed}, digest {profile.digest()[:12]}, "
            f"{'calibrated' if profile.calibrated else 'NOT calibrated (stale or unfitted)'}"
        )
        for fit in profile.fits:
            params = ", ".join(
                f"{feat}={value:+.4g}"
                for feat, value in zip(profile.feature_names, fit.params)
            )
            print(f"  {fit.method:15s} {params}")
        if profile.report is not None:
            print()
            print(profile.report.render())
        return None

    # report: re-measure against the current simulator (the drift gate).
    fresh = evaluate_profile(profile, quick=args.quick, seed=args.seed)
    if args.format == "json":
        print(json.dumps(fresh.as_dict(), indent=2))
    else:
        print(fresh.render())
    if not args.check:
        return None
    problems = check_profile(profile, fresh, tolerance=args.tolerance)
    if problems:
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        return 1
    print(
        f"check ok: re-measured accuracy within {args.tolerance:g}x of the "
        f"stored bounds for profile {profile.name!r}"
    )
    return None


def _cmd_whatif(args: argparse.Namespace) -> None:
    from repro.harness.tables import format_table
    from repro.service.requests import WhatifRequest, execute_whatif_request

    request = _request(WhatifRequest, args)
    result = execute_whatif_request(request, args.cache_dir)
    if args.format == "json":
        _print_json(result)
        return
    title = (
        f"What-if — {result['method']}: device {result['device']} at "
        f"{result['factor']:g}x duration, {request.devices} devices, "
        f"vocab {request.vocab_size // 1024}k, seq {request.seq_length}, "
        f"m={request.microbatches}"
    )
    print(
        format_table(
            [
                "baseline(s)", "whatif(s)", "slowdown", "bubble%",
                "whatif bubble%", "support",
            ],
            [
                [
                    *(
                        f"{result[key]:.4f}"
                        for key in ("baseline_time", "whatif_time", "slowdown")
                    ),
                    round(100.0 * result["baseline_bubble"], 2),
                    round(100.0 * result["whatif_bubble"], 2),
                    result["support"],
                ]
            ],
            title=title,
        )
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import PlanningService

    try:
        service = PlanningService(
            host=args.host,
            port=args.port,
            executor=args.executor,
            max_workers=args.workers,
            cache_dir=args.cache_dir,
            lru_size=args.lru_size,
            breaker_backoff_s=args.breaker_backoff,
            faults=args.faults,
        )
    except ValueError as error:
        raise SystemExit(
            f"repro-experiments serve: error: {error}"
        ) from None

    def announce(live: PlanningService) -> None:
        # The exact line tools/loadtest_service.py --spawn parses for
        # the bound port (--port 0 binds an ephemeral one).
        print(f"serving on http://{live.host}:{live.port}", flush=True)

    return service.run(ready=announce)


def _cmd_all(args: argparse.Namespace) -> None:
    from repro.harness.runner import (
        run_figure2,
        run_figure3,
        run_interlaced_ablation,
        run_table3,
        run_table5_cell,
        run_table6_cell,
    )

    print(run_figure2().render(), "\n")
    print(run_figure3().render(), "\n")
    print(run_table3().render(), "\n")
    for gpus in (8, 16, 32):
        for seq in (2048, 4096):
            print(run_table5_cell(gpus, seq, num_microbatches=args.microbatches).render())
            print()
    for gpus in (16, 24, 32):
        for seq in (2048, 4096):
            print(run_table6_cell(gpus, seq, num_microbatches=args.microbatches).render())
            print()
    print(run_interlaced_ablation(num_microbatches=args.microbatches).render())


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro-experiments`` argument parser.

    Public so tooling (``tools/check_docs_links.py``) can introspect
    every subcommand and option instead of pattern-matching source.
    """
    from repro.service.requests import (
        OptimizeRequest,
        PlanRequest,
        ScenarioRequest,
        WhatifRequest,
    )

    epilog = "subcommands:\n" + "\n".join(
        f"  {name:12s} {help_}" for name, help_ in SUBCOMMANDS.items()
    )
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables/figures of 'Balancing Pipeline "
        "Parallelism with Vocabulary Parallelism' (MLSys 2025), or plan "
        "the best schedule for a new configuration.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig2", help=SUBCOMMANDS["fig2"])
    sub.add_parser("fig3", help=SUBCOMMANDS["fig3"])
    sub.add_parser("table3", help=SUBCOMMANDS["table3"])

    t5 = sub.add_parser("table5", help=SUBCOMMANDS["table5"])
    t5.add_argument("--gpus", type=int, nargs="+", default=[8], choices=[8, 16, 32])
    t5.add_argument("--seq", type=int, nargs="+", default=[2048], choices=[2048, 4096])
    _add_common(t5)

    t6 = sub.add_parser("table6", help=SUBCOMMANDS["table6"])
    t6.add_argument("--gpus", type=int, nargs="+", default=[16], choices=[16, 24, 32])
    t6.add_argument("--seq", type=int, nargs="+", default=[2048], choices=[2048, 4096])
    _add_common(t6)

    ab = sub.add_parser("appendix-b", help=SUBCOMMANDS["appendix-b"])
    _add_common(ab)

    sc = sub.add_parser("schedules", help=SUBCOMMANDS["schedules"])
    sc.add_argument("--devices", type=_positive_int, default=4)
    sc.add_argument("--width", type=_positive_int, default=120)
    sc.add_argument("--mode", choices=["type", "microbatch"], default="type")
    _add_common(sc)

    pl = sub.add_parser("plan", help=SUBCOMMANDS["plan"])
    _add_spec_flags(pl, PlanRequest)
    pl.add_argument(
        "--executor", choices=["process", "thread", "serial"], default="process",
        help="pool type for grid sweeps",
    )
    pl.add_argument(
        "--workers", type=_positive_int, default=None, help="max sweep workers"
    )
    pl.add_argument(
        "--chunk-size", type=_positive_int, default=None, metavar="N",
        help="grid points per pool task (default: ~4 chunks per worker)",
    )
    pl.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="disk-backed plan cache shared across invocations and workers",
    )
    _add_format(pl)

    op = sub.add_parser("optimize", help=SUBCOMMANDS["optimize"])
    _add_spec_flags(op, OptimizeRequest)
    op.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="disk-backed plan cache shared with plan/serve runs",
    )
    _add_format(op)

    sn = sub.add_parser("scenarios", help=SUBCOMMANDS["scenarios"])
    sn.add_argument(
        "action", choices=["list", "describe", "run", "compare"],
        help="list/describe the registry, or price one method ('run') / "
        "all schedule families ('compare') under a scenario",
    )
    _add_spec_flags(sn, ScenarioRequest)
    _add_format(sn)

    cb = sub.add_parser("calibrate", help=SUBCOMMANDS["calibrate"])
    cb.add_argument(
        "action", choices=["fit", "report", "show"],
        help="fit a profile against simulator ground truth, re-measure a "
        "profile's accuracy ('report', --check gates CI on drift), or "
        "inspect a committed profile ('show')",
    )
    cb.add_argument(
        "--name", default="a100-sim", metavar="NAME",
        help="profile name to fit (default a100-sim)",
    )
    cb.add_argument(
        "--out", default=None, metavar="PATH",
        help="where 'fit' writes the profile JSON (default: the built-in "
        "profiles directory inside the package)",
    )
    cb.add_argument(
        "--profile", default="a100-sim", metavar="NAME_OR_PATH",
        help="profile for 'report'/'show': a resolvable cost-model name "
        "or a profile JSON path (default a100-sim)",
    )
    cb.add_argument(
        "--quick", action="store_true",
        help="seeded subsample of the calibration grid instead of the "
        "full Table 5/6 sweep (what CI runs)",
    )
    cb.add_argument(
        "--seed", type=int, default=None,
        help="grid seed (default: 0 for 'fit', the profile's own seed "
        "for 'report')",
    )
    cb.add_argument(
        "--check", action="store_true",
        help="'report': exit non-zero when the profile is stale or the "
        "re-measured error exceeds the stored bounds by > --tolerance x",
    )
    cb.add_argument(
        "--tolerance", type=float, default=1.25, metavar="X",
        help="--check slack on the stored per-family error bounds "
        "(default 1.25)",
    )
    _add_format(cb)

    wi = sub.add_parser("whatif", help=SUBCOMMANDS["whatif"])
    _add_spec_flags(wi, WhatifRequest)
    wi.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="disk-backed plan cache shared with plan/serve runs",
    )
    _add_format(wi)

    sv = sub.add_parser(
        "serve", help=SUBCOMMANDS["serve"],
        description="Serve the planner over HTTP from one process: "
        "request coalescing, LRU and disk cache tiers, and CPU-bound "
        "planning on a worker pool behind a circuit breaker "
        "(see docs/service.md).",
    )
    sv.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    sv.add_argument(
        "--port", type=int, default=8181,
        help="TCP port (0 binds an ephemeral port, printed on startup)",
    )
    sv.add_argument(
        "--executor", choices=["process", "thread"], default="process",
        help="where CPU-bound planning runs (process pools keep "
        "per-worker caches warm; threads for restricted sandboxes)",
    )
    sv.add_argument(
        "--workers", type=int, default=None, help="max pool workers"
    )
    sv.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="disk-backed plan-cache tier shared with CLI/sweep runs",
    )
    sv.add_argument(
        "--lru-size", type=int, default=256, metavar="N",
        help="entries in the in-process LRU tier (default 256)",
    )
    sv.add_argument(
        "--breaker-backoff", type=float, default=0.5, metavar="S",
        help="circuit breaker: base backoff in seconds before probing "
        "a broken worker pool, doubled per failed probe (default 0.5)",
    )
    sv.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="arm deterministic fault injection (same spec format as "
        "the REPRO_FAULTS environment variable; chaos testing only)",
    )

    al = sub.add_parser("all", help=SUBCOMMANDS["all"])
    _add_common(al)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.planner.planner import NoFeasibleSchedule
    from repro.service.requests import RequestError

    args = build_parser().parse_args(argv)
    handlers = {
        "fig2": _cmd_fig2,
        "fig3": _cmd_fig3,
        "table3": _cmd_table3,
        "table5": _cmd_table5,
        "table6": _cmd_table6,
        "appendix-b": _cmd_appendix_b,
        "schedules": _cmd_schedules,
        "plan": _cmd_plan,
        "optimize": _cmd_optimize,
        "scenarios": _cmd_scenarios,
        "calibrate": _cmd_calibrate,
        "whatif": _cmd_whatif,
        "serve": _cmd_serve,
        "all": _cmd_all,
    }
    try:
        result = handlers[args.command](args)
    except (RequestError, NoFeasibleSchedule) as error:
        # An invalid flag value, or a config no schedule family fits:
        # the message the service's 400/422 carries, as an
        # argparse-style error.
        command = " ".join([args.command, *([args.action] if "action" in args else [])])
        raise SystemExit(f"repro-experiments {command}: error: {error}") from None
    except BrokenPipeError:
        # Piping into `head` closes stdout early; exit quietly the way
        # well-behaved Unix tools do instead of dumping a traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    # Most handlers print and return None; serve returns an exit code
    # (non-zero when worker processes leaked past shutdown).
    return 0 if result is None else int(result)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
