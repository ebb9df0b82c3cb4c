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
* ``optimize`` — rewrite-based schedule search
  (:mod:`repro.optimize`): start from the best named family and search
  semantics-preserving local rewrites (pass swaps, collective hoists,
  activation handoffs, token splits) for a schedule the simulator
  verifies as faster;
* ``scenarios`` — cluster scenarios (:mod:`repro.scenarios`): list and
  describe the registry, and price schedule robustness on non-ideal
  clusters with seeded Monte Carlo jitter;
* ``calibrate`` — calibrated cost models
  (:mod:`repro.costmodel.calibrate`): fit per-SKU hardware profiles
  against simulator ground truth, re-measure predicted-vs-simulated
  accuracy (``report``, with ``--check`` as a CI drift gate), and
  inspect committed profiles (``show``);
* ``whatif`` — price one single-device slowdown
  (:func:`repro.planner.whatif`): one sweep of the perturbed rows over
  a resident compiled graph instead of a full re-plan;
* ``serve`` — the long-running planning service (:mod:`repro.service`):
  one process answering plan/sweep/scenario/what-if/optimize queries
  over HTTP, with request coalescing, tiered caches and CPU-bound work
  on a supervised worker pool (see ``docs/service.md``);
* ``all`` — every table and figure (several minutes).

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
    repro-experiments optimize --scenario slow-node --seed 0
    repro-experiments optimize --devices 8 --strategy anneal --budget 128
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
    "optimize": "rewrite-based search for a schedule beating the families",
    "scenarios": "cluster scenarios: robustness on non-ideal clusters",
    "calibrate": "fit/inspect calibrated cost-model profiles",
    "whatif": "single-device what-if on a resident compiled graph",
    "serve": "HTTP planning service: one process, worker pool, caches",
    "all": "everything (several minutes)",
}


def _parse_vocab(text: str) -> int:
    """Parse a vocabulary size: ``131072``, ``128k`` or ``128K``."""
    text = text.strip().lower()
    try:
        if text.endswith("k"):
            return int(text[:-1]) * 1024
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid vocabulary size {text!r}; use e.g. 128k or 131072"
        ) from None


def _parse_top_k(text: str) -> int | None:
    """Parse ``--top-k``: an integer, or ``all`` to simulate everything."""
    if text.strip().lower() == "all":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid --top-k {text!r}; use an integer or 'all'"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError("--top-k must be >= 0 or 'all'")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--microbatches",
        type=int,
        default=128,
        help="microbatches per iteration (paper: 128)",
    )


def _add_format(parser: argparse.ArgumentParser) -> None:
    """The uniform ``--format {table,json}`` pair (+ legacy ``--json``)."""
    parser.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="output format (default table)",
    )
    parser.add_argument(
        "--json", action="store_const", dest="format", const="json",
        help="deprecated alias for --format json",
    )


def _add_scenario(parser: argparse.ArgumentParser, help_: str) -> None:
    parser.add_argument("--scenario", default=None, metavar="NAME", help=help_)


def _add_cost_model(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cost-model", default=None, metavar="NAME",
        help="price estimates with a calibrated cost-model profile "
        "(see 'repro-experiments calibrate'); a calibrated profile "
        "also trust-gates the top-k simulation (default: analytic)",
    )


def _add_seed(parser: argparse.ArgumentParser, help_: str) -> None:
    parser.add_argument("--seed", type=int, default=0, help=help_)


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
    import json

    from repro.planner.planner import PlannerConstraints
    from repro.planner.sweep import best_method_table, grid, plan_point, sweep
    from repro.service.requests import plans_to_json, sweep_to_json

    try:
        if args.cost_model is not None:
            # Resolve up front: a typo fails here with the name list
            # instead of inside a sweep worker.
            from repro.costmodel.calibrate import get_cost_model

            get_cost_model(args.cost_model)
        constraints = PlannerConstraints(
            memory_budget_gib=args.memory_budget,
            methods=tuple(args.methods) if args.methods else None,
            simulate_top_k=args.top_k,
            cost_model=args.cost_model,
        )
        points = grid(
            devices=args.devices,
            vocab_sizes=args.vocab,
            seq_lengths=[args.seq],
            microbatches=[args.microbatches],
            memory_budgets_gib=[args.memory_budget],
            pass_overheads=args.pass_overhead,
            scenarios=[args.scenario],
        )
        if len(points) == 1:
            plans = plan_point(
                points[0], constraints, cache_dir=args.cache_dir
            ).plans
            if args.format == "json":
                print(json.dumps(plans_to_json(plans), indent=2))
            else:
                print(plans.render())
            return
        outcomes = sweep(
            points,
            constraints,
            executor=args.executor,
            max_workers=args.workers,
            cache_dir=args.cache_dir,
            chunk_size=args.chunk_size,
        )
    except (ValueError, KeyError) as error:
        # Config validation (vocab/seq/devices bounds, unknown methods
        # or scenarios, bad budgets) surfaces as an argparse-style
        # message, not a traceback.  KeyError.__str__ would re-quote
        # the message; unwrap its payload instead.
        message = (
            error.args[0]
            if isinstance(error, KeyError) and error.args
            else error
        )
        raise SystemExit(f"repro-experiments plan: error: {message}") from None
    if args.format == "json":
        print(json.dumps(sweep_to_json(outcomes), indent=2))
        return
    for outcome in outcomes:
        print(outcome.plans.render())
        print()
    print(best_method_table(outcomes))


def _cmd_optimize(args: argparse.Namespace) -> None:
    import json

    from repro.config import ParallelConfig
    from repro.optimize import optimize
    from repro.planner.cache import PlanCache
    from repro.planner.planner import PlannerConstraints
    from repro.planner.sweep import model_for_devices

    try:
        if args.cost_model is not None:
            from repro.costmodel.calibrate import get_cost_model

            get_cost_model(args.cost_model)
        model = model_for_devices(args.devices, args.seq, args.vocab)
        parallel = ParallelConfig(
            pipeline_size=args.devices,
            num_microbatches=args.microbatches,
            microbatch_size=1,
        )
        constraints = PlannerConstraints(
            memory_budget_gib=args.memory_budget,
            methods=tuple(args.methods) if args.methods else None,
            cost_model=args.cost_model,
        )
        cache = (
            PlanCache(args.cache_dir) if args.cache_dir is not None else None
        )
        result = optimize(
            model,
            parallel,
            constraints,
            cache=cache,
            pass_overhead=args.pass_overhead,
            scenario=args.scenario,
            strategy=args.strategy,
            seed=args.seed,
            budget=args.budget,
        )
    except (ValueError, KeyError) as error:
        message = (
            error.args[0]
            if isinstance(error, KeyError) and error.args
            else error
        )
        raise SystemExit(
            f"repro-experiments optimize: error: {message}"
        ) from None
    if args.format == "json":
        print(json.dumps(result.as_dict(), indent=2))
        return
    print(result.render())


def _scenario_model(args: argparse.Namespace):
    """Model/parallel configuration of one ``scenarios`` invocation."""
    from repro.config import ParallelConfig
    from repro.planner.sweep import model_for_devices

    model = model_for_devices(args.devices, args.seq, args.vocab)
    parallel = ParallelConfig(
        pipeline_size=args.devices,
        num_microbatches=args.microbatches,
        microbatch_size=1,
    )
    return model, parallel


def _scenario_rows(stats) -> list[object]:
    """Shared stats columns of the ``run``/``compare`` tables.

    Times are pre-formatted to 4 decimals (format_table's default 2
    would hide single-digit-percent jitter spreads).
    """
    return [
        f"{stats.nominal_time:.4f}",
        f"{stats.p50_time:.4f}",
        f"{stats.p95_time:.4f}",
        f"{stats.worst_time:.4f}",
        round(100.0 * stats.p95_inflation, 2),
        round(100.0 * stats.p95_bubble, 2),
    ]


def _cmd_scenarios(args: argparse.Namespace) -> None:
    import json

    from repro.harness.tables import format_table
    from repro.scenarios import get_scenario, list_scenarios, method_robustness

    def require_scenario():
        if args.scenario is None:
            raise SystemExit(
                f"repro-experiments scenarios {args.action}: error: "
                "--scenario is required"
            )
        try:
            return get_scenario(args.scenario)
        except KeyError as error:
            raise SystemExit(
                f"repro-experiments scenarios: error: {error.args[0]}"
            ) from None

    if args.action == "list":
        scenarios = list_scenarios()
        if args.format == "json":
            print(
                json.dumps(
                    [
                        {"name": s.name, "description": s.description}
                        for s in scenarios
                    ],
                    indent=2,
                )
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

    if args.action == "describe":
        scenario = require_scenario()
        _, parallel = _scenario_model(args)
        print(scenario.describe(parallel))
        return

    scenario = require_scenario()
    model, parallel = _scenario_model(args)
    from repro.harness.experiments import KNOWN_METHODS
    from repro.planner.estimate import infeasibility_reason

    if args.action == "run":
        methods = [args.method]
        if args.method not in KNOWN_METHODS:
            raise SystemExit(
                f"repro-experiments scenarios run: error: unknown method "
                f"{args.method!r}; expected one of {KNOWN_METHODS}"
            )
    else:  # compare
        methods = list(KNOWN_METHODS)

    results = []
    skipped = []
    for method in methods:
        reason = infeasibility_reason(method, model, parallel)
        if reason is not None:
            skipped.append((method, reason))
            continue
        stats = method_robustness(
            method,
            model,
            parallel,
            scenario,
            samples=args.samples,
            seed=args.seed,
        )
        results.append((method, stats))
    # Robust ranking: the objective quantile, method name as tie-break.
    results.sort(key=lambda item: (item[1].p95_time, item[0]))

    if args.format == "json":
        print(
            json.dumps(
                {
                    "scenario": scenario.name,
                    "devices": args.devices,
                    "vocab_size": args.vocab,
                    "seq_length": args.seq,
                    "microbatches": args.microbatches,
                    "samples": args.samples,
                    "seed": args.seed,
                    "ranked": [
                        {"method": method, **stats.as_dict()}
                        for method, stats in results
                    ],
                    "skipped": [
                        {"method": method, "reason": reason}
                        for method, reason in skipped
                    ],
                },
                indent=2,
            )
        )
        return
    rows = [
        [rank, method] + _scenario_rows(stats)
        for rank, (method, stats) in enumerate(results, start=1)
    ]
    title = (
        f"Scenario {scenario.name} — {args.devices} devices, "
        f"vocab {args.vocab // 1024}k, seq {args.seq}, "
        f"m={args.microbatches}, K={args.samples}, seed {args.seed} "
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
    for method, reason in skipped:
        print(f"  skipped {method:15s} {reason}")


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
                engine=args.engine,
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
    import json

    from repro.harness.tables import format_table
    from repro.planner.cache import PlanCache
    from repro.planner.whatif import whatif

    try:
        model, parallel = _scenario_model(args)
        cache = (
            PlanCache(args.cache_dir) if args.cache_dir is not None else None
        )
        result = whatif(
            model,
            parallel,
            method=args.method,
            device=args.device,
            factor=args.factor,
            pass_overhead=args.pass_overhead,
            scenario=args.scenario,
            cache=cache,
        )
    except (ValueError, KeyError) as error:
        message = (
            error.args[0]
            if isinstance(error, KeyError) and error.args
            else error
        )
        raise SystemExit(
            f"repro-experiments whatif: error: {message}"
        ) from None
    if args.format == "json":
        print(json.dumps(result.as_dict(), indent=2))
        return
    title = (
        f"What-if — {result.method}: device {result.device} at "
        f"{result.factor:g}x duration, {args.devices} devices, "
        f"vocab {args.vocab // 1024}k, seq {args.seq}, "
        f"m={args.microbatches}"
    )
    print(
        format_table(
            [
                "baseline(s)", "whatif(s)", "slowdown", "bubble%",
                "whatif bubble%", "support",
            ],
            [
                [
                    f"{result.baseline_time:.4f}",
                    f"{result.whatif_time:.4f}",
                    f"{result.slowdown:.4f}",
                    round(100.0 * result.baseline_bubble, 2),
                    round(100.0 * result.whatif_bubble, 2),
                    result.support,
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
            max_cache_entries=args.max_cache_entries,
            max_inflight=args.max_inflight,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            default_deadline_ms=args.default_deadline_ms,
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
    sc.add_argument("--devices", type=int, default=4)
    sc.add_argument("--width", type=int, default=120)
    sc.add_argument("--mode", choices=["type", "microbatch"], default="type")
    _add_common(sc)

    pl = sub.add_parser("plan", help=SUBCOMMANDS["plan"])
    pl.add_argument(
        "--devices", type=int, nargs="+", default=[8],
        help="pipeline device counts to plan for (several values sweep a grid)",
    )
    pl.add_argument(
        "--vocab", type=_parse_vocab, nargs="+", default=[128 * 1024],
        metavar="SIZE", help="vocabulary sizes, e.g. 128k or 131072",
    )
    pl.add_argument("--seq", type=int, default=2048, help="sequence length")
    pl.add_argument(
        "--memory-budget", type=float, default=None, metavar="GIB",
        help="per-device peak-memory budget in GiB (default: the A100's 80)",
    )
    pl.add_argument(
        "--methods", nargs="+", default=None, metavar="METHOD",
        help="restrict the search to these schedule families",
    )
    pl.add_argument(
        "--pass-overhead", type=float, nargs="+", default=[None], metavar="S",
        help="per-pass host overhead bindings in seconds (several values "
        "sweep the §7 overhead ablation over shared schedule structures)",
    )
    pl.add_argument(
        "--top-k", type=_parse_top_k, default=3, metavar="K",
        help="simulate the K best-estimated candidates (0: estimates only, "
        "'all': simulate everything; default 3)",
    )
    pl.add_argument(
        "--executor", choices=["process", "thread", "serial"], default="process",
        help="pool type for grid sweeps",
    )
    pl.add_argument(
        "--workers", type=int, default=None, help="max sweep workers"
    )
    pl.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="grid points per pool task (default: ~4 chunks per worker)",
    )
    pl.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="disk-backed plan cache shared across invocations and workers",
    )
    _add_scenario(
        pl,
        "price the plan under a registered cluster scenario "
        "(see 'repro-experiments scenarios list')",
    )
    _add_cost_model(pl)
    _add_format(pl)
    _add_common(pl)

    op = sub.add_parser("optimize", help=SUBCOMMANDS["optimize"])
    op.add_argument(
        "--devices", type=int, default=8, help="pipeline device count"
    )
    op.add_argument(
        "--vocab", type=_parse_vocab, default=128 * 1024, metavar="SIZE",
        help="vocabulary size, e.g. 128k or 131072",
    )
    op.add_argument("--seq", type=int, default=2048, help="sequence length")
    op.add_argument(
        "--microbatches", type=int, default=16,
        help="microbatches per iteration (default 16 — small enough to "
        "keep the search interactive, with token-split headroom)",
    )
    op.add_argument(
        "--memory-budget", type=float, default=None, metavar="GIB",
        help="per-device peak-memory budget in GiB (default: the A100's 80)",
    )
    op.add_argument(
        "--methods", nargs="+", default=None, metavar="METHOD",
        help="restrict the starting named families",
    )
    op.add_argument(
        "--strategy", choices=["greedy", "anneal"], default="greedy",
        help="search strategy (default greedy; anneal accepts uphill "
        "moves on a cooling temperature)",
    )
    op.add_argument(
        "--budget", type=int, default=96, metavar="N",
        help="oracle evaluations the search may spend (default 96)",
    )
    op.add_argument(
        "--pass-overhead", type=float, default=None, metavar="S",
        help="per-pass host overhead binding in seconds",
    )
    op.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="disk-backed plan cache shared with plan/serve runs",
    )
    _add_seed(op, "seed for the search's random decisions (default 0)")
    _add_scenario(
        op, "optimize under a registered cluster scenario's runtime"
    )
    _add_cost_model(op)
    _add_format(op)

    sn = sub.add_parser("scenarios", help=SUBCOMMANDS["scenarios"])
    sn.add_argument(
        "action", choices=["list", "describe", "run", "compare"],
        help="list/describe the registry, or price one method ('run') / "
        "all schedule families ('compare') under a scenario",
    )
    _add_scenario(
        sn, "registered scenario name (required for describe/run/compare)"
    )
    sn.add_argument(
        "--method", default="vocab-1", metavar="METHOD",
        help="schedule family for 'run' (default vocab-1)",
    )
    sn.add_argument(
        "--devices", type=int, default=12,
        help="pipeline device count (default 12 — two nodes of 8+4, so "
        "node-level scenarios like slow-node and bandwidth-asymmetric "
        "have a real inter-node boundary to act on)",
    )
    sn.add_argument(
        "--vocab", type=_parse_vocab, default=128 * 1024, metavar="SIZE",
        help="vocabulary size, e.g. 128k or 131072",
    )
    sn.add_argument("--seq", type=int, default=2048, help="sequence length")
    sn.add_argument(
        "--microbatches", type=int, default=32,
        help="microbatches per iteration (default 32 — smaller than the "
        "paper's 128 to keep Monte Carlo interactive)",
    )
    sn.add_argument(
        "--samples", type=int, default=256, metavar="K",
        help="Monte Carlo jitter samples per method (default 256)",
    )
    _add_seed(sn, "sample seed combined with the scenario's base seed")
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
        "--engine", choices=["auto", "python", "numpy"], default="auto",
        help="least-squares engine; both produce bit-identical fits "
        "(default auto: numpy when installed)",
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
    wi.add_argument(
        "--devices", type=int, default=8, help="pipeline device count"
    )
    wi.add_argument(
        "--vocab", type=_parse_vocab, default=128 * 1024, metavar="SIZE",
        help="vocabulary size, e.g. 128k or 131072",
    )
    wi.add_argument("--seq", type=int, default=2048, help="sequence length")
    wi.add_argument(
        "--method", default="vocab-1", metavar="METHOD",
        help="schedule family to perturb (default vocab-1)",
    )
    wi.add_argument(
        "--device", type=int, default=-1,
        help="device whose passes slow down; negative counts from the "
        "end of the pipeline (default -1, the last device)",
    )
    wi.add_argument(
        "--factor", type=float, default=1.3,
        help="duration multiplier for the perturbed device (default 1.3)",
    )
    wi.add_argument(
        "--pass-overhead", type=float, default=None, metavar="S",
        help="per-pass host overhead binding in seconds",
    )
    _add_scenario(
        wi, "price the baseline under a registered cluster scenario"
    )
    wi.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="disk-backed plan cache shared with plan/serve runs",
    )
    _add_format(wi)
    _add_common(wi)

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
        "--max-cache-entries", type=int, default=1024, metavar="N",
        help="per-kind bound on the disk cache tier (default 1024)",
    )
    sv.add_argument(
        "--max-inflight", type=int, default=64, metavar="N",
        help="admission control: in-flight compute budget per request "
        "class before shedding with 429 (default 64)",
    )
    sv.add_argument(
        "--tenant-rate", type=float, default=None, metavar="R",
        help="admission control: per-tenant token-bucket rate in "
        "requests/s, keyed on the X-Tenant header (default: off)",
    )
    sv.add_argument(
        "--tenant-burst", type=float, default=None, metavar="B",
        help="per-tenant bucket capacity (default: 2x --tenant-rate)",
    )
    sv.add_argument(
        "--default-deadline-ms", type=float, default=None, metavar="MS",
        help="deadline applied to requests that carry no deadline_ms "
        "field (default: none)",
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
