"""Tests for the experiment harness (settings, runners, tables, CLI)."""

import re

import pytest

from repro.harness import (
    GEMMA2_9B,
    MethodMetrics,
    format_table,
    model_for_1f1b,
    model_for_vhalf,
    run_method,
)
from repro.harness.experiments import KNOWN_METHODS, build_schedule
from repro.harness.runner import (
    run_figure2,
    run_figure3,
    run_table3,
    run_table5_cell,
    run_table6_cell,
)
from repro.harness.settings import parallel_for
from repro.sim import SimulationSetup


class TestSettings:
    def test_table1_shapes(self):
        model = model_for_1f1b(8, 2048, 32 * 1024)
        assert (model.num_layers, model.hidden_size) == (32, 3072)
        assert 3.4e9 < model.num_parameters() < 4.6e9   # "≈4B"
        model = model_for_1f1b(32, 4096, 256 * 1024)
        assert (model.num_layers, model.hidden_size) == (64, 5120)
        assert 19e9 < model.num_parameters() < 24e9     # "≈21B"

    def test_table2_shapes(self):
        model = model_for_vhalf(16, 2048, 32 * 1024)
        assert (model.num_layers, model.hidden_size) == (32, 4096)
        assert 6e9 < model.num_parameters() < 8e9       # "≈7B"

    def test_unknown_gpu_counts_rejected(self):
        with pytest.raises(ValueError):
            model_for_1f1b(12, 2048, 32 * 1024)
        with pytest.raises(ValueError):
            model_for_vhalf(8, 2048, 32 * 1024)

    def test_parallel_defaults(self):
        par = parallel_for(16)
        assert par.num_microbatches == 128
        assert par.microbatch_size == 1


class TestBuildSchedule:
    @pytest.mark.parametrize("method", KNOWN_METHODS)
    def test_all_methods_build_and_validate(self, method):
        gpus = 16 if method.startswith("vhalf") else 8
        model = (model_for_vhalf if method.startswith("vhalf") else model_for_1f1b)(
            gpus, 2048, 32 * 1024
        )
        setup = SimulationSetup(model, parallel_for(gpus, num_microbatches=8))
        schedule = build_schedule(method, setup, refine=False)
        schedule.validate()

    def test_unknown_method(self):
        model = model_for_1f1b(8, 2048, 32 * 1024)
        setup = SimulationSetup(model, parallel_for(8, 8))
        with pytest.raises(ValueError, match="unknown method"):
            build_schedule("zbh1", setup)


class TestRunMethod:
    def test_metrics_fields(self):
        model = model_for_1f1b(8, 2048, 32 * 1024)
        metrics = run_method("vocab-2", model, parallel_for(8, num_microbatches=16))
        assert isinstance(metrics, MethodMetrics)
        assert 0.0 < metrics.mfu < 1.0
        assert metrics.mfu_percent == pytest.approx(100 * metrics.mfu)
        assert len(metrics.per_device_peak_gb) == 8
        assert metrics.peak_memory_gb == pytest.approx(
            max(metrics.per_device_peak_gb)
        )
        assert not metrics.oom


class TestRunners:
    def test_figure2_output_ratio_grows(self):
        result = run_figure2(GEMMA2_9B)
        assert result.compute_output[-1] > result.compute_output[0]
        assert result.memory_output[-1] > 4.0   # ≈ 5-7 transformer layers
        assert result.compute_input[-1] < 0.1

    def test_figure3_redistribution_balances_compute_not_memory(self):
        result = run_figure3()
        # Compute spread shrinks...
        uniform_spread = max(result.uniform_compute) - min(result.uniform_compute)
        redis_spread = max(result.redis_compute) - min(result.redis_compute)
        assert redis_spread < uniform_spread
        # ...but the parameter-memory imbalance stays (§2's point).
        redis_mem_spread = max(result.redis_memory_gb) - min(result.redis_memory_gb)
        assert redis_mem_spread > 2.0

    def test_table3_shapes(self):
        result = run_table3()
        assert len(result.rows) == 6
        for _, layer, ours, paper in result.rows:
            assert len(ours) == len(paper) == 3
            if layer.startswith("output"):
                # Declines with GPU count, stays within 25 rel-% of paper.
                assert ours[0] > ours[2]
                for mine, theirs in zip(ours, paper):
                    assert abs(100 * mine - theirs) < 0.25 * theirs + 5

    def test_table5_cell_quick(self):
        sweep = run_table5_cell(
            8, 2048, vocab_sizes=(32 * 1024, 256 * 1024),
            methods=("baseline", "vocab-2"), num_microbatches=16,
        )
        base = sweep.mfu_row("baseline")
        vocab = sweep.mfu_row("vocab-2")
        assert base[-1] < base[0]          # baseline collapses with V
        assert vocab[-1] > base[-1]        # vocabulary parallelism wins
        rendered = sweep.render()
        assert "baseline" in rendered and "paper" in rendered

    def test_table6_cell_quick(self):
        sweep = run_table6_cell(
            16, 2048, vocab_sizes=(256 * 1024,), num_microbatches=16,
        )
        base = sweep.metrics[("vhalf-baseline", 256 * 1024)]
        vocab = sweep.metrics[("vhalf-vocab-1", 256 * 1024)]
        assert vocab.mfu > base.mfu
        assert vocab.memory_spread_gb < 0.2 * base.memory_spread_gb


class TestTables:
    def test_format_table_basic(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", None]])
        assert "2.50" in text and "OOM" in text

    def test_format_table_row_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestCLI:
    def test_fig2_command(self, capsys):
        from repro.harness.cli import main

        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out

    def test_table3_command(self, capsys):
        from repro.harness.cli import main

        assert main(["table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_schedules_command(self, capsys):
        from repro.harness.cli import main

        assert main(["schedules", "--devices", "2", "--microbatches", "4",
                     "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "device  0" in out

    def test_requires_command(self):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main([])

    def test_plan_command(self, capsys):
        from repro.harness.cli import main

        assert main(["plan", "--devices", "4", "--vocab", "128k",
                     "--microbatches", "8", "--top-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "Schedule plan" in out and "vocab 128k" in out

    def test_plan_command_grid(self, capsys):
        from repro.harness.cli import main

        assert main(["plan", "--devices", "4", "--vocab", "32k", "64k",
                     "--microbatches", "8", "--top-k", "0",
                     "--executor", "serial"]) == 0
        out = capsys.readouterr().out
        assert "Planner sweep" in out

    def test_plan_command_cache_dir(self, capsys, tmp_path):
        from repro.harness.cli import main

        args = ["plan", "--devices", "4", "--vocab", "32k",
                "--microbatches", "4", "--top-k", "1",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert list(tmp_path.glob("*.plan.pkl"))

    @pytest.mark.parametrize("flag", ["--devices", "--microbatches", "--width"])
    def test_schedules_rejects_non_positive_counts(self, capsys, flag):
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as exit_:
            main(["schedules", flag, "0"])
        assert exit_.value.code == 2
        assert f"argument {flag}: must be positive, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["plan", "optimize", "whatif"])
    def test_negative_pass_overhead_names_the_field(self, command):
        from repro.harness.cli import main

        message = (
            f"repro-experiments {command}: error: "
            "field 'pass_overhead' must be >= 0, got -1.0"
        )
        with pytest.raises(SystemExit, match=re.escape(message)):
            main([command, "--pass-overhead", "-1"])

    def test_plan_vocab_parsing(self):
        from repro.harness.cli import _request, build_parser
        from repro.service.requests import PlanRequest, RequestError

        def parse(vocab: str, top_k: str) -> PlanRequest:
            args = build_parser().parse_args(
                ["plan", "--vocab", vocab, "--top-k", top_k]
            )
            return _request(
                PlanRequest, args, devices=8, vocab_size=args.vocab_size[0],
                pass_overhead=None,
            )

        assert parse("128k", "3").vocab_size == 128 * 1024
        assert parse("131072", "3").vocab_size == 131072
        assert parse("128k", "all").simulate_top_k is None
        assert parse("128k", "2").simulate_top_k == 2
        with pytest.raises(RequestError, match="invalid vocabulary size"):
            parse("huge", "3")

    def test_help_epilog_lists_every_subcommand(self, capsys):
        from repro.harness.cli import SUBCOMMANDS, main

        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out
