"""Appendix B — interlaced pipeline memory factor and sync ablation.

B.1: the interlaced building block stretches 1F1B's lifespan from 3p to
≈4.5p → 1.5× peak activation memory.  B.2: removing the synchronous
all-reduces from the interlaced vocabulary segments recovered 10.95 %
of iteration time at 32 GPUs in the paper; the α–β model reproduces the
effect with no tuned constant.
"""

import pytest

from repro.harness.runner import run_interlaced_ablation

from conftest import bench_microbatches

GPUS = 32


def test_appb_interlaced_ablation(benchmark, record):
    m = bench_microbatches()
    result = benchmark.pedantic(
        lambda: run_interlaced_ablation(gpus=GPUS, num_microbatches=m),
        rounds=1,
        iterations=1,
    )
    record("appb_interlaced", result.render())
    # B.1 — the first stage holds min(m, p) microbatches under 1F1B and
    # min(m, 1.5p) under interlaced's longer lifespan, so the paper's
    # ≈1.5× needs m ≥ 1.5p; with fewer microbatches the simulator gives
    # the ratio of those two counts.
    if m >= 1.5 * GPUS:
        assert 1.3 < result.activation_memory_factor < 1.7
    else:
        expected = min(m, 1.5 * GPUS) / min(m, GPUS)
        assert result.activation_memory_factor == pytest.approx(expected, abs=0.03)
    # B.2 — sync all-reduces cost ≈11 % end to end (we land 7–13 %).
    assert 5.0 < result.speedup_percent < 14.0
