"""Table 5 / Figure 12 — peak memory of all five methods on 1F1B.

The paper's memory findings: baseline/Redis peak memory grows steeply
with the vocabulary (the end stages hold 2hV of training state each);
the Vocab methods grow only by the small shard/activation constant;
Vocab-2 sits one microbatch of activations below Vocab-1; interlaced
pays 1.5× activations and OOMs on the 32-GPU / 4096 panel.
"""

import pytest

from repro.harness.runner import run_table5_cell

from conftest import bench_microbatches

PANELS = [(8, 2048), (16, 4096), (32, 4096)]


@pytest.mark.parametrize("gpus,seq", PANELS, ids=[f"{g}gpu-{s}" for g, s in PANELS])
def test_tab05_memory_panel(benchmark, record, gpus, seq):
    m = bench_microbatches()
    sweep = benchmark.pedantic(
        lambda: run_table5_cell(gpus, seq, num_microbatches=m),
        rounds=1,
        iterations=1,
    )
    record(f"tab05_fig12_memory_{gpus}gpu_{seq}", sweep.render())

    baseline = sweep.memory_row("baseline")
    vocab1 = sweep.memory_row("vocab-1")
    vocab2 = sweep.memory_row("vocab-2")
    interlaced = sweep.memory_row("interlaced")

    # Baseline grows steeply with vocabulary; Vocab stays nearly flat.
    base_growth = baseline[-1] - baseline[0]
    vocab_growth = vocab1[-1] - vocab1[0]
    assert base_growth > 3.0 * max(vocab_growth, 0.1)
    # Vocab-2 < Vocab-1: the first stage holds min(m, p + 2) microbatches
    # under Vocab-1 and min(m, p + 1) under Vocab-2, so the gap needs
    # m ≥ p + 2.  With fewer, both hold all m and differ only by the
    # small shard/buffer constant.
    if m >= gpus + 2:
        assert all(v2 < v1 for v1, v2 in zip(vocab1, vocab2))
    else:
        assert all(abs(v2 - v1) < 0.25 for v1, v2 in zip(vocab1, vocab2))
    # Vocab beats baseline at the largest vocabulary.
    assert vocab1[-1] < baseline[-1]
    # Interlaced pays more activation memory than Vocab-1.
    assert all(i > v for i, v in zip(interlaced, vocab1))
    if (gpus, seq) == (32, 4096):
        # Paper: interlaced OOMs here; our model puts it within a few
        # GB of the 80 GB limit.  Interlaced holds min(m, 1.5p)
        # microbatches in flight, so that needs m ≥ 1.5p; with fewer it
        # fits in the 80 GB.
        if m >= 1.5 * gpus:
            assert interlaced[-1] > 70.0
        else:
            assert interlaced[-1] < 80.0
