"""Shared fixtures for the test suite.

NumPy is an optional dependency of the package (see pyproject.toml),
and CI runs a ``no-numpy`` matrix leg over the planner/service subset:
the import here must stay optional so collection succeeds without it —
numerical tests request the ``rng`` fixture and skip cleanly instead.
"""

from __future__ import annotations

import pytest

try:
    import numpy as np
except ImportError:  # the no-numpy CI leg
    np = None

import repro.planner.cache
from repro.config import ModelConfig, ParallelConfig


@pytest.fixture
def rng():
    if np is None:
        pytest.skip("numpy is not installed")
    return np.random.default_rng(12345)


@pytest.fixture
def bound(monkeypatch):
    """``bound(n)`` caps every :class:`~repro.planner.cache.PlanCache`
    constructed afterwards at ``n`` entries per kind."""

    def shrink(n: int) -> None:
        monkeypatch.setattr(repro.planner.cache, "DEFAULT_MAX_ENTRIES", n)

    return shrink


@pytest.fixture
def small_model() -> ModelConfig:
    """A model small enough for fast schedule simulation."""
    return ModelConfig(
        num_layers=8,
        hidden_size=512,
        num_attention_heads=8,
        seq_length=256,
        vocab_size=4096,
    )


@pytest.fixture
def small_parallel() -> ParallelConfig:
    return ParallelConfig(pipeline_size=4, num_microbatches=16)


@pytest.fixture
def paper_4b_model() -> ModelConfig:
    """The paper's ≈4B setting (Table 1, 8 GPUs)."""
    return ModelConfig(
        num_layers=32,
        hidden_size=3072,
        num_attention_heads=24,
        seq_length=2048,
        vocab_size=256 * 1024,
    )
