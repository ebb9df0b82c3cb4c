"""Rewrite-based schedule search beyond the named families.

Public surface: :func:`optimize` / :class:`OptimizedPlan` (the entry
point and its result), the IR (:class:`ScheduleIR`), the two rewrites
(:func:`default_rewrites`, :class:`ActivationHandoff` and
:class:`TokenSplit`) and the search (:func:`greedy_search` over a
:class:`ScoreContext`).
"""

from repro.optimize.ir import ScheduleIR
from repro.optimize.optimizer import (
    DEFAULT_BUDGET,
    OPTIMIZER_VERSION,
    OptimizedPlan,
    optimize,
    optimize_cache_key,
)
from repro.optimize.rewrites import (
    ActivationHandoff,
    Rewrite,
    RewriteContext,
    RewriteStep,
    TokenSplit,
    default_rewrites,
)
from repro.optimize.search import (
    ScoreContext,
    ScoredCandidate,
    TokenSplitRuntime,
    greedy_search,
)

__all__ = [
    "DEFAULT_BUDGET",
    "OPTIMIZER_VERSION",
    "ActivationHandoff",
    "OptimizedPlan",
    "Rewrite",
    "RewriteContext",
    "RewriteStep",
    "ScheduleIR",
    "ScoreContext",
    "ScoredCandidate",
    "TokenSplit",
    "TokenSplitRuntime",
    "default_rewrites",
    "greedy_search",
    "optimize",
    "optimize_cache_key",
]
