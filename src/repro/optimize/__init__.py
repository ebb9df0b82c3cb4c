"""Token-split search beyond the named families.

Public surface: :func:`optimize` / :class:`OptimizedPlan` (the entry
point and its result), the rewrite (:class:`TokenSplit`, the whole
:func:`default_rewrites` catalog) and the scored chain
(:func:`split_chain` over a :class:`ScoreContext`, and :func:`replay`).
"""

from repro.optimize.optimizer import (
    DEFAULT_BUDGET,
    OPTIMIZER_VERSION,
    OptimizedPlan,
    optimize,
    optimize_cache_key,
)
from repro.optimize.rewrites import RewriteStep, TokenSplit, default_rewrites
from repro.optimize.search import (
    ScoreContext,
    ScoredCandidate,
    TokenSplitRuntime,
    replay,
    split_chain,
)

__all__ = [
    "DEFAULT_BUDGET",
    "OPTIMIZER_VERSION",
    "OptimizedPlan",
    "RewriteStep",
    "ScoreContext",
    "ScoredCandidate",
    "TokenSplit",
    "TokenSplitRuntime",
    "default_rewrites",
    "optimize",
    "optimize_cache_key",
    "replay",
    "split_chain",
]
