"""The optimizer's dependence index is reachability over the compiled CSR.

:class:`~repro.optimize.ir.DependenceIndex` answers ``path(a, b)`` with a
longest-path depth filter and a memoized, depth-pruned BFS over the
program graph's successor CSR.  On small programs of every schedule
family, unsplit and token-split twice, it must agree with plain BFS
reachability over the same successor lists (no depth filter, no memo)
for every ordered pair of pass nodes.
"""

import pytest

from repro.config import ParallelConfig
from repro.harness.experiments import KNOWN_METHODS, build_schedule
from repro.optimize import ScheduleIR, ScoreContext, TokenSplit
from repro.planner.sweep import model_for_devices
from repro.sim import SimulationSetup

SETUP = SimulationSetup(
    model_for_devices(4, 256, 4096),
    ParallelConfig(pipeline_size=4, num_microbatches=1, microbatch_size=1),
)


def programs(method):
    """The family's scored program at split 1, 2 and 4."""
    ctx = ScoreContext(SETUP)
    candidate = ctx.score(ScheduleIR.from_schedule(build_schedule(method, SETUP)), ())
    out = [candidate]
    for _ in range(2):
        ir, step = TokenSplit().apply(candidate.ir, ())
        candidate = ctx.score(ir, (step,))
        out.append(candidate)
    return out


def reachable(graph, source: int) -> set[int]:
    """Every node a path of CSR edges leads to from ``source``."""
    off, succ = graph.succ_off, graph.succ_node
    seen: set[int] = set()
    stack = [source]
    while stack:
        u = stack.pop()
        for v in succ[off[u]:off[u + 1]]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


@pytest.mark.parametrize("method", KNOWN_METHODS)
def test_path_equals_plain_reachability(method):
    splits = []
    for candidate in programs(method):
        ir, graph = candidate.ir, candidate.graph
        splits.append(ir.split)
        deps = ir.deps()
        passes = range(graph.num_passes)
        expected = [[b in reachable(graph, a) for b in passes] for a in passes]
        assert any(map(any, expected)), "the program has dependences"
        assert [[deps.path(a, b) for b in passes] for a in passes] == expected
        # Asked again, the memoized answers are the same.
        assert [[deps.path(a, b) for b in passes] for a in passes] == expected
    assert splits == [1, 2, 4]


def test_index_is_shared_by_reordered_programs():
    candidate = programs("vocab-1")[0]
    ir = candidate.ir
    deps = ir.deps()
    assert ir.copy().deps() is deps
    split, _ = TokenSplit().apply(ir, ())
    assert split.graph is None and split._deps is None
