"""Search memory per state is O(delta), not O(path).

A fork of a :class:`SolverContext` and a clone of the contention-set cache
model share everything that grows with the path; each side owns only what
it adds afterwards.  Bytes are counted with ``tracemalloc``, which counts
every allocation the same way on every run.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.cache.contention import ContentionSets
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.cache.model import TOUCHED_ELEMENT_WINDOW, ContentionSetCacheModel
from repro.ir.instructions import CmpKind
from repro.ir.module import MemoryRegion
from repro.symbex.expr import Const, Sym, expr_eq, make_cmp
from repro.symbex.incremental import CONTEXT_STATS, SolverContext, clear_incremental_caches
from repro.symbex.solver import Solver

#: Bytes a fork or clone may retain beyond the small-path case's.
SLACK = 256


def retained_bytes(action):
    """Bytes still allocated after ``action()`` (its result kept alive)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = action()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del kept
    return retained


def context_with(length):
    """A context that pinned ``length`` symbols and then committed ``length``
    propagation-blind comparisons between others."""
    clear_incremental_caches()
    context = SolverContext(Solver())
    for i in range(length):
        context.add(expr_eq(Sym(f"pin{i}", 16), Const(i)))
    for i in range(length):
        context.add(make_cmp(CmpKind.ULT, Sym(f"key{i}", 16), Sym(f"key{i + 1}", 16)))
    assert not context.unsat and context._converged
    return context


def fork_and_add(context):
    """A fork, plus one blind commit on the child and on the parent."""
    child = context.fork()
    child.add(make_cmp(CmpKind.ULT, Sym("a", 16), Sym("b", 16)))
    context.add(make_cmp(CmpKind.ULT, Sym("b", 16), Sym("c", 16)))
    return child


class TestForkedContexts:
    def test_a_fork_retains_the_same_bytes_at_any_path_length(self):
        blind = CONTEXT_STATS.blind_adds
        short, long = context_with(10), context_with(1000)
        assert CONTEXT_STATS.blind_adds - blind == 1010
        fork_and_add(context_with(1))  # interns the constraints the measured forks commit
        retained = []
        for context in (short, long):
            context.fork()  # freezes the tail the context was built with; measure the next
            clear_incremental_caches()
            retained.append(retained_bytes(lambda: fork_and_add(context)))
        assert abs(retained[1] - retained[0]) <= SLACK

    def test_forks_see_the_shared_log_and_only_their_own_commits(self):
        parent = context_with(3)
        child = fork_and_add(parent)
        pending = parent.fixpoint()[2]
        assert child.fixpoint()[2][:-1] == pending[:-1]
        assert child.fixpoint()[2][-1] is not pending[-1]
        assert len(child) == len(parent) == 7
        assert child.pinned_assignment() == parent.pinned_assignment()
        # The first propagating commit gives the child its own dicts.
        child.add(expr_eq(Sym("pin100", 16), Const(5)))
        assert child.assignment_of("pin100") == 5
        assert parent.assignment_of("pin100") is None


class TestClonedCacheModels:
    REGION = MemoryRegion(name="flows", length=4096, element_size=64, base_address=1 << 34)

    def model_with(self, accesses):
        """A model over a region outside every contention set, after
        ``accesses`` distinct element accesses."""
        hierarchy = MemoryHierarchy(HierarchyConfig(l3_size=16 * 1024, l3_ways=4, l3_slices=2))
        pool = [(1 << 30) + i * 64 for i in range(64)]
        model = ContentionSetCacheModel(ContentionSets.from_oracle(hierarchy, pool))
        for index in range(accesses):
            model.on_access(self.REGION, Const(index), False, lambda c: True, lambda e: index)
        return model

    def clone_and_touch(self, model):
        """A clone, plus one access on the clone and one on the original."""
        clone = model.clone()
        clone.on_access(self.REGION, Const(4000), False, lambda c: True, lambda e: 0)
        model.on_access(self.REGION, Const(4001), False, lambda c: True, lambda e: 0)
        return clone

    def test_a_clone_retains_the_same_bytes_with_a_full_window(self):
        small, full = self.model_with(10), self.model_with(2 * TOUCHED_ELEMENT_WINDOW - 1)
        assert len(full.touched_window(self.REGION.name)) == TOUCHED_ELEMENT_WINDOW
        assert len(full.touched_lines()) == 2 * TOUCHED_ELEMENT_WINDOW - 1
        assert len(full._recent_lines) == full.l1_window
        self.clone_and_touch(self.model_with(1))  # interns the indices the clones access
        retained = [retained_bytes(lambda: self.clone_and_touch(m)) for m in (small, full)]
        assert abs(retained[1] - retained[0]) <= SLACK


#: Heap per explored state of nat-unbalanced-tree at 800 states over the
#: same at 400 states (Python 3.11 and 3.12).  While each fork copied the pending
#: list and the cache model's windows it read 1.17.
PER_STATE_RATIO = 0.918

_PER_STATE_SCRIPT = """
import json, sys, tracemalloc
from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.nf.registry import get_nf
from repro.symbex import engine

states = int(sys.argv[1])
end = []
drain = engine._drain_best_pending
def recording(searcher, limit):
    end.append(tracemalloc.get_traced_memory()[0])
    return drain(searcher, limit)
engine._drain_best_pending = recording
castan = Castan(CastanConfig(deadline_seconds=None, max_states=states))
nf = get_nf("nat-unbalanced-tree")
tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
result = castan.analyze(nf)
print(json.dumps([result.states_explored, end[0] - start]))
"""


def heap_per_state(states):
    """Heap held at the end of the search per explored state, in a fresh process."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _PER_STATE_SCRIPT, str(states)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    explored, held = json.loads(out.stdout.strip().splitlines()[-1])
    assert explored == states
    return held / explored


def test_heap_per_explored_state_does_not_grow_with_the_budget():
    ratio = heap_per_state(800) / heap_per_state(400)
    assert ratio <= 1.0
    assert ratio == pytest.approx(PER_STATE_RATIO, abs=0.04)
