"""Bulk seeding and draining of searchers (``extend`` / ``drain``).

A strike chunk hands its whole frontier to the next engine run.  The engine
re-seeds it with one ``Searcher.extend`` and reports it with one
``Searcher.drain``, and re-derives a priority only where it can have
changed.  These tests hold that to the per-element loops it replaced: the
same pop sequences for every searcher, the same analysis outputs with the
parent's loops re-instated behind the bulk API, and a bound on how often a
priority is computed.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.nf.registry import get_nf
from repro.service.store import canonical_result_digest
from repro.symbex.engine import SymbolicEngine
from repro.symbex.searcher import SEARCHERS, Searcher, make_searcher

# -- pop-order differential -----------------------------------------------------


class _State:
    """The two attributes a searcher reads from a state."""

    def __init__(self, priority: int, preferred: bool) -> None:
        self.priority = priority
        self.preferred_loop_iteration = preferred


_states = st.lists(
    st.builds(_State, st.integers(0, 3), st.booleans()), max_size=6
)  # few distinct priorities: most entries tie
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.builds(_State, st.integers(0, 3), st.booleans())),
        st.tuples(st.just("extend"), _states),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("drain"), st.none()),
    ),
    max_size=40,
)


@pytest.mark.parametrize("name", sorted(SEARCHERS))
@settings(max_examples=150, deadline=None)
@given(operations=_operations)
def test_bulk_operations_pop_like_the_loops_they_replace(name, operations):
    bulk, loops = make_searcher(name, seed=7), make_searcher(name, seed=7)
    popped_bulk, popped_loops = [], []
    for operation, argument in operations:
        if operation == "add":
            bulk.add(argument)
            loops.add(argument)
        elif operation == "extend":
            bulk.extend(argument)
            for state in argument:
                loops.add(state)
        elif operation == "pop":
            if len(loops):
                popped_bulk.append(bulk.pop())
                popped_loops.append(loops.pop())
        else:
            popped_bulk.extend(bulk.drain())
            while len(loops):
                popped_loops.append(loops.pop())
        assert len(bulk) == len(loops)
    popped_bulk.extend(bulk.drain())
    while len(loops):
        popped_loops.append(loops.pop())
    assert [id(state) for state in popped_bulk] == [id(state) for state in popped_loops]


# -- the parent's loops as the reference ---------------------------------------


class _ParentLoops(Searcher):
    """The seed and drain loops ``engine.run`` had before the bulk API.

    Every seed's priority is re-derived and pushed on its own; the report
    is popped one state at a time.
    """

    def __init__(self, inner: Searcher, engine: SymbolicEngine) -> None:
        self.inner = inner
        self.engine = engine
        self.add = inner.add
        self.pop = inner.pop

    def __len__(self) -> int:
        return len(self.inner)

    def extend(self, states) -> None:
        for state in states:
            self.engine._update_priority(state)
            self.inner.add(state)

    def drain(self):
        drained = []
        while not self.inner.empty:
            drained.append(self.inner.pop())
        return drained


def _analyze(nf_name: str, max_states: int):
    config = CastanConfig(max_states=max_states, deadline_seconds=None, search_mode="beam")
    seen = []
    result = Castan(config).analyze(get_nf(nf_name), on_round=seen.append)
    return result, [dataclasses.replace(r, wall_time_seconds=0.0) for r in seen]


@pytest.mark.parametrize(
    "nf_name",
    ["fw-conntrack", "lb-hash-table", "chain-edge", "nat-red-black-tree", "lpm-patricia"],
)
def test_beam_run_equals_the_parent_loops(nf_name, monkeypatch):
    result, rounds = _analyze(nf_name, 300)

    real_run = SymbolicEngine.run

    def run_with_parent_loops(self, searcher, *args, **kwargs):
        return real_run(self, _ParentLoops(searcher, self), *args, **kwargs)

    monkeypatch.setattr(SymbolicEngine, "run", run_with_parent_loops)
    reference, reference_rounds = _analyze(nf_name, 300)

    assert canonical_result_digest(result) == canonical_result_digest(reference)
    assert result.states_explored == reference.states_explored
    assert rounds == reference_rounds
    if nf_name != "chain-edge":  # its search drains at 65 states, inside the first chunk
        assert sum(1 for r in rounds if r.phase == "strike") >= 2  # a frontier was re-seeded


# -- count guard ----------------------------------------------------------------


def test_priorities_are_computed_per_step_not_per_frontier(monkeypatch):
    """fw-conntrack re-seeds ~1 000-state frontiers every 32 pops: the number
    of priority computations must follow the pops, not the frontier (the
    per-element seed loop measured ~31 per explored state)."""
    calls = 0
    real = SymbolicEngine._update_priority

    def counting(self, state):
        nonlocal calls
        calls += 1
        real(self, state)

    monkeypatch.setattr(SymbolicEngine, "_update_priority", counting)
    result, _rounds = _analyze("fw-conntrack", 600)
    assert result.states_explored > 500
    assert calls <= 4 * result.states_explored
