"""The convergence stop of the monolithic search, and why a search ended.

``SymbolicEngine.run(converge_chunk=...)`` ends the search once a chunk of
pops completes paths without beating the best completed cost, the rule the
beam strike round applies between its chunks.  ``Castan`` turns it on for
the monolithic search with ``strike_chunk_states`` as the chunk.

The per-NF rows were recorded at ``max_states=1000`` without a deadline on
the search that spent its whole budget, before the stop existed.  The stop
must not move the emitted workload, the predicted cost, the solver verdict
or the per-packet metrics of any NF below except the two listed in
``CHANGED``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import asdict

import pytest

from repro.cache.model import NoCacheModel
from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.core.workload import workload_digest
from repro.nf.registry import get_nf
from repro.service.store import canonical_result_digest, perf_record, result_summary
from repro.symbex.engine import SymbolicEngine
from repro.symbex.incremental import SolverContext
from repro.symbex.searcher import make_searcher
from repro.symbex.solver import Solver
from repro.symbex.state import ExecutionState, StateStatus

BUDGET = dict(max_states=1000, deadline_seconds=None)

#: NF -> (workload digest prefix, best state cost, solver status, per-packet
#: metrics digest prefix) of the search without the stop.
BEFORE = {
    "lpm-patricia": ("92286fad5464ddac", 3494, "sat", "1537bd09467510a9"),
    "lb-hash-table": ("6d77896ed4a7ff26", 10338, "sat", "ed15882a7caa82f5"),
    "lb-hash-ring": ("a3de83c17ee6e6c8", 21472, "sat", "a53f8dc47458a416"),
    "lb-red-black-tree": ("b529437f217097ea", 31154, "unsat", "1ab3f3d8c1f07fcc"),
    "nat-hash-table": ("7466f70e8ece44c3", 16352, "sat", "0ad5637c3f8353dc"),
    "nat-hash-ring": ("c904abdc923fdc09", 39592, "sat", "d85b2abdc8043eb1"),
    "policer-two-choice": ("170c059a650288bd", 27646, "sat", "978da270a1dc6e0d"),
    "dedup-bloom": ("f47bafe8c26a0dba", 6132, "sat", "543decdede42bf22"),
    "dpi-trie": ("0264c9ec959f34d1", 3500, "sat", "d108a857b78bb2a8"),
    # Completes no path within the budget, so it cannot converge.
    "lb-unbalanced-tree": ("1d9fadd81e8af9a4", 22023, "unsat", "3d3316d6e0f2fb1b"),
}

#: The NFs whose output the stop changes: a later completion of the full
#: search beat the path the converged search keeps.  Same row shape.
CHANGED = {
    # Still unsat with the same defaults-only packets; only the cost moves.
    "lb-red-black-tree": ("b529437f217097ea", 30881, "unsat", "6bbe5f97212ca2d2"),
    "dpi-trie": ("94b616a858f2fe2c", 3270, "sat", "c92821a638cd3809"),
}

#: NF -> (states explored, stop reason) with the stop.
STOPS = {
    "lpm-patricia": (288, "converged"),
    "lb-hash-table": (320, "converged"),
    "lb-hash-ring": (224, "converged"),
    "lb-red-black-tree": (736, "converged"),
    "nat-hash-table": (352, "converged"),
    "nat-hash-ring": (160, "converged"),
    "policer-two-choice": (128, "converged"),
    "dedup-bloom": (512, "converged"),
    "dpi-trie": (160, "converged"),
    "lb-unbalanced-tree": (1000, "budget"),
}


@functools.cache
def _analysis(name: str, **overrides):
    return Castan(CastanConfig(**{**BUDGET, **overrides})).analyze(get_nf(name))


def _row(result) -> tuple:
    metrics = json.dumps(asdict(result.metrics), sort_keys=True)
    return (
        workload_digest(result.packets)[:16],
        result.best_state_cost,
        result.solver_status,
        hashlib.sha256(metrics.encode()).hexdigest()[:16],
    )


class TestMonolithicConvergence:
    @pytest.mark.parametrize("name", sorted(BEFORE))
    def test_output_is_unchanged_or_listed(self, name):
        assert _row(_analysis(name)) == CHANGED.get(name, BEFORE[name])

    @pytest.mark.parametrize("name", sorted(STOPS))
    def test_stops_where_recorded(self, name):
        result = _analysis(name)
        assert (result.states_explored, result.stop_reason) == STOPS[name]

    def test_beam_reports_its_strike_convergence(self):
        result = _analysis("lb-hash-table", search_mode="beam")
        assert result.search_rounds > 1
        assert result.stop_reason == "converged"


class TestStopReasons:
    def test_converged_is_reported_with_the_budget(self):
        result = _analysis("lb-hash-table")
        assert "converged at 320 of 1000 states" in result.summary()
        assert result_summary(result)["stop_reason"] == "converged"
        assert perf_record(result)["stop_reason"] == "converged"

    def test_budget(self):
        assert _analysis("lb-hash-table", max_states=60).stop_reason == "budget"

    def test_drained(self):
        result = _analysis("nop")
        assert result.stop_reason == "drained"
        assert result.summary().endswith("drained at 1 of 1000 states")

    def test_deadline(self):
        result = Castan(CastanConfig(max_states=1000, deadline_seconds=0.001)).analyze(
            get_nf("lb-hash-table")
        )
        assert result.stop_reason == "deadline"

    def test_stop_reason_stays_out_of_the_result_digest(self):
        result = _analysis("lb-hash-table", max_states=60)
        digest = canonical_result_digest(result)
        result.stop_reason = "deadline"
        assert canonical_result_digest(result) == digest


# -- the rule, at engine level --------------------------------------------------


def _scripted_run(completions: dict[int, int], chunk: int | None = 4):
    """Run the engine on a stand-in step that completes a path of cost
    ``completions[i]`` on pop ``i`` (1-based) and otherwise keeps going."""
    engine = SymbolicEngine(get_nf("nop").module, get_nf("nop").entry, [])
    pops = itertools.count(1)

    def step(state, _max_instructions):
        outcomes = [state]
        cost = completions.get(next(pops))
        if cost is not None:
            done = state.fork()
            done.status = StateStatus.COMPLETED
            done.current_cost = cost
            outcomes.append(done)
        return outcomes

    engine.execute_until_fork = step
    return engine.run(
        make_searcher("dfs"),
        max_states=40,
        initial_states=[ExecutionState(NoCacheModel(), 1, SolverContext(Solver()))],
        converge_chunk=chunk,
    )


class TestConvergenceRule:
    def test_no_stop_before_two_chunks(self):
        stats = _scripted_run({i: 10 for i in range(1, 41)})
        assert (stats.states_explored, stats.stop_reason) == (8, "converged")

    def test_no_stop_while_no_path_has_completed(self):
        stats = _scripted_run({})
        assert (stats.states_explored, stats.stop_reason) == (40, "budget")

    def test_a_chunk_that_ties_the_best_stops(self):
        stats = _scripted_run({2: 10, 6: 10})
        assert (stats.states_explored, stats.stop_reason) == (8, "converged")

    def test_a_chunk_that_beats_the_best_goes_on(self):
        stats = _scripted_run({2: 10, 6: 11, 10: 11})
        assert (stats.states_explored, stats.stop_reason) == (12, "converged")

    def test_a_chunk_without_completions_goes_on(self):
        stats = _scripted_run({2: 10, 10: 5})
        assert (stats.states_explored, stats.stop_reason) == (12, "converged")

    def test_off_without_a_chunk(self):
        stats = _scripted_run({i: 10 for i in range(1, 41)}, chunk=None)
        assert (stats.states_explored, stats.stop_reason) == (40, "budget")
