"""Tests for the symbolic execution engine, searchers, costs and havocs."""

import pytest

from repro.cfg.costs import annotate_costs, render_annotated_cfg
from repro.cfg.icfg import build_icfg
from repro.frontend.compiler import compile_nf
from repro.ir.module import Module
from repro.symbex.engine import SymbolicEngine
from repro.symbex.expr import Const, Sym
from repro.symbex.searcher import (
    BreadthFirstSearcher,
    CastanSearcher,
    DepthFirstSearcher,
    RandomSearcher,
    make_searcher,
)
from repro.symbex.solver import Solver
from repro.symbex.state import StateStatus


def make_module(source, regions=None):
    module = Module("test")
    for name, (length, size, initial) in (regions or {}).items():
        module.add_region(name, length, size, initial=initial)
    compile_nf(module, source, entry="process")
    return module


def packet_symbols(index=0):
    return [
        Sym(f"p{index}.src_ip", 32),
        Sym(f"p{index}.dst_ip", 32),
        Sym(f"p{index}.src_port", 16),
        Sym(f"p{index}.dst_port", 16),
        Sym(f"p{index}.protocol", 8),
    ]


BRANCHY_SOURCE = """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    if protocol != 17:
        return 0
    cost = 0
    i = 0
    while i < 6:
        if (dst_ip >> i) & 1 == 1:
            cost = cost + table[i]
        i = i + 1
    return cost
"""


class TestICFGAndCosts:
    def test_icfg_nodes_and_call_graph(self):
        module = make_module(
            "def helper(x):\n    return x + 1\n\n"
            "def process(src_ip, dst_ip, src_port, dst_port, protocol):\n"
            "    return helper(src_ip)\n"
        )
        icfg = build_icfg(module)
        assert icfg.total_nodes == module.instruction_count
        assert icfg.call_graph["process"] == {"helper"}
        assert icfg.callees_in_topological_order("process") == ["helper", "process"]

    def test_costs_descend_toward_return(self):
        module = make_module(BRANCHY_SOURCE, regions={"table": (8, 8, {})})
        annotation = annotate_costs(module, "process")
        cfg = annotation.icfg.cfg_of("process")
        entry_cost = annotation.cost_of(cfg.entry_uid)
        return_cost = min(annotation.cost_of(uid) for uid in cfg.exit_uids)
        assert entry_cost > return_cost > 0

    def test_loop_bound_monotonicity(self):
        module = make_module(BRANCHY_SOURCE, regions={"table": (8, 8, {})})
        costs = [annotate_costs(module, "process", loop_bound=m).entry_cost("process") for m in (1, 2, 3)]
        assert costs[0] <= costs[1] <= costs[2]
        assert costs[1] > costs[0]  # M=1 hides the loop body

    def test_call_cost_includes_callee(self):
        module = make_module(
            "def helper(x):\n    y = x\n    for i in range(8):\n        y = y + i\n    return y\n\n"
            "def process(src_ip, dst_ip, src_port, dst_port, protocol):\n"
            "    return helper(dst_ip)\n"
        )
        annotation = annotate_costs(module, "process")
        assert annotation.entry_cost("process") > annotation.entry_cost("helper") > 0

    def test_rejects_bad_loop_bound_and_recursion(self):
        module = make_module(BRANCHY_SOURCE, regions={"table": (8, 8, {})})
        with pytest.raises(ValueError):
            annotate_costs(module, "process", loop_bound=0)
        recursive = make_module(
            "def process(src_ip, dst_ip, src_port, dst_port, protocol):\n"
            "    return process(src_ip, dst_ip, src_port, dst_port, protocol)\n"
        )
        with pytest.raises(ValueError, match="recursive"):
            annotate_costs(recursive, "process")

    def test_render_annotated_cfg(self):
        module = make_module(BRANCHY_SOURCE, regions={"table": (8, 8, {})})
        annotation = annotate_costs(module, "process")
        text = render_annotated_cfg(annotation, "process")
        assert "potential cost" in text and "while.cond" in text


class TestSearchers:
    def test_castan_searcher_orders_by_priority(self):
        module = make_module(BRANCHY_SOURCE, regions={"table": (8, 8, {})})
        engine = SymbolicEngine(module, "process", [packet_symbols()])
        searcher = CastanSearcher()
        cheap, expensive = engine.make_initial_state(), engine.make_initial_state()
        cheap.priority, expensive.priority = 10, 100
        searcher.add(cheap)
        searcher.add(expensive)
        assert searcher.pop() is expensive

    def test_castan_tie_break_prefers_most_recent(self):
        module = make_module(BRANCHY_SOURCE, regions={"table": (8, 8, {})})
        engine = SymbolicEngine(module, "process", [packet_symbols()])
        searcher = CastanSearcher()
        first, second = engine.make_initial_state(), engine.make_initial_state()
        first.priority = second.priority = 5
        searcher.add(first)
        searcher.add(second)
        assert searcher.pop() is second

    def test_dfs_bfs_random_orders(self):
        module = make_module(BRANCHY_SOURCE, regions={"table": (8, 8, {})})
        engine = SymbolicEngine(module, "process", [packet_symbols()])
        states = [engine.make_initial_state() for _ in range(3)]
        dfs, bfs = DepthFirstSearcher(), BreadthFirstSearcher()
        for state in states:
            dfs.add(state)
            bfs.add(state)
        assert dfs.pop() is states[-1]
        assert bfs.pop() is states[0]
        rnd = RandomSearcher(seed=1)
        for state in states:
            rnd.add(state)
        assert rnd.pop() in states

    def test_make_searcher_names(self):
        for name in ("castan", "dfs", "bfs", "random"):
            assert make_searcher(name) is not None
        with pytest.raises(ValueError):
            make_searcher("astar")


class TestEngine:
    def test_pinned_value_query_needs_an_incremental_context(self):
        module = make_module(BRANCHY_SOURCE, regions={"table": (8, 8, {})})
        engine = SymbolicEngine(module, "process", [packet_symbols()])
        state = engine.make_initial_state()
        assert engine._memory_query_fns(state)[2] == state.solver_context.pinned_value
        state.solver_context = None  # hand-built states: the cache model probes as before
        assert engine._memory_query_fns(state)[2] is None

    def test_explores_all_paths_and_counts(self):
        module = make_module(BRANCHY_SOURCE, regions={"table": (8, 8, {i: 5 for i in range(8)})})
        annotation = annotate_costs(module, "process")
        engine = SymbolicEngine(module, "process", [packet_symbols()], annotation=annotation)
        stats = engine.run(CastanSearcher(), max_states=500)
        assert stats.forks > 0
        assert len(stats.completed_states) >= 2
        best = stats.best_state()
        assert best is not None and best.status is StateStatus.COMPLETED
        assert best.instructions_retired > 0 and best.current_cost > 0

    def test_best_state_is_solvable_and_worst(self):
        module = make_module(BRANCHY_SOURCE, regions={"table": (8, 8, {i: 5 for i in range(8)})})
        annotation = annotate_costs(module, "process")
        engine = SymbolicEngine(module, "process", [packet_symbols()], annotation=annotation)
        stats = engine.run(CastanSearcher(), max_states=500)
        best = stats.best_state()
        result = Solver().check(best.constraints, defaults={"p0.protocol": 17})
        assert result.is_sat
        # The worst path sets all six tested bits of dst_ip.
        assert bin(result.model["p0.dst_ip"] & 0x3F).count("1") == 6

    def test_state_threads_memory_across_packets(self):
        source = """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    seen = counter[0]
    counter[0] = seen + 1
    return seen
"""
        module = make_module(source, regions={"counter": (1, 8, {})})
        engine = SymbolicEngine(module, "process", [packet_symbols(0), packet_symbols(1), packet_symbols(2)])
        stats = engine.run(CastanSearcher(), max_states=10)
        best = stats.best_state()
        assert [a.value for a in best.packet_actions] == [0, 1, 2]
        assert len(best.packet_metrics) == 3

    def test_concrete_branches_do_not_fork(self):
        source = """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    total = 0
    for i in range(4):
        total = total + i
    return total
"""
        module = make_module(source)
        engine = SymbolicEngine(module, "process", [packet_symbols()])
        stats = engine.run(CastanSearcher(), max_states=50)
        assert stats.forks == 0
        assert len(stats.completed_states) == 1
        assert stats.completed_states[0].packet_actions[0] == Const(6)

    def test_havoc_creates_records_and_fresh_symbols(self):
        source = """
def hash_fn(key):
    return (key * 2654435761) & 0xFFFF

def process(src_ip, dst_ip, src_port, dst_port, protocol):
    h = castan_havoc(dst_ip, hash_fn(dst_ip))
    return slots[h & 7]
"""
        module = make_module(source, regions={"slots": (8, 8, {})})
        engine = SymbolicEngine(module, "process", [packet_symbols()], hash_output_bits={"hash_fn": 16})
        stats = engine.run(CastanSearcher(), max_states=50)
        best = stats.best_state()
        assert len(best.havoc_records) == 1
        record = best.havoc_records[0]
        assert record.hash_function == "hash_fn"
        assert record.symbol.bits == 16
        assert str(record.key_expr) == "p0.dst_ip"

    def test_infeasible_paths_are_pruned(self):
        source = """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    if protocol == 17:
        if protocol == 6:
            return 99
        return 1
    return 0
"""
        module = make_module(source)
        engine = SymbolicEngine(module, "process", [packet_symbols()])
        stats = engine.run(CastanSearcher(), max_states=100)
        actions = {state.packet_actions[0].value for state in stats.completed_states}
        assert 99 not in actions

    def test_loop_iteration_budget_guard(self):
        # A loop whose bound is symbolic: the engine must not run away.
        source = """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    i = 0
    while i < dst_port:
        i = i + 1
    return i
"""
        module = make_module(source)
        engine = SymbolicEngine(module, "process", [packet_symbols()], max_loop_iterations=16)
        stats = engine.run(CastanSearcher(), max_states=60)
        assert stats.states_explored <= 60
        assert stats.completed_states  # some paths completed despite the guard

    def test_arity_check_guards_on_packet_args(self):
        # Regression: the arity check must only run when packet args exist
        # (the original expression mixed `!=` and a ternary without parens).
        module = make_module(BRANCHY_SOURCE, regions={"table": (8, 8, {})})
        engine = SymbolicEngine(module, "process", [])  # no packets: fine
        assert engine.packet_args == []
        with pytest.raises(ValueError, match="packet argument count"):
            SymbolicEngine(module, "process", [[Const(1), Const(2)]])

    def test_out_of_bounds_concrete_index_marks_error(self):
        source = """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    return table[100]
"""
        module = make_module(source, regions={"table": (4, 8, {})})
        engine = SymbolicEngine(module, "process", [packet_symbols()])
        stats = engine.run(CastanSearcher(), max_states=10)
        assert stats.error_states == 1
