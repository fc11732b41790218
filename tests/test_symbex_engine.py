"""Tests for the symbolic execution engine, searchers, costs and havocs."""

import hashlib
import itertools
import pickle

import pytest

from repro.cfg.costs import annotate_costs, render_annotated_cfg
from repro.cfg.icfg import InterproceduralCFG, build_icfg
from repro.core.workload import make_packet_symbols, symbol_defaults
from repro.frontend.compiler import compile_nf
from repro.hashing.functions import FLOW_HASH_BITS
from repro.ir.module import Module
from repro.nf.registry import NF_NAMES, get_nf
from repro.symbex import engine as engine_module
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


def _recursive_topological_order(icfg, entry):
    """The recursive form ``callees_in_topological_order`` had (the reference)."""
    order = []
    state = {}  # 0 = visiting, 1 = done

    def visit(name, stack):
        if state.get(name) == 1:
            return
        if state.get(name) == 0:
            cycle = " -> ".join(stack + (name,))
            raise ValueError(f"recursive call cycle in NF: {cycle}")
        state[name] = 0
        for callee in sorted(icfg.call_graph.get(name, ())):
            visit(callee, stack + (name,))
        state[name] = 1
        order.append(name)

    visit(entry, ())
    return order


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

    @pytest.mark.parametrize("nf_name", NF_NAMES)
    def test_topological_order_matches_the_recursive_reference(self, nf_name):
        icfg = build_icfg(get_nf(nf_name).module)
        for entry in icfg.call_graph:
            assert icfg.callees_in_topological_order(entry) == _recursive_topological_order(
                icfg, entry
            )

    @pytest.mark.parametrize(
        "call_graph,entry,cycle",
        [
            ({"a": {"b"}, "b": {"a"}}, "a", "a -> b -> a"),
            ({"e": {"a", "z"}, "a": {"b"}, "b": {"a"}, "z": set()}, "e", "e -> a -> b -> a"),
        ],
    )
    def test_mutual_recursion_names_the_cycle(self, call_graph, entry, cycle):
        icfg = InterproceduralCFG(module=Module("cyclic"), call_graph=call_graph)
        message = f"recursive call cycle in NF: {cycle}"
        with pytest.raises(ValueError) as reference:
            _recursive_topological_order(icfg, entry)
        assert str(reference.value) == message
        with pytest.raises(ValueError) as raised:
            icfg.callees_in_topological_order(entry)
        assert str(raised.value) == message

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
        assert [m.action for m in best.packet_metrics] == [0, 1, 2]
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
        assert stats.completed_states[0].packet_metrics[0].action == 6

    def test_havoc_creates_records_and_fresh_symbols(self):
        source = """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    h = castan_havoc(dst_ip, flow_hash16(dst_ip))
    return slots[h & 7]
"""
        module = make_module(source, regions={"slots": (8, 8, {})})
        engine = SymbolicEngine(module, "process", [packet_symbols()])
        stats = engine.run(CastanSearcher(), max_states=50)
        best = stats.best_state()
        assert len(best.havoc_records) == 1
        record = best.havoc_records[0]
        assert record.hash_function == "flow_hash16"
        assert record.symbol.bits == FLOW_HASH_BITS
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
        actions = {state.packet_metrics[0].action for state in stats.completed_states}
        assert 99 not in actions

    def test_loop_iteration_budget_guard(self, monkeypatch):
        # A loop whose bound is symbolic: the engine must not run away.
        source = """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    i = 0
    while i < dst_port:
        i = i + 1
    return i
"""
        module = make_module(source)
        monkeypatch.setattr(engine_module, "MAX_LOOP_ITERATIONS", 16)
        engine = SymbolicEngine(module, "process", [packet_symbols()])
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


def _evaluation_engine(nf_name, num_packets=2):
    nf = get_nf(nf_name)
    packet_sets = make_packet_symbols(num_packets)
    return SymbolicEngine(
        module=nf.module,
        entry=nf.entry,
        packet_args=[ps.args for ps in packet_sets],
        defaults=symbol_defaults(packet_sets, nf.packet_defaults),
    )


def _run_from_sid_zero(engine, **kwargs):
    # A run from the initial state numbers its states — and so its havoc
    # symbols — from 0.
    return engine.run(CastanSearcher(), max_states=40, **kwargs)


class TestEngineBudgetAndPickle:
    @pytest.mark.parametrize(
        "budget,error_states,instructions",
        [(1, 1, 1), (3, 1, 3), (7, 1, 7), (19, 2, 57)],
    )
    def test_instruction_budget_errors_at_the_pinned_instruction(
        self, budget, error_states, instructions, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "MAX_INSTRUCTIONS_PER_STATE", budget)
        stats = _run_from_sid_zero(_evaluation_engine("lpm-patricia"))
        assert stats.error_states == error_states
        assert stats.instructions_executed == instructions

    @pytest.mark.parametrize("nf_name", NF_NAMES)
    def test_engine_pickle_roundtrip_runs_identically(self, nf_name):
        engine = _evaluation_engine(nf_name)
        clone = pickle.loads(pickle.dumps(engine))
        a = _run_from_sid_zero(engine)
        b = _run_from_sid_zero(clone)
        assert a.states_explored > 0
        assert (a.states_explored, a.instructions_executed, a.forks) == (
            b.states_explored,
            b.instructions_executed,
            b.forks,
        )
        assert [s.current_cost for s in a.completed_states] == [
            s.current_cost for s in b.completed_states
        ]


def _short_digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _sid_costs(states):
    return _short_digest([(s.sid, s.current_cost) for s in states])


#: Per NF, a 2-packet run at ``max_states=40`` from sid 0: states explored,
#: instructions, forks, infeasible and error states, then digests of the
#: completed and pending ``(sid, cost)`` lists.  Recorded from the reference
#: interpreter when the compiled and vectorized tiers, which agreed with it
#: on every row, were deleted.
ENGINE_PINS = {
    "nop": (1, 2, 0, 0, 0, "00ce6357cff8c292", "4f53cda18c2baa0c"),
    "lpm-patricia": (40, 839, 22, 0, 0, "2acd7b30b435a9ea", "cdda69730bc237b3"),
    "lpm-direct": (1, 8, 0, 0, 0, "fbfb1194b6149e78", "4f53cda18c2baa0c"),
    "lpm-dpdk": (1, 30, 0, 0, 0, "f83457210899b751", "4f53cda18c2baa0c"),
    "nat-hash-table": (40, 605, 21, 0, 0, "4eef74315007293e", "d4b49f6115f1314c"),
    "nat-hash-ring": (40, 594, 22, 0, 0, "ec042c9e8ccdb888", "f7fcee9abd78602e"),
    "nat-red-black-tree": (40, 566, 22, 0, 0, "1c7f027744bee1bc", "c6c5f3f22967e682"),
    "nat-unbalanced-tree": (40, 610, 22, 0, 0, "4468d6c6eb0d51a1", "b1c50cfe5b5d3580"),
    "lb-hash-table": (40, 401, 21, 0, 0, "05f423733c571aa2", "e81d1aeeedb420c5"),
    "lb-hash-ring": (40, 286, 21, 0, 0, "b75964898f792dcf", "b79922fded2eb7f9"),
    "lb-red-black-tree": (40, 539, 21, 0, 0, "4e3a4daf31bd13fd", "ad6f996895f21da9"),
    "lb-unbalanced-tree": (40, 498, 21, 0, 0, "b7926f8e189e400d", "b5671f033e10743d"),
    "fw-conntrack": (40, 466, 21, 0, 0, "4f3bfaa33f0ae7b3", "f72de09149bdaee6"),
    "policer-two-choice": (40, 374, 21, 0, 0, "5ce98a02c194d1b4", "6cdca921863da4a2"),
    "dedup-bloom": (25, 352, 12, 0, 0, "bda460bbbbdc9729", "4f53cda18c2baa0c"),
    "dpi-trie": (40, 1009, 23, 0, 0, "b6625a3194e9b01e", "e39db7340540bb4b"),
    "chain-gateway": (40, 1016, 23, 0, 0, "e9cbbe5c73e9826f", "456ad362f0d2f64f"),
    "chain-edge": (40, 1204, 23, 0, 0, "b795bb1f187a6fc3", "4ac1da2d4332f9c0"),
}

#: Per NF, a 3-packet beam-style resume: the first run (``max_states=8``)
#: parks states at packet 1, the second (``max_states=12``, sids from 1000)
#: resumes them to packet 2.  States and instructions of each run, then a
#: digest of the second run's paused ``(sid, cost)`` list.  Same provenance
#: as :data:`ENGINE_PINS`.
RESUME_PINS = {
    "nop": (1, 1, 1, 1, "00ce6357cff8c292"),
    "lpm-patricia": (8, 160, 12, 253, "e834e95fde670fbe"),
    "lpm-direct": (1, 4, 1, 4, "fbfb1194b6149e78"),
    "lpm-dpdk": (1, 15, 1, 15, "f83457210899b751"),
    "nat-hash-table": (8, 82, 12, 116, "ac4303c3144fb918"),
    "nat-hash-ring": (8, 109, 12, 115, "a890b3bd1b3f59a3"),
    "nat-red-black-tree": (8, 88, 12, 85, "531d7b762be7d314"),
    "nat-unbalanced-tree": (8, 79, 12, 87, "a25914a0f36421dd"),
    "lb-hash-table": (8, 56, 12, 99, "c28254a99b6a1770"),
    "lb-hash-ring": (8, 51, 12, 90, "782751c614584756"),
    "lb-red-black-tree": (8, 70, 12, 90, "2ba2c6366fbcd834"),
    "lb-unbalanced-tree": (8, 60, 12, 97, "c70093aa6ffe9d84"),
    "fw-conntrack": (8, 75, 12, 128, "c699830f56cb4ad6"),
    "policer-two-choice": (8, 56, 12, 117, "d4f852d2f1c68f82"),
    "dedup-bloom": (5, 69, 12, 112, "37e3c32032df7241"),
    "dpi-trie": (8, 205, 12, 374, "9552ed0e3470b27e"),
    "chain-gateway": (8, 281, 12, 243, "2feae665fdfbf91a"),
    "chain-edge": (8, 373, 12, 180, "ce33b4d08d0ebe50"),
}


class TestEnginePins:
    """The one engine reproduces the reference interpreter on every NF."""

    def test_pins_cover_every_registered_nf(self):
        assert set(ENGINE_PINS) == set(NF_NAMES)
        assert set(RESUME_PINS) == set(NF_NAMES)

    @pytest.mark.parametrize("nf_name", NF_NAMES)
    def test_run_statistics_match_the_pins(self, nf_name):
        stats = _run_from_sid_zero(_evaluation_engine(nf_name))
        assert (
            stats.states_explored,
            stats.instructions_executed,
            stats.forks,
            stats.infeasible_states,
            stats.error_states,
            _sid_costs(stats.completed_states),
            _sid_costs(stats.pending_states),
        ) == ENGINE_PINS[nf_name]

    @pytest.mark.parametrize("nf_name", NF_NAMES)
    def test_paused_states_resume_at_the_pinned_point(self, nf_name):
        engine = _evaluation_engine(nf_name, num_packets=3)
        first = engine.run(CastanSearcher(), max_states=8, stop_at_packet=1)
        seeds = first.paused_states + first.pending_states
        ids = itertools.count(1000)  # number the resumed round's states apart
        for seed in seeds:
            seed._ids = ids
        second = engine.run(
            CastanSearcher(), max_states=12, initial_states=seeds, stop_at_packet=2
        )
        assert (
            first.states_explored,
            first.instructions_executed,
            second.states_explored,
            second.instructions_executed,
            _sid_costs(second.paused_states),
        ) == RESUME_PINS[nf_name]
