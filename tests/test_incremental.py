"""Tests for the incremental solving subsystem and copy-on-write forking.

The load-bearing property is *equivalence*: replaying a path's constraint
stream through a :class:`SolverContext` must produce exactly the verdicts
and models that monolithic ``Solver`` calls over the full constraint list
produce.  Streams come from real engine runs and from a seeded random
generator, so both realistic and adversarial shapes are covered.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.model import NoCacheModel
from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.frontend.compiler import compile_nf
from repro.ir.instructions import BinOpKind, CmpKind
from repro.ir.module import Module
from repro.nf.registry import available_nfs, get_nf
from repro.symbex import incremental
from repro.symbex import solver as solver_module
from repro.symbex.engine import SymbolicEngine
from repro.symbex.expr import (
    Const,
    Sym,
    evaluate,
    expr_eq,
    expr_ne,
    expr_not,
    make_binop,
    make_cmp,
    reduce_expr,
    symbols_of,
)
from repro.symbex.incremental import (
    CONTEXT_STATS,
    SolverContext,
    clear_incremental_caches,
    replay_context,
)
from repro.symbex.searcher import CastanSearcher
from repro.symbex.solver import Solver
from repro.symbex.state import ExecutionState, Frame, StateStatus


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


def assert_stream_equivalent(stream):
    """Replay ``stream`` incrementally and compare every query to monolithic solving."""
    context = SolverContext(Solver())
    prefix = []
    for constraint in stream:
        for probe in (constraint, expr_not(constraint)):
            incremental = context.feasible_with(probe)
            monolithic = Solver().quick_feasible(prefix + [probe])
            assert incremental == monolithic, (
                f"feasibility diverged on probe {probe} after prefix of {len(prefix)}: "
                f"incremental={incremental} monolithic={monolithic}"
            )
        context.add(constraint)
        prefix.append(constraint)
    assert context.unsat == (not Solver().quick_feasible(prefix))
    if context.unsat:
        return
    # Model/value equivalence for every symbol mentioned on the path.
    result = Solver().check(prefix)
    names = sorted({s.name for c in prefix for s in symbols_of(c)})
    for name in names:
        symbol = next(s for c in prefix for s in symbols_of(c) if s.name == name)
        value = context.solve_value(symbol)
        if result.is_sat:
            assert value == result.model.get(name, 0), (
                f"solve_value diverged for {name}: {value} != {result.model.get(name, 0)}"
            )


class TestDifferentialEngineStreams:
    """Replay constraint streams recorded from real symbolic executions."""

    def collect_streams(self, source, regions=None, max_states=200, **engine_kwargs):
        module = make_module(source, regions)
        engine = SymbolicEngine(module, "process", [packet_symbols()], **engine_kwargs)
        stats = engine.run(CastanSearcher(), max_states=max_states)
        states = stats.completed_states + stats.pending_states
        streams = [list(state.constraints) for state in states if state.constraints]
        assert streams, "expected at least one constrained path"
        return streams

    def test_branchy_bit_test_paths(self):
        streams = self.collect_streams(
            """
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
""",
            regions={"table": (8, 8, {i: 5 for i in range(8)})},
        )
        for stream in streams:
            assert_stream_equivalent(stream)

    def test_ordering_and_range_paths(self):
        streams = self.collect_streams(
            """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    if src_port < 1024:
        if dst_port > 8000:
            return 2
        if dst_port != 53:
            return 1
        return 3
    if src_ip == dst_ip:
        return 4
    return 0
"""
        )
        for stream in streams:
            assert_stream_equivalent(stream)

    def test_symbolic_loop_bound_paths(self):
        streams = self.collect_streams(
            """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    i = 0
    while i < dst_port:
        i = i + 1
    return i
""",
            max_states=40,
            max_loop_iterations=8,
        )
        for stream in streams:
            assert_stream_equivalent(stream)


class TestDifferentialRandomStreams:
    """Seeded random constraint streams, including contradictory ones."""

    SYMBOLS = (Sym("x", 32), Sym("y", 32), Sym("z", 16), Sym("p", 8))

    def random_constraint(self, rng):
        sym = rng.choice(self.SYMBOLS)
        shape = rng.randrange(6)
        if shape == 0:  # trie bit test: (sym >> k) & 1 == b
            k = rng.randrange(sym.bits)
            bit = make_binop(BinOpKind.AND, make_binop(BinOpKind.LSHR, sym, Const(k)), Const(1))
            return expr_eq(bit, Const(rng.randrange(2)))
        if shape == 1:  # masked byte: (sym >> k) & 0xFF == c
            k = rng.randrange(max(1, sym.bits - 8))
            masked = make_binop(BinOpKind.AND, make_binop(BinOpKind.LSHR, sym, Const(k)), Const(0xFF))
            return expr_eq(masked, Const(rng.randrange(256)))
        if shape == 2:  # interval bound
            pred = rng.choice([CmpKind.ULT, CmpKind.ULE, CmpKind.UGT, CmpKind.UGE])
            return make_cmp(pred, sym, Const(rng.randrange(1, sym.mask)))
        if shape == 3:  # exclusion
            return expr_ne(sym, Const(rng.randrange(sym.mask + 1)))
        if shape == 4:  # affine equality: sym * a + b == c
            a = rng.choice([3, 5, 7, 9])
            b = rng.randrange(1 << 16)
            expr = make_binop(BinOpKind.ADD, make_binop(BinOpKind.MUL, sym, Const(a)), Const(b))
            return expr_eq(expr, Const(rng.randrange(1 << 32)))
        # xor equality: sym ^ c == d
        return expr_eq(
            make_binop(BinOpKind.XOR, sym, Const(rng.randrange(sym.mask + 1))),
            Const(rng.randrange(sym.mask + 1)),
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_streams_match_monolithic(self, seed):
        rng = random.Random(0xD1FF + seed)
        stream = [self.random_constraint(rng) for _ in range(rng.randrange(4, 14))]
        assert_stream_equivalent(stream)

    def test_contradictory_stream_goes_unsat(self):
        x = Sym("x", 32)
        stream = [expr_eq(x, Const(3)), expr_eq(x, Const(4))]
        context = replay_context(Solver(), stream)
        assert context.unsat
        assert not context.feasible_with(expr_eq(x, Const(3)))
        assert context.solve_value(x) is None
        assert context.check().is_unsat


class TestSolverContext:
    def test_constraint_log_survives_forks(self):
        x, y = Sym("x", 32), Sym("y", 32)
        parent = replay_context(Solver(), [expr_eq(x, Const(1))])
        child = parent.fork()
        child.add(expr_eq(y, Const(2)))
        parent.add(expr_ne(y, Const(9)))
        assert [str(c) for c in parent.constraints()] == ["(x eq 1)", "(y ne 9)"]
        assert [str(c) for c in child.constraints()] == ["(x eq 1)", "(y eq 2)"]

    def test_fork_isolation_of_domains(self):
        x = Sym("x", 32)
        parent = replay_context(Solver(), [make_cmp(CmpKind.ULT, x, Const(100))])
        child = parent.fork()
        child.add(expr_eq(x, Const(5)))
        # The child pinned x; the parent must still consider other values.
        assert child.solve_value(x) == 5
        assert parent.feasible_with(expr_eq(x, Const(7)))
        assert not child.feasible_with(expr_eq(x, Const(7)))

    def test_forked_siblings_share_memoised_verdicts(self):
        clear_incremental_caches()
        x = Sym("x", 32)
        parent = replay_context(Solver(), [make_cmp(CmpKind.ULT, x, Const(10))])
        left, right = parent.fork(), parent.fork()
        probe = expr_eq(x, Const(3))
        assert left.feasible_with(probe)
        hits_before = CONTEXT_STATS.memo_hits
        assert right.feasible_with(probe)
        assert CONTEXT_STATS.memo_hits == hits_before + 1

    def test_solve_value_respects_changing_defaults(self):
        # Regression: the value memo must not serve an entry computed under
        # different defaults.
        context = SolverContext(Solver())
        x = Sym("x", 8)
        assert context.solve_value(x, defaults={"x": 5}) == 5
        assert context.solve_value(x, defaults={"x": 7}) == 7
        assert context.solve_value(x) == 0

    def test_value_memo_keys_defaults_by_content_not_by_hash(self, monkeypatch):
        # Regression: two different defaults whose hashes collide must not
        # share a memoised value.
        from repro.symbex import incremental

        monkeypatch.setattr(incremental, "hash", lambda value: 0, raising=False)
        context = SolverContext(Solver())
        x = Sym("x", 8)
        assert context.solve_value(x, defaults={"x": 5}) == 5
        assert context.solve_value(x, defaults={"x": 7}) == 7

    def test_clearing_expression_caches_clears_identity_keyed_memos(self):
        # Regression: the memo tables key on interned expressions or their
        # id(), so dropping the intern tables must drop every memo with them.
        from repro.symbex.expr import clear_expression_caches, dag_evaluator
        from repro.symbex.incremental import _FEASIBLE_MEMO, _SET_IDS
        from repro.symbex.memo import MEMOS

        x, y = Sym("x", 32), Sym("y", 32)
        context = replay_context(Solver(), [expr_eq(x, Const(1))])
        context.feasible_with(expr_ne(x, Const(2)))
        reduce_expr(make_cmp(CmpKind.ULT, make_binop(BinOpKind.ADD, x, y), Const(9)), {"x": 1})
        dag_evaluator(make_binop(BinOpKind.XOR, x, y))
        assert _FEASIBLE_MEMO and _SET_IDS
        assert len(MEMOS) == 8
        clear_expression_caches()
        assert [memo.name for memo in MEMOS if memo] == []

    def test_context_stats_keep_the_keys_bench_reads(self):
        # bench/ derives solver_memo_hit_share and wave_replay_share from
        # these keys and subtracts every key of two snapshots.
        from repro.symbex.memo import MEMOS

        clear_incremental_caches()
        CONTEXT_STATS.reset()
        x = Sym("x", 32)
        parent = replay_context(Solver(), [make_cmp(CmpKind.ULT, x, Const(10))])
        left, right = parent.fork(), parent.fork()
        probe = expr_eq(x, Const(3))
        assert left.feasible_with(probe) and right.feasible_with(probe)
        right.add(probe)
        stats = CONTEXT_STATS.as_dict()
        bench_keys = ("memo_hits", "queries", "slow_path_checks", "wave_replays", "adds")
        assert {key: stats[key] for key in bench_keys} == {
            "memo_hits": 1,
            "queries": 2,
            "slow_path_checks": 0,
            "wave_replays": 1,
            "adds": 2,
        }
        assert stats["feasible_hits"] == stats["memo_hits"]
        assert stats["add_plan_hits"] == stats["wave_replays"]
        memo_keys = {f"{memo.name}_{n}" for memo in MEMOS for n in ("hits", "misses", "clears")}
        assert memo_keys <= stats.keys()
        assert all(type(value) is int for value in stats.values())
        CONTEXT_STATS.reset()
        assert set(CONTEXT_STATS.as_dict().values()) == {0}

    def test_engine_routes_queries_through_context(self):
        module = make_module(
            """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    if protocol == 17:
        return 1
    return 0
"""
        )
        engine = SymbolicEngine(module, "process", [packet_symbols()])
        queries_before = CONTEXT_STATS.queries
        stats = engine.run(CastanSearcher(), max_states=20)
        assert CONTEXT_STATS.queries > queries_before
        assert len(stats.completed_states) == 2


class TestCopyOnWriteState:
    def make_state(self):
        state = ExecutionState(
            cache_model=NoCacheModel(), num_packets=1, solver_context=SolverContext(Solver())
        )
        state.push_frame(
            Frame(function="f", block=0, registers={"a": Const(1), "b": Const(2)})
        )
        state.write_memory("tbl", 3, Const(7))
        state.add_constraint(expr_eq(Sym("x", 32), Const(5)))
        return state

    def test_child_writes_do_not_leak_into_parent(self):
        parent = self.make_state()
        child = parent.fork()
        child.write_register("a", Const(99))
        child.write_memory("tbl", 3, Const(42))
        child.write_memory("heap", 0, Const(1))
        child.add_constraint(expr_ne(Sym("y", 32), Const(0)))
        child_frame = child.top_frame
        child_frame.block = 1
        child_frame.index = 7

        assert parent.read_register("a") == Const(1)
        assert parent.read_memory("tbl", 3) == Const(7)
        assert parent.read_memory("heap", 0, default=0) == Const(0)
        assert len(parent.constraints) == 1
        parent_frame = parent.frames[-1]
        assert parent_frame.block == 0 and parent_frame.index == 0

    def test_parent_writes_do_not_leak_into_child(self):
        parent = self.make_state()
        child = parent.fork()
        parent.write_register("b", Const(77))
        parent.write_memory("tbl", 3, Const(11))
        parent.add_constraint(expr_eq(Sym("z", 32), Const(1)))
        parent.top_frame.block = 2

        assert child.read_register("b") == Const(2)
        assert child.read_memory("tbl", 3) == Const(7)
        assert len(child.constraints) == 1
        assert child.frames[-1].block == 0

    def test_deep_frames_stay_shared_until_written(self):
        parent = self.make_state()
        parent.push_frame(Frame(function="g", block=0, registers={"r": Const(3)}))
        child = parent.fork()
        # Writing in the child's top frame must not corrupt the parent's.
        child.write_register("r", Const(30))
        assert parent.read_register("r") == Const(3)
        # Returning into the shared caller frame copies it on write.
        child.pop_frame()
        child.write_register("a", Const(100))
        assert parent.frames[0].registers["a"] == Const(1)

    def test_fork_during_engine_run_keeps_paths_independent(self):
        module = make_module(
            """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    counter[0] = counter[0] + 1
    if protocol == 17:
        counter[0] = counter[0] + 10
        return counter[0]
    return counter[0]
""",
            regions={"counter": (1, 8, {})},
        )
        engine = SymbolicEngine(module, "process", [packet_symbols()])
        stats = engine.run(CastanSearcher(), max_states=50)
        actions = sorted(state.packet_actions[0].value for state in stats.completed_states)
        assert actions == [1, 11]
        assert all(state.status is StateStatus.COMPLETED for state in stats.completed_states)


# -- O(delta) propagation waves vs the full-pass loop they replaced -----------------


def reference_propagate_wave(self, assignment, domains, pending, new_constraints, promoted=None):
    """The full-pass wave loop, kept verbatim as the reference schedule.

    Every round re-reduces and re-propagates the whole queue (round 0 skips
    the propagator, not the reduction, for the stable prefix).
    """
    solver = self.solver
    queue = list(pending)
    queue.extend(new_constraints)
    stable_prefix = len(pending)
    for _round in range(32):
        domains.reset_round()
        changed = False
        unresolved = []
        for index, constraint in enumerate(queue):
            reduced = reduce_expr(constraint, assignment)
            if isinstance(reduced, Const):
                if reduced.value == 0:
                    return False
                changed = True  # constraint fully resolved: may unblock others
                continue
            if index < stable_prefix and reduced is constraint:
                unresolved.append(reduced)
                continue
            outcome = solver._propagate_one(reduced, assignment, domains)
            if outcome == "unsat":
                return False
            unresolved.append(reduced)
        # Promote domains that became fully known to concrete assignments.
        for name in domains.changed_names():
            changed = True
            domain = domains.base[name]
            if name not in assignment and domain.fully_known:
                value = domain.value
                if value in domain.exclusions or not (domain.lo <= value <= domain.hi):
                    return False
                assignment[name] = value
                if promoted is not None:
                    promoted.append(name)
        queue = unresolved
        stable_prefix = 0
        if not changed:
            break
    pending[:] = queue
    return True


def reference_wave_adapter(self, assignment, domains, extra, promoted=None):
    """The reference loop in today's return shape (it has no notion of
    convergence): a full snapshot of the new pending list, none of it kept."""
    pending = list(self._pending)
    if not reference_propagate_wave(self, assignment, domains, pending, [extra], promoted):
        return None
    return 0, pending, True


def record_solver_ops(nf_name):
    """Every fork / feasible_with / add one smoke-scale analysis issues, in order."""
    ops = []
    index_of = {}
    alive = []  # recorded contexts stay referenced, so ids are never reused

    def index(context):
        if id(context) not in index_of:
            index_of[id(context)] = len(alive)
            alive.append(context)
        return index_of[id(context)]

    originals = {name: getattr(SolverContext, name) for name in ("fork", "feasible_with", "add")}

    def fork(self):
        child = originals["fork"](self)
        ops.append(("fork", index(self), index(child)))
        return child

    def feasible_with(self, extra):
        ops.append(("feasible_with", index(self), extra))
        return originals["feasible_with"](self, extra)

    def add(self, constraint):
        ops.append(("add", index(self), constraint))
        return originals["add"](self, constraint)

    with pytest.MonkeyPatch.context() as patch:
        for name, wrapper in (("fork", fork), ("feasible_with", feasible_with), ("add", add)):
            patch.setattr(SolverContext, name, wrapper)
        Castan(CastanConfig(max_states=40, deadline_seconds=None)).analyze(get_nf(nf_name))
    return ops


def observe_context(context):
    """Everything a later wave or model search reads from ``context``: the
    fixpoint triple (assignment, domain signatures, pending order), whether
    it converged, and whether it is unsat."""
    return (
        context.unsat,
        context._converged,
        sorted(context._assignment.items()),
        sorted((name, domain.signature()) for name, domain in context._domains.items()),
        [id(constraint) for constraint in context._pending],
    )


def replay_solver_ops(ops):
    """Replay ``ops`` on fresh contexts; everything observable after each one.

    Each observation is ``(verdict, wave replays, *observe_context(...))``.
    """
    clear_incremental_caches()
    solver = Solver()
    contexts = {}
    observed = []
    for kind, index, argument in ops:
        if kind == "fork":
            contexts[argument] = contexts.setdefault(index, SolverContext(solver)).fork()
            continue
        context = contexts.setdefault(index, SolverContext(solver))
        replays = CONTEXT_STATS.wave_replays
        verdict = getattr(context, kind)(argument)
        observed.append(
            (verdict, CONTEXT_STATS.wave_replays - replays, *observe_context(context))
        )
    return observed


class TestWaveSchedule:
    @pytest.mark.parametrize("nf_name", available_nfs())
    def test_engine_streams_match_the_full_pass_reference(self, nf_name):
        ops = record_solver_ops(nf_name)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SolverContext, "_propagate_wave", reference_wave_adapter)
            expected = replay_solver_ops(ops)
        assert replay_solver_ops(ops) == expected

    def capped_context(self, stream):
        """``stream`` committed with the last wave cut off after one round."""
        context = replay_context(Solver(), stream[:-1])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver_module, "_MAX_ROUNDS", 1)
            context.add(stream[-1])
        assert not context.unsat and not context._converged
        return context

    @pytest.mark.parametrize("carry", [lambda c: c, SolverContext.fork])
    def test_nothing_is_stable_after_a_wave_that_hit_the_rounds_cap(self, carry):
        x, y, z, w = Sym("x", 8), Sym("y", 8), Sym("z", 8), Sym("w", 8)
        nibble = make_binop(BinOpKind.AND, make_binop(BinOpKind.LSHR, x, Const(4)), Const(0xF))
        two_sided = make_cmp(CmpKind.ULT, z, w)  # propagates nothing itself

        # The capped wave pins x's high nibble in its only round, so the
        # pending disequality on that nibble is never re-checked: the next
        # wave must not take it for part of a fixpoint.
        stream = [expr_ne(nibble, Const(3)), expr_eq(nibble, Const(3))]
        assert replay_context(Solver(), stream).unsat
        context = carry(self.capped_context(stream))
        assert not context.feasible_with(two_sided)
        context.add(two_sided)
        assert context.unsat

        # Same for a pending constraint the capped wave left unreduced.
        stream = [expr_eq(make_binop(BinOpKind.XOR, x, y), Const(5)), expr_eq(x, Const(3))]
        context = carry(self.capped_context(stream))
        assert context.feasible_with(two_sided)
        context.add(two_sided)
        scratch = replay_context(Solver(), stream + [two_sided])
        assert context._converged
        assert context._assignment == scratch._assignment == {"x": 3, "y": 6}
        assert list(context._pending) == list(scratch._pending) == [two_sided]
        assert {name: d.signature() for name, d in context._domains.items()} == {
            name: d.signature() for name, d in scratch._domains.items()
        }


# -- the blind path: constraints no wave can propagate --------------------------------


def no_blind_path(self, reduced):
    return False


class TestBlindPath:
    """Queries and commits of propagation-blind constraints skip the wave.

    The fast path must be output-identical to the wave it stands in for:
    the same verdicts, fixpoints and convergence, on random and engine
    streams, with the fast path on and off.
    """

    SYMBOLS = TestDifferentialRandomStreams.SYMBOLS

    def random_ops(self, seed):
        """A random op stream over a few forked contexts.

        ``("add_capped", ...)`` commits with the rounds cap cut to one, so
        later ops also run on contexts whose pending list is no fixpoint.
        """
        rng = random.Random(seed)
        ops = []
        live = [0]
        for _ in range(rng.randrange(4, 28)):
            index = rng.choice(live)
            constraint = TestResumedChecks.random_constraint(self, rng)
            roll = rng.random()
            if roll < 0.15:
                ops.append(("fork", index, len(live)))
                live.append(len(live))
            elif roll < 0.55:
                ops.append(("feasible_with", index, constraint))
                ops.append(("feasible_with", index, expr_not(constraint)))
            elif roll < 0.65:
                ops.append(("add_capped", index, constraint))
            else:
                ops.append(("add", index, constraint))
        return ops

    def replay(self, ops, blind=True):
        """Observations after every op, and the blind/query counters per op."""
        clear_incremental_caches()
        contexts = {}
        observed = []
        with pytest.MonkeyPatch.context() as patch:
            if not blind:
                patch.setattr(SolverContext, "_blind", no_blind_path)
            for kind, index, argument in ops:
                context = contexts.setdefault(index, SolverContext(Solver()))
                if kind == "fork":
                    contexts[argument] = context.fork()
                    continue
                before = CONTEXT_STATS.as_dict()
                with pytest.MonkeyPatch.context() as cap:
                    if kind == "add_capped":
                        cap.setattr(solver_module, "_MAX_ROUNDS", 1)
                        kind = "add"
                    verdict = getattr(context, kind)(argument)
                delta = {k: v - before[k] for k, v in CONTEXT_STATS.as_dict().items()}
                observed.append((kind, verdict, *observe_context(context), delta))
        return observed

    def assert_blind_path_is_invisible(self, ops):
        with_path, without = self.replay(ops), self.replay(ops, blind=False)
        assert [obs[:-1] for obs in with_path] == [obs[:-1] for obs in without]
        for (kind, *_, delta), (*_, reference) in zip(with_path, without):
            if kind == "feasible_with":
                # A blind query counts what its wave would have visited.
                assert delta["wave_visits"] == reference["wave_visits"]
                assert delta["wave_skips"] == reference["wave_skips"]
        return with_path

    @given(st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_random_streams_match_the_wave(self, seed):
        self.assert_blind_path_is_invisible(self.random_ops(seed))

    def test_the_random_streams_reach_blind_and_capped_contexts(self):
        fired = {"blind_queries": 0, "blind_adds": 0, "queries on capped contexts": 0}
        for seed in range(200):
            for kind, _, _, converged, *_, delta in self.assert_blind_path_is_invisible(
                self.random_ops(seed)
            ):
                fired["blind_queries"] += delta["blind_queries"]
                fired["blind_adds"] += delta["blind_adds"]
                fired["queries on capped contexts"] += kind == "feasible_with" and not converged
        assert min(fired.values()) > 10, fired

    @pytest.mark.parametrize("nf_name", available_nfs())
    def test_engine_streams_match_the_wave(self, nf_name):
        ops = record_solver_ops(nf_name)
        observed = self.assert_blind_path_is_invisible(ops)
        if nf_name.endswith("-tree"):
            assert sum(delta["blind_queries"] for *_, delta in observed) > 0

    def test_a_context_capped_at_its_rounds_limit_takes_the_full_wave(self):
        x, y, z, w = Sym("x", 8), Sym("y", 8), Sym("z", 8), Sym("w", 8)
        two_sided = make_cmp(CmpKind.ULT, z, w)
        capped = TestWaveSchedule().capped_context(
            [expr_eq(make_binop(BinOpKind.XOR, x, y), Const(5)), expr_eq(x, Const(3))]
        )
        CONTEXT_STATS.reset()
        assert capped.feasible_with(two_sided)
        capped.add(two_sided)
        # Nothing was stable, so the wave re-visited the pending list too.
        assert CONTEXT_STATS.blind_queries == CONTEXT_STATS.blind_adds == 0
        assert CONTEXT_STATS.wave_visits > 1
        assert capped._converged and list(capped._pending) == [two_sided]
        # The full wave reached a fixpoint, so the next blind query skips it.
        visits, skips = CONTEXT_STATS.wave_visits, CONTEXT_STATS.wave_skips
        assert capped.feasible_with(expr_ne(z, w))
        assert CONTEXT_STATS.blind_queries == 1
        assert (CONTEXT_STATS.wave_visits, CONTEXT_STATS.wave_skips) == (visits + 1, skips + 1)


# -- model checks resumed from a context's fixpoint ---------------------------------


def assert_resumed_check_matches(context, defaults=None):
    """``Solver.check`` from ``context``'s fixpoint equals the from-scratch check."""
    constraints = context.constraints()
    resumed = Solver().check(constraints, defaults=defaults, context=context)
    scratch = Solver().check(constraints, defaults=defaults)
    assert (resumed.status, resumed.reason) == (scratch.status, scratch.reason)
    assert (resumed.model and resumed.model.values) == (scratch.model and scratch.model.values)
    return resumed


class TestResumedChecks:
    SYMBOLS = TestDifferentialRandomStreams.SYMBOLS

    def random_constraint(self, rng):
        """The random stream shapes plus two-symbol ones the search must solve."""
        x, y = rng.sample(self.SYMBOLS, 2)
        shape = rng.randrange(9)
        if shape == 6:  # two-sided comparison: the order graph's input
            return make_cmp(rng.choice(list(CmpKind)), x, y)
        if shape == 7:  # two-symbol equality the propagation cannot split
            return expr_eq(make_binop(BinOpKind.XOR, x, y), Const(rng.randrange(256)))
        if shape == 8:  # low byte of a sum
            total = make_binop(BinOpKind.AND, make_binop(BinOpKind.ADD, x, y), Const(0xFF))
            return expr_eq(total, Const(rng.randrange(256)))
        return TestDifferentialRandomStreams.random_constraint(self, rng)

    def context_for(self, seed, length, capped, cyclic=False):
        """A context over one random stream; ``capped`` cuts its last wave short.

        ``cyclic`` starts the stream with comparisons that order three
        symbols in a cycle, which only the order graph refutes.
        """
        rng = random.Random(seed)
        x, y, z = self.SYMBOLS[:3]
        stream = []
        if cyclic:
            stream = [make_cmp(CmpKind.ULT, x, y), make_cmp(CmpKind.ULT, y, z)]
            stream.append(make_cmp(CmpKind.ULE, z, x))
        stream += [self.random_constraint(rng) for _ in range(length)]
        context = replay_context(Solver(), stream[:-1])
        with pytest.MonkeyPatch.context() as patch:
            if capped:
                patch.setattr(solver_module, "_MAX_ROUNDS", 1)
            context.add(stream[-1])
        defaults = {s.name: rng.randrange(s.mask + 1) for s in self.SYMBOLS if rng.random() < 0.5}
        return context, defaults

    @given(st.integers(0, 2**32), st.integers(1, 14), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_streams_resume_to_the_from_scratch_result(self, seed, length, capped, cyclic):
        context, defaults = self.context_for(seed, length, capped, cyclic)
        assert_resumed_check_matches(context, defaults)

    def test_the_property_covers_every_kind_of_context(self):
        kinds = set()
        for seed in range(400):
            context, defaults = self.context_for(
                seed, 1 + seed % 13, capped=seed % 2 == 1, cyclic=seed % 3 == 0
            )
            result = assert_resumed_check_matches(context, defaults)
            if context.unsat:
                kinds.add("unsat context")
            elif context.fixpoint() is None:
                kinds.add("rounds cap")
            else:
                kinds.add(f"resumed {result.status}")
                if result.reason.startswith("ordering contradiction"):
                    kinds.add("resumed order proof")
        assert kinds >= {
            "unsat context",
            "rounds cap",
            "resumed sat",
            "resumed unsat",
            "resumed order proof",
        }, kinds

    @pytest.mark.parametrize("nf_name", ["nat-hash-ring", "lb-red-black-tree", "chain-edge"])
    def test_engine_streams_resume_to_the_from_scratch_result(self, nf_name):
        ops = record_solver_ops(nf_name)
        clear_incremental_caches()
        solver = Solver()
        contexts = {}
        for kind, index, argument in ops:
            if kind == "fork":
                contexts[argument] = contexts.setdefault(index, SolverContext(solver)).fork()
            elif kind == "add":
                contexts.setdefault(index, SolverContext(solver)).add(argument)
        for context in contexts.values():
            assert_resumed_check_matches(context)


# -- the persistent pending log vs the plain list it replaced -------------------------


def list_propagate_rounds(solver, queue, first, assignment, domains, promoted=None):
    """``Solver._propagate_rounds`` over one plain list, kept verbatim as the reference:
    round 0 visits ``queue[first:]``, every round rebuilds the whole list."""
    woken = None  # None in round 0: visit queue[first:]
    visits = 0
    skips = first
    try:
        for _round in range(solver_module._MAX_ROUNDS):
            domains.reset_round()
            if woken is None:
                visit = range(first, len(queue))
            else:
                disjoint = woken.isdisjoint
                visit = [i for i, c in enumerate(queue) if not disjoint(c.symbol_names)]
                skips += len(queue) - len(visit)
            unresolved = []
            carried = 0  # queue[carried:index] is carried over untouched
            for index in visit:
                if index > carried:
                    unresolved += queue[carried:index]
                carried = index + 1
                visits += 1
                reduced = reduce_expr(queue[index], assignment)
                if isinstance(reduced, Const):
                    if reduced.value == 0:
                        return None
                    continue
                if solver._propagate_one(reduced, assignment, domains) == "unsat":
                    return None
                unresolved.append(reduced)
            unresolved += queue[carried:]
            queue = unresolved
            changed = domains.changed_names()
            woken = set(changed)
            for name in changed:
                domain = domains.base[name]
                if name not in assignment and domain.fully_known:
                    value = domain.value
                    if value in domain.exclusions or not (domain.lo <= value <= domain.hi):
                        return None
                    assignment[name] = value
                    if promoted is not None:
                        promoted.append(name)
            if not changed:
                break
        return queue, not woken
    finally:
        domains.visits += visits
        domains.skips += skips


class ListSolverContext:
    """``SolverContext`` as it was while each fork copied its pending list and
    dicts, kept verbatim as the reference (minus the constraint log, which
    the pending list never read).  It shares the module's memos, so run it
    and the real context one after the other, each from cleared caches."""

    def __init__(self, solver):
        self.solver = solver
        self._assignment = {}
        self._domains = {}
        self._owned = set()
        self._pending = []
        self._set_id = 0
        self._converged = True
        self.unsat = False

    def fork(self):
        CONTEXT_STATS.forks += 1
        child = ListSolverContext.__new__(ListSolverContext)
        child.solver = self.solver
        child._assignment = dict(self._assignment)
        child._domains = dict(self._domains)
        child._owned = set()
        self._owned = set()  # parent's domains are shared now too
        child._pending = list(self._pending)
        child._set_id = self._set_id
        child._converged = self._converged
        child.unsat = self.unsat
        return child

    def feasible_with(self, extra):
        CONTEXT_STATS.queries += 1
        if self.unsat:
            return False
        raw_key = (self._set_id, id(extra))
        cached = incremental._FEASIBLE_MEMO.get(raw_key)
        if cached is not None:
            return cached
        extra = reduce_expr(extra, self._assignment)
        if isinstance(extra, Const):
            return extra.value != 0
        key = (self._set_id, id(extra))
        cached = incremental._FEASIBLE_MEMO.get(key)
        if cached is not None:
            incremental._FEASIBLE_MEMO[raw_key] = cached
            return cached
        if self._blind(extra):
            CONTEXT_STATS.blind_queries += 1
            incremental._FEASIBLE_MEMO[key] = incremental._FEASIBLE_MEMO[raw_key] = True
            return True
        scratch_assignment = dict(self._assignment)
        scratch_domains = incremental._CowDomains(dict(self._domains), set())
        scratch_pending = list(self._pending)
        promoted = []
        verdict, converged = self._propagate_wave(
            scratch_assignment, scratch_domains, scratch_pending, [extra], promoted
        )
        incremental._FEASIBLE_MEMO[key] = verdict
        incremental._FEASIBLE_MEMO[raw_key] = verdict
        if verdict:
            incremental._ADD_PLAN_MEMO[key] = (
                {name: scratch_assignment[name] for name in promoted},
                {name: scratch_domains.base[name] for name in scratch_domains.owned},
                tuple(scratch_pending),
                converged,
            )
        return verdict

    def add(self, constraint):
        if isinstance(constraint, Const):
            if constraint.value == 0:
                self.unsat = True
            return
        CONTEXT_STATS.adds += 1
        pre_set_id = self._set_id
        self._set_id = incremental._extend_set_id(self._set_id, constraint)
        if self.unsat:
            return
        reduced = reduce_expr(constraint, self._assignment)
        if isinstance(reduced, Const):
            if reduced.value == 0:
                self.unsat = True
            return
        if self._blind(reduced):
            CONTEXT_STATS.blind_adds += 1
            self._pending.append(reduced)
            return
        plan = incremental._ADD_PLAN_MEMO.get((pre_set_id, id(reduced)))
        if plan is not None:
            assignment_delta, domain_delta, pending_after, self._converged = plan
            self._assignment.update(assignment_delta)
            for name, domain in domain_delta.items():
                self._domains[name] = domain
                self._owned.discard(name)
            self._pending[:] = pending_after
            return
        cow = incremental._CowDomains(self._domains, self._owned)
        feasible, self._converged = self._propagate_wave(
            self._assignment, cow, self._pending, [reduced]
        )
        if not feasible:
            self.unsat = True

    def fixpoint(self):
        if self.unsat or not self._converged:
            return None
        return dict(self._assignment), dict(self._domains), list(self._pending)

    def _blind(self, reduced):
        if not self._converged:
            return False
        plan = self.solver._propagation_plan(reduced)
        if plan[0] != "none" or plan[1] is not None:
            return False
        CONTEXT_STATS.wave_visits += 1
        CONTEXT_STATS.wave_skips += len(self._pending)
        return True

    def _propagate_wave(self, assignment, domains, pending, new_constraints, promoted=None):
        queue = list(pending)
        first = len(queue) if self._converged else 0
        queue.extend(new_constraints)
        outcome = list_propagate_rounds(self.solver, queue, first, assignment, domains, promoted)
        CONTEXT_STATS.wave_visits += domains.visits
        CONTEXT_STATS.wave_skips += domains.skips
        if outcome is None:
            return False, False
        pending[:], converged = outcome
        return True, converged


class TestPendingLog:
    """Forks share the pending log and the dicts; each side owns its own tail.

    Random fork trees of blind, propagating and rounds-capped commits, with
    probes before commits so that recorded waves replay, must look the same
    through the log as through the plain list: verdicts, plan replays, the
    wave counters, and every context's pending list, object for object.
    """

    SYMBOLS = (*TestDifferentialRandomStreams.SYMBOLS, Sym("q", 8), Sym("r", 16))

    def random_ops(self, seed):
        rng = random.Random(seed)
        ops = []
        live = [0]
        for _ in range(rng.randrange(10, 60)):
            index = rng.choice(live)
            constraint = TestResumedChecks.random_constraint(self, rng)
            roll = rng.random()
            if roll < 0.2:
                ops.append(("fork", index, len(live)))
                live.append(len(live))
            elif roll < 0.35:
                ops.append(("feasible_with", index, constraint))
                ops.append(("feasible_with", index, expr_not(constraint)))
            elif roll < 0.55:  # probe, then commit: the commit replays the probe's wave
                ops.append(("feasible_with", index, constraint))
                ops.append(("add", index, constraint))
            elif roll < 0.62:
                ops.append(("add_capped", index, constraint))
            else:
                ops.append(("add", index, constraint))
        return ops

    def replay(self, ops, make_context):
        clear_incremental_caches()
        solver = Solver()
        contexts = {0: make_context(solver)}
        observed = []
        for kind, index, argument in ops:
            context = contexts[index]
            if kind == "fork":
                contexts[argument] = context.fork()
                continue
            before = CONTEXT_STATS.as_dict()
            with pytest.MonkeyPatch.context() as cap:
                if kind == "add_capped":
                    cap.setattr(solver_module, "_MAX_ROUNDS", 1)
                    kind = "add"
                verdict = getattr(context, kind)(argument)
            after = CONTEXT_STATS.as_dict()
            fixpoint = context.fixpoint()
            observed.append(
                (
                    kind,
                    verdict,
                    {name: after[name] - before[name] for name in self.COUNTERS},
                    context.unsat,
                    context._converged,
                    list(context._pending),
                    fixpoint and (
                        sorted(fixpoint[0].items()),
                        sorted((name, d.signature()) for name, d in fixpoint[1].items()),
                        fixpoint[2],
                    ),
                    # Every context, not only the one this op touched: a
                    # write through a shared log or dict would show here.
                    [list(other._pending) for other in contexts.values()],
                )
            )
        return observed

    COUNTERS = ("wave_replays", "wave_visits", "wave_skips", "blind_queries", "blind_adds")

    def assert_log_matches_the_list(self, ops):
        reference = self.replay(ops, ListSolverContext)
        observed = self.replay(ops, SolverContext)
        assert observed == reference
        return observed

    @given(st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_random_fork_trees_match_the_plain_list(self, seed):
        self.assert_log_matches_the_list(self.random_ops(seed))

    def test_the_fork_trees_reach_every_kind_of_commit(self):
        fired = {"wave_replays": 0, "blind_adds": 0, "capped": 0, "rewritten": 0}
        for seed in range(100):
            ops = self.random_ops(seed)
            for op, observation in zip(
                [op for op in ops if op[0] != "fork"], self.assert_log_matches_the_list(ops)
            ):
                _, _, delta, _, converged, *_ = observation
                fired["wave_replays"] += delta["wave_replays"]
                fired["blind_adds"] += delta["blind_adds"]
                fired["capped"] += op[0] == "add_capped" and not converged
        # Commits that woke and rewrote entries older than their own.
        for seed in range(100):
            contexts = {}
            for kind, index, argument in self.random_ops(seed):
                context = contexts.setdefault(index, SolverContext(Solver()))
                if kind == "fork":
                    contexts[argument] = context.fork()
                elif kind == "add" and not context.unsat and context._converged:
                    older = list(context._pending)
                    context.add(argument)
                    pending = list(context._pending)
                    fired["rewritten"] += pending[: len(older)] != older
        assert min(fired.values()) > 10, fired
