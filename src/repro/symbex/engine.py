"""The symbolic execution engine: NFIL interpretation with forking states.

The engine executes the NF's entry function once per symbolic packet,
threading NF state (memory regions) across packets within one execution
state.  Branches on symbolic conditions fork; loads and stores with
symbolic indices are concretized by the pluggable cache model; hash
functions annotated with ``castan_havoc`` are suppressed and havoced (every
havoc symbol is ``FLOW_HASH_BITS`` wide: the hash is ``flow_hash16``).  The
caller supplies a :class:`~repro.symbex.searcher.Searcher` that decides
which pending state to explore next — CASTAN's searcher maximises
current + potential cost (§3.3–3.4).
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.cfg.costs import CostAnnotation
from repro.hashing.functions import FLOW_HASH_BITS
from repro.ir.decode import (
    BINOP,
    BRANCH,
    CALL,
    FALL_OFF,
    HAVOC,
    JUMP,
    LOAD,
    RETURN,
    SELECT,
    STORE,
    decode_module,
)
from repro.ir.instructions import BinOpKind, CmpKind
from repro.ir.module import MemoryRegion, Module
from repro.perf.cycles import CycleCosts, DEFAULT_CYCLE_COSTS
from repro.symbex.expr import (
    Const,
    Expr,
    Sym,
    expr_ne,
    expr_not,
    make_binop,
    make_cmp,
    make_select,
)
from repro.symbex.havoc import HavocRecord
from repro.symbex.incremental import SolverContext
from repro.symbex.searcher import Searcher
from repro.symbex.solver import Solver
from repro.symbex.state import ExecutionState, Frame, StateStatus

if TYPE_CHECKING:  # pragma: no cover - avoid a package-level import cycle
    from repro.cache.model import CacheModel

_LOOP_HEAD_PREFIXES = ("while.cond", "for.cond")

#: Visits of one loop head in one frame after which a feasible exit edge is
#: forced: a safety valve against runaway loops under optimistic feasibility.
MAX_LOOP_ITERATIONS = 256

#: Instructions one state may run between two forks before it is an error.
MAX_INSTRUCTIONS_PER_STATE = 100_000

#: The engine's operator table: each operator builds (and folds) an expression.
_OPERATORS = {
    **{kind: partial(make_binop, kind) for kind in BinOpKind},
    **{kind: partial(make_cmp, kind) for kind in CmpKind},
}


def _drain_best_pending(searcher: Searcher, limit: int | None) -> list[ExecutionState]:
    """Drain ``searcher`` and keep the top-``limit`` states by best-state key.

    ``limit=None`` keeps everything (the beam scheduler treats the report as
    its live frontier, so truncation would silently drop search states).
    The stable descending sort preserves searcher pop order among states with
    equal (packets_processed, current_cost), so the state ``best_state()``
    picks is unchanged whenever the report set was not truncated.
    """
    drained = searcher.drain()
    if limit is not None and len(drained) > limit:
        drained.sort(key=lambda s: (s.packets_processed, s.current_cost), reverse=True)
        del drained[limit:]
    return drained


@dataclass
class SymbexStats:
    """Aggregate statistics of one symbolic-execution run.

    A monolithic run fills ``completed_states`` / ``pending_states``; a
    per-packet beam run (``repro.symbex.batch``) additionally fills
    ``paused_states`` (frontier states parked at a packet boundary) and
    ``rounds`` (one :class:`~repro.symbex.batch.RoundStats` per round).
    ``stop_reason`` says why the search ended: ``"budget"`` (``max_states``
    popped), ``"deadline"``, ``"converged"`` (a chunk completed paths
    without beating the best) or ``"drained"`` (nothing left to explore).
    ``infeasible_by_function`` / ``errors_by_function`` split
    ``infeasible_states`` / ``error_states`` by the function each state died
    in (its innermost frame's).
    """

    states_explored: int = 0
    instructions_executed: int = 0
    forks: int = 0
    infeasible_states: int = 0
    error_states: int = 0
    infeasible_by_function: Counter[str] = field(default_factory=Counter)
    errors_by_function: Counter[str] = field(default_factory=Counter)
    completed_states: list[ExecutionState] = field(default_factory=list)
    pending_states: list[ExecutionState] = field(default_factory=list)
    paused_states: list[ExecutionState] = field(default_factory=list)
    rounds: list = field(default_factory=list)
    wall_time_seconds: float = 0.0
    stop_reason: str = ""

    def best_state(self) -> ExecutionState | None:
        """The highest-cost state, preferring states that finished all packets."""
        if self.completed_states:
            return max(self.completed_states, key=lambda s: s.current_cost)
        candidates = self.paused_states + self.pending_states
        if not candidates:
            return None
        return max(candidates, key=lambda s: (s.packets_processed, s.current_cost))

    def merge_round(self, round_stats: "SymbexStats") -> None:
        """Fold one round's counters into this aggregate (beam scheduler)."""
        self.states_explored += round_stats.states_explored
        self.instructions_executed += round_stats.instructions_executed
        self.forks += round_stats.forks
        self.infeasible_states += round_stats.infeasible_states
        self.error_states += round_stats.error_states
        self.infeasible_by_function.update(round_stats.infeasible_by_function)
        self.errors_by_function.update(round_stats.errors_by_function)
        self.completed_states.extend(round_stats.completed_states)


class SymbolicEngine:
    """Interprets an NFIL module over a sequence of symbolic packets."""

    def __init__(
        self,
        module: Module,
        entry: str,
        packet_args: list[list[Expr]],
        annotation: CostAnnotation | None = None,
        cache_model: "CacheModel | None" = None,
        solver: Solver | None = None,
        cycle_costs: CycleCosts = DEFAULT_CYCLE_COSTS,
        defaults: dict[str, int] | None = None,
        stage_entries: dict[str, str] | None = None,
    ) -> None:
        self.module = module
        self.entry = entry
        self.packet_args = packet_args
        # Chain NFs: prefixed stage entry function -> stage label.  Calls
        # from the entry glue into these functions open a per-stage cost
        # window; the matching return closes it (per-stage attribution).
        self.stage_entries = dict(stage_entries or {})
        self.annotation = annotation
        if cache_model is None:
            # Imported here (not at module level) to keep the symbex and
            # cache packages free of a circular import at init time.
            from repro.cache.model import NoCacheModel

            cache_model = NoCacheModel()
        self.cache_model = cache_model
        self.solver = solver or Solver()
        self.cycle_costs = cycle_costs
        self.defaults = dict(defaults or {})

        self._entry_function = module.get_function(entry)
        if packet_args and len(self._entry_function.params) != len(packet_args[0]):
            raise ValueError("packet argument count does not match entry parameters")
        self._functions = decode_module(module, cycle_costs, _OPERATORS, Const)
        self._stats: SymbexStats | None = None
        # When set, states crossing this packet boundary pause instead of
        # starting the next packet (per-packet beam rounds).
        self._pause_at_packet: int | None = None

    # -- state construction ------------------------------------------------------

    def make_initial_state(self) -> ExecutionState:
        # An analysis searches from one initial state: the counter it starts,
        # shared by every fork, numbers the analysis's states from 0.
        state = ExecutionState(
            cache_model=self.cache_model.clone(),
            num_packets=len(self.packet_args),
            solver_context=SolverContext(self.solver),
            ids=itertools.count(),
        )
        if not self.packet_args:
            # An explicit zero-packet run: nothing to execute.
            state.status = StateStatus.COMPLETED
            return state
        self._start_packet(state, packet_index=0)
        self._update_priority(state)
        return state

    def _start_packet(self, state: ExecutionState, packet_index: int) -> None:
        args = self.packet_args[packet_index]
        params = self._entry_function.params
        if len(args) != len(params):
            raise ValueError(
                f"packet {packet_index} provides {len(args)} args, entry takes {len(params)}"
            )
        registers = {param: arg for param, arg in zip(params, args)}
        state.push_frame(Frame(function=self.entry, block=0, index=0, registers=registers))
        state.begin_packet()

    def resume_state(self, state: ExecutionState) -> None:
        """Resume a state paused at a packet boundary into its next packet."""
        state.resume_round()
        self._start_packet(state, state.packets_processed)
        self._update_priority(state)

    # -- main loop ----------------------------------------------------------------

    def run(
        self,
        searcher: Searcher,
        max_states: int | None = None,
        deadline_seconds: float | None = None,
        max_pending_report: int | None = 512,
        initial_states: list[ExecutionState] | None = None,
        stop_at_packet: int | None = None,
        converge_chunk: int | None = None,
    ) -> SymbexStats:
        """Explore paths until the searcher drains, a budget is exhausted or
        the search converges.

        ``initial_states`` seeds the searcher instead of a fresh initial
        state (paused seeds are resumed into their next packet), and
        ``stop_at_packet`` parks states at that packet boundary instead of
        letting them continue — together they make runs resumable, which is
        what the per-packet beam scheduler builds on.

        Seeding costs O(seeds) however often a frontier is carried between
        runs: a state's ``priority`` is refreshed by whoever last changed
        what it is computed from (this loop after stepping it,
        :meth:`resume_state`, :meth:`make_initial_state`), so a pending seed
        still carries the value it was queued under and goes back in by one
        bulk ``extend``.

        ``converge_chunk`` turns on the convergence stop of the beam strike
        round: after every ``converge_chunk`` pops, the search ends if that
        chunk completed at least one path and none of them beat the best
        completed cost so far.  The max-cost searcher completes its most
        expensive paths first, so what follows is near-duplicates.
        """
        stats = SymbexStats()
        self._stats = stats
        self._pause_at_packet = stop_at_packet
        start = time.monotonic()
        if initial_states is None:
            initial_states = [self.make_initial_state()]
        for state in initial_states:
            if state.status is StateStatus.PAUSED:
                self.resume_state(state)
        searcher.extend(initial_states)
        # Best completed cost so far, and its value and the completed-path
        # count when the current convergence chunk began.
        best_cost = chunk_best = None
        chunk_completed = 0
        stats.stop_reason = "drained"
        try:
            while not searcher.empty:
                explored = stats.states_explored
                if converge_chunk is not None and explored and explored % converge_chunk == 0:
                    completed = len(stats.completed_states)
                    if completed > chunk_completed and best_cost == chunk_best:
                        stats.stop_reason = "converged"
                        break
                    chunk_best, chunk_completed = best_cost, completed
                if max_states is not None and explored >= max_states:
                    stats.stop_reason = "budget"
                    break
                if deadline_seconds is not None and time.monotonic() - start > deadline_seconds:
                    stats.stop_reason = "deadline"
                    break
                state = searcher.pop()
                stats.states_explored += 1
                for outcome in self.execute_until_fork(state):
                    if outcome.status is StateStatus.RUNNING:
                        self._update_priority(outcome)
                        searcher.add(outcome)
                    elif outcome.status is StateStatus.COMPLETED:
                        stats.completed_states.append(outcome)
                        if best_cost is None or outcome.current_cost > best_cost:
                            best_cost = outcome.current_cost
                    elif outcome.status is StateStatus.PAUSED:
                        # Refresh the priority so beam selection can compare
                        # boundary states against mid-packet pending ones.
                        self._update_priority(outcome)
                        stats.paused_states.append(outcome)
                    elif outcome.status is StateStatus.INFEASIBLE:
                        stats.infeasible_states += 1
                        stats.infeasible_by_function[outcome.frames[-1].function] += 1
                    else:
                        stats.error_states += 1
                        stats.errors_by_function[outcome.frames[-1].function] += 1

            # Whatever is still pending is reported so the caller can fall
            # back to the highest-cost partial state (the paper halts on a
            # time budget and picks the best state seen so far).  The report
            # set is chosen by the same (packets_processed, current_cost) key
            # that best_state() uses — truncating in searcher pop order would
            # let bfs/dfs/random searchers drop the true best pending state.
            stats.pending_states = _drain_best_pending(searcher, max_pending_report)
        finally:
            stats.wall_time_seconds = time.monotonic() - start
            self._stats = None
            self._pause_at_packet = None
        return stats

    # -- single-state execution -----------------------------------------------------

    def execute_until_fork(self, state: ExecutionState) -> list[ExecutionState]:
        """Run ``state`` until it forks, completes, or errors.

        Returns every state that needs classification by the caller: the
        (possibly paused) state itself plus any children created at forks.
        """
        collected: list[ExecutionState] = []
        executed = 0
        max_instructions = MAX_INSTRUCTIONS_PER_STATE
        functions = self._functions
        stats = self._stats
        while state.status is StateStatus.RUNNING:
            if executed >= max_instructions:
                state.status = StateStatus.ERROR
                state.error_message = "instruction budget exceeded"
                break
            frame = state.frames[-1]  # read-only: avoid triggering the CoW copy
            instruction = functions[frame.function].blocks[frame.block][frame.index]
            op = instruction[0]
            if op == FALL_OFF:
                state.status = StateStatus.ERROR
                state.error_message = "fell off the end of a basic block"
                break
            executed += 1
            state.instructions_retired += 1
            if stats is not None:
                stats.instructions_executed += 1
            if op == BRANCH:
                if self._execute_branch(state, instruction, collected):
                    break
            else:
                self._execute_simple(state, op, instruction)
        collected.append(state)
        return collected

    def _memory_query_fns(self, state: ExecutionState):
        """The (feasible, solve_value, pinned_value) callbacks of ``on_access``.

        ``pinned_value`` lets the model skip probing a pointer the path has
        already pinned.
        """
        context = state.solver_context
        return (
            context.feasible_with,
            partial(context.solve_value, defaults=self.defaults),
            context.pinned_value,
        )

    # -- instruction dispatch ----------------------------------------------------------

    def _execute_simple(self, state: ExecutionState, op: int, instruction: tuple) -> None:
        frame = state.top_frame
        read = state.read_register
        if op == BINOP:
            _, dest, apply, lhs_reg, lhs, rhs_reg, rhs, cost = instruction
            state.write_register(
                dest, apply(read(lhs) if lhs_reg else lhs, read(rhs) if rhs_reg else rhs)
            )
            state.current_cost += cost
            frame.index += 1
        elif op == LOAD:
            _, dest, index_reg, index, region = instruction
            self._apply_access(state, region, read(index) if index_reg else index, dest)
            frame.index += 1
        elif op == STORE:
            _, index_reg, index, region, value_reg, value = instruction
            index = read(index) if index_reg else index
            self._apply_access(state, region, index, None, value_reg, value)
            frame.index += 1
        elif op == JUMP:
            _, target, cost = instruction
            state.current_cost += cost
            frame.block = target
            frame.index = 0
        elif op == SELECT:
            _, dest, cond_reg, cond, yes_reg, yes, no_reg, no, cost = instruction
            state.write_register(
                dest,
                make_select(
                    read(cond) if cond_reg else cond,
                    read(yes) if yes_reg else yes,
                    read(no) if no_reg else no,
                ),
            )
            state.current_cost += cost
            frame.index += 1
        elif op == CALL:
            self._execute_call(state, instruction)
        elif op == HAVOC:
            self._execute_havoc(state, instruction)
            frame.index += 1
        elif op == RETURN:
            _, value_reg, value, cost = instruction
            self._execute_return(state, read(value) if value_reg else value, cost)
        else:  # UNREACHABLE
            state.status = StateStatus.ERROR
            state.error_message = "reached an unreachable instruction"

    def _apply_access(
        self,
        state: ExecutionState,
        region: MemoryRegion,
        index_expr: Expr,
        dest: str | None,
        value_reg: bool = False,
        value=None,
    ) -> None:
        """One load (into ``dest``) or store (of the ``value`` operand).

        Bounds check, cache decision, state effects.  A store's value
        operand is read only after the cache decision has committed its
        constraint.
        """
        if index_expr.__class__ is Const and not (0 <= index_expr.value < region.length):
            state.status = StateStatus.ERROR
            state.error_message = (
                f"out-of-bounds access to @{region.name}[{index_expr.value}] "
                f"(length {region.length})"
            )
            return
        is_write = dest is None
        decision = state.cache_model.on_access(
            region, index_expr, is_write, *self._memory_query_fns(state)
        )
        if decision.constraint is not None:
            state.add_constraint(decision.constraint)
        state.current_cost += self.cycle_costs.memory_cost(decision.level)
        state.level_counts[decision.level] = state.level_counts.get(decision.level, 0) + 1
        if is_write:
            if value_reg:
                value = state.read_register(value)
            state.write_memory(region.name, decision.index, value)
            state.stores += 1
        else:
            default = region.initial.get(decision.index, 0)
            value = state.read_memory(region.name, decision.index, default=default)
            state.write_register(dest, value)
            state.loads += 1

    def _execute_call(self, state: ExecutionState, instruction: tuple) -> None:
        _, dest, callee, operands, cost = instruction
        args = [state.read_register(arg) if is_reg else arg for is_reg, arg in operands]
        state.current_cost += cost
        caller_frame = state.top_frame
        caller_frame.index += 1  # resume after the call on return
        state.push_frame(
            Frame(
                function=callee.name,
                block=0,
                index=0,
                registers={param: arg for param, arg in zip(callee.params, args)},
                return_target=dest,
            )
        )
        if (
            self.stage_entries
            and caller_frame.function == self.entry
            and callee.name in self.stage_entries
        ):
            # Entering a chain stage from the glue: open its cost window
            # (the call overhead charged above stays attributed to the glue).
            state.active_stage = self.stage_entries[callee.name]
            state.stage_cost_base = state.current_cost

    def _execute_havoc(self, state: ExecutionState, instruction: tuple) -> None:
        _, dest, hash_function, ((key_reg, key),), _call_overhead = instruction
        key_expr = state.read_register(key) if key_reg else key
        symbol = Sym(state.fresh_symbol_name("hv"), bits=FLOW_HASH_BITS)
        state.havoc_records.append(
            HavocRecord(
                symbol=symbol,
                key_expr=key_expr,
                hash_function=hash_function.name,
                packet_index=state.packets_processed,
            )
        )
        state.write_register(dest, symbol)
        # Charge what the suppressed hash call would roughly have cost, so
        # the cost comparison between paths is not skewed by havocing.
        state.current_cost += self.cycle_costs.hash_call

    def _execute_return(self, state: ExecutionState, value: Expr, cost: int) -> None:
        state.current_cost += cost
        finished_frame = state.pop_frame()
        if state.frames:
            if (
                state.active_stage is not None
                and finished_frame.function in self.stage_entries
                and state.top_frame.function == self.entry
            ):
                label = self.stage_entries[finished_frame.function]
                state.stage_costs[label] = state.stage_costs.get(label, 0) + (
                    state.current_cost - state.stage_cost_base
                )
                state.active_stage = None
            if finished_frame.return_target is not None:
                state.write_register(finished_frame.return_target, value)
            return
        # The entry function returned: one packet fully processed.
        state.finish_packet(value)
        if state.packets_processed >= state.num_packets:
            state.status = StateStatus.COMPLETED
        elif (
            self._pause_at_packet is not None
            and state.packets_processed >= self._pause_at_packet
        ):
            state.pause_at_round_boundary()
        else:
            self._start_packet(state, state.packets_processed)

    # -- branches ---------------------------------------------------------------------

    def _execute_branch(
        self, state: ExecutionState, instruction: tuple, collected: list[ExecutionState]
    ) -> bool:
        """Execute a branch.  Returns True when the caller must stop stepping."""
        _, cond_reg, cond, if_true, if_false, cost = instruction
        frame = state.top_frame
        state.current_cost += cost
        if cond_reg:
            cond = state.read_register(cond)

        if cond.__class__ is Const:
            frame.block = if_true if cond.value else if_false
            frame.index = 0
            return False

        true_constraint = expr_ne(cond, Const(0))
        false_constraint = expr_not(true_constraint)
        context = state.solver_context
        feasible_true = context.feasible_with(true_constraint)
        feasible_false = context.feasible_with(false_constraint)

        block_name = self._functions[frame.function].block_names[frame.block]
        is_loop_head = block_name.startswith(_LOOP_HEAD_PREFIXES)
        if is_loop_head:
            visits = frame.loop_visits.get(frame.block, 0) + 1
            frame.loop_visits[frame.block] = visits
            if visits > MAX_LOOP_ITERATIONS and feasible_false:
                feasible_true = False

        if not feasible_true and not feasible_false:
            state.status = StateStatus.INFEASIBLE
            return True
        if feasible_true != feasible_false:
            state.add_constraint(true_constraint if feasible_true else false_constraint)
            frame.block = if_true if feasible_true else if_false
            frame.index = 0
            return False

        # Both directions feasible: fork.
        if self._stats is not None:
            self._stats.forks += 1
        child = state.fork()
        child.add_constraint(false_constraint)
        child_frame = child.top_frame
        child_frame.block = if_false
        child_frame.index = 0

        state.add_constraint(true_constraint)
        # Re-fetch after fork(): frames went copy-on-write, so the frame
        # reference captured above may now be shared with the child.
        frame = state.top_frame
        frame.block = if_true
        frame.index = 0

        if is_loop_head:
            # §3.4: at a loop head, prefer the one-more-iteration state and
            # queue the exit state for later exploration.
            state.preferred_loop_iteration = True
            collected.append(child)
            return False
        collected.append(child)
        return True

    # -- cost heuristic ------------------------------------------------------------------

    def _update_priority(self, state: ExecutionState) -> None:
        """current cost + potential cost to the end of the last packet (§3.1).

        Paused states (parked at a packet boundary by a beam round) have no
        live frames; their potential is the annotated entry cost of every
        packet still to process, which keeps their priorities comparable
        with mid-packet states when the beam is selected.
        """
        potential = 0
        if self.annotation is not None and state.status in (
            StateStatus.RUNNING,
            StateStatus.PAUSED,
        ):
            for frame in state.frames:
                uids = self._functions[frame.function].uids[frame.block]
                if frame.index < len(uids):
                    potential += self.annotation.cost_of(uids[frame.index])
            in_flight = 1 if state.frames else 0
            remaining_packets = max(0, state.num_packets - state.packets_processed - in_flight)
            potential += remaining_packets * self.annotation.entry_cost(self.entry)
        state.priority = state.current_cost + potential
