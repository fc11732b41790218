"""Per-packet beam-batched workload synthesis (the round scheduler).

CASTAN's adversarial workloads get their power from *multi-packet*
interaction: packet i is only adversarial relative to the NF state left
behind by packets 1..i-1 (§3.1, §3.4).  A monolithic search over all N
packets spends most of its state budget permuting early-packet paths and
rarely reaches the deep packets where the interesting state lives.

:func:`run_beam_search` restructures synthesis into per-packet rounds with
a prime/strike shape:

* **Priming rounds** (packets 0..N-2) each explore one packet to a slim
  pop budget (``round_max_states``): the engine parks every state that
  crosses the round's packet boundary
  (:class:`~repro.symbex.state.StateStatus.PAUSED`) instead of letting it
  run on, and the top-K frontier states by estimated total cost — the
  *beam*, :func:`~repro.symbex.searcher.select_beam` — seed the next
  round.  Seeds carry their NF memory overlays, havoc records and
  :class:`~repro.symbex.incremental.SolverContext` forward untouched
  (states already share all of that copy-on-write across forks), so a
  round boundary costs nothing beyond the selection itself.  Priming is
  deliberately cheap: its job is carrying diverse, well-primed NF state
  forward, not finding the expensive path.
* **The strike round** (packet N-1) gets the entire remaining budget: by
  now the carried state (cache contention sets, skewed trees, collided
  buckets) is fully primed, so depth pays here.  The strike is explored in
  chunks, carrying the whole frontier between chunks, and stops early once
  a chunk completes paths without improving the best state seen — which is
  how the scheduler ends up exploring *fewer* states than the monolithic
  search on NFs that converge.

The scheduler degrades gracefully: ``beam_width <= 0`` falls back to the
monolithic single-call search, and a priming round whose budget was too
small to finish its packet simply carries its best mid-packet states
forward, to be parked at the next boundary they reach.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.symbex.engine import SymbexStats, SymbolicEngine
from repro.symbex.searcher import Searcher, select_beam
from repro.symbex.state import ExecutionState

#: Frontier states carried between rounds.  A narrow beam measures best
#: across the evaluation NFs: priming rounds only need to carry a few
#: diverse lineages forward.
DEFAULT_BEAM_WIDTH = 3


@dataclass
class RoundStats:
    """What one beam round (or strike chunk) did (``SymbexStats.rounds``)."""

    packet_index: int
    phase: str  # "prime" | "strike"
    seeds: int
    states_explored: int
    forks: int
    paused: int
    pending: int
    completed: int
    infeasible: int
    errors: int
    best_cost: int
    wall_time_seconds: float


def _best_key(state: ExecutionState) -> tuple[int, int]:
    return (state.packets_processed, state.current_cost)


def _truncate_report(states: list[ExecutionState], limit: int | None) -> list[ExecutionState]:
    """Cap the final pending report, keeping the top states by best-state key."""
    if limit is None or len(states) <= limit:
        return list(states)
    return sorted(states, key=_best_key, reverse=True)[:limit]


def run_beam_search(
    engine: SymbolicEngine,
    searcher_factory: Callable[[], Searcher],
    beam_width: int = DEFAULT_BEAM_WIDTH,
    max_states: int | None = None,
    deadline_seconds: float | None = None,
    round_max_states: int | None = None,
    strike_chunk_states: int = 32,
    max_pending_report: int | None = 512,
    on_round: Callable[[RoundStats], None] | None = None,
) -> SymbexStats:
    """Explore one packet per round, carrying a beam of states across rounds.

    ``max_states`` and ``deadline_seconds`` are *global* budgets shared by
    all rounds; ``round_max_states`` caps one priming round (default
    ``beam_width + 1`` pops).  Each round needs a fresh searcher, hence the
    factory.
    Returns an aggregate :class:`SymbexStats` whose ``rounds`` list holds
    one :class:`RoundStats` per engine call and whose paused/pending states
    are the final frontier.

    ``on_round`` is the live-progress tap (the synthesis service streams
    it to job subscribers): it is called with each :class:`RoundStats`
    right after the round completes, *observation only* — it receives the
    same object that lands in ``stats.rounds`` and must not mutate it or
    influence the search.
    """
    num_packets = len(engine.packet_args)
    if beam_width <= 0 or num_packets == 0:
        return engine.run(
            searcher_factory(),
            max_states=max_states,
            deadline_seconds=deadline_seconds,
            max_pending_report=max_pending_report,
        )

    prime_budget = round_max_states if round_max_states is not None else beam_width + 1
    total = SymbexStats()
    start = time.monotonic()
    best: ExecutionState | None = None

    def remaining_budget() -> int | None:
        if max_states is None:
            return None
        return max_states - total.states_explored

    def call_deadline() -> float | None:
        if deadline_seconds is None:
            return None
        return deadline_seconds - (time.monotonic() - start)

    def out_of_budget() -> str:
        """``"budget"`` or ``"deadline"`` once either is spent, else ``""``."""
        remaining = remaining_budget()
        if remaining is not None and remaining <= 0:
            return "budget"
        deadline = call_deadline()
        return "deadline" if deadline is not None and deadline <= 0 else ""

    def run_round(seeds, stop_at_packet, budget_cap, phase) -> SymbexStats:
        nonlocal best
        budget = remaining_budget()
        if budget_cap is not None:
            budget = budget_cap if budget is None else min(budget, budget_cap)
        stats = engine.run(
            searcher_factory(),
            max_states=budget,
            deadline_seconds=call_deadline(),
            # The pending report is this scheduler's live frontier: never
            # truncate it mid-search (the cap is applied to the final
            # report only).
            max_pending_report=None,
            initial_states=seeds,
            stop_at_packet=stop_at_packet,
        )
        total.merge_round(stats)
        for state in stats.completed_states:
            if best is None or _best_key(state) > _best_key(best):
                best = state
        frontier = stats.paused_states + stats.pending_states
        round_best = max(
            (s.current_cost for s in frontier + stats.completed_states), default=0
        )
        total.rounds.append(
            RoundStats(
                packet_index=min(stop_at_packet, num_packets) - 1,
                phase=phase,
                seeds=len(seeds),
                states_explored=stats.states_explored,
                forks=stats.forks,
                paused=len(stats.paused_states),
                pending=len(stats.pending_states),
                completed=len(stats.completed_states),
                infeasible=stats.infeasible_states,
                errors=stats.error_states,
                best_cost=round_best,
                wall_time_seconds=stats.wall_time_seconds,
            )
        )
        if on_round is not None:
            on_round(total.rounds[-1])
        return stats

    # -- priming rounds: one packet each, slim budget, beam carry-over --------
    seeds = [engine.make_initial_state()]
    frontier: list[ExecutionState] = seeds
    last_stats: SymbexStats | None = None
    for packet_index in range(num_packets - 1):
        if out_of_budget():
            break
        last_stats = run_round(seeds, packet_index + 1, prime_budget, "prime")
        frontier = last_stats.paused_states + last_stats.pending_states
        if not frontier:
            break
        seeds = select_beam(frontier, beam_width)

    # -- strike round: the whole remaining budget on the final packet ---------
    total.stop_reason = "drained"
    if frontier:
        chunk_seeds = seeds
        while not (reason := out_of_budget()):
            before = best
            last_stats = run_round(chunk_seeds, num_packets, strike_chunk_states, "strike")
            frontier = last_stats.paused_states + last_stats.pending_states
            if not frontier:
                reason = "drained"
                break
            if last_stats.completed_states and best is before:
                # Paths are completing but none beats the best seen: the
                # strike has converged; spend no more of the budget.
                reason = "converged"
                break
            # Chunks carry the *whole* frontier: the strike is a focused,
            # monolithic-style search over the primed final packet.
            chunk_seeds = frontier
        total.stop_reason = reason

    if last_stats is not None:
        total.paused_states = list(last_stats.paused_states)
        total.pending_states = _truncate_report(last_stats.pending_states, max_pending_report)
    else:
        # Budget/deadline exhausted before any round ran: report the seed
        # frontier so the caller can still fall back to a partial state
        # (mirroring the monolithic search under an exhausted deadline).
        total.pending_states = list(seeds)
    total.wall_time_seconds = time.monotonic() - start
    return total
