"""The CASTAN pipeline (§3.1, §4).

Given a :class:`~repro.nf.base.NetworkFunction`, an analysis run:

1. builds the ICFG and annotates it with potential costs (loop bound M);
2. builds the cache model: candidate addresses over the NF's large regions
   are grouped into L3 contention sets by the hierarchy's ground-truth
   mapping (what the §3.2 probing discovery,
   :func:`~repro.cache.contention.discover_contention_sets`, recovers);
3. symbolically executes the NF over N symbolic packets under the
   max-cost searcher, with the cache model concretizing symbolic pointers
   and ``castan_havoc`` suppressing hash functions — either as one
   monolithic search or, with ``search_mode="beam"``, as the per-packet
   beam-batched round schedule of :mod:`repro.symbex.batch`;
4. picks the highest-cost state, solves its path constraint, reconciles
   havocs with rainbow tables, and materialises N concrete packets plus the
   per-path CPU-model metrics.

A minimal run (tiny budgets; see :class:`~repro.core.config.CastanConfig`
for the real knobs):

>>> from repro.core.castan import Castan
>>> from repro.core.config import CastanConfig
>>> from repro.nf.registry import get_nf
>>> config = CastanConfig(max_states=40, num_packets=2, deadline_seconds=None)
>>> result = Castan(config).analyze(get_nf("lpm-patricia"))
>>> result.packet_count
2
>>> result.best_state_cost > 0
True
>>> result.summary().startswith("CASTAN[lpm-patricia]")
True
"""

from __future__ import annotations

import gc
import logging
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.cache.contention import ContentionSets
from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.model import CacheModel, ContentionSetCacheModel, NoCacheModel
from repro.cfg.costs import CostAnnotation, annotate_costs
from repro.core.config import CastanConfig
from repro.core.metrics import PathMetrics, metrics_from_state
from repro.core.workload import make_packet_symbols, packets_from_model, symbol_defaults
from repro.hashing.rainbow import RainbowTable, build_flow_rainbow_table
from repro.net.packet import Packet
from repro.net.pcap import write_pcap
from repro.nf.base import NetworkFunction
from repro.symbex.batch import run_beam_search
from repro.symbex.engine import SymbexStats, SymbolicEngine
from repro.symbex.havoc import ReconciliationOutcome, reconcile_havocs
from repro.symbex.searcher import make_searcher
from repro.symbex.solver import Model, Solver, SolverResult
from repro.symbex.state import ExecutionState

#: Process-global flow-table cache, keyed by the build parameters a config
#: sets, ``(rainbow_chains, seed)``.  Construction is deterministic in them,
#: so sharing across analyses cannot change any output.
_RAINBOW_TABLE_CACHE: dict[tuple[int, int], RainbowTable] = {}

logger = logging.getLogger(__name__)

#: Candidate keys tested per suppressed hash during reconciliation (§3.5).
MAX_CANDIDATES_PER_HAVOC = 12
#: Candidate addresses sampled per large region for the cache model.
CONTENTION_POOL_LINES = 4096

# Automatic cyclic collection is a process-wide switch, so the pause that
# `Castan.analyze` runs under is counted process-wide: the first analysis in
# turns it off, the last one out restores what it found.
_GC_PAUSE_LOCK = threading.Lock()
_gc_pause_depth = 0
_gc_enabled_before_pause = False


@contextmanager
def _cyclic_gc_paused():
    """Run the body without automatic cyclic garbage collection.

    An analysis allocates reference-counted garbage (expressions, domains,
    dead states) next to a long-lived acyclic frontier; CPython's full
    collections traverse all of it — some 110 000 tracked objects, 60–100 ms
    a sweep, two or three sweeps per cold analysis — to reclaim about 2 %.
    Reference counting still frees everything else at once, so peak RSS does
    not move (``docs/ARCHITECTURE.md`` §6 has the numbers).  Re-entrant and
    thread-safe; a caller who already disabled collection stays disabled.
    """
    global _gc_pause_depth, _gc_enabled_before_pause
    with _GC_PAUSE_LOCK:
        if _gc_pause_depth == 0:
            _gc_enabled_before_pause = gc.isenabled()
            gc.disable()
        _gc_pause_depth += 1
    try:
        yield
    finally:
        with _GC_PAUSE_LOCK:
            _gc_pause_depth -= 1
            if _gc_pause_depth == 0 and _gc_enabled_before_pause:
                gc.enable()


@dataclass
class CastanResult:
    """Everything a CASTAN run produces for one NF."""

    nf_name: str
    packets: list[Packet] = field(default_factory=list)
    metrics: PathMetrics = field(default_factory=PathMetrics)
    analysis_seconds: float = 0.0
    states_explored: int = 0
    completed_paths: int = 0
    forks: int = 0
    best_state_cost: int = 0
    havoc_outcome: ReconciliationOutcome | None = None
    solver_status: str = ""
    #: Why the selected state's path constraint was not solved (the solver's
    #: reason for a non-``sat`` status); the packets are then defaults only.
    unsolved_reason: str = ""
    contention_sets_used: int = 0
    search_mode: str = "monolithic"
    search_rounds: int = 0
    #: Why the search ended (``SymbexStats.stop_reason``) and the state
    #: budget it ran under; neither is part of the result's digest.
    stop_reason: str = ""
    state_budget: int | None = None
    #: Search states that died, as ``(function, count)`` pairs, most first:
    #: infeasible ones (both sides of a branch contradicted the path) and
    #: error ones (``SymbexStats.infeasible_by_function`` /
    #: ``errors_by_function``).  Not part of the result's digest.
    infeasible_by_function: tuple[tuple[str, int], ...] = ()
    errors_by_function: tuple[tuple[str, int], ...] = ()
    notes: str = ""

    @property
    def packet_count(self) -> int:
        return len(self.packets)

    @property
    def unique_flows(self) -> int:
        return len({p.flow_tuple for p in self.packets})

    def write_pcap(self, path: str | Path) -> int:
        """Write the synthesized workload to a pcap file."""
        return write_pcap(path, self.packets)

    def summary(self) -> str:
        text = (
            f"CASTAN[{self.nf_name}]: {self.packet_count} packets in {self.unique_flows} flows, "
            f"estimated cost {self.best_state_cost} cycles, "
            f"analysis {self.analysis_seconds:.2f}s, "
        )
        if self.stop_reason:
            budget = "" if self.state_budget is None else f" of {self.state_budget}"
            text += f"{self.stop_reason} at {self.states_explored}{budget} states"
        else:
            text += f"{self.states_explored} states explored"
        havoc = self.havoc_outcome
        if havoc is not None:
            text += (
                f"; havocs reconciled {len(havoc.reconciled)}/{havoc.total} "
                f"({havoc.witnessed} by witness, {havoc.searched} searched)"
            )
        for kind, counts in (
            ("infeasible", self.infeasible_by_function),
            ("error", self.errors_by_function),
        ):
            if counts:
                where = ", ".join(f"{name} {count}" for name, count in counts)
                text += f"; {sum(count for _, count in counts)} {kind} states ({where})"
        if self.unsolved_reason:
            text += (
                f"; path constraint NOT solved ({self.solver_status}: {self.unsolved_reason}), "
                "packets are defaults only"
            )
        return text


def _dead_states(stats: SymbexStats) -> dict[str, tuple[tuple[str, int], ...]]:
    """``CastanResult``'s dead-state fields from the search's counters."""
    return {
        "infeasible_by_function": tuple(stats.infeasible_by_function.most_common()),
        "errors_by_function": tuple(stats.errors_by_function.most_common()),
    }


class Castan:
    """The analysis tool.  Construct once, call :meth:`analyze` per NF."""

    def __init__(self, config: CastanConfig | None = None) -> None:
        self.config = config or CastanConfig()

    # -- public API -----------------------------------------------------------

    def analyze(
        self,
        nf: NetworkFunction,
        num_packets: int | None = None,
        on_round=None,
    ) -> CastanResult:
        """Synthesize an adversarial workload for ``nf``.

        ``on_round`` is an optional observation-only progress callback
        (``RoundStats -> None``): a beam search calls it after every round
        and a monolithic search calls it once with a single summarising
        pseudo-round (phase ``"monolithic"``), so a caller streaming
        progress — the synthesis service — always sees at least one round
        before the result.  The callback must not mutate
        its argument; it cannot influence the search.
        """
        with _cyclic_gc_paused():
            return self._analyze(nf, num_packets, on_round)

    def _analyze(self, nf: NetworkFunction, num_packets: int | None, on_round) -> CastanResult:
        config = self.config
        start = time.monotonic()
        # `is None`, not truthiness: an explicit num_packets=0 must not be
        # silently replaced by the per-NF default (see CastanConfig.packets_for).
        packet_count = (
            num_packets if num_packets is not None else config.packets_for(nf.castan_packet_count)
        )

        annotation = self._annotate(nf)
        cache_model, contention_sets = self._build_cache_model(nf)
        solver = Solver(seed=config.seed)

        packet_sets = make_packet_symbols(packet_count)
        defaults = symbol_defaults(packet_sets, nf.packet_defaults)

        engine = SymbolicEngine(
            module=nf.module,
            entry=nf.entry,
            packet_args=[ps.args for ps in packet_sets],
            annotation=annotation,
            cache_model=cache_model,
            solver=solver,
            cycle_costs=config.cycle_costs,
            defaults=defaults,
            stage_entries=nf.stage_entries or None,
        )
        stats = self._run_search(engine, on_round=on_round)

        best = stats.best_state()
        if best is None:
            return CastanResult(
                nf_name=nf.name,
                analysis_seconds=time.monotonic() - start,
                states_explored=stats.states_explored,
                search_mode=config.search_mode,
                search_rounds=len(stats.rounds),
                stop_reason=stats.stop_reason,
                state_budget=config.max_states,
                **_dead_states(stats),
                notes="no state survived exploration",
            )

        model, solved, havoc_outcome = self._solve_state(nf, best, solver, defaults)
        packets = packets_from_model(packet_sets, model, nf.packet_defaults)
        packets = packets[: best.packets_processed] or packets[:1]

        reconciled = len(havoc_outcome.reconciled) if havoc_outcome else 0
        result = CastanResult(
            nf_name=nf.name,
            packets=packets,
            metrics=metrics_from_state(best, havocs_reconciled=reconciled),
            analysis_seconds=time.monotonic() - start,
            states_explored=stats.states_explored,
            completed_paths=len(stats.completed_states),
            forks=stats.forks,
            best_state_cost=best.current_cost,
            havoc_outcome=havoc_outcome,
            solver_status=solved.status,
            unsolved_reason="" if solved.is_sat else solved.reason,
            contention_sets_used=contention_sets.set_count if contention_sets else 0,
            search_mode=config.search_mode,
            search_rounds=len(stats.rounds),
            stop_reason=stats.stop_reason,
            state_budget=config.max_states,
            **_dead_states(stats),
        )
        return result

    # -- pipeline stages -----------------------------------------------------------

    def _run_search(self, engine: SymbolicEngine, on_round=None) -> SymbexStats:
        """Dispatch to the beam or the monolithic search.

        Both stop once a chunk of ``strike_chunk_states`` pops completes
        paths without beating the best one: the beam on its strike round,
        the monolithic search over its whole run.
        """
        config = self.config

        def searcher_factory():
            return make_searcher(config.searcher, seed=config.seed)

        if config.search_mode == "beam":
            return run_beam_search(
                engine,
                searcher_factory,
                max_states=config.max_states,
                deadline_seconds=config.deadline_seconds,
                strike_chunk_states=config.strike_chunk_states,
                on_round=on_round,
            )
        stats = engine.run(
            searcher_factory(),
            max_states=config.max_states,
            deadline_seconds=config.deadline_seconds,
            converge_chunk=config.strike_chunk_states,
        )
        if on_round is not None:
            # One summarising pseudo-round, so progress subscribers see the
            # same event shape regardless of search_mode.  Not appended to
            # stats.rounds: a monolithic search still reports 0 rounds.
            from repro.symbex.batch import RoundStats

            frontier = stats.paused_states + stats.pending_states
            on_round(
                RoundStats(
                    packet_index=len(engine.packet_args) - 1,
                    phase="monolithic",
                    seeds=1,
                    states_explored=stats.states_explored,
                    forks=stats.forks,
                    paused=len(stats.paused_states),
                    pending=len(stats.pending_states),
                    completed=len(stats.completed_states),
                    infeasible=stats.infeasible_states,
                    errors=stats.error_states,
                    best_cost=max(
                        (s.current_cost for s in frontier + stats.completed_states),
                        default=0,
                    ),
                    wall_time_seconds=stats.wall_time_seconds,
                )
            )
        return stats

    def _annotate(self, nf: NetworkFunction) -> CostAnnotation:
        return annotate_costs(nf.module, nf.entry, cycle_costs=self.config.cycle_costs)

    def _build_cache_model(self, nf: NetworkFunction) -> tuple[CacheModel, ContentionSets | None]:
        """Build the cache model over the NF's large memory regions."""
        config = self.config
        if config.cache_model == "none" or not nf.contention_regions:
            return NoCacheModel(), None

        hierarchy = MemoryHierarchy(config.hierarchy, cycle_costs=config.cycle_costs)
        addresses = self._candidate_addresses(nf, hierarchy)
        if not addresses:
            return NoCacheModel(), None
        contention_sets = ContentionSets.from_oracle(hierarchy, addresses)
        model = ContentionSetCacheModel(contention_sets)
        return model, contention_sets

    def _candidate_addresses(self, nf: NetworkFunction, hierarchy: MemoryHierarchy) -> list[int]:
        """Sample line-aligned candidate addresses inside the NF's big regions."""
        line = hierarchy.config.line_size
        addresses: list[int] = []
        for name in nf.contention_regions:
            region = nf.module.get_region(name)
            total_lines = max(1, region.size_bytes // line)
            step = max(1, total_lines // CONTENTION_POOL_LINES)
            for line_index in range(0, total_lines, step):
                addresses.append(region.base_address + line_index * line)
        return addresses

    def _solve_state(
        self,
        nf: NetworkFunction,
        state: ExecutionState,
        solver: Solver,
        defaults: dict[str, int],
    ) -> tuple[Model, SolverResult, ReconciliationOutcome | None]:
        """Solve the selected state's path constraint and reconcile havocs.

        The solve resumes from the state's own propagation fixpoint.
        """
        result = solver.check(state.constraints, defaults=defaults, context=state.solver_context)
        if not result.is_sat:
            logger.warning(
                "%s: path constraint of the selected state not solved (%s: %s); "
                "emitting defaults-only packets",
                nf.name,
                result.status,
                result.reason,
            )
            return Model(values=dict(defaults)), result, None
        model = result.model
        havoc_outcome: ReconciliationOutcome | None = None
        if state.havoc_records:
            havoc_outcome = reconcile_havocs(
                records=state.havoc_records,
                constraints=state.constraints,
                model=model,
                solver=solver,
                rainbow_table=rainbow_table(self.config),
                defaults=defaults,
                max_candidates_per_havoc=MAX_CANDIDATES_PER_HAVOC,
            )
            model = havoc_outcome.model
        return model, result, havoc_outcome


def rainbow_table(config: CastanConfig) -> RainbowTable:
    """The (cached) ``flow_hash16`` rainbow table for ``config``'s rainbow settings.

    Havoc reconciliation and the distiller's preimage search both read it
    here.  A table is a pure function of its build parameters, so the cache
    is process-global: every NF (and every ``Castan`` instance) analysed in
    this process with the same rainbow settings shares one table instead of
    re-deriving the chains per analysis.
    """
    key = (config.rainbow_chains, config.seed)
    table = _RAINBOW_TABLE_CACHE.get(key)
    if table is None:
        table = build_flow_rainbow_table(num_chains=config.rainbow_chains, seed=config.seed)
        _RAINBOW_TABLE_CACHE[key] = table
    return table
