"""Incremental constraint solving for the symbolic-execution hot loop.

The engine's two hottest solver entry points — per-branch feasibility and
per-candidate cache-model probes — previously re-simplified and re-propagated
the *entire* path constraint list from scratch on every query
(``Solver.quick_feasible``), making solver work O(path length) per query and
O(n²) per path.  A :class:`SolverContext` eliminates that: each
:class:`~repro.symbex.state.ExecutionState` carries one, and the context
maintains the propagation fixpoint (per-symbol :class:`~repro.symbex.solver._Domain`
objects, the derived concrete assignment and the still-unresolved
constraints) *incrementally* as constraints are added along the path.

- :meth:`SolverContext.feasible_with` answers "is the path still feasible
  with this extra constraint?" by propagating only the new constraint
  against the cached fixpoint (scratch copy-on-write domains, committed
  state untouched), memoised on (constraint-set fingerprint, extra
  constraint) so forked siblings probing the same candidates share verdicts.
  A *propagation-blind* constraint, whose wave on a converged fixpoint is a
  proven no-op, is answered without the scratch copies at all.
- :meth:`SolverContext.add` commits a constraint, advancing the fixpoint in
  O(delta).
- :meth:`SolverContext.solve_value` returns a concrete value for an
  expression: directly from the fixpoint assignment when every symbol is
  pinned, otherwise through :meth:`SolverContext.check`, the full
  :class:`~repro.symbex.solver.Solver` search resumed from the context's
  fixpoint (models are identical to monolithic solving).
- :meth:`SolverContext.fork` is O(current delta): domains are shared
  copy-on-write with the child, the constraint log becomes a persistent
  parent-linked chain, and the feasibility memo carries over through the
  shared fingerprint.

Soundness note: propagation is a monotone fixpoint computation (domains only
ever tighten), so incrementally-reached fixpoints coincide with from-scratch
ones; ``tests/test_incremental.py`` replays recorded engine query streams
through both paths and asserts identical verdicts and models.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.symbex.expr import Const, Expr, evaluate, reduce_concrete, reduce_expr
from repro.symbex.memo import MEMOS, BoundedMemo, clear_memos
from repro.symbex.solver import (
    PROPAGATION_UNSAT,
    Solver,
    SolverResult,
    _Domain,
    _TrackedDomains,
)


class _ContextStats:
    """Process-global counters for benchmarks and regression tracking.

    ``memo_hits`` counts feasibility queries answered by ``_FEASIBLE_MEMO``
    and ``wave_replays`` committed propagation waves replayed from
    ``_ADD_PLAN_MEMO``: both are those memos' hit counters.  ``wave_visits``
    counts constraints a propagation wave actually re-reduced and
    re-propagated, ``wave_skips`` those it carried over untouched (see
    ``SolverContext._propagate_wave``).  ``blind_queries`` / ``blind_adds``
    count queries and commits of propagation-blind constraints answered
    without a wave (``SolverContext._blind``); each still counts as the one
    visit and ``len(pending)`` skips its wave would have made.
    ``order_unsat_proofs`` counts
    ``Solver.check`` calls ended by an ordering contradiction
    (:mod:`repro.symbex.order`) instead of a search.  :meth:`as_dict` adds
    every memo's ``{name}_hits`` / ``_misses`` / ``_clears``, and
    :meth:`reset` zeroes those too.
    """

    __slots__ = (
        "queries",
        "adds",
        "forks",
        "slow_path_checks",
        "fast_path_values",
        "wave_visits",
        "wave_skips",
        "blind_queries",
        "blind_adds",
        "order_unsat_proofs",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)
        for memo in MEMOS:
            memo.reset_counters()

    @property
    def memo_hits(self) -> int:
        return _FEASIBLE_MEMO.hits

    @property
    def wave_replays(self) -> int:
        return _ADD_PLAN_MEMO.hits

    def as_dict(self) -> dict[str, int]:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["memo_hits"] = self.memo_hits
        out["wave_replays"] = self.wave_replays
        for memo in MEMOS:
            out.update(memo.counters())
        return out


CONTEXT_STATS = _ContextStats()

# -- constraint-set fingerprints ------------------------------------------------
#
# A context's constraint *sequence* identifies its constraint set.  Because
# expressions are hash-consed (stable identity), the sequence can be interned
# into a single integer: fingerprint(parent_set ++ [c]) is looked up from
# (fingerprint(parent_set), id(c)).  Two contexts that accumulated the same
# constraints in the same order — e.g. forked siblings before they diverge —
# share a fingerprint and therefore share memoised query verdicts.

_SET_IDS = BoundedMemo("set_ids")
_set_id_counter = itertools.count(1)

#: Feasibility verdicts, keyed on (fingerprint, id(extra constraint)) for the
#: raw and for the reduced constraint.  Within one cold analysis no two
#: contexts ask one question under one fingerprint; what it answers is a
#: re-analysis of the same NF in the same process.
_FEASIBLE_MEMO = BoundedMemo("feasible")

#: Recorded propagation waves: (fingerprint, id(reduced extra)) -> the
#: committed-state delta a successful wave produced (new assignment entries,
#: post-wave domain objects for every touched symbol, the post-wave pending
#: list, and whether the wave converged).  ``feasible_with`` records the plan
#: while answering a query on scratch domains; ``add`` replays it when the
#: *same* constraint is then committed on a context with the *same*
#: fingerprint, skipping the whole wave.  Forked siblings that split the same
#: way share one plan — this is the "batch fork bookkeeping" half of
#: cross-lane solver batching.
#: Sound because waves are deterministic functions of (fingerprint-identified
#: committed state, reduced constraint): the recorded delta is byte-for-byte
#: what the replayed wave would have computed.  Replayed domain objects are
#: installed unowned (copy-on-write), so sharing them across contexts is safe.
_ADD_PLAN_MEMO = BoundedMemo("add_plan")


def _extend_set_id(parent: int, constraint: Expr) -> int:
    key = (parent, id(constraint))
    set_id = _SET_IDS.get(key)
    if set_id is None:
        # The id counter never restarts, so a self-clear of the table only
        # costs future sharing: handed-out fingerprints stay unique and
        # memoised verdicts stay valid.
        set_id = _SET_IDS[key] = next(_set_id_counter)
    return set_id


#: Empty every memo of the symbolic layer (tests, warm-process measurements).
clear_incremental_caches = clear_memos


class _CowDomains(_TrackedDomains):
    """Copy-on-write :class:`~repro.symbex.solver._TrackedDomains`.

    ``Solver._propagate_one`` mutates any domain it looks up through
    ``_domain_for``; this view clones a domain on first access unless the
    context already owns it.
    """

    __slots__ = ("owned",)

    def __init__(self, base: dict[str, _Domain], owned: set[str]) -> None:
        super().__init__(base)
        self.owned = owned

    def __getitem__(self, name: str) -> _Domain:
        domain = super().__getitem__(name)
        if name not in self.owned:
            domain = self.base[name] = domain.clone()
            self.owned.add(name)
        return domain

    def __setitem__(self, name: str, domain: _Domain) -> None:
        super().__setitem__(name, domain)
        self.owned.add(name)


class _ConstraintChain:
    """Persistent (parent-linked) constraint log shared across forks."""

    __slots__ = ("parent", "items")

    def __init__(self, parent: "_ConstraintChain | None", items: tuple[Expr, ...]) -> None:
        self.parent = parent
        self.items = items

    def materialize(self) -> list[Expr]:
        blocks: list[tuple[Expr, ...]] = []
        node: _ConstraintChain | None = self
        while node is not None:
            blocks.append(node.items)
            node = node.parent
        out: list[Expr] = []
        for block in reversed(blocks):
            out.extend(block)
        return out


class SolverContext:
    """Incremental solving state carried by one execution state."""

    __slots__ = (
        "solver",
        "_assignment",
        "_domains",
        "_owned",
        "_pending",
        "_chain",
        "_local",
        "_materialized",
        "_set_id",
        "_converged",
        "unsat",
    )

    def __init__(self, solver: Solver | None = None) -> None:
        self.solver = solver or Solver()
        self._assignment: dict[str, int] = {}
        self._domains: dict[str, _Domain] = {}
        self._owned: set[str] = set()
        self._pending: list[Expr] = []
        self._chain: _ConstraintChain | None = None
        self._local: list[Expr] = []
        self._materialized: list[Expr] | None = []
        self._set_id = 0
        # Whether the last committed wave left through a no-change round, so
        # ``_pending`` is a fixpoint the next wave may carry over untouched.
        self._converged = True
        self.unsat = False

    # -- lifecycle -------------------------------------------------------------

    def fork(self) -> "SolverContext":
        """O(delta) copy: domains go copy-on-write, the log becomes shared."""
        CONTEXT_STATS.forks += 1
        if self._local:
            self._chain = _ConstraintChain(self._chain, tuple(self._local))
            self._local = []
        child = SolverContext.__new__(SolverContext)
        child.solver = self.solver
        child._assignment = dict(self._assignment)
        child._domains = dict(self._domains)
        child._owned = set()
        self._owned = set()  # parent's domains are shared now too
        child._pending = list(self._pending)
        child._chain = self._chain
        child._local = []
        child._materialized = None
        child._set_id = self._set_id
        child._converged = self._converged
        child.unsat = self.unsat
        return child

    # -- constraint log --------------------------------------------------------

    def constraints(self) -> list[Expr]:
        """The full (pre-simplified) constraint list, oldest first.

        The returned list is cached and shared; treat it as read-only.
        """
        if self._materialized is None:
            out = self._chain.materialize() if self._chain is not None else []
            out.extend(self._local)
            self._materialized = out
        return self._materialized

    def __len__(self) -> int:
        return len(self.constraints())

    # -- queries ---------------------------------------------------------------

    def feasible_with(self, extra: Expr) -> bool:
        """Quick feasibility of (path constraints + ``extra``).

        Same contract as ``Solver.quick_feasible`` on the full list: False
        only on a definite contradiction, True otherwise (optimistically).
        Only the new constraint and whatever it wakes up are propagated,
        against scratch copy-on-write domains; setting those up (copies of
        the assignment, domains and pending list) still costs O(path).  A
        propagation-blind constraint (``_blind``) skips all of it and costs
        O(1).
        """
        CONTEXT_STATS.queries += 1
        if self.unsat:
            return False
        # Two-level memo: probe on the raw (pre-reduction) expression first —
        # a hit skips reduce_expr entirely.  The raw key is well-defined
        # because equal fingerprints imply equal committed assignments, so
        # the raw expression reduces identically on every hitting context.
        raw_key = (self._set_id, id(extra))
        cached = _FEASIBLE_MEMO.get(raw_key)
        if cached is not None:
            return cached
        extra = reduce_expr(extra, self._assignment)
        if isinstance(extra, Const):
            return extra.value != 0
        key = (self._set_id, id(extra))
        cached = _FEASIBLE_MEMO.get(key)
        if cached is not None:
            _FEASIBLE_MEMO[raw_key] = cached
            return cached
        if self._blind(extra):
            CONTEXT_STATS.blind_queries += 1
            _FEASIBLE_MEMO[key] = _FEASIBLE_MEMO[raw_key] = True
            return True
        scratch_assignment = dict(self._assignment)
        scratch_domains = _CowDomains(dict(self._domains), set())
        scratch_pending = list(self._pending)
        promoted: list[str] = []
        verdict, converged = self._propagate_wave(
            scratch_assignment, scratch_domains, scratch_pending, [extra], promoted
        )
        _FEASIBLE_MEMO[key] = verdict
        _FEASIBLE_MEMO[raw_key] = verdict
        if verdict:
            # Record the wave's committed-state delta so a later add() of the
            # same constraint on the same fingerprint replays it for free.
            # The scratch CoW view started with nothing owned, so every
            # domain the wave touched was cloned into scratch — those clones
            # belong exclusively to this record once scratch is discarded.
            _ADD_PLAN_MEMO[key] = (
                {name: scratch_assignment[name] for name in promoted},
                {name: scratch_domains.base[name] for name in scratch_domains.owned},
                tuple(scratch_pending),
                converged,
            )
        return verdict

    def add(self, constraint: Expr) -> None:
        """Commit ``constraint`` to the path, advancing the fixpoint."""
        if isinstance(constraint, Const):
            if constraint.value == 0:
                self.unsat = True
            return
        CONTEXT_STATS.adds += 1
        self._local.append(constraint)
        if self._materialized is not None:
            self._materialized.append(constraint)
        pre_set_id = self._set_id
        self._set_id = _extend_set_id(self._set_id, constraint)
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
        plan = _ADD_PLAN_MEMO.get((pre_set_id, id(reduced)))
        if plan is not None:
            # A feasibility query already ran this exact wave on an identical
            # committed state; replay its recorded delta instead of
            # re-propagating.  Domains install unowned (shared CoW).
            assignment_delta, domain_delta, pending_after, self._converged = plan
            self._assignment.update(assignment_delta)
            for name, domain in domain_delta.items():
                self._domains[name] = domain
                self._owned.discard(name)
            self._pending[:] = pending_after
            return
        cow = _CowDomains(self._domains, self._owned)
        feasible, self._converged = self._propagate_wave(
            self._assignment, cow, self._pending, [reduced]
        )
        if not feasible:
            self.unsat = True

    def solve_value(self, expr: Expr, defaults: dict[str, int] | None = None) -> int | None:
        """A concrete value for ``expr`` consistent with the path, or None.

        Fast path: when propagation has already pinned every symbol of
        ``expr``, the value follows directly from the fixpoint assignment.
        Slow path: a full model search (:meth:`check`), whose model equals
        the monolithic ``Solver.check`` over the full constraint list (so
        values match non-incremental solving exactly, including the
        deterministic search fallback).
        """
        if self.unsat:
            return None
        reduced = reduce_expr(expr, self._assignment)
        if isinstance(reduced, Const):
            CONTEXT_STATS.fast_path_values += 1
            return reduced.value
        result = self.check(defaults=defaults)
        if not result.is_sat:
            return None
        assignment = {
            symbol.name: result.model.get(symbol.name, (defaults or {}).get(symbol.name, 0))
            for symbol in reduced.symbols
        }
        return evaluate(reduced, assignment)

    def check(self, defaults: dict[str, int] | None = None) -> SolverResult:
        """Full model search over the committed constraints (slow path).

        The search starts from this context's propagation fixpoint (see
        ``Solver.check``'s ``context``), so it costs the search, not another
        pass over the whole path.
        """
        if self.unsat:
            return SolverResult(status="unsat", reason=PROPAGATION_UNSAT)
        CONTEXT_STATS.slow_path_checks += 1
        return self.solver.check(self.constraints(), defaults=defaults, context=self)

    def fixpoint(self) -> tuple[dict[str, int], dict[str, _Domain], list[Expr]] | None:
        """The propagated state a model search can resume from, or None.

        Copies of the assignment, the domains dict and the pending list; the
        domain objects themselves are shared and must not be written.  None
        on an ``unsat`` context and after a wave that hit the rounds cap,
        whose pending list is not a proven fixpoint.
        """
        if self.unsat or not self._converged:
            return None
        return dict(self._assignment), dict(self._domains), list(self._pending)

    def pinned_value(self, expr: Expr) -> int | None:
        """The value of ``expr`` if propagation has pinned every symbol it reads.

        None on an ``unsat`` context, whose assignment proves nothing.
        """
        return None if self.unsat else reduce_concrete(expr, self._assignment)

    def assignment_of(self, name: str) -> int | None:
        """The pinned value of a symbol, if propagation fully determined it."""
        return self._assignment.get(name)

    def pinned_assignment(self) -> dict[str, int]:
        """Every symbol propagation has pinned (live dict; treat as read-only)."""
        return self._assignment

    # -- propagation core ------------------------------------------------------

    def _blind(self, reduced: Expr) -> bool:
        """Whether the wave for ``reduced`` is a proven no-op on this context.

        A constraint whose compiled propagation plan is ``("none", None)`` —
        a two-sided comparison such as ``key(pkt1) ult key(pkt0)``, or no
        comparison at all — gives propagation nothing to work with.  On a
        converged fixpoint its wave visits it alone (``reduced`` is already
        its own reduction), touches no domain, and ends converged with
        ``pending + [reduced]``: always feasible, and nothing to record or
        replay.  The check counts the visit and skips that wave would have.
        A context whose last wave hit the rounds cap takes the full wave.
        """
        if not self._converged:
            return False
        plan = self.solver._propagation_plan(reduced)
        if plan[0] != "none" or plan[1] is not None:
            return False
        CONTEXT_STATS.wave_visits += 1
        CONTEXT_STATS.wave_skips += len(self._pending)
        return True

    def _propagate_wave(
        self,
        assignment: dict[str, int],
        domains: _CowDomains,
        pending: list[Expr],
        new_constraints: Iterable[Expr],
        promoted: list[str] | None = None,
    ) -> tuple[bool, bool]:
        """Propagate ``new_constraints`` against this context's fixpoint.

        ``assignment`` / ``domains`` / ``pending`` are the committed state or
        a scratch copy of it.  Returns ``(feasible, converged)`` and updates
        ``pending`` in place to the new unresolved set.  When the wave that
        produced the committed ``pending`` converged, only the new
        constraints and whatever they wake are visited (see
        ``Solver._propagate_rounds``); after a wave that left through the
        rounds cap ``pending`` is not a proven fixpoint, so nothing is
        carried over and everything is visited.  ``promoted`` collects newly
        pinned names (wave recording for ``_ADD_PLAN_MEMO``).
        """
        queue = list(pending)
        first = len(queue) if self._converged else 0
        queue.extend(new_constraints)
        outcome = self.solver._propagate_rounds(queue, first, assignment, domains, promoted)
        CONTEXT_STATS.wave_visits += domains.visits
        CONTEXT_STATS.wave_skips += domains.skips
        if outcome is None:
            return False, False
        pending[:], converged = outcome
        return True, converged


def replay_context(solver: Solver, constraints: Iterable[Expr]) -> SolverContext:
    """Build a context by adding ``constraints`` in order.

    Havoc reconciliation starts from one (``reconcile_havocs``); tests use
    it to replay recorded constraint streams.
    """
    context = SolverContext(solver)
    for constraint in constraints:
        context.add(constraint)
    return context
