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
- :meth:`SolverContext.fork` copies nothing that grows with the path: the
  assignment and domains dicts and the domain objects are shared
  copy-on-write with the child, the constraint log and the unresolved
  (pending) constraints are persistent parent-linked logs (:class:`_Log`)
  that each side extends at its own tail, and the feasibility memo carries
  over through the shared fingerprint.

Soundness note: propagation is a monotone fixpoint computation (domains only
ever tighten), so incrementally-reached fixpoints coincide with from-scratch
ones; ``tests/test_incremental.py`` replays recorded engine query streams
through both paths and asserts identical verdicts and models.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from repro.symbex.expr import Const, Expr, evaluate, reduce_expr
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
#: post-wave domain objects for every touched symbol, how many pending
#: entries the wave left in place and the tail it put after them, and
#: whether the wave converged).  ``feasible_with`` records the plan
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


class _Block:
    """One frozen run of a :class:`_Log`, linked to the runs before it."""

    __slots__ = ("parent", "items", "size")

    def __init__(self, parent: "_Block | None", items: tuple[Expr, ...]) -> None:
        self.parent = parent
        self.items = items
        self.size = len(items) + (parent.size if parent is not None else 0)


class _Log:
    """A persistent list of expressions: shared frozen blocks and an owned tail.

    Appends go to the tail.  :meth:`fork` freezes the tail into a block and
    hands both sides the same block chain, so a fork costs O(tail) and what
    came before it is shared, never copied.
    """

    __slots__ = ("_head", "_tail")

    def __init__(self, head: _Block | None = None) -> None:
        self._head = head
        self._tail: list[Expr] = []

    def fork(self) -> "_Log":
        if self._tail:
            self._head = _Block(self._head, tuple(self._tail))
            self._tail = []
        return _Log(self._head)

    def __len__(self) -> int:
        return len(self._tail) + (self._head.size if self._head is not None else 0)

    def __iter__(self) -> Iterator[Expr]:
        blocks: list[Sequence[Expr]] = [self._tail]
        node = self._head
        while node is not None:
            blocks.append(node.items)
            node = node.parent
        return itertools.chain.from_iterable(reversed(blocks))

    def append(self, item: Expr) -> None:
        self._tail.append(item)

    def replace_from(self, keep: int, items: Iterable[Expr]) -> None:
        """Keep the first ``keep`` entries and put ``items`` after them.

        Cutting into the shared blocks turns the kept entries into a private
        tail: a full snapshot, taken only when a wave rewrote older entries.
        """
        base = self._head.size if self._head is not None else 0
        if keep < base:
            self._tail = list(itertools.islice(self, keep))
            self._head = None
        else:
            del self._tail[keep - base :]
        self._tail.extend(items)


class SolverContext:
    """Incremental solving state carried by one execution state."""

    __slots__ = (
        "solver",
        "_assignment",
        "_domains",
        "_owned",
        "_shared",
        "_pending",
        "_log",
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
        # Whether the two dicts above may be shared with a fork of this
        # context: the first write copies them (``_own_dicts``).
        self._shared = False
        self._pending = _Log()
        self._log = _Log()
        self._materialized: list[Expr] | None = None
        self._set_id = 0
        # Whether the last committed wave left through a no-change round, so
        # ``_pending`` is a fixpoint the next wave may carry over untouched.
        self._converged = True
        self.unsat = False

    # -- lifecycle -------------------------------------------------------------

    def fork(self) -> "SolverContext":
        """O(delta) copy: the dicts and domains go copy-on-write, the logs are shared."""
        CONTEXT_STATS.forks += 1
        child = SolverContext.__new__(SolverContext)
        child.solver = self.solver
        child._assignment = self._assignment
        child._domains = self._domains
        child._owned = set()
        self._owned = set()  # parent's domains are shared now too
        child._shared = self._shared = True
        child._pending = self._pending.fork()
        child._log = self._log.fork()
        child._materialized = None
        child._set_id = self._set_id
        child._converged = self._converged
        child.unsat = self.unsat
        return child

    def _own_dicts(self) -> None:
        """Copy the assignment and domains dicts before the first write to them."""
        if self._shared:
            self._assignment = dict(self._assignment)
            self._domains = dict(self._domains)
            self._shared = False

    # -- constraint log --------------------------------------------------------

    def constraints(self) -> list[Expr]:
        """The full (pre-simplified) constraint list, oldest first.

        The returned list is cached and shared; treat it as read-only.
        """
        if self._materialized is None:
            self._materialized = list(self._log)
        return self._materialized

    def __len__(self) -> int:
        return len(self._log)

    # -- queries ---------------------------------------------------------------

    def feasible_with(self, extra: Expr) -> bool:
        """Quick feasibility of (path constraints + ``extra``).

        Same contract as ``Solver.quick_feasible`` on the full list: False
        only on a definite contradiction, True otherwise (optimistically).
        Only the new constraint and whatever it wakes up are propagated,
        against scratch copy-on-write domains; setting those up (copies of
        the assignment and domains dicts) still costs O(symbols).  A
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
        promoted: list[str] = []
        outcome = self._propagate_wave(scratch_assignment, scratch_domains, extra, promoted)
        verdict = outcome is not None
        _FEASIBLE_MEMO[key] = verdict
        _FEASIBLE_MEMO[raw_key] = verdict
        if outcome is not None:
            # Record the wave's committed-state delta so a later add() of the
            # same constraint on the same fingerprint replays it for free.
            # The scratch CoW view started with nothing owned, so every
            # domain the wave touched was cloned into scratch — those clones
            # belong exclusively to this record once scratch is discarded.
            kept, unresolved, converged = outcome
            _ADD_PLAN_MEMO[key] = (
                {name: scratch_assignment[name] for name in promoted},
                {name: scratch_domains.base[name] for name in scratch_domains.owned},
                kept,
                tuple(unresolved),
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
        self._log.append(constraint)
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
        self._own_dicts()
        plan = _ADD_PLAN_MEMO.get((pre_set_id, id(reduced)))
        if plan is not None:
            # A feasibility query already ran this exact wave on an identical
            # committed state; replay its recorded delta instead of
            # re-propagating.  Domains install unowned (shared CoW).
            assignment_delta, domain_delta, kept, unresolved, self._converged = plan
            self._assignment.update(assignment_delta)
            for name, domain in domain_delta.items():
                self._domains[name] = domain
                self._owned.discard(name)
            self._pending.replace_from(kept, unresolved)
            return
        cow = _CowDomains(self._domains, self._owned)
        outcome = self._propagate_wave(self._assignment, cow, reduced)
        if outcome is None:
            self.unsat = True
            self._converged = False
            return
        kept, unresolved, self._converged = outcome
        self._pending.replace_from(kept, unresolved)

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

        None on an ``unsat`` context, whose assignment proves nothing, and
        when propagation has pinned none of the symbols ``expr`` reads (a
        constant ``expr`` included): the caller then probes as usual.
        """
        if self.unsat or self._assignment.keys().isdisjoint(expr.symbol_names):
            return None
        reduced = reduce_expr(expr, self._assignment)
        return reduced.value if reduced.__class__ is Const else None

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
        extra: Expr,
        promoted: list[str] | None = None,
    ) -> tuple[int, list[Expr], bool] | None:
        """Propagate ``extra`` against this context's fixpoint.

        ``assignment`` / ``domains`` are the committed state or a scratch
        copy of it; ``_pending`` is only read.  Returns ``(kept,
        unresolved, converged)`` — the new pending list is the first
        ``kept`` entries of ``_pending`` followed by ``unresolved`` — or None
        on a contradiction.  When the wave that produced ``_pending``
        converged, only ``extra`` and whatever it wakes are visited (see
        ``Solver._propagate_rounds``); after a wave that left through the
        rounds cap ``_pending`` is not a proven fixpoint, so nothing is
        carried over and everything is visited.  ``promoted`` collects newly
        pinned names (wave recording for ``_ADD_PLAN_MEMO``).
        """
        if self._converged:
            carried, queue = self._pending, [extra]
        else:
            carried, queue = (), [*self._pending, extra]
        outcome = self.solver._propagate_rounds(carried, queue, assignment, domains, promoted)
        CONTEXT_STATS.wave_visits += domains.visits
        CONTEXT_STATS.wave_skips += domains.skips
        return outcome


def replay_context(solver: Solver, constraints: Iterable[Expr]) -> SolverContext:
    """Build a context by adding ``constraints`` in order.

    Havoc reconciliation starts from one (``reconcile_havocs``); tests use
    it to replay recorded constraint streams.
    """
    context = SolverContext(solver)
    for constraint in constraints:
        context.add(constraint)
    return context
