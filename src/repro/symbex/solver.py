"""Constraint solver for CASTAN path constraints.

The paths CASTAN explores constrain packet-header symbols with equality and
ordering comparisons over masked/shifted/arithmetic combinations of those
symbols (plus unconstrained havoc symbols standing in for hash values).
This solver is specialised to that class: it is not a general SMT solver,
but it plays the same role KLEE's solver does in the paper — deciding
branch feasibility and producing concrete models for the selected state.

It works in three phases:

1. **Propagation** — constraints are normalised and pattern-matched against
   per-symbol domains: fixed assignments, known-bit masks (for
   ``(sym >> k) & m == c`` shapes, which is what trie bit tests and lookup
   indices produce), intervals and small exclusion sets.  Contradictions
   found here make the result UNSAT.
2. **Algebraic inversion** — equalities whose non-constant side contains a
   single symbol occurrence are inverted through ADD/SUB/XOR/MUL/SHL/LSHR/
   AND/OR/UDIV/UREM chains to propose exact values.
3. **Bounded backtracking** — remaining symbols are enumerated from
   constraint-derived candidate values with a node budget; all constraints
   are re-checked by evaluation, so any model returned is sound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Collection, Iterable

from repro.ir.instructions import BinOpKind, CmpKind
from repro.symbex.expr import (
    BinExpr,
    CmpExpr,
    FALSE,
    Const,
    Expr,
    SelectExpr,
    Sym,
    evaluate,
    reduce_expr,
    simplify,
    symbols_of,
)
from repro.symbex.memo import MISSING, BoundedMemo
from repro.symbex.order import OrderGraph

if TYPE_CHECKING:  # pragma: no cover - incremental imports this module
    from repro.symbex.incremental import SolverContext

MACHINE_MASK = (1 << 64) - 1

#: ``SolverResult.reason`` of a propagation contradiction, from scratch or
#: from a context's fixpoint alike.
PROPAGATION_UNSAT = "propagation found a contradiction"

#: Compiled propagation plans (see ``Solver._propagate_one``), keyed on the
#: interned constraint.  The pattern analyses a plan is compiled from run
#: only on a miss here, so they are not memoised themselves.
_PROPAGATE_PLAN_MEMO = BoundedMemo("propagate_plan")
#: Algebraic inversions, keyed on (node, target): propagation and the
#: search's candidate generation both ask for them.
_INVERT_MEMO = BoundedMemo("invert")

#: Rounds cap for one propagation pass (``Solver._propagate_rounds``).
_MAX_ROUNDS = 32

#: Backtracking-node budget of every model search (an analysis's final solve
#: and reconciliation, the distiller's solves); spent, it answers ``unknown``.
SOLVER_BUDGET = 8000

#: Concrete values :meth:`_Domain.candidates` offers per symbol.
CANDIDATES_PER_SYMBOL = 12


@dataclass
class Model:
    """A satisfying assignment of symbol names to concrete values."""

    values: dict[str, int] = field(default_factory=dict)

    def __getitem__(self, name: str) -> int:
        return self.values[name]

    def get(self, name: str, default: int = 0) -> int:
        return self.values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def copy(self) -> "Model":
        return Model(values=dict(self.values))


@dataclass
class SolverResult:
    """Outcome of a solver query."""

    status: str  # "sat", "unsat" or "unknown"
    model: Model | None = None
    reason: str = ""

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


class _Domain:
    """Per-symbol domain tracked during propagation."""

    __slots__ = ("symbol", "known_mask", "known_value", "lo", "hi", "exclusions")

    def __init__(self, symbol: Sym) -> None:
        self.symbol = symbol
        self.known_mask = 0
        self.known_value = 0
        self.lo = 0
        self.hi = symbol.mask
        self.exclusions: set[int] = set()

    def clone(self) -> "_Domain":
        """Independent copy (for copy-on-write solver contexts)."""
        other = _Domain(self.symbol)
        other.known_mask = self.known_mask
        other.known_value = self.known_value
        other.lo = self.lo
        other.hi = self.hi
        other.exclusions = set(self.exclusions)
        return other

    def signature(self) -> tuple[int, int, int, int, int]:
        """Cheap fingerprint used to detect real propagation progress."""
        return (self.known_mask, self.known_value, self.lo, self.hi, len(self.exclusions))

    @property
    def fully_known(self) -> bool:
        return self.known_mask == self.symbol.mask

    @property
    def value(self) -> int:
        return self.known_value

    def set_bits(self, mask: int, value: int) -> bool:
        """Record that ``sym & mask == value & mask``; False on conflict."""
        mask &= self.symbol.mask
        value &= mask
        overlap = self.known_mask & mask
        if (self.known_value & overlap) != (value & overlap):
            return False
        self.known_mask |= mask
        self.known_value |= value
        return True

    def constrain_interval(self, lo: int | None = None, hi: int | None = None) -> bool:
        if lo is not None:
            self.lo = max(self.lo, lo)
        if hi is not None:
            self.hi = min(self.hi, hi)
        return self.lo <= self.hi

    def candidates(self, rng: random.Random) -> list[int]:
        """Concrete values to try during backtracking, most promising first."""
        limit = CANDIDATES_PER_SYMBOL
        sym_mask = self.symbol.mask
        known_mask = self.known_mask
        known_bits = self.known_value & known_mask
        lo, hi = self.lo, self.hi
        exclusions = self.exclusions
        base = known_bits
        free = sym_mask & ~known_mask
        out: list[int] = []
        # ``seen`` also records values the filters rejected: re-pushing a
        # rejected value is a no-op either way, and skipping the re-check is
        # the point (this is the solver's hottest function).
        seen: set[int] = set()

        def push(value: int) -> None:
            value &= sym_mask
            if value in seen:
                return
            seen.add(value)
            if (value & known_mask) != known_bits:
                return
            if not (lo <= value <= hi):
                return
            if value in exclusions:
                return
            out.append(value)

        push(base)
        push(base | free)  # all free bits set
        push(max(lo, base))
        push(min(hi, base | free))
        # Small intervals (e.g. produced by port-range or count constraints)
        # are enumerated exhaustively so exclusions cannot starve the search.
        if hi - lo < limit * 4:
            for value in range(lo, hi + 1):
                push(value)
        attempts = 0
        getrandbits = rng.getrandbits
        while len(out) < limit and attempts < limit * 4:
            attempts += 1
            push(base | (getrandbits(64) & free))
        return out


class _TrackedDomains:
    """Signature-tracking view over a domains dict for one propagation pass.

    ``_propagate_one`` optimistically reports progress whenever a pattern
    matches, even when the domain write was a no-op; taken at face value
    that spins propagation to its rounds cap on every query.  This view
    records each domain's signature on first access per round so
    ``Solver._propagate_rounds`` can tell which symbols *really* changed —
    a newly created domain counts as changed — and wake only the
    constraints that mention them.  A round with no signature change is a
    proven fixpoint: every later round would re-reduce the same constraints
    against the same domains and repeat the same idempotent writes.

    ``visits`` / ``skips`` count the constraints the pass re-propagated /
    carried over untouched (read by ``incremental.SolverContext``).
    """

    __slots__ = ("base", "pre_signatures", "visits", "skips")

    def __init__(self, base: dict[str, _Domain]) -> None:
        self.base = base
        self.pre_signatures: dict[str, "tuple | None"] = {}
        self.visits = 0
        self.skips = 0

    def __contains__(self, name: str) -> bool:
        return name in self.base

    def __getitem__(self, name: str) -> _Domain:
        domain = self.base[name]
        if name not in self.pre_signatures:
            self.pre_signatures[name] = domain.signature()
        return domain

    def __setitem__(self, name: str, domain: _Domain) -> None:
        if name not in self.pre_signatures:
            self.pre_signatures[name] = None  # newly created: counts as change
        self.base[name] = domain

    def changed_names(self) -> list[str]:
        base = self.base
        return [
            name
            for name, pre in self.pre_signatures.items()
            if pre is None or base[name].signature() != pre
        ]

    def reset_round(self) -> None:
        self.pre_signatures = {}


class Solver:
    """Bit-vector constraint solver (see module docstring)."""

    def __init__(self, seed: int = 0xCA57A) -> None:
        self._seed = seed

    # -- public API ----------------------------------------------------------

    def check(
        self,
        constraints: list[Expr],
        defaults: dict[str, int] | None = None,
        context: "SolverContext | None" = None,
    ) -> SolverResult:
        """Find a model satisfying all ``constraints``.

        ``defaults`` supplies values for symbols left unconstrained (so that
        synthesized packets get sensible field values).

        ``context``, when given, is a :class:`SolverContext` whose committed
        constraints are exactly ``constraints``.  Its propagation fixpoint
        stands in for the from-scratch propagation pass: the wake-rule waves
        reach the fixpoint that pass reaches, so the status, reason and model
        are the same, without re-propagating the whole path.  An ``unsat``
        context answers ``unsat``; a context whose last wave hit the rounds
        cap holds no proven fixpoint and is propagated from scratch.
        """
        if context is not None and context.unsat:
            return SolverResult(status="unsat", reason=PROPAGATION_UNSAT)
        constraints = [simplify(c) for c in constraints]
        symbols = self._collect_symbols(constraints)
        fixpoint = context.fixpoint() if context is not None else None
        if fixpoint is not None:
            assignment, domains, remaining = fixpoint
            for name, symbol in symbols.items():
                if name not in domains:
                    domains[name] = _Domain(symbol)
        else:
            assignment = {}
            domains = {s.name: _Domain(s) for s in symbols.values()}
            remaining = self._propagate(constraints, assignment, domains)
            if remaining is None:
                return SolverResult(status="unsat", reason=PROPAGATION_UNSAT)

        # From here on ``domains`` is only read (a context's fixpoint shares
        # its domain objects); the search extends ``assignment``.
        contradiction = self._ordering_contradiction(remaining)
        if contradiction is not None:
            return SolverResult(status="unsat", reason=f"ordering contradiction: {contradiction}")

        rng = random.Random(self._seed)
        # Default field values are tried first during backtracking: workloads
        # synthesized from weakly-constrained paths then look like realistic
        # packets instead of zero-filled ones, and monotone default keys often
        # satisfy tree-ordering constraints directly.
        preferred = {name: [value] for name, value in (defaults or {}).items()}
        ok = self._search(remaining, assignment, domains, rng, preferred)
        if not ok:
            # The search is incomplete; report unknown rather than unsat
            # unless propagation alone already proved a contradiction.
            return SolverResult(status="unknown", reason="search budget exhausted")

        model = Model(values=dict(assignment))
        for name, symbol in symbols.items():
            if name not in model.values:
                default = (defaults or {}).get(name, 0)
                domain = domains[name]
                value = (default & ~domain.known_mask) | domain.known_value
                value &= symbol.mask
                if value in domain.exclusions or not (domain.lo <= value <= domain.hi):
                    for candidate in domain.candidates(rng):
                        value = candidate
                        break
                model.values[name] = value
        # Final soundness check: every constraint must evaluate to true.
        for constraint in constraints:
            if evaluate(constraint, model.values) == 0:
                return SolverResult(status="unknown", reason=f"model check failed: {constraint}")
        return SolverResult(status="sat", model=model)

    def quick_feasible(self, constraints: list[Expr]) -> bool:
        """Cheap feasibility filter over a whole constraint list, from scratch.

        No analysis code calls it: the engine asks a
        :class:`~repro.symbex.incremental.SolverContext` at branch points, and
        tests hold the context's answers to this one.  Runs propagation
        only: returns ``False`` only when a definite contradiction is found,
        ``True`` otherwise (possibly optimistically).
        """
        constraints = [simplify(c) for c in constraints]
        symbols = self._collect_symbols(constraints)
        assignment: dict[str, int] = {}
        domains = {s.name: _Domain(s) for s in symbols.values()}
        return self._propagate(constraints, assignment, domains) is not None

    @staticmethod
    def _ordering_contradiction(constraints: list[Expr]) -> str | None:
        """Why the two-sided comparisons among ``constraints`` admit no model.

        Propagation cannot see a comparison with symbols on both sides, and
        the search cannot *refute* anything; this closes the gap for paths
        whose comparisons contradict each other (tree traversals that take
        opposite sides of one node).  None when the order graph admits them
        — which proves nothing, so the caller goes on to search.
        """
        graph = OrderGraph()
        compared = 0
        for constraint in constraints:
            if (
                isinstance(constraint, CmpExpr)
                and not isinstance(constraint.lhs, Const)
                and not isinstance(constraint.rhs, Const)
            ):
                compared += 1
                if not graph.insert(constraint.pred, constraint.lhs, constraint.rhs):
                    # Imported here: the stats surface lives a layer above.
                    from repro.symbex.incremental import CONTEXT_STATS

                    CONTEXT_STATS.order_unsat_proofs += 1
                    return (
                        f"{constraint} contradicts the ordering implied by "
                        f"{compared - 1} earlier two-sided comparison(s)"
                    )
        return None

    # -- propagation ---------------------------------------------------------

    def _collect_symbols(self, constraints: list[Expr]) -> dict[str, Sym]:
        symbols: dict[str, Sym] = {}
        for constraint in constraints:
            for symbol in symbols_of(constraint):
                symbols[symbol.name] = symbol
        return symbols

    def _propagate(
        self,
        constraints: list[Expr],
        assignment: dict[str, int],
        domains: dict[str, _Domain],
    ) -> list[Expr] | None:
        """From-scratch propagation: the unresolved constraints, None if unsat."""
        outcome = self._propagate_rounds(
            (), list(constraints), assignment, _TrackedDomains(domains)
        )
        return None if outcome is None else outcome[1]

    def _propagate_rounds(
        self,
        carried: Collection[Expr],
        queue: list[Expr],
        assignment: dict[str, int],
        domains: _TrackedDomains,
        promoted: list[str] | None = None,
    ) -> tuple[int, list[Expr], bool] | None:
        """Constraint propagation to a (bounded) fixpoint, O(what changed).

        Returns ``(kept, unresolved, converged)`` — the constraints still
        open are the first ``kept`` of ``carried`` followed by
        ``unresolved``, each reduced under ``assignment``, and ``converged``
        says whether the pass ended in a no-change round rather than at the
        rounds cap — or None on a definite contradiction.  Names newly
        pinned into ``assignment`` are appended to ``promoted`` when given.

        - *Round 0* visits ``queue`` only.  The caller vouches that
          ``carried`` is a fixpoint: already reduced under ``assignment``
          and already propagated into these exact domains (what a converged
          earlier pass leaves), so re-propagating it is a proven no-op.
        - *Rounds >= 1* wake — re-reduce and re-propagate — only the
          constraints that mention a symbol whose domain signature really
          changed in the previous round (promotions need no rule of their
          own: only a changed domain can become fully known).  Any other
          constraint reads no input that moved since it last ran and its
          propagator is idempotent, so it keeps its place untouched.  The
          pass ends when a round wakes nothing.
        - ``carried`` is only read.  A woken entry of it moves, with every
          entry after it, to the front of the queue; the entries before it
          are the ``kept`` prefix, never copied.

        Propagation is a monotone fixpoint computation, so this schedule
        reaches the same verdict, assignment, domain contents and
        unresolved list as visiting every constraint in every round
        (``tests/test_incremental.py`` holds it to that reference); it only
        touches — and, under a copy-on-write view, clones — far fewer
        domains.
        """
        woken: set[str] | None = None  # None in round 0: visit the queue
        kept = len(carried)
        visits = 0
        skips = kept
        try:
            for _round in range(_MAX_ROUNDS):
                domains.reset_round()
                if woken is None:
                    visit: Iterable[int] = range(len(queue))
                else:
                    # The first woken entry of ``carried`` and every entry
                    # after it join the queue.  One comprehension finds the
                    # woken constraints; the runs between them are carried
                    # over by slice.
                    disjoint = woken.isdisjoint
                    woken_at = next(
                        (
                            i
                            for i, c in enumerate(islice(carried, kept))
                            if not disjoint(c.symbol_names)
                        ),
                        kept,
                    )
                    if woken_at < kept:
                        queue = [*islice(carried, woken_at, kept), *queue]
                        kept = woken_at
                    visit = [i for i, c in enumerate(queue) if not disjoint(c.symbol_names)]
                    skips += kept + len(queue) - len(visit)
                unresolved: list[Expr] = []
                carry = 0  # queue[carry:index] is carried over untouched
                for index in visit:
                    if index > carry:
                        unresolved += queue[carry:index]
                    carry = index + 1
                    visits += 1
                    reduced = reduce_expr(queue[index], assignment)
                    if isinstance(reduced, Const):
                        if reduced.value == 0:
                            return None
                        continue
                    if self._propagate_one(reduced, assignment, domains) == "unsat":
                        return None
                    unresolved.append(reduced)
                unresolved += queue[carry:]
                queue = unresolved
                # Promote domains that became fully known to concrete assignments.
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
            return kept, queue, not woken
        finally:
            domains.visits += visits
            domains.skips += skips

    def _propagate_one(
        self, constraint: Expr, assignment: dict[str, int], domains: dict[str, _Domain]
    ) -> str:
        """Propagate one reduced constraint into the domains.

        The pattern analysis (masked-shift match, algebraic inversion,
        disjoint decomposition) is a pure function of the interned constraint
        node, so it compiles once into a small *plan* tuple that later calls
        replay against the current domains.  The plan preserves every domain
        *touch* of the direct implementation — tracked-domain views count a
        first access as potential change, so even a touch on an unsat path
        is observable in the propagation round count.
        """
        return self._apply_propagation(self._propagation_plan(constraint), domains)

    def _propagation_plan(self, constraint: Expr) -> tuple:
        """The compiled plan ``_propagate_one`` replays for ``constraint``."""
        plan = _PROPAGATE_PLAN_MEMO.get(constraint)
        if plan is None:
            plan = _PROPAGATE_PLAN_MEMO[constraint] = self._compile_propagation(constraint)
        return plan

    def _compile_propagation(self, constraint: Expr) -> tuple:
        if not isinstance(constraint, CmpExpr):
            return ("none", None)
        lhs, rhs, pred = constraint.lhs, constraint.rhs, constraint.pred
        # Normalise so the constant (if any) is on the right.
        if isinstance(lhs, Const) and not isinstance(rhs, Const):
            lhs, rhs = rhs, lhs
            pred = {
                CmpKind.ULT: CmpKind.UGT,
                CmpKind.ULE: CmpKind.UGE,
                CmpKind.UGT: CmpKind.ULT,
                CmpKind.UGE: CmpKind.ULE,
            }.get(pred, pred)
        if not isinstance(rhs, Const):
            return ("none", None)
        return self._compile_propagation_pred(pred, lhs, rhs.value)

    def _compile_propagation_pred(self, pred: CmpKind, lhs: Expr, target: int) -> tuple:
        if pred is CmpKind.EQ:
            matched = self._match_masked_shift(lhs)
            if matched is not None:
                symbol, shift, mask = matched
                if target & ~mask:
                    return ("unsat", symbol)
                return ("bits", symbol, mask << shift, (target & mask) << shift)
            inverted = self._invert_raw(lhs, target)
            if inverted is not None:
                symbol, value = inverted
                if value > symbol.mask:
                    return ("unsat", symbol)
                return ("bits", symbol, symbol.mask, value)
            decomposed = self._decompose_disjoint(lhs, target)
            if decomposed is not None:
                return (
                    "multi",
                    tuple(
                        self._compile_propagation_pred(CmpKind.EQ, sub_expr, sub_target)
                        for sub_expr, sub_target in decomposed
                    ),
                )
            return ("none", None)

        if pred is CmpKind.NE and not isinstance(lhs, Sym):
            # Disequality over a bit-field (``(sym >> s) & m != c``): no bits
            # can be pinned, but once an earlier equality has pinned the same
            # field to exactly ``c`` the path is definitely contradictory —
            # the shape chains produce when two stages test one packet field
            # with opposite outcomes.
            matched = self._match_masked_shift(lhs)
            if matched is not None:
                symbol, shift, mask = matched
                if target & ~mask:
                    return ("none", symbol)  # lhs can never equal target
                return ("bits_ne", symbol, mask << shift, (target & mask) << shift)
            inverted = self._invert_raw(lhs, target)
            if inverted is not None:
                # ``sym == value`` implies ``lhs == target``, so the
                # disequality soundly excludes the canonical preimage.
                symbol, value = inverted
                if value <= symbol.mask:
                    return ("excl", symbol, value)
                return ("none", symbol)
            return ("none", None)

        if isinstance(lhs, Sym):
            if pred is CmpKind.NE:
                return ("excl", lhs, target & lhs.mask)
            if pred is CmpKind.ULT:
                return ("hi", lhs, target - 1) if target > 0 else ("unsat", lhs)
            if pred is CmpKind.ULE:
                return ("hi", lhs, target)
            if pred is CmpKind.UGT:
                return ("lo", lhs, target + 1)
            if pred is CmpKind.UGE:
                return ("lo", lhs, target)
            return ("none", lhs)  # unreachable with the current CmpKind set
        return ("none", None)

    def _apply_propagation(self, plan: tuple, domains: dict[str, _Domain]) -> str:
        tag = plan[0]
        if tag == "bits":
            domain = self._domain_for(plan[1], domains)
            if not domain.set_bits(plan[2], plan[3]):
                return "unsat"
            return "changed"
        if tag == "multi":
            outcome = "none"
            for sub in plan[1]:
                result = self._apply_propagation(sub, domains)
                if result == "unsat":
                    return "unsat"
                if result == "changed":
                    outcome = "changed"
            return outcome
        if tag == "bits_ne":
            domain = self._domain_for(plan[1], domains)
            mask, value = plan[2], plan[3]
            if (domain.known_mask & mask) == mask and (domain.known_value & mask) == value:
                return "unsat"
            return "none"
        if tag == "lo":
            domain = self._domain_for(plan[1], domains)
            return "changed" if domain.constrain_interval(lo=plan[2]) else "unsat"
        if tag == "hi":
            domain = self._domain_for(plan[1], domains)
            return "changed" if domain.constrain_interval(hi=plan[2]) else "unsat"
        if tag == "excl":
            domain = self._domain_for(plan[1], domains)
            if len(domain.exclusions) < 4096:
                domain.exclusions.add(plan[2])
            return "changed"
        if tag == "unsat":
            if plan[1] is not None:
                self._domain_for(plan[1], domains)
            return "unsat"
        if plan[1] is not None:
            self._domain_for(plan[1], domains)
        return "none"

    def _domain_for(self, symbol: Sym, domains: dict[str, _Domain]) -> _Domain:
        if symbol.name not in domains:
            domains[symbol.name] = _Domain(symbol)
        return domains[symbol.name]

    @staticmethod
    def _match_masked_shift(expr: Expr) -> tuple[Sym, int, int] | None:
        """Match ``(sym >> shift) & mask`` (shift and/or mask optional)."""
        shift = 0
        mask = MACHINE_MASK
        node = expr
        if isinstance(node, BinExpr) and node.op is BinOpKind.AND and isinstance(node.rhs, Const):
            mask = node.rhs.value
            node = node.lhs
        if isinstance(node, BinExpr) and node.op is BinOpKind.LSHR and isinstance(node.rhs, Const):
            shift = node.rhs.value
            node = node.lhs
        if isinstance(node, Sym):
            mask &= node.mask >> shift
            return node, shift, mask
        return None

    def _possible_bits(self, expr: Expr) -> int | None:
        """Upper bound on which bits of ``expr`` can ever be non-zero.

        Returns ``None`` when no useful bound can be computed (e.g. for
        subtraction or division, whose results can spill into any bit).
        """
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Sym):
            return expr.mask
        if isinstance(expr, BinExpr):
            lhs = self._possible_bits(expr.lhs)
            rhs = self._possible_bits(expr.rhs)
            if expr.op in (BinOpKind.OR, BinOpKind.XOR):
                if lhs is None or rhs is None:
                    return None
                return lhs | rhs
            if expr.op is BinOpKind.AND:
                if lhs is None and rhs is None:
                    return None
                if lhs is None:
                    return rhs
                if rhs is None:
                    return lhs
                return lhs & rhs
            if expr.op is BinOpKind.SHL and isinstance(expr.rhs, Const):
                if lhs is None or expr.rhs.value >= 64:
                    return None
                return (lhs << expr.rhs.value) & MACHINE_MASK
            if expr.op is BinOpKind.LSHR and isinstance(expr.rhs, Const):
                if lhs is None:
                    return None
                return lhs >> expr.rhs.value
            if expr.op is BinOpKind.ADD:
                # Addition of values with disjoint possible bits cannot carry,
                # so it behaves exactly like OR.
                if lhs is None or rhs is None or (lhs & rhs):
                    return None
                return lhs | rhs
            return None
        if isinstance(expr, CmpExpr):
            return 1
        return None

    def _decompose_disjoint(self, expr: Expr, target: int) -> list[tuple[Expr, int]] | None:
        """Split ``expr == target`` into per-field constraints.

        Applies when ``expr`` is an OR/XOR/ADD combination of sub-expressions
        whose possible bit masks are pairwise disjoint — the shape produced
        by packing flow keys as ``field_a | (field_b << k) | ...``.
        """
        if not isinstance(expr, BinExpr) or expr.op not in (
            BinOpKind.OR,
            BinOpKind.XOR,
            BinOpKind.ADD,
        ):
            return None
        # Left-to-right leaves of the same-operator subtree.  An explicit
        # stack, not a recursive local closure: a closure that calls itself
        # is a reference cycle, garbage only the cyclic collector frees.
        parts: list[Expr] = []
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, BinExpr) and node.op is expr.op:
                stack.append(node.rhs)
                stack.append(node.lhs)
            else:
                parts.append(node)
        if len(parts) < 2:
            return None
        masks: list[int] = []
        union = 0
        for part in parts:
            mask = self._possible_bits(part)
            if mask is None or (mask & union):
                return None
            masks.append(mask)
            union |= mask
        if target & ~union:
            return None  # target needs bits no part can produce: leave to search
        return [(part, target & mask) for part, mask in zip(parts, masks)]

    # -- algebraic inversion ---------------------------------------------------

    def _invert(self, expr: Expr, target: int) -> tuple[Sym, int] | None:
        """Solve ``expr == target`` when expr contains one symbol occurrence.

        Returns ``None`` when no solution exists *within the symbol's
        declared width*: an inversion chain that produces a value wider than
        the symbol has no in-range solution, so the raw (overflowing) value
        must not escape to callers that would truncate it into a bogus
        candidate.
        """
        inverted = self._invert_raw(expr, target)
        if inverted is None:
            return None
        symbol, value = inverted
        if value > symbol.mask:
            return None
        return symbol, value

    def _invert_raw(self, expr: Expr, target: int) -> tuple[Sym, int] | None:
        """Like :meth:`_invert` but keeps out-of-width values.

        Used by propagation, which turns an overflowing inversion into a
        definite UNSAT (every implemented inversion step only ever *adds*
        free low bits, so an out-of-width canonical solution means every
        solution is out of width).  Memoised per (node, target).
        """
        key = (expr, target)
        inverted = _INVERT_MEMO.get(key, MISSING)
        if inverted is MISSING:
            inverted = _INVERT_MEMO[key] = self._invert_raw_uncached(expr, target)
        return inverted

    def _invert_raw_uncached(self, expr: Expr, target: int) -> tuple[Sym, int] | None:
        occurrences = self._count_symbol_occurrences(expr)
        if len(occurrences) != 1 or next(iter(occurrences.values())) != 1:
            return None
        value = self._invert_rec(expr, target)
        if value is None:
            return None
        symbol = next(iter(symbols_of(expr)))
        return symbol, value

    @staticmethod
    def _count_symbol_occurrences(expr: Expr) -> dict[str, int]:
        """Symbol name -> occurrences in the tree, in left-to-right order.

        An explicit stack, like ``_decompose_disjoint``'s flatten.
        """
        counts: dict[str, int] = {}
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, Sym):
                counts[node.name] = counts.get(node.name, 0) + 1
            elif isinstance(node, (BinExpr, CmpExpr)):
                stack.append(node.rhs)
                stack.append(node.lhs)
            elif isinstance(node, SelectExpr):
                stack.append(node.if_false)
                stack.append(node.if_true)
                stack.append(node.cond)
        return counts

    def _invert_rec(self, expr: Expr, target: int) -> int | None:
        target &= MACHINE_MASK
        if isinstance(expr, Sym):
            return target
        if isinstance(expr, Const):
            return target if expr.value == target else None
        if not isinstance(expr, BinExpr):
            return None
        lhs, rhs, op = expr.lhs, expr.rhs, expr.op
        lhs_symbolic = bool(symbols_of(lhs))
        symbolic, concrete = (lhs, rhs) if lhs_symbolic else (rhs, lhs)
        if symbols_of(concrete):
            return None
        if not isinstance(concrete, Const):
            return None
        c = concrete.value

        if op is BinOpKind.ADD:
            return self._invert_rec(symbolic, (target - c) & MACHINE_MASK)
        if op is BinOpKind.XOR:
            return self._invert_rec(symbolic, target ^ c)
        if op is BinOpKind.SUB:
            if lhs_symbolic:
                return self._invert_rec(symbolic, (target + c) & MACHINE_MASK)
            return self._invert_rec(symbolic, (c - target) & MACHINE_MASK)
        if op is BinOpKind.MUL:
            if c % 2 == 1:
                inverse = pow(c, -1, 1 << 64)
                return self._invert_rec(symbolic, (target * inverse) & MACHINE_MASK)
            if c != 0 and target % c == 0:
                return self._invert_rec(symbolic, target // c)
            return None
        if op is BinOpKind.SHL and not lhs_symbolic:
            return None
        if op is BinOpKind.SHL:
            if c >= 64:
                return self._invert_rec(symbolic, 0) if target == 0 else None
            if target & ((1 << c) - 1):
                return None
            return self._invert_rec(symbolic, target >> c)
        if op is BinOpKind.LSHR and lhs_symbolic:
            if c >= 64:
                return self._invert_rec(symbolic, 0) if target == 0 else None
            return self._invert_rec(symbolic, (target << c) & MACHINE_MASK)
        if op is BinOpKind.AND:
            if target & ~c:
                return None
            return self._invert_rec(symbolic, target)
        if op is BinOpKind.OR:
            if (target & c) != c:
                return None
            return self._invert_rec(symbolic, target & ~c)
        if op is BinOpKind.UREM and lhs_symbolic:
            if c == 0 or target >= c:
                return None
            return self._invert_rec(symbolic, target)
        if op is BinOpKind.UDIV and lhs_symbolic:
            if c == 0:
                return None
            return self._invert_rec(symbolic, target * c)
        return None

    # -- backtracking search ----------------------------------------------------

    def _search(
        self,
        constraints: list[Expr],
        assignment: dict[str, int],
        domains: dict[str, _Domain],
        rng: random.Random,
        preferred: dict[str, list[int]],
    ) -> bool:
        unresolved = [reduce_expr(c, assignment) for c in constraints]
        unresolved = [c for c in unresolved if not (isinstance(c, Const) and c.value)]
        if any(isinstance(c, Const) and c.value == 0 for c in unresolved):
            return False
        unassigned = sorted(
            {s.name for c in unresolved for s in symbols_of(c)} - set(assignment)
        )
        if not unassigned:
            return all(evaluate(c, assignment) for c in unresolved) if unresolved else True

        # Order symbols by how many constraints mention them (most first).
        mention_count = {name: 0 for name in unassigned}
        for constraint in unresolved:
            for symbol in symbols_of(constraint):
                if symbol.name in mention_count:
                    mention_count[symbol.name] += 1
        unassigned.sort(key=lambda name: -mention_count[name])

        # Index constraints by mentioned symbol: assigning one symbol can
        # only change the reduction of constraints that mention it, so each
        # backtracking node re-checks O(relevant) constraints, not O(all).
        by_symbol: dict[str, list[Expr]] = {name: [] for name in unassigned}
        for constraint in unresolved:
            for name in constraint.symbol_names:
                bucket = by_symbol.get(name)
                if bucket is not None:
                    bucket.append(constraint)
        budget = [SOLVER_BUDGET]
        return self._backtrack(
            unassigned, 0, unresolved, by_symbol, assignment, domains, rng, budget, preferred
        )

    def _backtrack(
        self,
        order: list[str],
        position: int,
        constraints: list[Expr],
        by_symbol: dict[str, list[Expr]],
        assignment: dict[str, int],
        domains: dict[str, _Domain],
        rng: random.Random,
        budget: list[int],
        preferred: dict[str, list[int]],
    ) -> bool:
        if budget[0] <= 0:
            return False
        if position == len(order):
            # Equivalent to evaluating every fully-concrete reduction: the
            # inputs are pre-reduced, so a reduction is symbol-free exactly
            # when it is constant (non-constant reductions were never checked).
            for c in constraints:
                if reduce_expr(c, assignment) is FALSE:
                    return False
            return True
        name = order[position]
        domain = domains.get(name)
        if domain is None:
            # Symbol disappeared after substitution; skip it.
            return self._backtrack(
                order, position + 1, constraints, by_symbol, assignment, domains, rng, budget,
                preferred,
            )
        relevant = by_symbol.get(name, [])
        candidates = list(preferred.get(name, []))
        candidates += self._suggest_from_constraints(name, relevant, assignment)

        # De-duplicate and apply the domain filters up front (pure and
        # per-candidate, so hoisting preserves the original order and the
        # budget trajectory: filtered-out candidates never charged budget).
        mask = domain.symbol.mask
        exclusions = domain.exclusions
        lo, hi = domain.lo, domain.hi
        known_mask = domain.known_mask
        known_bits = domain.known_value & known_mask
        seen: set[int] = set()
        filtered: list[int] = []
        for candidate in candidates:
            candidate &= mask
            if candidate in seen:
                continue
            seen.add(candidate)
            if candidate in exclusions or not (lo <= candidate <= hi):
                continue
            if (candidate & known_mask) != known_bits:
                continue
            filtered.append(candidate)
        # ``domain.candidates`` values already passed these exact filters
        # (same domain state, same masking), so the suffix only needs the
        # dedup — including against values the filters rejected above, which
        # the one-pass loop also skipped via ``seen``.
        for candidate in domain.candidates(rng):
            if candidate in seen:
                continue
            seen.add(candidate)
            filtered.append(candidate)
        if not filtered:
            return False

        for candidate in filtered:
            budget[0] -= 1
            if budget[0] <= 0:
                return False
            assignment[name] = candidate
            # Only constraints mentioning ``name`` can have changed their
            # reduction; everything else was vetted at an earlier level.
            if self._consistent(relevant, assignment) and self._backtrack(
                order, position + 1, constraints, by_symbol, assignment, domains, rng, budget,
                preferred,
            ):
                return True
            del assignment[name]
        return False

    def _consistent(self, constraints: list[Expr], assignment: dict[str, int]) -> bool:
        """Check constraints that have become fully concrete."""
        for constraint in constraints:
            if reduce_expr(constraint, assignment) is FALSE:
                return False
        return True

    def _suggest_from_constraints(
        self, name: str, constraints: list[Expr], assignment: dict[str, int]
    ) -> list[int]:
        """Derive candidate values for ``name`` by inverting EQ constraints."""
        suggestions: list[int] = []
        for constraint in constraints:
            if not isinstance(constraint, CmpExpr) or constraint.pred is not CmpKind.EQ:
                continue
            reduced = reduce_expr(constraint, assignment)
            if not isinstance(reduced, CmpExpr):
                continue
            lhs, rhs = reduced.lhs, reduced.rhs
            if isinstance(lhs, Const) and not isinstance(rhs, Const):
                lhs, rhs = rhs, lhs
            if not isinstance(rhs, Const):
                continue
            names = {s.name for s in symbols_of(lhs)}
            if names != {name}:
                continue
            inverted = self._invert(lhs, rhs.value)
            if inverted is not None:
                suggestions.append(inverted[1])
        return suggestions
