"""Havoc records and rainbow-table reconciliation (§3.5).

During analysis every ``castan_havoc`` annotation produces a
:class:`HavocRecord`: the symbolic expression of the hash *input* (the key),
the name of the hash function that was suppressed, and the fresh symbol that
replaced its output.  After the highest-cost state is selected and solved,
:func:`reconcile_havocs` performs the paper's three-step reconciliation:

1. take the hash value the solver chose for the havoc symbol;
2. invert it with a rainbow table (an exact lookup over the table's stored
   keys) to get candidate keys;
3. ask whether a candidate key is compatible with the packet constraints;
   if so, pin the key and the (now genuine) hash value.

Step 3 is usually answered by a *witness*, not a model search.  The model
held during reconciliation satisfies every committed constraint (checked
once on entry).  When the key packs disjoint fields, the candidate fixes
those fields and the havoc symbol; the current model with just those values
substituted is the witness.  Only constraints that read a symbol whose value
changed can have changed truth value, so evaluating those (found through a
symbol → constraints index) and the two pins proves the trial satisfiable
and yields its model.  When the witness fails, the key does not decompose,
or the entry check failed, the trial runs the full model search from its
context's fixpoint instead.

Havocs that cannot be reconciled are reported as such — the workload is
still emitted (with the unconstrained hash value), matching the paper's
partially-reconciled NAT results.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.symbex.expr import BinExpr, BinOpKind, Const, Expr, Sym, evaluate, expr_eq, reduce_expr
from repro.symbex.incremental import replay_context
from repro.symbex.solver import Model

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.hashing.rainbow import RainbowTable
    from repro.symbex.solver import Solver

logger = logging.getLogger(__name__)


@dataclass
class HavocRecord:
    """One suppressed hash-function invocation."""

    symbol: Sym
    key_expr: Expr
    hash_function: str
    args: list[Expr] = field(default_factory=list)
    packet_index: int = 0

    def __str__(self) -> str:
        return (
            f"havoc {self.symbol.name} = {self.hash_function}(key={self.key_expr}) "
            f"[packet {self.packet_index}]"
        )


@dataclass
class ReconciliationOutcome:
    """Result of reconciling the havocs of one selected path.

    Each reconciled havoc was proved by a witness (``witnessed``) or by a
    model search (``searched``); the two add up to ``len(reconciled)``.
    """

    model: "Model"
    reconciled: list[HavocRecord] = field(default_factory=list)
    failed: list[HavocRecord] = field(default_factory=list)
    attempts: int = 0
    witnessed: int = 0
    searched: int = 0

    @property
    def total(self) -> int:
        return len(self.reconciled) + len(self.failed)

#: Sentinel returned by :func:`_decompose_key_pin` when the pin is
#: unsatisfiable on its own (candidate bits outside every field).
_PIN_CONFLICT = object()


def _decompose_key_pin(key_expr: Expr, value: int) -> "dict[str, int] | None | object":
    """Solve ``key_expr == value`` exactly when the key packs disjoint fields.

    Flow keys are built as ORs of non-overlapping shifted symbols (plus
    constant tag bits), so the equation has at most one solution: each
    field must equal its slice of ``value``.  Returns that unique
    ``{symbol name: field value}`` assignment, ``_PIN_CONFLICT`` when the
    bits of ``value`` outside the symbol fields differ from the constant
    contribution (no assignment can satisfy the pin), or ``None`` when the
    expression does not have the disjoint-OR shape (no claim made).
    """
    terms: list[Expr] = []
    stack = [key_expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BinExpr) and node.op is BinOpKind.OR:
            stack.append(node.lhs)
            stack.append(node.rhs)
        else:
            terms.append(node)
    fields: dict[str, int] = {}
    covered = 0
    const_bits = 0
    for term in terms:
        if isinstance(term, Const):
            if term.value & covered:
                return None
            const_bits |= term.value
            continue
        if isinstance(term, Sym):
            sym, shift = term, 0
        elif (
            isinstance(term, BinExpr)
            and term.op is BinOpKind.SHL
            and isinstance(term.lhs, Sym)
            and isinstance(term.rhs, Const)
        ):
            sym, shift = term.lhs, term.rhs.value
        else:
            return None
        mask = sym.mask << shift
        if mask & (covered | const_bits):
            return None
        if sym.name in fields:
            return None
        covered |= mask
        fields[sym.name] = (value >> shift) & sym.mask
    if (value & ~covered) != const_bits:
        return _PIN_CONFLICT
    return fields


def _satisfies(constraints: Iterable[Expr], values: dict[str, int]) -> bool:
    """Whether ``values`` assigns every symbol read and makes each constraint true."""
    try:
        return all(evaluate(c, values) for c in constraints)
    except KeyError:
        return False


def _index_readers(readers: dict[str, list[Expr]], constraints: Iterable[Expr]) -> None:
    """Append each constraint to ``readers[name]`` for every symbol it reads."""
    for constraint in constraints:
        for name in constraint.symbol_names:
            readers.setdefault(name, []).append(constraint)


def _reading(readers: dict[str, list[Expr]], names: Iterable[str]) -> list[Expr]:
    """The indexed constraints that read any of ``names`` (with repeats)."""
    return [constraint for name in names for constraint in readers.get(name, ())]


def _witness(
    values: dict[str, int],
    updates: dict[str, int],
    pins: list[Expr],
    readers: dict[str, list[Expr]],
) -> dict[str, int] | None:
    """``values`` with ``updates`` applied if ``pins`` and the indexed
    constraints reading a changed symbol hold there, else None.  ``values``
    must satisfy every constraint indexed in ``readers``."""
    changed = [name for name, value in updates.items() if values.get(name) != value]
    witness = {**values, **updates}
    if _satisfies(pins, witness) and _satisfies(_reading(readers, changed), witness):
        return witness
    return None


def reconcile_havocs(
    records: list[HavocRecord],
    constraints: list[Expr],
    model: "Model",
    solver: "Solver",
    rainbow_tables: dict[str, "RainbowTable"],
    hash_functions: dict[str, Callable[[int], int]],
    defaults: dict[str, int] | None = None,
    max_candidates_per_havoc: int = 16,
) -> ReconciliationOutcome:
    """Reconcile every havoc in ``records`` against the path constraints.

    ``model`` must be the solver's model of ``constraints`` (what
    ``Castan._solve_state`` passes): it seeds the witnesses, and it is
    returned unchanged when nothing is reconciled.  A model that violates
    ``constraints`` is logged, turns the witnesses off, and is replaced by
    the solver's model when nothing is reconciled.  ``rainbow_tables`` maps
    hash-function name to the table used for inversion; ``hash_functions``
    maps the same names to concrete Python implementations used to
    re-verify candidate keys.  Reconciliation is incremental: constraints
    pinned for earlier havocs stay in force while later ones are
    reconciled, so related keys (e.g. the NAT's two entries per flow) are
    handled consistently — and may legitimately fail, as in the paper.
    """
    outcome = ReconciliationOutcome(model=model.copy())
    # The reconciliation context holds the path plus every accepted pin.  A
    # trial forks it and commits its two pins (O(delta) propagation); an
    # accepted fork becomes the context.  Candidate pretests read the same
    # fixpoint: it pins symbols the constraints fully determine, and
    # ``pinned`` adds the field values implied by accepted key pins (which
    # plain propagation cannot extract from a packed equality).  Both are
    # *implied* facts, so any candidate contradicting them is definitely
    # infeasible — the trial check would come back non-sat — and can be
    # skipped without changing which candidate gets accepted.
    #
    # ``readers`` indexes the committed constraints by the symbols they read.
    # The pretest reduces only those reading a trial's new symbols: any
    # other constraint reduces the same under ``pinned`` alone, which could
    # make it false only if the context were unsat, and then the trial check
    # fails anyway.  ``witnesses`` is the entry check the witnesses rely on
    # (module docstring): the held model satisfies every committed constraint.
    context = replay_context(solver, constraints)
    pinned: dict[str, int] = dict(context.pinned_assignment())
    readers: dict[str, list[Expr]] = {}
    _index_readers(readers, context.constraints())
    witnesses = _satisfies(context.constraints(), outcome.model.values)
    if not witnesses:
        logger.warning(
            "caller's model violates the path constraints; every reconciliation "
            "trial runs a model search, and the model is re-solved if none is accepted"
        )

    for record in records:
        table = rainbow_tables.get(record.hash_function)
        hash_fn = hash_functions.get(record.hash_function)
        if table is None or hash_fn is None:
            outcome.failed.append(record)
            continue

        desired_hash = outcome.model.get(record.symbol.name, 0)
        candidate_keys = list(table.invert(desired_hash, limit=max_candidates_per_havoc))
        reconciled = False
        for candidate_key in candidate_keys:
            outcome.attempts += 1
            actual_hash = hash_fn(candidate_key)
            if actual_hash != desired_hash:
                # Lookups are exact on the table's 16-bit mask: this rejects
                # only a havoc value wider than the mask.
                continue
            fields = _decompose_key_pin(record.key_expr, candidate_key)
            if fields is _PIN_CONFLICT:
                # The pin alone is unsatisfiable; the solver would agree.
                continue
            updates = None
            if isinstance(fields, dict):
                if any(pinned.get(name, value) != value for name, value in fields.items()):
                    continue  # contradicts an implied pin: definitely infeasible
                updates = dict(fields)
                updates[record.symbol.name] = desired_hash
                trial_assignment = dict(pinned)
                trial_assignment.update(updates)
                # A constraint that reduces to literal false under the implied
                # assignment is violated in every model of the trial set.
                pretested = _reading(readers, [name for name in updates if name not in pinned])
                if any(
                    isinstance(r, Const) and r.value == 0
                    for r in (reduce_expr(c, trial_assignment) for c in pretested)
                ):
                    continue
            pins = [
                expr_eq(record.key_expr, Const(candidate_key)),
                expr_eq(record.symbol, Const(desired_hash)),
            ]
            trial = context.fork()
            for pin in pins:
                trial.add(pin)
            witness = None
            if witnesses and updates is not None and not trial.unsat:
                witness = _witness(outcome.model.values, updates, pins, readers)
            if witness is not None:
                outcome.model = Model(values=witness)
                outcome.witnessed += 1
            else:
                result = trial.check(defaults=defaults)
                if not result.is_sat:
                    continue
                outcome.model = result.model
                outcome.searched += 1
            context = trial
            _index_readers(readers, pins)
            outcome.reconciled.append(record)
            reconciled = True
            pinned.update(context.pinned_assignment())
            if updates is not None:
                pinned.update(updates)
            break
        if not reconciled:
            outcome.failed.append(record)
    if not witnesses and not outcome.reconciled:
        # Never hand back the caller's broken model: solve the path instead.
        final = context.check(defaults=defaults)
        if final.is_sat:
            outcome.model = final.model
    return outcome


def havoc_hash_consistency(
    records: list[HavocRecord],
    model: "Model",
    hash_functions: dict[str, Callable[[int], int]],
) -> dict[str, bool]:
    """For each havoc symbol, does hash(key under model) equal its model value?

    Used by tests and by the metrics output to report which havocs were
    genuinely reconciled end-to-end.
    """
    consistency: dict[str, bool] = {}
    for record in records:
        hash_fn = hash_functions.get(record.hash_function)
        if hash_fn is None:
            consistency[record.symbol.name] = False
            continue
        try:
            key_value = evaluate(record.key_expr, model.values)
        except KeyError:
            consistency[record.symbol.name] = False
            continue
        consistency[record.symbol.name] = hash_fn(key_value) == model.get(record.symbol.name, 0)
    return consistency
