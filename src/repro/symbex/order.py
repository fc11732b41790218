"""Ordering-contradiction proofs over two-sided comparisons.

Domain propagation (``Solver._propagate``) reasons about one symbol against
a constant; a comparison with symbols on *both* sides — ``key(pkt1) ult
key(pkt0)``, what every tree traversal emits — passes through it untouched
and is left to the backtracking search.  When such comparisons contradict
each other (``a < b`` and ``a >= b``) the search can only burn its budget.

An :class:`OrderGraph` closes that gap with the one fact all six
:class:`~repro.ir.instructions.CmpKind` predicates share: they are unsigned
comparisons, and under any model every term (an interned ``Expr`` node) has
exactly one value.  So the constraints form a graph of ``<`` / ``<=`` edges
between terms, and

- a cycle through a strict edge (``a < b <= ... <= a``),
- ``a <= b`` and ``b <= a`` together with ``a != b``, or
- ``a == b`` together with ``a < b``

each prove that no model exists.  The graph keeps the transitive closure
incrementally (per-term Python-int bitsets), so an insert costs
O(terms touched) and a contradiction is reported by the insert that
completes it.  It is sound, not complete: it knows nothing about the terms'
widths or structure, so "no contradiction" promises nothing.
"""

from __future__ import annotations

from repro.ir.instructions import CmpKind
from repro.symbex.expr import Expr

#: ``a pred b`` rewritten as edges ``(from, to, strict)`` with a=0, b=1.
_EDGES = {
    CmpKind.ULT: ((0, 1, True),),
    CmpKind.ULE: ((0, 1, False),),
    CmpKind.UGT: ((1, 0, True),),
    CmpKind.UGE: ((1, 0, False),),
    CmpKind.EQ: ((0, 1, False), (1, 0, False)),
}


def _members(bits: int):
    """Indices of the set bits of ``bits``."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class OrderGraph:
    """Transitive closure of ``<`` / ``<=`` / ``!=`` facts between terms."""

    __slots__ = ("_index", "_le_fwd", "_le_bwd", "_lt_fwd", "_lt_bwd", "_ne")

    def __init__(self) -> None:
        self._index: dict[Expr, int] = {}
        # Bit j of _le_fwd[i]: term i <= term j is implied (reflexive);
        # _lt_fwd likewise for i < j.  The _bwd lists are the transposes.
        self._le_fwd: list[int] = []
        self._le_bwd: list[int] = []
        self._lt_fwd: list[int] = []
        self._lt_bwd: list[int] = []
        self._ne: set[tuple[int, int]] = set()

    def _term(self, expr: Expr) -> int:
        index = self._index.get(expr)
        if index is None:
            index = self._index[expr] = len(self._le_fwd)
            self._le_fwd.append(1 << index)
            self._le_bwd.append(1 << index)
            self._lt_fwd.append(0)
            self._lt_bwd.append(0)
        return index

    def insert(self, pred: CmpKind, lhs: Expr, rhs: Expr) -> bool:
        """Record ``lhs pred rhs``; False when the facts so far admit no model."""
        ends = (self._term(lhs), self._term(rhs))
        if pred is CmpKind.NE:
            a, b = ends
            if self._le_fwd[a] >> b & self._le_fwd[b] >> a & 1:
                return False  # a <= b <= a forces equality
            self._ne.add(ends)
            return True
        return all(
            self._add_edge(ends[src], ends[dst], strict) for src, dst, strict in _EDGES[pred]
        )

    def _add_edge(self, a: int, b: int, strict: bool) -> bool:
        le_fwd, le_bwd, lt_fwd, lt_bwd = self._le_fwd, self._le_bwd, self._lt_fwd, self._lt_bwd
        if (lt_fwd[a] if strict else le_fwd[a]) >> b & 1:
            return True  # already implied, and the closure is already closed
        # a < b against b <= a, or a <= b against b < a: a strict cycle.
        if (le_fwd[b] if strict else lt_fwd[b]) >> a & 1:
            return False
        closes_cycle = le_fwd[b] >> a & 1  # weak edge making a and b equal
        below, above = le_bwd[a], le_fwd[b]  # x <= a, and b <= y
        strictly_below, strictly_above = lt_bwd[a], lt_fwd[b]
        for x in _members(below):
            le_fwd[x] |= above
            lt_fwd[x] |= above if strict or strictly_below >> x & 1 else strictly_above
        for y in _members(above):
            le_bwd[y] |= below
            lt_bwd[y] |= below if strict or strictly_above >> y & 1 else strictly_below
        if closes_cycle:
            return not any(le_fwd[p] >> q & le_fwd[q] >> p & 1 for p, q in self._ne)
        return True
