"""Tests for the ordering-contradiction proof (``repro.symbex.order``).

The load-bearing property is *soundness*: ``OrderGraph.insert`` may report a
contradiction only when the comparisons inserted so far have no model, which
a brute-force enumeration over tiny symbols decides exactly.  ``Solver.check``
turns such a report into ``unsat`` without entering its search.
"""

import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.instructions import BinOpKind, CmpKind
from repro.symbex.expr import Const, Sym, evaluate, expr_ne, make_binop, make_cmp
from repro.symbex.incremental import CONTEXT_STATS
from repro.symbex.order import OrderGraph
from repro.symbex.solver import Solver

HOLDS = {
    CmpKind.ULT: operator.lt,
    CmpKind.ULE: operator.le,
    CmpKind.UGT: operator.gt,
    CmpKind.UGE: operator.ge,
    CmpKind.NE: operator.ne,
    CmpKind.EQ: operator.eq,
}

S0, S1, S2 = (Sym(f"s{i}", 3) for i in range(3))
#: Six distinct terms over two 3-bit symbols each.
TERMS = (
    make_binop(BinOpKind.ADD, S0, S1),
    make_binop(BinOpKind.XOR, S0, S2),
    make_binop(BinOpKind.OR, S1, make_binop(BinOpKind.SHL, S2, Const(3))),
    make_binop(BinOpKind.MUL, S0, S2),
    make_binop(BinOpKind.SUB, S1, S2),
    make_binop(BinOpKind.AND, S0, S1),
)
#: Every term's value under each of the 512 assignments of (s0, s1, s2).
TERM_VALUES = [
    [evaluate(term, {"s0": a, "s1": b, "s2": c}) for term in TERMS]
    for a, b, c in itertools.product(range(8), repeat=3)
]

@st.composite
def comparisons(draw, preds):
    """Lists of ``(pred, lhs, rhs)`` over the first 2..6 terms.

    Few terms make cycles likely; half the lists also get a ring through
    every term, inserted in shuffled order, so the closure has to carry
    facts across long chains whichever end it learns first.
    """
    terms = draw(st.integers(2, 6))
    index = st.integers(0, terms - 1)
    facts = draw(st.lists(st.tuples(st.sampled_from(preds), index, index), max_size=10))
    if draw(st.booleans()):
        ring = draw(st.permutations(range(terms)))
        facts += [(draw(st.sampled_from(preds)), ring[i - 1], ring[i]) for i in range(terms)]
        facts = draw(st.permutations(facts))
    return facts


def first_contradiction(terms, facts):
    """Index of the insert that reports a contradiction, or None."""
    graph = OrderGraph()
    for index, (pred, lhs, rhs) in enumerate(facts):
        if not graph.insert(pred, terms[lhs], terms[rhs]):
            return index
    return None


class TestOrderGraph:
    @given(comparisons(list(HOLDS)))
    @settings(max_examples=400, deadline=None)
    def test_a_reported_contradiction_has_no_model(self, facts):
        index = first_contradiction(TERMS, facts)
        if index is None:
            return
        proven = facts[: index + 1]
        assert not any(
            all(HOLDS[pred](values[lhs], values[rhs]) for pred, lhs, rhs in proven)
            for values in TERM_VALUES
        ), f"{proven} reported contradictory but has a model"

    @given(comparisons([CmpKind.ULT, CmpKind.ULE]))
    @settings(max_examples=400, deadline=None)
    def test_chains_over_free_symbols_are_decided_exactly(self, facts):
        # Six single-symbol terms, eight values each: any acyclic order fits,
        # so the closure alone is complete here.
        symbols = [Sym(f"v{i}", 3) for i in range(6)]

        def extend(values):
            """Exhaustive search with pruning: a model extending ``values``."""
            known = len(values)
            if any(
                lhs < known and rhs < known and not HOLDS[pred](values[lhs], values[rhs])
                for pred, lhs, rhs in facts
            ):
                return False
            return known == 6 or any(extend(values + (value,)) for value in range(8))

        assert (first_contradiction(symbols, facts) is None) == extend(())

    def test_each_proof_shape(self):
        lt, le, ne, eq = CmpKind.ULT, CmpKind.ULE, CmpKind.NE, CmpKind.EQ
        assert first_contradiction(TERMS, [(lt, 0, 1), (CmpKind.UGE, 0, 1)]) == 1
        assert first_contradiction(TERMS, [(lt, 0, 1), (le, 1, 2), (le, 2, 0)]) == 2
        assert first_contradiction(TERMS, [(le, 0, 1), (le, 1, 0), (ne, 1, 0)]) == 2
        assert first_contradiction(TERMS, [(ne, 0, 1), (le, 0, 1), (le, 1, 0)]) == 2
        assert first_contradiction(TERMS, [(eq, 0, 1), (CmpKind.UGT, 1, 0)]) == 1
        assert first_contradiction(TERMS, [(lt, 0, 0)]) == 0
        # Strictness learnt at either end of a chain reaches the other end.
        assert first_contradiction(TERMS, [(lt, 1, 2), (le, 0, 1), (le, 2, 3), (le, 3, 0)]) == 3
        assert first_contradiction(TERMS, [(le, 2, 3), (le, 0, 1), (lt, 1, 2), (le, 3, 0)]) == 3
        assert first_contradiction(TERMS, [(le, 0, 1), (lt, 1, 2), (le, 2, 0)]) == 2
        assert first_contradiction(TERMS, [(le, 0, 1), (le, 1, 0), (eq, 0, 1), (le, 0, 0)]) is None
        assert first_contradiction(TERMS, [(lt, 0, 1), (lt, 1, 2), (ne, 0, 2), (lt, 0, 2)]) is None


A, B, C = Sym("a", 32), Sym("b", 32), Sym("c", 16)


class TestSolverCheck:
    @pytest.mark.parametrize(
        "constraints",
        [
            [make_cmp(CmpKind.ULT, A, B), make_cmp(CmpKind.UGE, A, B)],
            [make_cmp(CmpKind.ULT, A, B), make_cmp(CmpKind.ULT, B, C), make_cmp(CmpKind.ULE, C, A)],
            [make_cmp(CmpKind.ULE, A, B), make_cmp(CmpKind.ULE, B, A), expr_ne(A, B)],
        ],
    )
    def test_contradictory_orderings_are_unsat_without_a_search(self, constraints, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("an ordering contradiction must not reach the search")

        monkeypatch.setattr(Solver, "_search", no_search)
        proofs = CONTEXT_STATS.order_unsat_proofs
        result = Solver().check(constraints, defaults={"a": 7, "b": 9, "c": 3})
        assert result.is_unsat
        assert result.reason.startswith(f"ordering contradiction: {constraints[-1]}")
        assert CONTEXT_STATS.order_unsat_proofs == proofs + 1

    def test_admitted_orderings_get_the_model_the_search_always_found(self):
        # Pinned from the revision before the order graph existed: the graph
        # must not perturb the search (same rng, same candidates).
        mutual = [make_cmp(CmpKind.ULE, A, B), make_cmp(CmpKind.UGE, A, B)]
        assert Solver().check(mutual).model.values == {"a": 0, "b": 0}
        chain = [make_cmp(CmpKind.ULT, A, B), make_cmp(CmpKind.ULT, B, C), expr_ne(A, C)]
        result = Solver().check(chain, defaults={"a": 7, "b": 9, "c": 3})
        assert result.model.values == {"a": 7, "b": 9, "c": 65535}
