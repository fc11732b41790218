"""The columnar evaluator against the scalar references.

``column_evaluator`` runs an expression's DAG schedule over uint64 columns
and drops each slot after its last reader; its shifts are numpy's bare
ufuncs, which give 0 for widths of 64 or more.  These tests hold it
lane-for-lane to ``dag_evaluator`` and ``evaluate`` on random DAGs with
shared subexpressions and edge-case constants, pin the wide shift widths,
and bound the memory one call holds on the flow-hash predicate the scorer
runs.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir.instructions import BinOpKind, CmpKind
from repro.ir.values import MACHINE_MASK
from repro.symbex.expr import (
    BinExpr,
    CmpExpr,
    Const,
    SelectExpr,
    Sym,
    column_evaluator,
    dag_evaluator,
    evaluate,
    make_binop,
    make_cmp,
)

#: Symbols of three widths: the runner masks a narrow symbol's column.
SYMS = (Sym("col_a"), Sym("col_b", bits=16), Sym("col_c", bits=8))

#: Shift widths at the word's edges (0, 1, 63, 64, all ones), divisors 0
#: and 1, and the top bit.
EDGE_VALUES = (0, 1, 63, 64, 1 << 63, MACHINE_MASK)

_values = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, MACHINE_MASK))


@st.composite
def dags(draw):
    """A random expression DAG built with the raw constructors.

    The raw constructors keep what ``make_binop`` would fold away (a shift
    by 0, a division by 1), and operands drawn from the nodes built so far
    make shared subexpressions.
    """
    nodes = list(SYMS)
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("bin", "cmp", "select")))
        lhs = draw(st.sampled_from(nodes))
        if draw(st.booleans()):
            rhs = Const(draw(_values))
        else:
            rhs = draw(st.sampled_from(nodes))
        if kind == "bin":
            nodes.append(BinExpr(draw(st.sampled_from(list(BinOpKind))), lhs, rhs))
        elif kind == "cmp":
            nodes.append(CmpExpr(draw(st.sampled_from(list(CmpKind))), lhs, rhs))
        else:
            other = draw(st.one_of(st.sampled_from(nodes), _values.map(Const)))
            nodes.append(SelectExpr(lhs, rhs, other))
    return nodes[-1]


@st.composite
def batches(draw):
    """Columns of 0, 1 or 8 192 lanes: hypothesis-drawn head lanes, then
    edge values, small ints (variable shift widths) and full-range words."""
    lanes = draw(st.sampled_from((0, 1, 8192)))
    head = draw(st.lists(st.tuples(_values, _values, _values), max_size=min(lanes, 8)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for index, sym in enumerate(SYMS):
        column = gen.integers(0, MACHINE_MASK, size=lanes, dtype=np.uint64, endpoint=True)
        small = gen.integers(0, 70, size=lanes, dtype=np.uint64)
        column[1::3] = small[1::3]
        edges = gen.choice(np.asarray(EDGE_VALUES, dtype=np.uint64), size=lanes)
        column[2::7] = edges[2::7]
        column[: len(head)] = [row[index] for row in head]
        columns[sym.name] = column
    return columns


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(expr=dags(), columns=batches())
def test_column_lanes_equal_the_scalar_references(expr, columns):
    lanes = len(columns["col_a"])
    out = np.broadcast_to(np.asarray(column_evaluator(expr)(columns)), (lanes,))
    reference = dag_evaluator(expr)
    rows = zip(*(columns[sym.name].tolist() for sym in SYMS))
    for lane, values in enumerate(rows):
        row = dict(zip((sym.name for sym in SYMS), values))
        assert int(out[lane]) == reference(row) == evaluate(expr, row), (lane, row)


@pytest.mark.parametrize("value", EDGE_VALUES)
@pytest.mark.parametrize("op", list(BinOpKind), ids=lambda op: op.value)
def test_every_operator_by_every_edge_constant(op, value):
    expr = BinExpr(op, SYMS[0], Const(value))
    gen = np.random.default_rng(7)
    column = gen.integers(0, MACHINE_MASK, size=8192, dtype=np.uint64, endpoint=True)
    column[: len(EDGE_VALUES)] = EDGE_VALUES
    out = column_evaluator(expr)({"col_a": column})
    assert out.dtype == np.uint64 and out.shape == column.shape
    reference = dag_evaluator(expr)
    for lane, word in enumerate(column.tolist()):
        assert int(out[lane]) == reference({"col_a": word}) == evaluate(expr, {"col_a": word})


#: Shift widths past the word: the bare ufuncs must map each to 0.
WIDE_SHIFTS = (64, 65, 1 << 63, MACHINE_MASK)


@pytest.mark.parametrize("op", (BinOpKind.SHL, BinOpKind.LSHR), ids=lambda op: op.value)
def test_shifts_of_64_bits_or_more_read_zero(op):
    gen = np.random.default_rng(11)
    words = gen.integers(0, MACHINE_MASK, size=64, dtype=np.uint64, endpoint=True)
    words[: len(EDGE_VALUES)] = EDGE_VALUES
    widths = np.resize(np.asarray(WIDE_SHIFTS, dtype=np.uint64), words.shape)
    columns = {"col_a": words, "col_shift": widths}
    exprs = [BinExpr(op, SYMS[0], Sym("col_shift"))]
    exprs += [BinExpr(op, SYMS[0], Const(width)) for width in WIDE_SHIFTS]
    for expr in exprs:
        out = np.broadcast_to(column_evaluator(expr)(columns), words.shape)
        reference = dag_evaluator(expr)
        for lane, (word, width) in enumerate(zip(words.tolist(), widths.tolist())):
            row = {"col_a": word, "col_shift": width}
            assert int(out[lane]) == reference(row) == 0, (expr, row)


def _bucket_predicate():
    """The nat-hash-table bucket predicate: 111 unique nodes."""
    from repro.hashing.functions import flow_hash16
    from repro.scoring.signatures import field_sym

    key = make_binop(
        BinOpKind.OR,
        field_sym("src_ip"),
        make_binop(BinOpKind.SHL, field_sym("src_port"), Const(32)),
    )
    bucket = make_binop(BinOpKind.AND, flow_hash16(key), Const(0xFFF))
    return make_cmp(CmpKind.EQ, bucket, Const(0xC00))


def test_one_call_holds_only_the_live_frontier():
    from repro.nf.registry import get_nf
    from repro.scoring.stream import random_flow_columns
    from repro.symbex.expr import expr_to_dict

    predicate = _bucket_predicate()
    assert len(expr_to_dict(predicate)["nodes"]) == 111
    columns = random_flow_columns(get_nf("nat-hash-table"), 65536, random.Random(1))
    evaluator = column_evaluator(predicate)
    evaluator(columns)  # warm: the memo and numpy's lazy state
    tracemalloc.start()
    try:
        evaluator(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 8 MiB is 16 columns of 65 536 lanes; holding every node's column
    # (111 of them) peaked at 47.6 MiB.
    assert peak <= 8 << 20, f"{peak / 2**20:.1f} MiB"
