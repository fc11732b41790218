"""Tests for symbolic expressions and the constraint solver."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.instructions import BinOpKind, CmpKind
from repro.symbex.expr import (
    BINOP_FUNCS,
    BinExpr,
    CmpExpr,
    Const,
    SelectExpr,
    Sym,
    dag_evaluator,
    evaluate,
    expr_eq,
    expr_ne,
    expr_not,
    make_binop,
    make_cmp,
    make_select,
    reduce_expr,
    simplify,
    substitute,
    symbols_of,
)
from repro.symbex.solver import Solver

X32 = Sym("x", 32)
Y32 = Sym("y", 32)
P8 = Sym("p", 8)


class TestExpressions:
    def test_constant_folding(self):
        assert make_binop(BinOpKind.ADD, Const(2), Const(3)) == Const(5)
        assert make_binop(BinOpKind.MUL, Const(7), Const(0)) == Const(0)
        assert make_cmp(CmpKind.ULT, Const(2), Const(3)) == Const(1)

    @pytest.mark.parametrize(
        "op,identity",
        [(BinOpKind.ADD, 0), (BinOpKind.OR, 0), (BinOpKind.XOR, 0), (BinOpKind.MUL, 1)],
    )
    def test_identity_simplification(self, op, identity):
        assert make_binop(op, X32, Const(identity)) is X32

    def test_mask_to_width_is_noop(self):
        assert make_binop(BinOpKind.AND, X32, Const(0xFFFFFFFF)) is X32

    def test_nested_shift_collapse(self):
        nested = make_binop(BinOpKind.LSHR, make_binop(BinOpKind.LSHR, X32, Const(3)), Const(2))
        assert isinstance(nested, BinExpr)
        assert nested.rhs == Const(5)

    def test_compare_of_compare_flattens(self):
        inner = make_cmp(CmpKind.EQ, X32, Const(5))
        assert make_cmp(CmpKind.NE, inner, Const(0)) is inner
        negated = make_cmp(CmpKind.EQ, inner, Const(0))
        assert isinstance(negated, CmpExpr) and negated.pred is CmpKind.NE

    def test_expr_not_negates_predicates(self):
        assert expr_not(make_cmp(CmpKind.ULT, X32, Const(5))).pred is CmpKind.UGE

    def test_select_simplification(self):
        assert make_select(Const(1), X32, Y32) is X32
        assert make_select(Const(0), X32, Y32) is Y32
        assert make_select(make_cmp(CmpKind.EQ, X32, Const(1)), Y32, Y32) is Y32

    def test_symbols_of(self):
        expr = make_binop(BinOpKind.ADD, X32, make_binop(BinOpKind.MUL, Y32, Const(2)))
        assert symbols_of(expr) == {X32, Y32}

    def test_symbol_width_bounds_comparison(self):
        assert make_cmp(CmpKind.EQ, P8, Const(300)) == Const(0)
        assert make_cmp(CmpKind.ULT, P8, Const(300)) == Const(1)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_evaluate_matches_python(self, a, b):
        expr = make_binop(
            BinOpKind.XOR,
            make_binop(BinOpKind.ADD, X32, Const(b)),
            make_binop(BinOpKind.LSHR, X32, Const(7)),
        )
        expected = (((a + b) & ((1 << 64) - 1)) ^ (a >> 7)) & ((1 << 64) - 1)
        assert evaluate(expr, {"x": a}) == expected

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_substitute_then_evaluate_is_stable(self, a):
        expr = make_binop(BinOpKind.ADD, make_binop(BinOpKind.MUL, X32, Const(3)), Y32)
        partially = substitute(expr, {"x": a})
        assert symbols_of(partially) == {Y32}
        assert evaluate(partially, {"y": 5}) == evaluate(expr, {"x": a, "y": 5})

    def test_simplify_is_idempotent(self):
        expr = make_cmp(CmpKind.EQ, make_binop(BinOpKind.AND, X32, Const(0xFF)), Const(3))
        assert simplify(simplify(expr)) == simplify(expr)

    @pytest.mark.parametrize(
        "op,apply",
        [
            (BinOpKind.ADD, lambda a, b: a + b),
            (BinOpKind.SUB, lambda a, b: a - b),
            (BinOpKind.MUL, lambda a, b: a * b),
            (BinOpKind.UDIV, lambda a, b: a // b),
            (BinOpKind.UREM, lambda a, b: a % b),
            (BinOpKind.AND, lambda a, b: a & b),
            (BinOpKind.OR, lambda a, b: a | b),
            (BinOpKind.XOR, lambda a, b: a ^ b),
            (BinOpKind.SHL, lambda a, b: a << b),
            (BinOpKind.LSHR, lambda a, b: a >> b),
        ],
    )
    def test_dialect_operators_build_make_binop_nodes(self, op, apply):
        """``Expr`` arithmetic is ``make_binop`` with ints wrapped in ``Const``."""
        assert apply(X32, Y32) is make_binop(op, X32, Y32)
        assert apply(X32, 3) is make_binop(op, X32, Const(3))
        assert apply(3, X32) is make_binop(op, Const(3), X32)
        with pytest.raises(TypeError):
            apply(X32, 1.5)


class TestSolver:
    def setup_method(self):
        self.solver = Solver()

    def _check_sat(self, constraints, **kwargs):
        result = self.solver.check(constraints, **kwargs)
        assert result.is_sat, result.reason
        for constraint in constraints:
            assert evaluate(constraint, result.model.values) == 1
        return result.model

    def test_simple_equality(self):
        model = self._check_sat([expr_eq(X32, Const(42))])
        assert model["x"] == 42

    def test_unsat_equalities(self):
        result = self.solver.check([expr_eq(X32, Const(1)), expr_eq(X32, Const(2))])
        assert result.is_unsat

    def test_masked_shift_bits(self):
        constraints = [
            expr_eq(make_binop(BinOpKind.AND, make_binop(BinOpKind.LSHR, X32, Const(k)), Const(1)), Const(1))
            for k in range(8)
        ]
        model = self._check_sat(constraints)
        assert model["x"] & 0xFF == 0xFF

    def test_conflicting_bits_unsat(self):
        bit = make_binop(BinOpKind.AND, make_binop(BinOpKind.LSHR, X32, Const(3)), Const(1))
        result = self.solver.check([expr_eq(bit, Const(1)), expr_eq(bit, Const(0))])
        assert result.is_unsat

    def test_shift_index_inversion(self):
        # The LPM direct-lookup shape: (dst_ip >> 14) == index.
        model = self._check_sat([expr_eq(make_binop(BinOpKind.LSHR, X32, Const(14)), Const(0x2A5))])
        assert model["x"] >> 14 == 0x2A5

    def test_affine_inversion(self):
        expr = make_binop(BinOpKind.ADD, make_binop(BinOpKind.MUL, X32, Const(5)), Const(7))
        model = self._check_sat([expr_eq(expr, Const(5 * 1234 + 7))])
        assert model["x"] == 1234

    def test_xor_inversion(self):
        model = self._check_sat([expr_eq(make_binop(BinOpKind.XOR, X32, Const(0xDEAD)), Const(0xBEEF))])
        assert model["x"] == 0xDEAD ^ 0xBEEF

    def test_disjoint_field_decomposition(self):
        # Packed flow keys: src | (sport << 32) | (dport << 48).
        sport = Sym("sport", 16)
        dport = Sym("dport", 16)
        key = make_binop(
            BinOpKind.OR,
            make_binop(BinOpKind.OR, X32, make_binop(BinOpKind.SHL, sport, Const(32))),
            make_binop(BinOpKind.SHL, dport, Const(48)),
        )
        target = (0x0A000001) | (1234 << 32) | (80 << 48)
        model = self._check_sat([expr_eq(key, Const(target))])
        assert model["x"] == 0x0A000001
        assert model["sport"] == 1234
        assert model["dport"] == 80

    def test_inequalities_and_exclusions(self):
        model = self._check_sat(
            [
                make_cmp(CmpKind.UGE, X32, Const(10)),
                make_cmp(CmpKind.ULE, X32, Const(12)),
                expr_ne(X32, Const(10)),
                expr_ne(X32, Const(12)),
            ]
        )
        assert model["x"] == 11

    def test_empty_interval_unsat(self):
        result = self.solver.check(
            [make_cmp(CmpKind.ULT, X32, Const(5)), make_cmp(CmpKind.UGT, X32, Const(9))]
        )
        assert result.is_unsat

    def test_multi_symbol_inequality(self):
        model = self._check_sat(
            [expr_eq(X32, Const(7)), make_cmp(CmpKind.ULT, X32, Y32), expr_ne(Y32, Const(8))]
        )
        assert model["y"] > 7 and model["y"] != 8

    def test_defaults_fill_unconstrained_symbols(self):
        result = self.solver.check([expr_eq(X32, Const(1))], defaults={"y": 99, "x": 5})
        assert result.is_sat
        # x is constrained, y falls back to its default when queried.
        assert result.model.get("y", 99) == 99

    def test_urem_candidate(self):
        # Hash-bucket shape: hv % 4096 == 77.
        hv = Sym("hv", 16)
        model = self._check_sat([expr_eq(make_binop(BinOpKind.UREM, hv, Const(4096)), Const(77))])
        assert model["hv"] % 4096 == 77

    def test_quick_feasible_accepts_and_rejects(self):
        assert self.solver.quick_feasible([expr_eq(X32, Const(3))])
        assert not self.solver.quick_feasible([expr_eq(X32, Const(3)), expr_eq(X32, Const(4))])
        assert not self.solver.quick_feasible([Const(0)])

    def test_protocol_width_constraint(self):
        result = self.solver.check([expr_eq(P8, Const(1000))])
        assert not result.is_sat

    def test_invert_overflow_returns_none(self):
        # Regression: inverting (p << 4) == 0xF000 gives p == 0xF00, which
        # does not fit the 8-bit symbol; _invert must report "no solution in
        # width" rather than hand back an unmasked out-of-range value.
        shifted = make_binop(BinOpKind.SHL, P8, Const(4))
        assert self.solver._invert(shifted, 0xF000) is None
        # In-range inversions still work through the same entry point.
        assert self.solver._invert(shifted, 0x70) == (P8, 0x7)
        # And the constraint itself is correctly judged unsatisfiable.
        result = self.solver.check([expr_eq(shifted, Const(0xF000))])
        assert not result.is_sat

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_inversion_roundtrip_property(self, value, shift):
        expr = make_binop(BinOpKind.LSHR, X32, Const(shift))
        target = value >> shift
        model = self.solver.check([expr_eq(expr, Const(target))])
        assert model.is_sat
        assert model.model["x"] >> shift == target


class TestExprFastPathInvariants:
    def test_cached_hash_and_slots(self):
        expr = make_binop(BinOpKind.ADD, Sym("h.x", bits=16), Const(3))
        assert hash(expr) == expr._hash
        for node in (expr, Const(3), Sym("h.x", bits=16)):
            assert not hasattr(node, "__dict__")  # __slots__ everywhere
        # Interning: structural equality is identity.
        assert make_binop(BinOpKind.ADD, Sym("h.x", bits=16), Const(3)) is expr
        assert isinstance(expr, BinExpr)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_select(
                make_cmp(CmpKind.ULT, Sym("p.s", bits=16), Const(99)),
                make_binop(BinOpKind.XOR, Sym("p.s", bits=16), Const(0x5A)),
                Const(1),
            ),
            lambda: make_cmp(
                CmpKind.ULT,
                make_binop(BinOpKind.ADD, Sym("pkt0.src_ip", 32), Const(7)),
                Const(1000),
            ),
        ],
        ids=["select", "havoc-key"],
    )
    def test_pickle_reduce_roundtrip_reinterns(self, build):
        """A pickled expression (a stored result's havoc records hold them)
        loads back as the *same* interned node."""
        expr = build()
        assert pickle.loads(pickle.dumps(expr)) is expr

    def test_reduce_expr_matches_slow_form(self):
        x, y, z = Sym("rx", bits=16), Sym("ry", bits=32), Sym("rz", bits=8)
        exprs = [
            make_binop(BinOpKind.ADD, make_binop(BinOpKind.MUL, x, Const(3)), y),
            make_cmp(CmpKind.ULT, make_binop(BinOpKind.XOR, x, z), Const(77)),
            make_binop(BinOpKind.AND, y, make_binop(BinOpKind.SHL, z, Const(4))),
            make_cmp(
                CmpKind.EQ,
                make_binop(BinOpKind.OR, x, make_binop(BinOpKind.SHL, y, Const(16))),
                Const(0x1234_0042),
            ),
        ]
        assignments = [
            {},
            {"rx": 5},
            {"rx": 5, "ry": 1 << 20},
            {"rx": 5, "ry": 1 << 20, "rz": 9},
            {"ry": 0},
            {"rz": 255},
        ]
        for expr in exprs:
            for assignment in assignments:
                slow = simplify(substitute(expr, assignment))
                assert reduce_expr(expr, assignment) is slow


# -- a generated-source evaluator, kept as the scalar evaluator's oracle ----------

MACHINE_MASK = (1 << 64) - 1

_CMP_SOURCE = {
    CmpKind.EQ: "==",
    CmpKind.NE: "!=",
    CmpKind.ULT: "<",
    CmpKind.ULE: "<=",
    CmpKind.UGT: ">",
    CmpKind.UGE: ">=",
}

_CODEGEN_GLOBALS = {
    "__builtins__": {},
    "_udiv": BINOP_FUNCS[BinOpKind.UDIV],
    "_urem": BINOP_FUNCS[BinOpKind.UREM],
    "_shl": BINOP_FUNCS[BinOpKind.SHL],
    "_lshr": BINOP_FUNCS[BinOpKind.LSHR],
}

_BINOP_SOURCE_SIMPLE = {
    BinOpKind.ADD: "(({l} + {r}) & 18446744073709551615)",
    BinOpKind.SUB: "(({l} - {r}) & 18446744073709551615)",
    BinOpKind.MUL: "(({l} * {r}) & 18446744073709551615)",
    BinOpKind.AND: "({l} & {r})",
    BinOpKind.OR: "({l} | {r})",
    BinOpKind.XOR: "({l} ^ {r})",
}

_BINOP_SOURCE_HELPER = {
    BinOpKind.UDIV: "_udiv",
    BinOpKind.UREM: "_urem",
    BinOpKind.SHL: "_shl",
    BinOpKind.LSHR: "_lshr",
}


def _emit_source(expr):
    """Python source computing ``expr``'s value from the assignment dict ``a``."""
    kind = type(expr)
    if kind is Const:
        return repr(expr.value)
    if kind is Sym:
        return f"(a[{expr.name!r}] & {expr.mask})"
    if kind is BinExpr:
        lhs = _emit_source(expr.lhs)
        rhs = _emit_source(expr.rhs)
        op = expr.op
        template = _BINOP_SOURCE_SIMPLE.get(op)
        if template is not None:
            return template.format(l=lhs, r=rhs)
        if type(expr.rhs) is Const and expr.rhs.value < 64:
            if op is BinOpKind.SHL:
                return f"(({lhs} << {expr.rhs.value}) & {MACHINE_MASK})"
            if op is BinOpKind.LSHR:
                return f"({lhs} >> {expr.rhs.value})"
        return f"{_BINOP_SOURCE_HELPER[op]}({lhs}, {rhs})"
    if kind is CmpExpr:
        return f"(1 if {_emit_source(expr.lhs)} {_CMP_SOURCE[expr.pred]} {_emit_source(expr.rhs)} else 0)"
    if kind is SelectExpr:
        return (
            f"({_emit_source(expr.if_true)} if {_emit_source(expr.cond)}"
            f" else {_emit_source(expr.if_false)})"
        )
    raise TypeError(f"cannot evaluate {expr!r}")


def codegen_reference(expr):
    return eval(f"lambda a: {_emit_source(expr)}", dict(_CODEGEN_GLOBALS))


#: The reference compiled trees up to this depth and expanded size only.
CODEGEN_MAX_DEPTH = 48
CODEGEN_MAX_EXPANDED = 3000

EVAL_SYMBOLS = (Sym("ev.a", 8), Sym("ev.b", 16), Sym("ev.c", 32), Sym("ev.d", 64))
EDGE_CONSTANTS = (0, 1, 63, 64, 65, 200, MACHINE_MASK)


@st.composite
def expression_dags(draw):
    """Raw (unsimplified) nodes, each child drawn from all earlier nodes.

    Drawing children from the whole prefix shares subtrees (a DAG), and
    preferring the newest nodes builds depth.  Expanded size is tracked so
    the tree-walking evaluators stay cheap.
    """
    nodes = list(EVAL_SYMBOLS) + [Const(v) for v in EDGE_CONSTANTS]
    sizes = [1] * len(nodes)

    def child():
        recent = draw(st.booleans())
        low = max(0, len(nodes) - 3) if recent else 0
        return draw(st.integers(low, len(nodes) - 1))

    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(("bin", "bin", "cmp", "select")))
        picks = [child() for _ in range(3 if kind == "select" else 2)]
        size = 1 + sum(sizes[i] for i in picks)
        if size > CODEGEN_MAX_EXPANDED:
            picks = [len(EVAL_SYMBOLS) + draw(st.integers(0, len(EDGE_CONSTANTS) - 1))] * len(picks)
            size = 1 + len(picks)
        args = [nodes[i] for i in picks]
        if kind == "bin":
            node = BinExpr(draw(st.sampled_from(list(BinOpKind))), *args)
        elif kind == "cmp":
            node = CmpExpr(draw(st.sampled_from(list(CmpKind))), *args)
        else:
            node = SelectExpr(*args)
        if node.depth > CODEGEN_MAX_DEPTH:
            break
        nodes.append(node)
        sizes.append(size)
    return nodes[-1]


class TestDagEvaluator:
    """The node-cached DAG schedules against the generated-source evaluator."""

    @given(
        expression_dags(),
        st.lists(st.integers(0, MACHINE_MASK), min_size=4, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_codegen_reference(self, expr, values):
        assignment = {s.name: v for s, v in zip(EVAL_SYMBOLS, values)}
        assert dag_evaluator(expr)(assignment) == codegen_reference(expr)(assignment)
        assert evaluate(expr, assignment) == codegen_reference(expr)(assignment)

    @pytest.mark.parametrize(
        "build",
        [
            # Division and remainder by zero, by a constant and a symbol.
            lambda a, b: BinExpr(BinOpKind.UDIV, a, Const(0)),
            lambda a, b: BinExpr(BinOpKind.UREM, a, Const(0)),
            lambda a, b: BinExpr(BinOpKind.UDIV, a, b),
            lambda a, b: BinExpr(BinOpKind.UREM, a, b),
            # Shifts by 64 and more, constant and symbolic.
            lambda a, b: BinExpr(BinOpKind.SHL, a, Const(64)),
            lambda a, b: BinExpr(BinOpKind.LSHR, a, Const(65)),
            lambda a, b: BinExpr(BinOpKind.SHL, a, b),
            lambda a, b: BinExpr(BinOpKind.LSHR, a, b),
            # Wrap-around arithmetic.
            lambda a, b: BinExpr(BinOpKind.SUB, b, a),
            lambda a, b: BinExpr(BinOpKind.MUL, a, Const(MACHINE_MASK)),
            # Selects on a comparison and on a raw value.
            lambda a, b: SelectExpr(CmpExpr(CmpKind.ULT, a, b), a, b),
            lambda a, b: SelectExpr(a, BinExpr(BinOpKind.UDIV, b, a), Const(7)),
        ],
    )
    @pytest.mark.parametrize("a,b", [(0, 0), (0, 5), (7, 0), (3, 64), (MACHINE_MASK, 70)])
    def test_edge_semantics_match_the_codegen_reference(self, build, a, b):
        expr = build(Sym("ev.x", 64), Sym("ev.y", 64))
        assignment = {"ev.x": a, "ev.y": b}
        assert dag_evaluator(expr)(assignment) == codegen_reference(expr)(assignment)

    def test_deep_and_shared_trees_match_the_codegen_reference(self):
        x, y = Sym("ev.x", 64), Sym("ev.y", 16)
        chain = x
        for level in range(CODEGEN_MAX_DEPTH - 1):
            op = (BinOpKind.ADD, BinOpKind.XOR, BinOpKind.MUL, BinOpKind.LSHR)[level % 4]
            chain = BinExpr(op, chain, y if level % 3 else Const(level + 3))
        tower = y
        for _ in range(10):  # each level references the one below twice
            tower = BinExpr(BinOpKind.ADD, tower, tower)
        for expr in (chain, tower):
            for assignment in ({"ev.x": 3, "ev.y": 5}, {"ev.x": MACHINE_MASK, "ev.y": 0}):
                assert dag_evaluator(expr)(assignment) == codegen_reference(expr)(assignment)
        # Beyond what the reference would compile, a shared child is still
        # computed once per call.
        for _ in range(10):
            tower = BinExpr(BinOpKind.ADD, tower, tower)
        assert dag_evaluator(tower)({"ev.y": 1}) == 1 << 20

    def test_a_64_level_doubling_tower_is_linear(self):
        # Each level reads the one below twice: 2**64 reads as a tree, 129
        # steps as a schedule.
        y = Sym("ev.y", 16)
        tower, expected = y, 3
        for _ in range(64):
            tower = BinExpr(BinOpKind.ADD, BinExpr(BinOpKind.MUL, tower, tower), Const(1))
            expected = (expected * expected + 1) & MACHINE_MASK
        assert evaluate(tower, {"ev.y": 3}) == expected
        assert reduce_expr(tower, {"ev.y": 3}) is Const(expected)
        assert evaluate(CmpExpr(CmpKind.EQ, tower, Const(expected)), {"ev.y": 3}) == 1

    def test_a_select_reads_the_symbols_of_both_arms(self):
        # Both arms run, so an assignment must cover every symbol.
        expr = SelectExpr(Sym("ev.x", 64), Sym("ev.y", 64), Const(7))
        assert evaluate(expr, {"ev.x": 0, "ev.y": 5}) == 7
        with pytest.raises(KeyError):
            evaluate(expr, {"ev.x": 0})


# -- explicit-stack walks vs the recursive closures they replaced -----------------


def recursive_symbol_occurrences(expr):
    counts = {}

    def walk(node):
        if isinstance(node, Sym):
            counts[node.name] = counts.get(node.name, 0) + 1
        elif isinstance(node, BinExpr):
            walk(node.lhs)
            walk(node.rhs)
        elif isinstance(node, CmpExpr):
            walk(node.lhs)
            walk(node.rhs)
        elif isinstance(node, SelectExpr):
            walk(node.cond)
            walk(node.if_true)
            walk(node.if_false)

    walk(expr)
    return counts


def recursive_flatten(expr):
    parts = []

    def flatten(node):
        if isinstance(node, BinExpr) and node.op is expr.op:
            flatten(node.lhs)
            flatten(node.rhs)
        else:
            parts.append(node)

    flatten(expr)
    return parts


class TestExplicitStackWalks:
    @given(expression_dags())
    @settings(max_examples=100, deadline=None)
    def test_symbol_occurrences_match_the_recursive_walk(self, expr):
        counts = Solver._count_symbol_occurrences(expr)
        expected = recursive_symbol_occurrences(expr)
        assert list(counts.items()) == list(expected.items())

    @given(st.data(), st.sampled_from((BinOpKind.OR, BinOpKind.XOR, BinOpKind.ADD)))
    @settings(max_examples=200, deadline=None)
    def test_disjoint_decomposition_matches_the_recursive_flatten(self, data, op):
        # Disjoint fields in a random order and a random bracketing, some
        # masked (a part of another operator stays one part).
        widths = data.draw(st.lists(st.integers(1, 12), min_size=2, max_size=5))
        leaves, offset, reachable = [], 0, 0
        for index, width in enumerate(widths):
            leaf = Sym(f"ev.f{index}", width)
            bits = (1 << width) - 1
            if data.draw(st.booleans()):
                bits -= 1
                leaf = BinExpr(BinOpKind.AND, leaf, Const(bits))
            reachable |= bits << offset
            if offset:
                leaf = BinExpr(BinOpKind.SHL, leaf, Const(offset))
            leaves.append(leaf)
            offset += width
        leaves = data.draw(st.permutations(leaves))

        def bracket(items):
            if len(items) == 1:
                return items[0]
            split = data.draw(st.integers(1, len(items) - 1))
            return BinExpr(op, bracket(items[:split]), bracket(items[split:]))

        root = bracket(leaves)
        target = data.draw(st.integers(0, (1 << offset) - 1)) & reachable
        decomposed = Solver()._decompose_disjoint(root, target)
        assert decomposed is not None
        assert [part for part, _ in decomposed] == recursive_flatten(root) == leaves
