"""Tests for symbolic expressions and the constraint solver."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.instructions import BinOpKind, CmpKind
from repro.symbex.expr import (
    BinExpr,
    CmpExpr,
    Const,
    Sym,
    compiled_evaluator,
    evaluate,
    expr_eq,
    expr_ne,
    expr_not,
    make_binop,
    make_cmp,
    make_select,
    reduce_concrete,
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

    def test_pickle_reduce_roundtrip_reinterns(self):
        expr = make_select(
            make_cmp(CmpKind.ULT, Sym("p.s", bits=16), Const(99)),
            make_binop(BinOpKind.XOR, Sym("p.s", bits=16), Const(0x5A)),
            Const(1),
        )
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
                concrete = reduce_concrete(expr, assignment)
                if concrete is not None:
                    assert Const(concrete) is slow

    def test_deep_expression_falls_back_to_closure_evaluator(self):
        from repro.symbex.expr import _CODEGEN_MAX_EXPANDED, _expanded_size

        # A doubling DAG: shared subtree referenced twice per level would
        # explode codegen source; the expanded-size guard must route it to
        # closure trees.  (Evaluation itself is still exponential in the
        # DAG depth — same as evaluate() — so keep the tower small.)
        node = Sym("deep", bits=16)
        for _ in range(20):
            node = BinExpr(BinOpKind.ADD, node, node)
        assert _expanded_size(node) > _CODEGEN_MAX_EXPANDED
        ev = compiled_evaluator(node)
        assert ev({"deep": 1}) == 1 << 20
