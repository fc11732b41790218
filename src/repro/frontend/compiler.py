"""Compiler from the restricted-Python NF dialect to NFIL.

Supported dialect
-----------------
* Module-level ``def`` functions with positional integer parameters.
* Integer literals, named constants (supplied via ``constants``), locals.
* Arithmetic/bitwise operators ``+ - * // % & | ^ << >>``, unary ``-``/``~``.
* Comparisons ``== != < <= > >=`` (unsigned 64-bit semantics) and boolean
  ``and`` / ``or`` / ``not`` (short-circuit in conditions, eager 0/1 values
  in expression position).
* ``if`` / ``elif`` / ``else``, ``while``, ``for i in range(...)``,
  ``break`` / ``continue`` / ``pass`` / ``return``.
* Memory-region access by subscript: ``table[i]`` / ``table[i] = v`` where
  ``table`` is a region declared on the target module.
* Calls to other dialect functions defined in the same source, and the
  ``castan_havoc(key, flow_hash16(key))`` intrinsic, whose hash takes the
  key itself.  ``flow_hash16`` is the only hash a havoc may suppress, and
  no source defines it: a source that calls it gets it compiled from
  ``FLOW_HASH_DIALECT_SOURCE`` ahead of its own functions, because
  reconciliation inverts the Python
  :func:`~repro.hashing.functions.flow_hash16`, and a differently bodied
  one would be reconciled against the wrong function.

Anything else raises :class:`NFCompileError` with the offending line of
``source``.
"""

from __future__ import annotations

import ast
import textwrap
from dataclasses import dataclass, field

from repro.frontend.errors import NFCompileError
from repro.frontend.intrinsics import CASTAN_HAVOC
from repro.hashing.functions import FLOW_HASH_DIALECT_SOURCE
from repro.ir.builder import FunctionBuilder
from repro.ir.instructions import BinOpKind, CmpKind
from repro.ir.module import BasicBlock, Module
from repro.ir.values import Constant, Register, Value
from repro.ir.verify import verify_module

_BINOPS: dict[type[ast.operator], BinOpKind] = {
    ast.Add: BinOpKind.ADD,
    ast.Sub: BinOpKind.SUB,
    ast.Mult: BinOpKind.MUL,
    ast.FloorDiv: BinOpKind.UDIV,
    ast.Mod: BinOpKind.UREM,
    ast.BitAnd: BinOpKind.AND,
    ast.BitOr: BinOpKind.OR,
    ast.BitXor: BinOpKind.XOR,
    ast.LShift: BinOpKind.SHL,
    ast.RShift: BinOpKind.LSHR,
}

_CMPOPS: dict[type[ast.cmpop], CmpKind] = {
    ast.Eq: CmpKind.EQ,
    ast.NotEq: CmpKind.NE,
    ast.Lt: CmpKind.ULT,
    ast.LtE: CmpKind.ULE,
    ast.Gt: CmpKind.UGT,
    ast.GtE: CmpKind.UGE,
}

_NEGATED: dict[CmpKind, CmpKind] = {
    CmpKind.EQ: CmpKind.NE,
    CmpKind.NE: CmpKind.EQ,
    CmpKind.ULT: CmpKind.UGE,
    CmpKind.ULE: CmpKind.UGT,
    CmpKind.UGT: CmpKind.ULE,
    CmpKind.UGE: CmpKind.ULT,
}

#: The one hash a havoc may suppress, as the dialect text defines it.
(_FLOW_HASH_DEF,) = ast.parse(FLOW_HASH_DIALECT_SOURCE).body
FLOW_HASH_NAME = _FLOW_HASH_DEF.name


@dataclass
class CompiledNF:
    """Result of compiling an NF dialect source onto a module."""

    module: Module
    entry: str
    function_names: list[str] = field(default_factory=list)


def compile_nf(
    module: Module,
    source: str,
    constants: dict[str, int] | None = None,
    entry: str = "process",
) -> CompiledNF:
    """Compile ``source`` into ``module`` and verify the result.

    ``module`` must already declare every memory region the source
    references.  The entry function must exist in the source.
    """
    names = compile_functions(module, source, constants)
    if entry not in names:
        raise NFCompileError(f"entry function {entry!r} not found in source")
    module.reassign_uids()
    verify_module(module)
    return CompiledNF(module=module, entry=entry, function_names=names)


def compile_functions(
    module: Module,
    source: str,
    constants: dict[str, int] | None = None,
) -> list[str]:
    """Compile every top-level function in ``source`` into ``module``."""
    tree = ast.parse(textwrap.dedent(source))
    constants = dict(constants or {})
    function_defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    known_functions = {fn.name for fn in function_defs} | set(module.functions)
    if FLOW_HASH_NAME not in known_functions and any(
        isinstance(node, ast.Name) and node.id == FLOW_HASH_NAME for node in ast.walk(tree)
    ):
        tree.body.insert(0, _FLOW_HASH_DEF)
        known_functions.add(FLOW_HASH_NAME)
    names: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if node.name == FLOW_HASH_NAME and node is not _FLOW_HASH_DEF:
                raise NFCompileError(
                    f"{FLOW_HASH_NAME} is compiled from FLOW_HASH_DIALECT_SOURCE; "
                    "call it, do not define it",
                    node.lineno,
                )
            compiler = _FunctionCompiler(module, constants, known_functions)
            module.add_function(compiler.compile(node))
            names.append(node.name)
        elif isinstance(node, (ast.Expr, ast.Pass)):
            # Allow module docstrings and bare `pass`.
            continue
        elif isinstance(node, ast.Assign):
            # Module-level constant assignment: NAME = <int literal>.
            target = node.targets[0]
            if (
                len(node.targets) == 1
                and isinstance(target, ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)
            ):
                constants[target.id] = node.value.value
            else:
                raise NFCompileError(
                    "module-level assignments must be integer constants", node.lineno
                )
        else:
            raise NFCompileError(
                f"unsupported module-level statement {type(node).__name__}", node.lineno
            )
    return names


class _LoopContext:
    """Targets for break/continue inside the innermost loop."""

    def __init__(self, continue_block: BasicBlock, break_block: BasicBlock) -> None:
        self.continue_block = continue_block
        self.break_block = break_block


class _FunctionCompiler:
    """Lowers a single ``ast.FunctionDef`` into an NFIL function."""

    def __init__(
        self,
        module: Module,
        constants: dict[str, int],
        known_functions: set[str],
    ) -> None:
        self.module = module
        self.constants = constants
        self.known_functions = known_functions
        self.builder: FunctionBuilder | None = None
        self.locals: dict[str, Register] = {}
        self.loops: list[_LoopContext] = []

    # -- entry point -------------------------------------------------------

    def compile(self, node: ast.FunctionDef):
        params = [arg.arg for arg in node.args.args]
        if node.args.vararg or node.args.kwarg or node.args.kwonlyargs or node.args.defaults:
            raise NFCompileError(
                "NF dialect functions take positional parameters only", node.lineno
            )
        self.builder = FunctionBuilder(node.name, params)
        entry = self.builder.block("entry")
        self.builder.switch_to(entry)
        self.locals = {p: Register(p) for p in params}

        body = node.body
        # Skip a leading docstring.
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        self._compile_body(body)
        if not self.builder.current_terminated:
            self.builder.ret(0)
        return self.builder.build()

    # -- statements ----------------------------------------------------------

    def _compile_body(self, statements: list[ast.stmt]) -> None:
        for statement in statements:
            if self.builder.current_terminated:
                # Dead code after return/break/continue is legal in the
                # dialect but never emitted.
                return
            self._compile_statement(statement)

    def _compile_statement(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            self._compile_assign(node)
        elif isinstance(node, ast.AugAssign):
            self._compile_aug_assign(node)
        elif isinstance(node, ast.If):
            self._compile_if(node)
        elif isinstance(node, ast.While):
            self._compile_while(node)
        elif isinstance(node, ast.For):
            self._compile_for(node)
        elif isinstance(node, ast.Return):
            value = self._compile_expr(node.value) if node.value is not None else Constant(0)
            self.builder.ret(value)
        elif isinstance(node, ast.Break):
            if not self.loops:
                raise NFCompileError("break outside loop", node.lineno)
            self.builder.jump(self.loops[-1].break_block)
        elif isinstance(node, ast.Continue):
            if not self.loops:
                raise NFCompileError("continue outside loop", node.lineno)
            self.builder.jump(self.loops[-1].continue_block)
        elif isinstance(node, ast.Pass):
            return
        elif isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Constant):
                return  # stray docstring / constant expression
            if isinstance(node.value, ast.Call):
                self._compile_call(node.value, want_result=False)
                return
            raise NFCompileError(
                "expression statements must be calls", node.lineno
            )
        else:
            raise NFCompileError(
                f"unsupported statement {type(node).__name__}", node.lineno
            )

    def _compile_assign(self, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            raise NFCompileError("chained assignment is not supported", node.lineno)
        target = node.targets[0]
        if isinstance(target, ast.Name):
            value = self._compile_expr(node.value)
            self._bind_local(target.id, value)
        elif isinstance(target, ast.Subscript):
            region = self._region_name(target, node.lineno)
            index = self._compile_expr(target.slice)
            value = self._compile_expr(node.value)
            self.builder.store(region, index, value)
        else:
            raise NFCompileError(
                f"unsupported assignment target {type(target).__name__}", node.lineno
            )

    def _compile_aug_assign(self, node: ast.AugAssign) -> None:
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise NFCompileError(
                f"unsupported augmented operator {type(node.op).__name__}", node.lineno
            )
        if isinstance(node.target, ast.Name):
            current = self._load_name(node.target.id, node.lineno)
            value = self._compile_expr(node.value)
            result = self.builder.binop(op, current, value)
            self._bind_local(node.target.id, result)
        elif isinstance(node.target, ast.Subscript):
            region = self._region_name(node.target, node.lineno)
            index = self._compile_expr(node.target.slice)
            current = self.builder.load(region, index)
            value = self._compile_expr(node.value)
            result = self.builder.binop(op, current, value)
            self.builder.store(region, index, result)
        else:
            raise NFCompileError(
                f"unsupported augmented-assignment target {type(node.target).__name__}",
                node.lineno,
            )

    def _compile_if(self, node: ast.If) -> None:
        then_block = self.builder.block(self.builder.fresh_block_name("if.then"))
        else_block = (
            self.builder.block(self.builder.fresh_block_name("if.else")) if node.orelse else None
        )
        join_block = self.builder.block(self.builder.fresh_block_name("if.end"))

        false_target = else_block if else_block is not None else join_block
        self._compile_condition(node.test, then_block, false_target)

        self.builder.switch_to(then_block)
        self._compile_body(node.body)
        if not self.builder.current_terminated:
            self.builder.jump(join_block)

        if else_block is not None:
            self.builder.switch_to(else_block)
            self._compile_body(node.orelse)
            if not self.builder.current_terminated:
                self.builder.jump(join_block)

        self.builder.switch_to(join_block)

    def _compile_while(self, node: ast.While) -> None:
        if node.orelse:
            raise NFCompileError("while/else is not supported", node.lineno)
        cond_block = self.builder.block(self.builder.fresh_block_name("while.cond"))
        body_block = self.builder.block(self.builder.fresh_block_name("while.body"))
        exit_block = self.builder.block(self.builder.fresh_block_name("while.end"))

        self.builder.jump(cond_block)
        self.builder.switch_to(cond_block)
        self._compile_condition(node.test, body_block, exit_block)

        self.loops.append(_LoopContext(continue_block=cond_block, break_block=exit_block))
        self.builder.switch_to(body_block)
        self._compile_body(node.body)
        if not self.builder.current_terminated:
            self.builder.jump(cond_block)
        self.loops.pop()

        self.builder.switch_to(exit_block)

    def _compile_for(self, node: ast.For) -> None:
        if node.orelse:
            raise NFCompileError("for/else is not supported", node.lineno)
        if not (
            isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id == "range"
            and 1 <= len(node.iter.args) <= 2
        ):
            raise NFCompileError("for loops must iterate over range()", node.lineno)
        if not isinstance(node.target, ast.Name):
            raise NFCompileError("for-loop target must be a simple name", node.lineno)

        if len(node.iter.args) == 1:
            start: Value = Constant(0)
            stop = self._compile_expr(node.iter.args[0])
        else:
            start = self._compile_expr(node.iter.args[0])
            stop = self._compile_expr(node.iter.args[1])

        loop_var = node.target.id
        self._bind_local(loop_var, start)

        cond_block = self.builder.block(self.builder.fresh_block_name("for.cond"))
        body_block = self.builder.block(self.builder.fresh_block_name("for.body"))
        step_block = self.builder.block(self.builder.fresh_block_name("for.step"))
        exit_block = self.builder.block(self.builder.fresh_block_name("for.end"))

        self.builder.jump(cond_block)
        self.builder.switch_to(cond_block)
        cond = self.builder.compare(CmpKind.ULT, self.locals[loop_var], stop)
        self.builder.branch(cond, body_block, exit_block)

        self.loops.append(_LoopContext(continue_block=step_block, break_block=exit_block))
        self.builder.switch_to(body_block)
        self._compile_body(node.body)
        if not self.builder.current_terminated:
            self.builder.jump(step_block)
        self.loops.pop()

        self.builder.switch_to(step_block)
        incremented = self.builder.add(self.locals[loop_var], 1)
        self._bind_local(loop_var, incremented)
        self.builder.jump(cond_block)

        self.builder.switch_to(exit_block)

    # -- conditions ----------------------------------------------------------

    def _compile_condition(
        self, test: ast.expr, true_block: BasicBlock, false_block: BasicBlock
    ) -> None:
        """Compile ``test`` as control flow with short-circuit evaluation."""
        if isinstance(test, ast.BoolOp):
            if isinstance(test.op, ast.And):
                for operand in test.values[:-1]:
                    next_block = self.builder.block(self.builder.fresh_block_name("and.rhs"))
                    self._compile_condition(operand, next_block, false_block)
                    self.builder.switch_to(next_block)
                self._compile_condition(test.values[-1], true_block, false_block)
            else:  # Or
                for operand in test.values[:-1]:
                    next_block = self.builder.block(self.builder.fresh_block_name("or.rhs"))
                    self._compile_condition(operand, true_block, next_block)
                    self.builder.switch_to(next_block)
                self._compile_condition(test.values[-1], true_block, false_block)
            return
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._compile_condition(test.operand, false_block, true_block)
            return
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            pred = _CMPOPS.get(type(test.ops[0]))
            if pred is None:
                raise NFCompileError(
                    f"unsupported comparison {type(test.ops[0]).__name__}", test.lineno
                )
            lhs = self._compile_expr(test.left)
            rhs = self._compile_expr(test.comparators[0])
            cond = self.builder.compare(pred, lhs, rhs)
            self.builder.branch(cond, true_block, false_block)
            return
        # Fallback: any non-zero value is true.
        value = self._compile_expr(test)
        cond = self.builder.compare(CmpKind.NE, value, 0)
        self.builder.branch(cond, true_block, false_block)

    # -- expressions ---------------------------------------------------------

    def _compile_expr(self, node: ast.expr) -> Value:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return Constant(int(node.value))
            if isinstance(node.value, int):
                return Constant(node.value)
            raise NFCompileError(
                f"unsupported literal {node.value!r} (integers only)", node.lineno
            )
        if isinstance(node, ast.Name):
            return self._load_name(node.id, node.lineno)
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise NFCompileError(
                    f"unsupported operator {type(node.op).__name__}", node.lineno
                )
            lhs = self._compile_expr(node.left)
            rhs = self._compile_expr(node.right)
            return self.builder.binop(op, lhs, rhs)
        if isinstance(node, ast.UnaryOp):
            return self._compile_unary(node)
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise NFCompileError("chained comparisons are not supported", node.lineno)
            pred = _CMPOPS.get(type(node.ops[0]))
            if pred is None:
                raise NFCompileError(
                    f"unsupported comparison {type(node.ops[0]).__name__}", node.lineno
                )
            lhs = self._compile_expr(node.left)
            rhs = self._compile_expr(node.comparators[0])
            return self.builder.compare(pred, lhs, rhs)
        if isinstance(node, ast.BoolOp):
            # Eager 0/1 evaluation in expression position (operands are
            # themselves 0/1 or arbitrary ints tested against zero).
            op = BinOpKind.AND if isinstance(node.op, ast.And) else BinOpKind.OR
            result: Value | None = None
            for operand in node.values:
                value = self._compile_expr(operand)
                as_bool = self.builder.compare(CmpKind.NE, value, 0)
                result = as_bool if result is None else self.builder.binop(op, result, as_bool)
            assert result is not None
            return result
        if isinstance(node, ast.Subscript):
            region = self._region_name(node, node.lineno)
            index = self._compile_expr(node.slice)
            return self.builder.load(region, index)
        if isinstance(node, ast.Call):
            result = self._compile_call(node, want_result=True)
            assert result is not None
            return result
        if isinstance(node, ast.IfExp):
            cond = self._compile_expr(node.test)
            if_true = self._compile_expr(node.body)
            if_false = self._compile_expr(node.orelse)
            as_bool = self.builder.compare(CmpKind.NE, cond, 0)
            return self.builder.select(as_bool, if_true, if_false)
        raise NFCompileError(
            f"unsupported expression {type(node).__name__}", node.lineno
        )

    def _compile_unary(self, node: ast.UnaryOp) -> Value:
        if isinstance(node.op, ast.USub):
            operand = self._compile_expr(node.operand)
            return self.builder.sub(0, operand)
        if isinstance(node.op, ast.Invert):
            operand = self._compile_expr(node.operand)
            return self.builder.xor(operand, (1 << 64) - 1)
        if isinstance(node.op, ast.Not):
            operand = self._compile_expr(node.operand)
            return self.builder.compare(CmpKind.EQ, operand, 0)
        raise NFCompileError(
            f"unsupported unary operator {type(node.op).__name__}", node.lineno
        )

    def _compile_call(self, node: ast.Call, want_result: bool) -> Value | None:
        if not isinstance(node.func, ast.Name):
            raise NFCompileError("only direct calls by name are supported", node.lineno)
        if node.keywords:
            raise NFCompileError("keyword arguments are not supported", node.lineno)
        name = node.func.id
        if name == CASTAN_HAVOC:
            return self._compile_havoc(node)
        if name == "min" or name == "max":
            if len(node.args) != 2:
                raise NFCompileError(f"{name}() takes exactly two arguments", node.lineno)
            lhs = self._compile_expr(node.args[0])
            rhs = self._compile_expr(node.args[1])
            pred = CmpKind.ULT if name == "min" else CmpKind.UGT
            cond = self.builder.compare(pred, lhs, rhs)
            return self.builder.select(cond, lhs, rhs)
        if name not in self.known_functions:
            raise NFCompileError(f"call to unknown function {name!r}", node.lineno)
        args = [self._compile_expr(arg) for arg in node.args]
        if want_result:
            return self.builder.call(name, args)
        self.builder.call(name, args, void=True)
        return None

    def _compile_havoc(self, node: ast.Call) -> Value:
        if len(node.args) != 2:
            raise NFCompileError(
                "castan_havoc(key, flow_hash16(key)) takes exactly two arguments",
                node.lineno,
            )
        key_node, call_node = node.args
        # Reconciliation solves for the key; concrete execution hashes it.
        hash_of_key = ast.Call(ast.Name(FLOW_HASH_NAME, ast.Load()), [key_node], [])
        if ast.dump(call_node) != ast.dump(hash_of_key):
            raise NFCompileError(
                f"second argument of castan_havoc must be a call to {FLOW_HASH_NAME} "
                "of the havoc's key",
                node.lineno,
            )
        return self.builder.havoc(self._compile_expr(key_node), FLOW_HASH_NAME)

    # -- helpers --------------------------------------------------------------

    def _bind_local(self, name: str, value: Value) -> None:
        """Copy ``value`` into the register backing local ``name``.

        Locals always live in a register named after them, so re-assignment
        inside loops produces a well-defined (if redundant) move; the
        interpreters treat registers as mutable slots, which keeps the
        frontend free of SSA/phi construction.
        """
        register = self.locals.get(name)
        if register is None:
            register = Register(name)
            self.locals[name] = register
        if isinstance(value, Register) and value.name == register.name:
            return
        self.builder.binop(BinOpKind.OR, value, 0, dest=register)

    def _load_name(self, name: str, lineno: int) -> Value:
        if name in self.locals:
            return self.locals[name]
        if name in self.constants:
            return Constant(self.constants[name])
        if name in ("True", "False"):
            return Constant(1 if name == "True" else 0)
        raise NFCompileError(f"use of undefined name {name!r}", lineno)

    def _region_name(self, node: ast.Subscript, lineno: int) -> str:
        if not isinstance(node.value, ast.Name):
            raise NFCompileError("subscripts must index a named memory region", lineno)
        name = node.value.id
        if name not in self.module.regions:
            raise NFCompileError(f"unknown memory region {name!r}", lineno)
        return name
