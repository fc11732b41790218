"""Convenience builders for constructing NFIL by hand.

The frontend (:mod:`repro.frontend`) uses these builders when lowering the
restricted-Python NF dialect, and tests/examples use them directly when a
tiny hand-written function is clearer than compiling source.
"""

from __future__ import annotations

from repro.ir.instructions import (
    BinaryOp,
    BinOpKind,
    Branch,
    Call,
    CmpKind,
    Compare,
    Havoc,
    Jump,
    Load,
    Return,
    Select,
    Store,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Register, Value, as_value


class FunctionBuilder:
    """Builds one NFIL function block-by-block.

    The builder tracks a *current block*; instruction-emitting methods
    append to it and return the destination register (when there is one).
    """

    def __init__(self, name: str, params: list[str] | None = None) -> None:
        self.function = Function(name=name, params=list(params or []))
        self._block: BasicBlock | None = None
        self._temp_counter = 0
        self._block_counter = 0

    # -- registers and blocks ---------------------------------------------

    def param(self, name: str) -> Register:
        if name not in self.function.params:
            raise KeyError(f"{self.function.name!r} has no parameter {name!r}")
        return Register(name)

    def fresh_register(self, hint: str = "t") -> Register:
        self._temp_counter += 1
        return Register(f"{hint}.{self._temp_counter}")

    def fresh_block_name(self, hint: str = "bb") -> str:
        self._block_counter += 1
        return f"{hint}.{self._block_counter}"

    def block(self, name: str | None = None) -> BasicBlock:
        """Create a new basic block (does not switch to it)."""
        return self.function.add_block(name or self.fresh_block_name())

    def switch_to(self, block: BasicBlock) -> BasicBlock:
        """Make ``block`` the current insertion point."""
        self._block = block
        return block

    @property
    def current_block(self) -> BasicBlock:
        if self._block is None:
            raise RuntimeError("no current block; call switch_to() first")
        return self._block

    @property
    def current_terminated(self) -> bool:
        return self._block is not None and self._block.is_terminated

    # -- instruction emitters ---------------------------------------------

    def _emit(self, instruction):
        return self.current_block.append(instruction)

    def binop(self, op: BinOpKind, lhs, rhs, dest: Register | None = None) -> Register:
        dest = dest or self.fresh_register()
        self._emit(BinaryOp(dest=dest, op=op, lhs=as_value(lhs), rhs=as_value(rhs)))
        return dest

    def add(self, lhs, rhs, dest: Register | None = None) -> Register:
        return self.binop(BinOpKind.ADD, lhs, rhs, dest)

    def sub(self, lhs, rhs, dest: Register | None = None) -> Register:
        return self.binop(BinOpKind.SUB, lhs, rhs, dest)

    def mul(self, lhs, rhs, dest: Register | None = None) -> Register:
        return self.binop(BinOpKind.MUL, lhs, rhs, dest)

    def xor(self, lhs, rhs, dest: Register | None = None) -> Register:
        return self.binop(BinOpKind.XOR, lhs, rhs, dest)

    def shl(self, lhs, rhs, dest: Register | None = None) -> Register:
        return self.binop(BinOpKind.SHL, lhs, rhs, dest)

    def lshr(self, lhs, rhs, dest: Register | None = None) -> Register:
        return self.binop(BinOpKind.LSHR, lhs, rhs, dest)

    def udiv(self, lhs, rhs, dest: Register | None = None) -> Register:
        return self.binop(BinOpKind.UDIV, lhs, rhs, dest)

    def urem(self, lhs, rhs, dest: Register | None = None) -> Register:
        return self.binop(BinOpKind.UREM, lhs, rhs, dest)

    def compare(self, pred: CmpKind, lhs, rhs, dest: Register | None = None) -> Register:
        dest = dest or self.fresh_register("cmp")
        self._emit(Compare(dest=dest, pred=pred, lhs=as_value(lhs), rhs=as_value(rhs)))
        return dest

    def select(self, cond, if_true, if_false, dest: Register | None = None) -> Register:
        dest = dest or self.fresh_register("sel")
        self._emit(
            Select(
                dest=dest,
                cond=as_value(cond),
                if_true=as_value(if_true),
                if_false=as_value(if_false),
            )
        )
        return dest

    def load(self, region: str, index, dest: Register | None = None) -> Register:
        dest = dest or self.fresh_register("ld")
        self._emit(Load(dest=dest, region=region, index=as_value(index)))
        return dest

    def store(self, region: str, index, value) -> None:
        self._emit(Store(region=region, index=as_value(index), value=as_value(value)))

    def call(
        self, callee: str, args: list[Value | int], dest: Register | None = None, void: bool = False
    ) -> Register | None:
        if void:
            self._emit(Call(dest=None, callee=callee, args=[as_value(a) for a in args]))
            return None
        dest = dest or self.fresh_register("call")
        self._emit(Call(dest=dest, callee=callee, args=[as_value(a) for a in args]))
        return dest

    def havoc(self, key, hash_function: str, dest: Register | None = None) -> Register:
        dest = dest or self.fresh_register("hv")
        self._emit(Havoc(dest=dest, key=as_value(key), hash_function=hash_function))
        return dest

    # -- terminators -------------------------------------------------------

    def jump(self, target: BasicBlock | str) -> None:
        name = target.name if isinstance(target, BasicBlock) else target
        self._emit(Jump(target=name))

    def branch(self, cond, if_true: BasicBlock | str, if_false: BasicBlock | str) -> None:
        true_name = if_true.name if isinstance(if_true, BasicBlock) else if_true
        false_name = if_false.name if isinstance(if_false, BasicBlock) else if_false
        self._emit(Branch(cond=as_value(cond), if_true=true_name, if_false=false_name))

    def ret(self, value=None) -> None:
        self._emit(Return(value=None if value is None else as_value(value)))

    def build(self) -> Function:
        return self.function
