"""NFIL instruction set.

The instruction set is deliberately small — arithmetic/logic, compare,
select, load/store against named memory regions, call, havoc, and the three
terminators (jump, branch, return) — because that is all the evaluation NFs
need and it keeps both interpreters and the cost model simple.  Every
instruction knows its operands so the CFG/ICFG layer and the printers can
treat instructions generically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ir.values import MACHINE_BITS, MACHINE_MASK, Register, Value


class BinOpKind(enum.Enum):
    """Arithmetic and bitwise operations (64-bit unsigned semantics)."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    UDIV = "udiv"
    UREM = "urem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    LSHR = "lshr"


class CmpKind(enum.Enum):
    """Comparison predicates (unsigned; result is 0 or 1)."""

    EQ = "eq"
    NE = "ne"
    ULT = "ult"
    ULE = "ule"
    UGT = "ugt"
    UGE = "uge"


#: The 64-bit unsigned semantics of every operator, the one table both
#: interpreters and every concrete evaluator of symbolic expressions use.
#: Division is total: ``x / 0`` is all ones and ``x % 0`` is ``x``; a shift
#: by 64 or more yields 0.
BINOP_FUNCS = {
    BinOpKind.ADD: lambda x, y: (x + y) & MACHINE_MASK,
    BinOpKind.SUB: lambda x, y: (x - y) & MACHINE_MASK,
    BinOpKind.MUL: lambda x, y: (x * y) & MACHINE_MASK,
    BinOpKind.UDIV: lambda x, y: (x // y) & MACHINE_MASK if y else MACHINE_MASK,
    BinOpKind.UREM: lambda x, y: (x % y) & MACHINE_MASK if y else x,
    BinOpKind.AND: lambda x, y: x & y,
    BinOpKind.OR: lambda x, y: x | y,
    BinOpKind.XOR: lambda x, y: x ^ y,
    BinOpKind.SHL: lambda x, y: (x << y) & MACHINE_MASK if y < MACHINE_BITS else 0,
    BinOpKind.LSHR: lambda x, y: x >> y if y < MACHINE_BITS else 0,
}

#: Comparisons yield 0 or 1.
CMP_FUNCS = {
    CmpKind.EQ: lambda x, y: 1 if x == y else 0,
    CmpKind.NE: lambda x, y: 1 if x != y else 0,
    CmpKind.ULT: lambda x, y: 1 if x < y else 0,
    CmpKind.ULE: lambda x, y: 1 if x <= y else 0,
    CmpKind.UGT: lambda x, y: 1 if x > y else 0,
    CmpKind.UGE: lambda x, y: 1 if x >= y else 0,
}


@dataclass
class Instruction:
    """Base class for NFIL instructions.

    ``uid`` is assigned when the instruction is added to a function; it is
    the node identity used by the ICFG and the cost annotation.
    """

    uid: int = field(default=-1, init=False, compare=False)

    @property
    def is_terminator(self) -> bool:
        return False

    @property
    def accesses_memory(self) -> bool:
        return False

    def operands(self) -> list[Value]:
        """Values read by this instruction."""
        return []

    def result(self) -> Register | None:
        """Register written by this instruction (None for void)."""
        return None


@dataclass
class BinaryOp(Instruction):
    """``dest = lhs <op> rhs``."""

    dest: Register
    op: BinOpKind
    lhs: Value
    rhs: Value

    def operands(self) -> list[Value]:
        return [self.lhs, self.rhs]

    def result(self) -> Register | None:
        return self.dest

    def __str__(self) -> str:
        return f"{self.dest} = {self.op.value} {self.lhs}, {self.rhs}"


@dataclass
class Compare(Instruction):
    """``dest = icmp <pred> lhs, rhs`` (dest is 0 or 1)."""

    dest: Register
    pred: CmpKind
    lhs: Value
    rhs: Value

    def operands(self) -> list[Value]:
        return [self.lhs, self.rhs]

    def result(self) -> Register | None:
        return self.dest

    def __str__(self) -> str:
        return f"{self.dest} = icmp {self.pred.value} {self.lhs}, {self.rhs}"


@dataclass
class Select(Instruction):
    """``dest = cond ? if_true : if_false`` without branching."""

    dest: Register
    cond: Value
    if_true: Value
    if_false: Value

    def operands(self) -> list[Value]:
        return [self.cond, self.if_true, self.if_false]

    def result(self) -> Register | None:
        return self.dest

    def __str__(self) -> str:
        return f"{self.dest} = select {self.cond}, {self.if_true}, {self.if_false}"


@dataclass
class Load(Instruction):
    """``dest = load region[index]``.

    ``region`` names a :class:`~repro.ir.module.MemoryRegion`; the byte
    address handed to the cache model is ``region.base + index * region.element_size``.
    """

    dest: Register
    region: str
    index: Value

    @property
    def accesses_memory(self) -> bool:
        return True

    def operands(self) -> list[Value]:
        return [self.index]

    def result(self) -> Register | None:
        return self.dest

    def __str__(self) -> str:
        return f"{self.dest} = load @{self.region}[{self.index}]"


@dataclass
class Store(Instruction):
    """``store region[index] = value``."""

    region: str
    index: Value
    value: Value

    @property
    def accesses_memory(self) -> bool:
        return True

    def operands(self) -> list[Value]:
        return [self.index, self.value]

    def __str__(self) -> str:
        return f"store @{self.region}[{self.index}] = {self.value}"


@dataclass
class Call(Instruction):
    """``dest = call callee(args...)`` (dest may be None for void calls)."""

    dest: Register | None
    callee: str
    args: list[Value] = field(default_factory=list)

    def operands(self) -> list[Value]:
        return list(self.args)

    def result(self) -> Register | None:
        return self.dest

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        prefix = f"{self.dest} = " if self.dest is not None else ""
        return f"{prefix}call @{self.callee}({args})"


@dataclass
class Havoc(Instruction):
    """The ``castan_havoc(input, output, expr)`` annotation (§3.5, §4).

    In production (concrete) execution the instruction behaves exactly like
    ``dest = call hash_function(args...)``.  Under CASTAN analysis the call
    is *not* executed: the symbolic expression of ``key`` is recorded and
    ``dest`` is bound to a fresh unconstrained symbol, to be reconciled with
    rainbow tables in post-processing.
    """

    dest: Register
    key: Value
    hash_function: str
    args: list[Value] = field(default_factory=list)

    def operands(self) -> list[Value]:
        return [self.key, *self.args]

    def result(self) -> Register | None:
        return self.dest

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"{self.dest} = havoc key={self.key} @{self.hash_function}({args})"


@dataclass
class Jump(Instruction):
    """Unconditional branch to ``target`` block."""

    target: str

    @property
    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass
class Branch(Instruction):
    """Conditional branch: non-zero ``cond`` goes to ``if_true``."""

    cond: Value
    if_true: str
    if_false: str

    @property
    def is_terminator(self) -> bool:
        return True

    def operands(self) -> list[Value]:
        return [self.cond]

    def __str__(self) -> str:
        return f"branch {self.cond}, {self.if_true}, {self.if_false}"


@dataclass
class Return(Instruction):
    """Return from the current function (value may be None)."""

    value: Value | None = None

    @property
    def is_terminator(self) -> bool:
        return True

    def operands(self) -> list[Value]:
        return [self.value] if self.value is not None else []

    def __str__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret"


@dataclass
class Unreachable(Instruction):
    """Marks a block that should never execute (used by the verifier)."""

    @property
    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return "unreachable"


TERMINATORS = (Jump, Branch, Return, Unreachable)
