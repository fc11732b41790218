"""The decoded form of an NFIL module, stepped by both interpreters.

Decoding turns every instruction into a flat tuple that an interpreter's
step loop unpacks without looking anything up: an integer opcode first,
operands as ``(is_register, register name or constant)`` pairs, branch
targets as block indices, memory regions and callees resolved, and the
instruction's fixed cycle cost from :meth:`CycleCosts.instruction_cost`
(memory instructions carry none: their level decides).  Every block ends
in a :data:`FALL_OFF` sentinel.

The two interpreters differ only in their operand domain, which the caller
supplies: an operator table (``BinOpKind`` / ``CmpKind`` -> a two-argument
callable, stored in each binary-op entry so a step makes one call) and a
constant converter (``int`` for the concrete interpreter, ``Const`` for the
symbolic engine).

Entry layouts::

    (BINOP, dest, apply, lhs_reg, lhs, rhs_reg, rhs, cost)      binary op and compare
    (SELECT, dest, cond_reg, cond, yes_reg, yes, no_reg, no, cost)
    (LOAD, dest, index_reg, index, region)
    (STORE, index_reg, index, region, value_reg, value)
    (CALL, dest, callee, args, cost)                            dest may be None
    (HAVOC, dest, callee, args, cost, key_reg, key)             callee: the hash function
    (JUMP, target, cost)
    (BRANCH, cond_reg, cond, if_true, if_false, cost)
    (RETURN, value_reg, value, cost)                            a void return yields 0
    (UNREACHABLE,)
    (FALL_OFF, block_name)

``callee`` is the callee's :class:`DecodedFunction`; ``args`` is a tuple of
operand pairs.  A havoc's cost is the production call's ``call_overhead``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.ir.instructions import (
    BinaryOp,
    Branch,
    Call,
    Compare,
    Havoc,
    Instruction,
    Jump,
    Load,
    Return,
    Select,
    Store,
    Unreachable,
)
from repro.ir.module import Module
from repro.ir.values import Constant, Register, Value

if TYPE_CHECKING:  # pragma: no cover - repro.perf imports the IR
    from repro.perf.cycles import CycleCosts

BINOP, BRANCH, LOAD, JUMP, SELECT, STORE, CALL, HAVOC, RETURN, UNREACHABLE, FALL_OFF = range(11)


class DecodedFunction(NamedTuple):
    """One decoded function.

    ``blocks[i]`` holds block ``i``'s entries (the sentinel last),
    ``block_names[i]`` its name and ``uids[i]`` its instructions' uids (no
    entry for the sentinel).  Block 0 is the entry block.
    """

    name: str
    params: list[str]
    blocks: list[list[tuple]]
    block_names: list[str]
    uids: list[list[int]]


def decode_module(
    module: Module,
    costs: "CycleCosts",
    operators: dict[object, Callable],
    constant: Callable[[int], object],
) -> dict[str, DecodedFunction]:
    """Decode every function of ``module`` under ``costs``'s fixed costs."""

    def operand(value: Value) -> tuple[bool, object]:
        if isinstance(value, Register):
            return True, value.name
        if isinstance(value, Constant):
            return False, constant(value.value)
        raise TypeError(f"unsupported operand {value!r}")

    def callee_of(name: str) -> DecodedFunction:
        if name not in decoded:
            raise KeyError(f"module {module.name!r} has no function {name!r}")
        return decoded[name]

    def decode(instruction: Instruction, block_index: dict[str, int]) -> tuple:
        cost = costs.instruction_cost(instruction)
        if isinstance(instruction, (BinaryOp, Compare)):
            kind = instruction.op if isinstance(instruction, BinaryOp) else instruction.pred
            dest = instruction.dest.name
            lhs, rhs = operand(instruction.lhs), operand(instruction.rhs)
            return (BINOP, dest, operators[kind], *lhs, *rhs, cost)
        if isinstance(instruction, Select):
            cond = operand(instruction.cond)
            yes, no = operand(instruction.if_true), operand(instruction.if_false)
            return (SELECT, instruction.dest.name, *cond, *yes, *no, cost)
        if isinstance(instruction, Load):
            region = module.get_region(instruction.region)
            return (LOAD, instruction.dest.name, *operand(instruction.index), region)
        if isinstance(instruction, Store):
            region = module.get_region(instruction.region)
            return (STORE, *operand(instruction.index), region, *operand(instruction.value))
        if isinstance(instruction, Call):
            dest = None if instruction.dest is None else instruction.dest.name
            args = tuple(operand(arg) for arg in instruction.args)
            return (CALL, dest, callee_of(instruction.callee), args, cost)
        if isinstance(instruction, Havoc):
            args = tuple(operand(arg) for arg in instruction.args)
            callee = callee_of(instruction.hash_function)
            return (HAVOC, instruction.dest.name, callee, args, cost, *operand(instruction.key))
        if isinstance(instruction, Jump):
            return (JUMP, block_index[instruction.target], cost)
        if isinstance(instruction, Branch):
            targets = block_index[instruction.if_true], block_index[instruction.if_false]
            return (BRANCH, *operand(instruction.cond), *targets, cost)
        if isinstance(instruction, Return):
            if instruction.value is None:
                return (RETURN, False, constant(0), cost)
            return (RETURN, *operand(instruction.value), cost)
        if isinstance(instruction, Unreachable):
            return (UNREACHABLE,)
        raise TypeError(f"unknown instruction {instruction!r}")

    decoded = {
        name: DecodedFunction(
            name,
            list(function.params),
            [],
            [block.name for block in function.blocks],
            [[ins.uid for ins in block.instructions] for block in function.blocks],
        )
        for name, function in module.functions.items()
    }
    for name, function in module.functions.items():
        code = decoded[name]
        block_index = {block_name: index for index, block_name in enumerate(code.block_names)}
        for block in function.blocks:
            entries = [decode(instruction, block_index) for instruction in block.instructions]
            entries.append((FALL_OFF, block.name))
            code.blocks.append(entries)
    return decoded
