"""Per-instruction and per-memory-level cycle costs (§3.3).

The paper assigns each non-memory instruction "a fixed per-instruction cost
learned empirically" and each memory access "a fixed per-memory-level cost".
The defaults below follow published latencies for the Ivy Bridge-EP part
used in the paper (L1 ≈ 4 cycles, L2 ≈ 12, L3 ≈ 40, DRAM ≈ 200) and small
fixed ALU costs.  Both the CASTAN cost heuristic and the concrete DUT
interpreter read from the same table, so the analysis optimises the very
metric the testbed measures.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.ir.instructions import (
    BinaryOp,
    BinOpKind,
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


@dataclass(frozen=True)
class CycleCosts:
    """Cycle cost table for the simulated processor."""

    alu: int = 1
    mul: int = 3
    div: int = 20
    compare: int = 1
    select: int = 1
    branch: int = 2
    jump: int = 1
    call_overhead: int = 5
    return_cost: int = 2
    hash_call: int = 30
    l1_hit: int = 4
    l2_hit: int = 12
    l3_hit: int = 40
    dram: int = 200
    frequency_ghz: float = 3.3

    def __post_init__(self) -> None:
        # Latency divides by the frequency; an int of 400 digits is no float.
        if not 0 < self.frequency_ghz <= sys.float_info.max:
            raise ValueError(f"frequency_ghz must be finite and > 0, got {self.frequency_ghz!r}")
        # 3 and 3.0 price cycles alike, so they share one content address.
        object.__setattr__(self, "frequency_ghz", float(self.frequency_ghz))

    def memory_cost(self, level: str) -> int:
        """Cycle cost of a memory access serviced at ``level``.

        ``level`` is one of ``"L1"``, ``"L2"``, ``"L3"``, ``"DRAM"``.
        """
        return {
            "L1": self.l1_hit,
            "L2": self.l2_hit,
            "L3": self.l3_hit,
            "DRAM": self.dram,
        }[level]

    def instruction_cost(self, instruction: Instruction, memory_level: str = "L1") -> int:
        """Cycle cost of one instruction.

        Memory instructions are charged the cost of the level that services
        them (defaults to L1, which is what the §3.4 pre-processing stage
        assumes); all other instructions are charged their fixed cost.
        """
        if isinstance(instruction, (Load, Store)):
            return self.memory_cost(memory_level)
        if isinstance(instruction, BinaryOp):
            if instruction.op is BinOpKind.MUL:
                return self.mul
            if instruction.op in (BinOpKind.UDIV, BinOpKind.UREM):
                return self.div
            return self.alu
        if isinstance(instruction, Compare):
            return self.compare
        if isinstance(instruction, Select):
            return self.select
        if isinstance(instruction, Branch):
            return self.branch
        if isinstance(instruction, Jump):
            return self.jump
        if isinstance(instruction, Call):
            return self.call_overhead
        if isinstance(instruction, Havoc):
            # In production a havoc is a hash-function call.
            return self.call_overhead
        if isinstance(instruction, Return):
            return self.return_cost
        if isinstance(instruction, Unreachable):
            return 0
        return self.alu

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert a cycle count into nanoseconds at the DUT frequency."""
        return cycles / self.frequency_ghz


DEFAULT_CYCLE_COSTS = CycleCosts()
