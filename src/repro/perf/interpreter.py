"""Concrete NFIL interpreter with cycle accounting (the simulated DUT CPU).

The interpreter executes the *same* NFIL module that CASTAN analysed, with
concrete packet field values, against the simulated memory hierarchy.  Per
packet it reports reference cycles, instructions retired, loads/stores and
the cache level servicing every access — the quantities the paper measures
with hardware performance counters.  ``castan_havoc`` annotations behave as
in production builds: the hash function is simply called.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.hierarchy import MemoryHierarchy
from repro.ir.decode import (
    BINOP,
    BRANCH,
    CALL,
    FALL_OFF,
    HAVOC,
    JUMP,
    LOAD,
    RETURN,
    SELECT,
    STORE,
    UNREACHABLE,
    DecodedFunction,
    decode_module,
)
from repro.ir.instructions import BINOP_FUNCS, CMP_FUNCS
from repro.ir.module import MemoryRegion, Module
from repro.ir.values import MACHINE_MASK
from repro.net.packet import Packet
from repro.perf.counters import PacketCounters
from repro.perf.cycles import CycleCosts, DEFAULT_CYCLE_COSTS

_OPERATORS = {**BINOP_FUNCS, **CMP_FUNCS}


class ExecutionError(RuntimeError):
    """Raised when the concrete interpreter hits an illegal operation."""


@dataclass
class ExecutionResult:
    """Counters for a sequence of processed packets."""

    per_packet: list[PacketCounters] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(c.cycles for c in self.per_packet)

    @property
    def packet_count(self) -> int:
        return len(self.per_packet)


class ConcreteInterpreter:
    """Executes an NFIL module packet-by-packet on the simulated hierarchy.

    On first use the module is decoded once (:mod:`repro.ir.decode`) over
    plain integers; a havoc runs as the call it annotates.

    NF memory holds only the cells written since boot (unwritten cells read
    their region's initial value).  :meth:`snapshot_state` and
    :meth:`restore_state` therefore copy what the NF wrote plus the lines
    resident in the hierarchy, and restore the hierarchy *in place*: a
    hierarchy the caller passed in stays the one being used.
    """

    def __init__(
        self,
        module: Module,
        entry: str,
        hierarchy: MemoryHierarchy | None = None,
        cycle_costs: CycleCosts = DEFAULT_CYCLE_COSTS,
        max_instructions_per_packet: int = 2_000_000,
    ) -> None:
        self.module = module
        self.entry = entry
        self.hierarchy = hierarchy or MemoryHierarchy()
        self.cycle_costs = cycle_costs
        self.max_instructions_per_packet = max_instructions_per_packet
        self._entry_function = module.get_function(entry)
        self._level_costs = {
            level: cycle_costs.memory_cost(level) for level in MemoryHierarchy.LEVELS
        }
        self._code: dict[str, DecodedFunction] | None = None
        # Persistent NF state: region -> {index: value} of the written cells.
        self._memory: dict[str, dict[int, int]] = {name: {} for name in module.regions}

    # -- state management ------------------------------------------------------

    def reset(self) -> None:
        """Reset NF state and cold-start the caches (fresh DUT boot)."""
        self._memory = {name: {} for name in self.module.regions}
        self.hierarchy.reset_caches()

    def snapshot_state(self) -> object:
        """Capture NF memory + cache state for :meth:`restore_state`.

        Used by the scoring replay layer to prime an NF with an adversarial
        workload once and then measure many independent probe packets from
        the identical primed state.
        """
        memory = {name: dict(cells) for name, cells in self._memory.items()}
        return memory, self.hierarchy.snapshot()

    def restore_state(self, snapshot: object) -> None:
        """Restore a :meth:`snapshot_state` capture (reusable any number of times)."""
        memory, hierarchy = snapshot
        self._memory = {name: dict(cells) for name, cells in memory.items()}
        self.hierarchy.restore(hierarchy)

    def read_region(self, region_name: str, index: int) -> int:
        """Inspect NF state (tests and examples)."""
        region = self.module.get_region(region_name)
        return self._memory[region_name].get(index, region.initial.get(index, 0))

    # -- packet processing -------------------------------------------------------

    def process_packet(self, packet: Packet) -> PacketCounters:
        """Process one packet through the entry function."""
        args = [packet.src_ip, packet.dst_ip, packet.src_port, packet.dst_port, packet.protocol]
        return self.call_entry(args)

    def process_packets(self, packets: list[Packet]) -> ExecutionResult:
        """Process a packet sequence, threading NF state across packets."""
        result = ExecutionResult()
        for packet in packets:
            result.per_packet.append(self.process_packet(packet))
        return result

    def call_entry(self, args: list[int]) -> PacketCounters:
        """Call the entry function with raw integer arguments."""
        params = self._entry_function.params
        if len(args) != len(params):
            raise ExecutionError(f"entry {self.entry!r} takes {len(params)} args, got {len(args)}")
        counters = PacketCounters()
        value = self._run_function(self._decoded(self.entry), args, counters, depth=0)
        counters.action = value
        return counters

    def call_function(self, name: str, args: list[int]) -> int:
        """Call an arbitrary module function concretely (no counters kept)."""
        return self._run_function(self._decoded(name), args, PacketCounters(), depth=0)

    # -- decoding -------------------------------------------------------------------

    def _decoded(self, name: str) -> DecodedFunction:
        if self._code is None:
            self._code = decode_module(self.module, self.cycle_costs, _OPERATORS, int)
        if name not in self._code:
            raise KeyError(f"module {self.module.name!r} has no function {name!r}")
        return self._code[name]

    # -- interpreter core -----------------------------------------------------------

    def _run_function(
        self, code: DecodedFunction, args: list[int], counters: PacketCounters, depth: int
    ) -> int:
        if depth > 64:
            raise ExecutionError("call depth limit exceeded")
        name, params, blocks = code.name, code.params, code.blocks
        registers = {param: arg & MACHINE_MASK for param, arg in zip(params, args)}
        memory = self._memory
        budget = self.max_instructions_per_packet
        block = blocks[0]
        index = 0
        executed = 0
        cycles = 0
        # Decoding resolved every block, region and callee, so a KeyError in
        # this loop can only be a read of a register nothing has written.
        try:
            while True:
                instruction = block[index]
                op = instruction[0]
                executed += 1
                if executed > budget:
                    if op == FALL_OFF:
                        raise ExecutionError(
                            f"fell off the end of block {instruction[1]!r} in {name}"
                        )
                    raise ExecutionError(f"instruction budget exceeded in {name}")
                if op == BINOP:
                    _, dest, apply, lhs_reg, lhs, rhs_reg, rhs, cost = instruction
                    registers[dest] = apply(
                        registers[lhs] if lhs_reg else lhs, registers[rhs] if rhs_reg else rhs
                    )
                    cycles += cost
                    index += 1
                elif op == BRANCH:
                    _, cond_reg, cond, if_true, if_false, cost = instruction
                    cycles += cost
                    block = blocks[if_true if (registers[cond] if cond_reg else cond) else if_false]
                    index = 0
                elif op == LOAD:
                    _, dest, element_reg, element, region = instruction
                    if element_reg:
                        element = registers[element]
                    cycles += self._access(region, element, counters)
                    counters.loads += 1
                    value = memory[region.name].get(element)
                    registers[dest] = region.initial.get(element, 0) if value is None else value
                    index += 1
                elif op == JUMP:
                    _, target, cost = instruction
                    cycles += cost
                    block = blocks[target]
                    index = 0
                elif op == SELECT:
                    _, dest, cond_reg, cond, yes_reg, yes, no_reg, no, cost = instruction
                    if registers[cond] if cond_reg else cond:
                        registers[dest] = registers[yes] if yes_reg else yes
                    else:
                        registers[dest] = registers[no] if no_reg else no
                    cycles += cost
                    index += 1
                elif op == STORE:
                    _, element_reg, element, region, value_reg, value = instruction
                    if element_reg:
                        element = registers[element]
                    cycles += self._access(region, element, counters, is_write=True)
                    counters.stores += 1
                    if value_reg:
                        value = registers[value]
                    memory[region.name][element] = value & MACHINE_MASK
                    index += 1
                elif op == CALL or op == HAVOC:
                    # Production semantics: a havoc just calls the annotated hash function.
                    _, dest, callee, operands, cost = instruction
                    cycles += cost
                    value = self._run_function(
                        callee,
                        [registers[arg] if is_reg else arg for is_reg, arg in operands],
                        counters,
                        depth + 1,
                    )
                    if dest is not None:
                        registers[dest] = value
                    index += 1
                elif op == RETURN:
                    _, value_reg, value, cost = instruction
                    counters.instructions += executed
                    counters.cycles += cycles + cost
                    return registers[value] if value_reg else value
                elif op == UNREACHABLE:
                    raise ExecutionError(f"reached unreachable in {name}")
                else:
                    raise ExecutionError(f"fell off the end of block {instruction[1]!r} in {name}")
        except KeyError as exc:
            raise ExecutionError(f"read of undefined register %{exc.args[0]} in {name}") from None

    # -- helpers ------------------------------------------------------------------------

    def _access(
        self, region: MemoryRegion, element: int, counters: PacketCounters, is_write: bool = False
    ) -> int:
        """Bounds-check one element access, run it on the hierarchy, return its cycles."""
        if not (0 <= element < region.length):
            raise ExecutionError(
                f"out-of-bounds access to @{region.name}[{element}] (length {region.length})"
            )
        level = self.hierarchy.access(region.address_of(element), is_write=is_write)
        if level == "L1":
            counters.l1_hits += 1
        elif level == "L2":
            counters.l2_hits += 1
        elif level == "L3":
            counters.l3_hits += 1
        else:
            counters.l3_misses += 1
        return self._level_costs[level]

