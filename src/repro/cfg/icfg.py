"""Instruction-level CFG and interprocedural CFG construction.

Nodes are instruction uids (assigned by the module).  Within a basic block
each instruction flows to the next; terminators add block-level edges.  The
interprocedural graph additionally records, for every call site, the callee
and the fall-through instruction to which the callee returns, which is what
the cost annotation needs to account for calling into and returning from
functions (§3.4, footnote 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.instructions import Branch, Call, Havoc, Instruction, Jump, Return
from repro.ir.module import Function, Module


@dataclass
class ControlFlowGraph:
    """Intraprocedural CFG of one function, at instruction granularity."""

    function: Function
    nodes: dict[int, Instruction] = field(default_factory=dict)
    successors: dict[int, list[int]] = field(default_factory=dict)
    predecessors: dict[int, list[int]] = field(default_factory=dict)
    entry_uid: int = -1
    exit_uids: list[int] = field(default_factory=list)
    # uid of a call/havoc instruction -> callee name
    call_sites: dict[int, str] = field(default_factory=dict)
    # first instruction uid of each basic block (loop-head detection, display)
    block_heads: dict[str, int] = field(default_factory=dict)

    def successor_uids(self, uid: int) -> list[int]:
        return self.successors.get(uid, [])

    def predecessor_uids(self, uid: int) -> list[int]:
        return self.predecessors.get(uid, [])

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def build_cfg(function: Function) -> ControlFlowGraph:
    """Build the instruction-level CFG of ``function``."""
    cfg = ControlFlowGraph(function=function)
    for block in function.blocks:
        if block.instructions:
            cfg.block_heads[block.name] = block.instructions[0].uid
        for instruction in block.instructions:
            cfg.nodes[instruction.uid] = instruction
            cfg.successors.setdefault(instruction.uid, [])
            cfg.predecessors.setdefault(instruction.uid, [])

    def add_edge(src: int, dst: int) -> None:
        cfg.successors[src].append(dst)
        cfg.predecessors[dst].append(src)

    for block in function.blocks:
        instructions = block.instructions
        for position, instruction in enumerate(instructions):
            if isinstance(instruction, (Call, Havoc)):
                cfg.call_sites[instruction.uid] = (
                    instruction.callee
                    if isinstance(instruction, Call)
                    else instruction.hash_function
                )
            if isinstance(instruction, Return):
                cfg.exit_uids.append(instruction.uid)
                continue
            if isinstance(instruction, Jump):
                add_edge(instruction.uid, cfg.block_heads[instruction.target])
                continue
            if isinstance(instruction, Branch):
                targets = {instruction.if_true, instruction.if_false}
                for target in targets:
                    add_edge(instruction.uid, cfg.block_heads[target])
                continue
            if position + 1 < len(instructions):
                add_edge(instruction.uid, instructions[position + 1].uid)

    if function.blocks and function.entry_block.instructions:
        cfg.entry_uid = function.entry_block.instructions[0].uid
    return cfg


@dataclass
class InterproceduralCFG:
    """Per-function CFGs plus the call graph of a module."""

    module: Module
    cfgs: dict[str, ControlFlowGraph] = field(default_factory=dict)
    # caller name -> set of callee names
    call_graph: dict[str, set[str]] = field(default_factory=dict)

    def cfg_of(self, function_name: str) -> ControlFlowGraph:
        return self.cfgs[function_name]

    def instruction(self, uid: int) -> Instruction:
        for cfg in self.cfgs.values():
            if uid in cfg.nodes:
                return cfg.nodes[uid]
        raise KeyError(f"no instruction with uid {uid}")

    def callees_in_topological_order(self, entry: str) -> list[str]:
        """Functions reachable from ``entry``, callees before callers.

        Recursion (direct or mutual) raises ``ValueError`` — the NF dialect
        does not allow it and the cost propagation relies on a bottom-up
        traversal.
        """
        order: list[str] = []
        done: set[str] = set()
        # Depth-first with an explicit stack: ``path`` holds the functions
        # being visited, ``callees`` the unvisited callees of each.
        path = [entry]
        callees = [iter(sorted(self.call_graph.get(entry, ())))]
        while path:
            callee = next(callees[-1], None)
            if callee is None:
                callees.pop()
                done.add(path[-1])
                order.append(path.pop())
            elif callee in path:
                cycle = " -> ".join(path + [callee])
                raise ValueError(f"recursive call cycle in NF: {cycle}")
            elif callee not in done:
                path.append(callee)
                callees.append(iter(sorted(self.call_graph.get(callee, ()))))
        return order

    @property
    def total_nodes(self) -> int:
        return sum(cfg.node_count for cfg in self.cfgs.values())


def build_icfg(module: Module) -> InterproceduralCFG:
    """Build per-function CFGs and the call graph for ``module``."""
    icfg = InterproceduralCFG(module=module)
    for name, function in module.functions.items():
        cfg = build_cfg(function)
        icfg.cfgs[name] = cfg
        icfg.call_graph[name] = set(cfg.call_sites.values())
    return icfg
