"""Potential-cost annotation of the ICFG (§3.4).

For every instruction we estimate the maximum number of cycles that can
still be consumed from that instruction until the entry function returns
(i.e. until "the next packet is received").  The estimate assumes every
memory access is an L1 hit — the cache model refines memory costs during
symbolic execution — and bounds loops by allowing each node to appear at
most ``M`` times on a path (the paper's static "every loop executes exactly
M-1 times" assumption).

The propagation is the paper's "special form of path-vector routing": each
node keeps its best known path (as a multiset of node occurrences) to the
function return, advertises it to predecessors, and a predecessor only
accepts a path in which it already appears fewer than ``M`` times.
Functions are processed bottom-up over the call graph so a call site's
local cost includes the callee's own worst-case internal cost, accounting
for both calling into and returning from it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from repro.cfg.icfg import ControlFlowGraph, InterproceduralCFG, build_icfg
from repro.ir.instructions import Call, Havoc
from repro.ir.module import Module
from repro.perf.cycles import CycleCosts, DEFAULT_CYCLE_COSTS

DEFAULT_LOOP_BOUND = 2


@dataclass
class CostAnnotation:
    """Potential costs for every instruction of a module."""

    module: Module
    icfg: InterproceduralCFG
    loop_bound: int
    cycle_costs: CycleCosts
    # instruction uid -> estimated max cycles from (and including) that
    # instruction to the return of its enclosing function, interprocedural.
    potential_cost: dict[int, int] = field(default_factory=dict)
    # function name -> worst-case internal cost (entry to return)
    function_cost: dict[str, int] = field(default_factory=dict)
    # instruction uid -> local cost used during propagation
    local_cost: dict[int, int] = field(default_factory=dict)

    def cost_of(self, uid: int) -> int:
        """Potential cost of the instruction with ``uid`` (0 if unknown)."""
        return self.potential_cost.get(uid, 0)

    def entry_cost(self, function_name: str) -> int:
        """Worst-case cost of executing ``function_name`` once."""
        return self.function_cost.get(function_name, 0)


def annotate_costs(
    module: Module,
    entry: str,
    loop_bound: int = DEFAULT_LOOP_BOUND,
    cycle_costs: CycleCosts = DEFAULT_CYCLE_COSTS,
) -> CostAnnotation:
    """Annotate every reachable instruction with its potential cost."""
    if loop_bound < 1:
        raise ValueError("loop bound M must be at least 1")
    icfg = build_icfg(module)
    annotation = CostAnnotation(
        module=module,
        icfg=icfg,
        loop_bound=loop_bound,
        cycle_costs=cycle_costs,
    )
    order = icfg.callees_in_topological_order(entry)
    for function_name in order:  # callees first
        cfg = icfg.cfg_of(function_name)
        _annotate_function(annotation, cfg)
        entry_uid = cfg.entry_uid
        annotation.function_cost[function_name] = (
            annotation.potential_cost.get(entry_uid, 0) if entry_uid >= 0 else 0
        )
    return annotation


def _local_cost(annotation: CostAnnotation, cfg: ControlFlowGraph, uid: int) -> int:
    """Cycle cost of one node, folding callee costs into call sites."""
    instruction = cfg.nodes[uid]
    cost = annotation.cycle_costs.instruction_cost(instruction, memory_level="L1")
    if isinstance(instruction, (Call, Havoc)):
        callee = cfg.call_sites.get(uid)
        if callee is not None:
            cost += annotation.function_cost.get(callee, 0)
    return cost


def _annotate_function(annotation: CostAnnotation, cfg: ControlFlowGraph) -> None:
    """Bounded path-vector propagation over one function's CFG."""
    loop_bound = annotation.loop_bound
    local: dict[int, int] = {}
    for uid in cfg.nodes:
        local[uid] = _local_cost(annotation, cfg, uid)
        annotation.local_cost[uid] = local[uid]

    # best[uid] = (cost, occurrence Counter of the best path starting at uid)
    best: dict[int, tuple[int, Counter]] = {}
    worklist: deque[int] = deque()
    queued: set[int] = set()

    for uid in cfg.exit_uids:
        best[uid] = (local[uid], Counter({uid: 1}))
        for pred in cfg.predecessor_uids(uid):
            if pred not in queued:
                worklist.append(pred)
                queued.add(pred)

    # Nodes with no successors that are not returns (e.g. trailing
    # unreachable) still get their local cost.
    for uid, successors in cfg.successors.items():
        if not successors and uid not in best:
            best[uid] = (local[uid], Counter({uid: 1}))
            for pred in cfg.predecessor_uids(uid):
                if pred not in queued:
                    worklist.append(pred)
                    queued.add(pred)

    iterations = 0
    max_iterations = max(1000, cfg.node_count * cfg.node_count * loop_bound * 4)
    while worklist:
        iterations += 1
        if iterations > max_iterations:
            # Safety valve: fall back to whatever has been computed so far.
            break
        uid = worklist.popleft()
        queued.discard(uid)
        candidate: tuple[int, Counter] | None = None
        for successor in cfg.successor_uids(uid):
            successor_best = best.get(successor)
            if successor_best is None:
                continue
            successor_cost, successor_path = successor_best
            if successor_path.get(uid, 0) >= loop_bound:
                continue
            cost = local[uid] + successor_cost
            if candidate is None or cost > candidate[0]:
                new_path = Counter(successor_path)
                new_path[uid] += 1
                candidate = (cost, new_path)
        if candidate is None:
            # All successor paths already contain this node M times: the
            # node can still advertise just its own local cost.
            candidate = (local[uid], Counter({uid: 1}))
        current = best.get(uid)
        if current is None or candidate[0] > current[0]:
            best[uid] = candidate
            for pred in cfg.predecessor_uids(uid):
                if pred not in queued:
                    worklist.append(pred)
                    queued.add(pred)

    for uid in cfg.nodes:
        if uid in best:
            annotation.potential_cost[uid] = best[uid][0]
        else:
            # Unreachable-from-exit nodes (e.g. infinite loops, which the
            # dialect should not produce) get their local cost only.
            annotation.potential_cost[uid] = local[uid]


def render_annotated_cfg(annotation: CostAnnotation, function_name: str) -> str:
    """Render one function with per-instruction potential costs.

    Mirrors the paper's Fig. 2: every node shows its estimated maximum
    distance (in cycles) to the function's return point.
    """
    cfg = annotation.icfg.cfg_of(function_name)
    lines = [f"func @{function_name} (potential cost, M={annotation.loop_bound})"]
    for block in cfg.function.blocks:
        lines.append(f"{block.name}:")
        for instruction in block.instructions:
            cost = annotation.potential_cost.get(instruction.uid, 0)
            lines.append(f"  [{cost:6d}] {instruction}")
    return "\n".join(lines)
