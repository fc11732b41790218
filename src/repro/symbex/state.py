"""Execution states for the symbolic engine.

A state captures everything needed to continue one execution path: the call
stack (with register values), the overlay of symbolic memory writes, the
path constraints, the cache-model state, cycle/instruction counters, the
per-packet metric history and the havoc records collected so far.

States fork at branches on symbolic conditions.  Forking is **copy-on-write**:
frames, register files and memory overlays are shared between parent and
child until one of them writes, and path constraints live in a persistent
parent-linked log inside the state's
:class:`~repro.symbex.incremental.SolverContext`.  A fork is therefore
O(call depth) instead of O(everything the path ever touched).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.symbex.expr import Const, Expr
from repro.symbex.havoc import HavocRecord

if TYPE_CHECKING:  # pragma: no cover - avoid a package-level import cycle
    from repro.cache.model import CacheModel
    from repro.symbex.incremental import SolverContext


class StateStatus(enum.Enum):
    """Lifecycle of an execution state."""

    RUNNING = "running"
    PAUSED = "paused"  # stopped at a packet (round) boundary; resumable
    COMPLETED = "completed"  # processed every symbolic packet
    INFEASIBLE = "infeasible"  # both branch directions contradicted the path
    ERROR = "error"  # executed an illegal operation or exceeded limits


@dataclass
class Frame:
    """One activation record on a state's call stack.

    Register files go copy-on-write across :meth:`copy`: the copy shares the
    ``registers`` dict with the original and both sides clone it on their
    first subsequent write (:meth:`write_register`).  All register writes
    must go through that method.
    """

    function: str
    block: int  # index into the function's decoded blocks
    index: int = 0
    registers: dict[str, Expr] = field(default_factory=dict)
    # Register (name) in the *caller's* frame that receives our return value.
    return_target: str | None = None
    # How many times each loop-head block (by index) has been entered in this
    # frame (guards against runaway loops under optimistic feasibility checks).
    loop_visits: dict[int, int] = field(default_factory=dict)
    # True while ``registers`` may be shared with a copy of this frame.
    registers_shared: bool = False

    def copy(self) -> "Frame":
        self.registers_shared = True
        return Frame(
            function=self.function,
            block=self.block,
            index=self.index,
            registers=self.registers,
            return_target=self.return_target,
            loop_visits=dict(self.loop_visits),
            registers_shared=True,
        )

    def write_register(self, name: str, value: Expr) -> None:
        if self.registers_shared:
            self.registers = dict(self.registers)
            self.registers_shared = False
        self.registers[name] = value


@dataclass
class PacketMetrics:
    """Estimated per-packet CPU-model metrics for one processed packet."""

    packet_index: int
    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    l1_hits: int = 0
    l3_hits: int = 0
    dram_accesses: int = 0
    action: int | None = None


class ExecutionState:
    """One path through the NF across a sequence of symbolic packets.

    ``ids`` numbers the state and every state forked from it (``sid``, which
    names its havoc symbols); each analysis's initial state gets a fresh
    counter, so the names do not depend on what else the process ran.
    """

    def __init__(
        self,
        cache_model: "CacheModel",
        num_packets: int,
        solver_context: "SolverContext",
        ids: Iterator[int],
    ) -> None:
        self._ids = ids
        self.sid = next(ids)
        self._frames: list[Frame] = []
        self._frames_owned: list[bool] = []
        self._memory: dict[str, dict[int, Expr]] = {}
        self._owned_regions: set[str] = set()
        self.solver_context = solver_context
        self.cache_model = cache_model
        self.num_packets = num_packets
        self.packets_processed = 0
        self.status = StateStatus.RUNNING
        self.error_message = ""

        # Cost model bookkeeping (the "current cost" of §3.1/§3.3).
        self.current_cost = 0
        self.priority = 0
        self.preferred_loop_iteration = False

        # Counters for the per-path CPU-model metrics output (§4).
        self.instructions_retired = 0
        self.loads = 0
        self.stores = 0
        self.level_counts: dict[str, int] = {"L1": 0, "L2": 0, "L3": 0, "DRAM": 0}
        self.packet_metrics: list[PacketMetrics] = []
        self._packet_start_snapshot = self._counters_snapshot()

        # Havoc records and packet return actions.
        self.havoc_records: list[HavocRecord] = []
        self.packet_actions: list[Expr] = []

        self._fresh_symbol_counter = 0

        # Per-stage cost attribution for chain NFs: label -> cycles spent
        # inside that stage's entry (plus callees), across all packets.
        # active_stage/stage_cost_base track the currently open window.
        self.stage_costs: dict[str, int] = {}
        self.active_stage: str | None = None
        self.stage_cost_base = 0

    # -- lifecycle ------------------------------------------------------------

    def fork(self) -> "ExecutionState":
        """Create an independent copy of this state (copy-on-write)."""
        child = ExecutionState.__new__(ExecutionState)
        child._ids = self._ids
        child.sid = next(self._ids)
        # Frames and memory overlays are shared until either side writes.
        child._frames = list(self._frames)
        child._frames_owned = [False] * len(self._frames)
        self._frames_owned = [False] * len(self._frames)
        child._memory = dict(self._memory)
        child._owned_regions = set()
        self._owned_regions = set()
        child.solver_context = self.solver_context.fork()
        child.cache_model = self.cache_model.clone()
        child.num_packets = self.num_packets
        child.packets_processed = self.packets_processed
        child.status = self.status
        child.error_message = self.error_message
        child.current_cost = self.current_cost
        child.priority = self.priority
        child.preferred_loop_iteration = False
        child.instructions_retired = self.instructions_retired
        child.loads = self.loads
        child.stores = self.stores
        child.level_counts = dict(self.level_counts)
        child.packet_metrics = list(self.packet_metrics)
        child._packet_start_snapshot = dict(self._packet_start_snapshot)
        child.havoc_records = list(self.havoc_records)
        child.packet_actions = list(self.packet_actions)
        child._fresh_symbol_counter = self._fresh_symbol_counter
        child.stage_costs = dict(self.stage_costs)
        child.active_stage = self.active_stage
        child.stage_cost_base = self.stage_cost_base
        return child

    # -- round (packet-boundary) carry-over -----------------------------------

    def pause_at_round_boundary(self) -> None:
        """Park this state at the packet boundary it just crossed.

        A paused state keeps its NF memory overlays, constraint chain and
        :class:`~repro.symbex.incremental.SolverContext` intact, so the beam
        scheduler can carry it into the next round copy-on-write and resume
        it with :meth:`resume_round`.
        """
        if self.status is not StateStatus.RUNNING:
            raise ValueError(f"cannot pause a {self.status.value} state")
        self.status = StateStatus.PAUSED

    def resume_round(self) -> None:
        """Return a paused state to the running pool for the next round."""
        if self.status is not StateStatus.PAUSED:
            raise ValueError(f"cannot resume a {self.status.value} state")
        self.status = StateStatus.RUNNING

    # -- frames -----------------------------------------------------------------

    @property
    def frames(self) -> list[Frame]:
        """The call stack (read-only view; do not mutate frames directly)."""
        return self._frames

    @property
    def top_frame(self) -> Frame:
        """The active frame, made private to this state (copy-on-write).

        Use this for any mutation of the current frame; use ``frames[-1]``
        for pure reads to avoid triggering the copy.
        """
        frame = self._frames[-1]
        if not self._frames_owned[-1]:
            frame = frame.copy()
            self._frames[-1] = frame
            self._frames_owned[-1] = True
        return frame

    def push_frame(self, frame: Frame) -> None:
        self._frames.append(frame)
        self._frames_owned.append(True)

    def pop_frame(self) -> Frame:
        self._frames_owned.pop()
        return self._frames.pop()

    # -- registers and memory -----------------------------------------------------

    def read_register(self, name: str) -> Expr:
        frame = self._frames[-1]
        try:
            return frame.registers[name]
        except KeyError:
            raise KeyError(
                f"read of undefined register %{name} in {frame.function}"
            ) from None

    def write_register(self, name: str, value: Expr) -> None:
        self.top_frame.write_register(name, value)

    @property
    def memory(self) -> dict[str, dict[int, Expr]]:
        """Memory overlays (read-only view; write via :meth:`write_memory`)."""
        return self._memory

    def read_memory(self, region_name: str, index: int, default: int = 0) -> Expr:
        overlay = self._memory.get(region_name)
        if overlay is not None and index in overlay:
            return overlay[index]
        return Const(default)

    def write_memory(self, region_name: str, index: int, value: Expr) -> None:
        cells = self._memory.get(region_name)
        if cells is None:
            cells = {}
            self._memory[region_name] = cells
            self._owned_regions.add(region_name)
        elif region_name not in self._owned_regions:
            cells = dict(cells)
            self._memory[region_name] = cells
            self._owned_regions.add(region_name)
        cells[index] = value

    # -- constraints and symbols ----------------------------------------------------

    @property
    def constraints(self) -> list[Expr]:
        """Path constraints, oldest first (treat as read-only)."""
        return self.solver_context.constraints()

    def add_constraint(self, constraint: Expr) -> None:
        if not isinstance(constraint, Const):
            self.solver_context.add(constraint)

    def fresh_symbol_name(self, prefix: str) -> str:
        self._fresh_symbol_counter += 1
        return f"{prefix}.{self.sid}.{self._fresh_symbol_counter}"

    # -- per-packet metrics -----------------------------------------------------------

    def _counters_snapshot(self) -> dict[str, int]:
        return {
            "cycles": self.current_cost,
            "instructions": self.instructions_retired,
            "loads": self.loads,
            "stores": self.stores,
            "L1": self.level_counts["L1"],
            "L3": self.level_counts["L3"],
            "DRAM": self.level_counts["DRAM"],
        }

    def begin_packet(self) -> None:
        self._packet_start_snapshot = self._counters_snapshot()

    def finish_packet(self, action: Expr) -> None:
        snapshot = self._packet_start_snapshot
        current = self._counters_snapshot()
        action_value = action.value if isinstance(action, Const) else None
        self.packet_metrics.append(
            PacketMetrics(
                packet_index=self.packets_processed,
                cycles=current["cycles"] - snapshot["cycles"],
                instructions=current["instructions"] - snapshot["instructions"],
                loads=current["loads"] - snapshot["loads"],
                stores=current["stores"] - snapshot["stores"],
                l1_hits=current["L1"] - snapshot["L1"],
                l3_hits=current["L3"] - snapshot["L3"],
                dram_accesses=current["DRAM"] - snapshot["DRAM"],
                action=action_value,
            )
        )
        self.packet_actions.append(action)
        self.packets_processed += 1

    # -- debugging ---------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"<State {self.sid} {self.status.value} packets={self.packets_processed}/"
            f"{self.num_packets} cost={self.current_cost} constraints={len(self.constraints)}>"
        )
