"""Per-path CPU-model metrics emitted alongside each generated workload (§4).

A successful CASTAN run produces, next to the packet sequence, a report of
the expected performance of the selected path: per packet, the number of
non-memory instructions, loads/stores, and how many accesses the cache
model predicts to hit or miss.  These are the numbers developers use to
understand *why* the workload is slow before ever replaying it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.symbex.state import ExecutionState


@dataclass
class PathMetrics:
    """The analysis-side performance prediction for one selected path."""

    packets: int = 0
    total_estimated_cycles: int = 0
    estimated_cycles_per_packet: list[int] = field(default_factory=list)
    instructions_per_packet: list[int] = field(default_factory=list)
    loads_per_packet: list[int] = field(default_factory=list)
    stores_per_packet: list[int] = field(default_factory=list)
    predicted_l3_hits_per_packet: list[int] = field(default_factory=list)
    predicted_dram_accesses_per_packet: list[int] = field(default_factory=list)
    havocs: int = 0
    havocs_reconciled: int = 0
    path_constraints: int = 0
    # Chain NFs: stage label -> estimated cycles spent inside that stage
    # across all packets (empty for standalone NFs).
    stage_cycles: dict[str, int] = field(default_factory=dict)

    @property
    def max_estimated_cycles_per_packet(self) -> int:
        return max(self.estimated_cycles_per_packet, default=0)

    def to_report(self) -> str:
        """Human-readable per-packet table (what the KTEST companion file lists)."""
        lines = [
            "packet  est.cycles  instructions  loads  stores  L3-hit  DRAM",
        ]
        for i in range(self.packets):
            lines.append(
                f"{i:6d}  {self.estimated_cycles_per_packet[i]:10d}  "
                f"{self.instructions_per_packet[i]:12d}  {self.loads_per_packet[i]:5d}  "
                f"{self.stores_per_packet[i]:6d}  {self.predicted_l3_hits_per_packet[i]:6d}  "
                f"{self.predicted_dram_accesses_per_packet[i]:4d}"
            )
        lines.append(
            f"total estimated cycles: {self.total_estimated_cycles} "
            f"(max/packet {self.max_estimated_cycles_per_packet})"
        )
        lines.append(f"havocs reconciled: {self.havocs_reconciled}/{self.havocs}")
        if self.stage_cycles:
            total = self.total_estimated_cycles or 1
            lines.append("per-stage attribution:")
            for label, cycles in self.stage_cycles.items():
                lines.append(
                    f"  stage {label}: {cycles} cycles ({100.0 * cycles / total:.1f}%)"
                )
        return "\n".join(lines)


def metrics_from_state(state: ExecutionState, havocs_reconciled: int = 0) -> PathMetrics:
    """Extract :class:`PathMetrics` from the selected execution state."""
    metrics = PathMetrics(
        packets=len(state.packet_metrics),
        total_estimated_cycles=state.current_cost,
        havocs=len(state.havoc_records),
        havocs_reconciled=havocs_reconciled,
        path_constraints=len(state.constraints),
        stage_cycles=dict(state.stage_costs),
    )
    for packet in state.packet_metrics:
        metrics.estimated_cycles_per_packet.append(packet.cycles)
        metrics.instructions_per_packet.append(packet.instructions)
        metrics.loads_per_packet.append(packet.loads)
        metrics.stores_per_packet.append(packet.stores)
        metrics.predicted_l3_hits_per_packet.append(packet.l3_hits + packet.l1_hits)
        metrics.predicted_dram_accesses_per_packet.append(packet.dram_accesses)
    return metrics
