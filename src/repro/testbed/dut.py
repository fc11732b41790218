"""The device under test: the compiled NF running on the simulated CPU.

Wraps the concrete interpreter and the memory hierarchy, and adds the parts
of the end-to-end path that are *not* the NF itself: the per-packet
DPDK/driver/NIC/wire overhead the paper quantifies with its NOP baseline,
and the measurement jitter of the hardware timestamps.
"""

from __future__ import annotations

import random

from repro.cache.hierarchy import MemoryHierarchy
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.perf.counters import PacketCounters
from repro.perf.cycles import DEFAULT_CYCLE_COSTS
from repro.perf.interpreter import ConcreteInterpreter


#: Everything between the traffic generator's timestamping NIC and the NF's
#: first instruction (and back): PCIe, DMA, driver, DPDK rx/tx, serialisation
#: delay.  Calibrated so the NOP latency lands near the paper's ~4.3 µs NOP
#: curve; identical for every workload, so relative comparisons are unaffected.
WIRE_OVERHEAD_NS = 4280.0

#: Standard deviation of the hardware timestamps' measurement jitter.
JITTER_NS = 45.0

#: Per-packet DPDK/driver cost that bounds throughput; calibrated so the NOP
#: NF forwards ~3.45 Mpps.
BASE_SERVICE_NS = 289.0

#: Seed of the jitter generator, re-seeded by :meth:`DeviceUnderTest.reset`.
JITTER_SEED = 99


class DeviceUnderTest:
    """One NF deployed on the simulated testbed machine (default hierarchy and
    cycle costs)."""

    def __init__(self, nf: NetworkFunction) -> None:
        self.nf = nf
        self.hierarchy = MemoryHierarchy()
        self.interpreter = ConcreteInterpreter(nf.module, nf.entry, hierarchy=self.hierarchy)
        self._rng = random.Random(JITTER_SEED)

    def reset(self) -> None:
        """Fresh NF state and cold caches (a new measurement run)."""
        self.interpreter.reset()
        self._rng = random.Random(JITTER_SEED)

    # -- per-packet processing ----------------------------------------------------

    def process(self, packet: Packet) -> PacketCounters:
        """Run one packet through the NF, returning its hardware counters."""
        return self.interpreter.process_packet(packet)

    def nf_time_ns(self, counters: PacketCounters) -> float:
        """Time spent inside the NF proper for one packet."""
        return DEFAULT_CYCLE_COSTS.cycles_to_ns(counters.cycles)

    def end_to_end_latency_ns(self, counters: PacketCounters) -> float:
        """TG-to-TG latency: wire/driver overhead + NF time + timestamp jitter."""
        jitter = self._rng.gauss(0.0, JITTER_NS)
        return max(0.0, WIRE_OVERHEAD_NS + self.nf_time_ns(counters) + jitter)

    def service_time_ns(self, counters: PacketCounters) -> float:
        """Per-packet service time bounding throughput (DPDK cost + NF time)."""
        return BASE_SERVICE_NS + self.nf_time_ns(counters)
