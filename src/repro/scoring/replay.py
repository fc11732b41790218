"""Replay calibration: probe-packet cost on an adversarially primed NF.

The distiller's claim about a signature is *behavioural*: after the NF has
absorbed the synthesized adversarial workload, a fresh matching packet is
expensive and a fresh background packet is not.  :class:`PrimedReplay`
measures exactly that, on the same concrete interpreter + simulated memory
hierarchy the testbed uses: prime once, snapshot the NF memory and cache
state, then restore the snapshot before every probe so each measurement is
independent of probe order.  A restore copies only what the NF wrote and
the lines resident in the hierarchy, so a probe costs about what it
touches; :meth:`PrimedReplay.extended` primes further on top of a snapshot
instead of replaying the shared prefix again.
"""

from __future__ import annotations

from repro.cache.hierarchy import MemoryHierarchy
from repro.net.packet import FlowKey, Packet
from repro.nf.base import NetworkFunction
from repro.perf.cycles import CycleCosts, DEFAULT_CYCLE_COSTS
from repro.perf.interpreter import ConcreteInterpreter


class PrimedReplay:
    """Measure per-packet cycle cost from one primed NF state.

    A flow is a :class:`~repro.net.packet.FlowKey` or any plain 5-tuple in
    its field order.

    >>> from repro.nf.registry import get_nf
    >>> nf = get_nf("lpm-patricia")
    >>> replay = PrimedReplay(nf, priming_flows=[])
    >>> replay.probe_cost((0xC0A80001, 0x08080808, 2000, 80, 17)) > 0
    True
    """

    def __init__(
        self,
        nf: NetworkFunction,
        priming_flows: list[FlowKey],
        hierarchy: MemoryHierarchy | None = None,
        cycle_costs: CycleCosts = DEFAULT_CYCLE_COSTS,
    ) -> None:
        self.nf = nf
        self.interpreter = ConcreteInterpreter(
            nf.module,
            nf.entry,
            hierarchy=hierarchy or MemoryHierarchy(cycle_costs=cycle_costs),
            cycle_costs=cycle_costs,
        )
        self.priming_flows: list[FlowKey] = []
        self._prime(priming_flows)

    def _prime(self, flows: list[FlowKey]) -> None:
        for flow in flows:
            self.interpreter.process_packet(Packet(*flow))
        self.priming_flows += flows
        self._snapshot = self.interpreter.snapshot_state()

    def extended(self, flows: list[FlowKey]) -> "PrimedReplay":
        """A replay primed with this one's flows followed by ``flows``.

        The state equals a fresh replay primed with the concatenation, but
        only ``flows`` are processed.  Both replays share one interpreter and
        stay usable: each restores its own snapshot before every probe.
        """
        other = object.__new__(PrimedReplay)
        other.nf, other.interpreter = self.nf, self.interpreter
        other.priming_flows = list(self.priming_flows)
        self.interpreter.restore_state(self._snapshot)
        other._prime(flows)
        return other

    def probe_cost(self, flow: FlowKey) -> int:
        """Reference cycles for one probe packet against the primed state."""
        self.interpreter.restore_state(self._snapshot)
        return self.interpreter.process_packet(Packet(*flow)).cycles

    def probe_costs(self, flows: list[FlowKey]) -> list[int]:
        return [self.probe_cost(flow) for flow in flows]
