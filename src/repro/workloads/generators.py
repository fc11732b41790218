"""Workload construction (§5.1).

Every workload is a :class:`Workload`: a named, ordered packet sequence
plus flow statistics.  Packet field choices respect the per-NF
``workload_hints`` (e.g. LB traffic targets the VIP; NAT traffic originates
from the internal prefix), mirroring how the paper tailors its generic
workloads to the "only interesting case" for the LB.

The scaled default sizes keep replay times in seconds: the paper's Zipfian
workload has 100,005 packets in 6,674 flows and UniRand has ~1M packets in
~1M flows; the defaults here preserve the packets-per-flow ratios at a few
thousand packets.

Every generator maps flow indices through :func:`_flow_for_index`, which is
injective per NF — "unirand" really does mean one flow per packet:

>>> from repro.nf.registry import get_nf
>>> from repro.workloads.generators import make_unirand_workload
>>> workload = make_unirand_workload(get_nf("fw-conntrack"), num_packets=50)
>>> (workload.packet_count, workload.flow_count)
(50, 50)
>>> all(p.src_ip >> 24 == 10 for p in workload.packets)  # outbound hint
True
>>> make_unirand_workload(get_nf("dpi-trie"), num_packets=40).flow_count
40
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.net.packet import FlowKey, IPProtocol, Packet
from repro.nf.base import NetworkFunction
from repro.workloads.zipf import DEFAULT_ZIPF_EXPONENT, zipf_flow_counts

WORKLOAD_NAMES = (
    "1-packet",
    "zipfian",
    "unirand",
    "unirand-castan",
    "castan",
    "manual",
)

# Scaled-down default sizes (paper values in comments).
DEFAULT_ZIPFIAN_PACKETS = 4000  # paper: 100,005
DEFAULT_ZIPFIAN_FLOWS = 267  # paper: 6,674 (same ~15 packets/flow ratio)
DEFAULT_UNIRAND_PACKETS = 4000  # paper: 1,000,472 packets in 1,000,001 flows

# Fixed seeds: every run generates the same workload bytes.
ZIPFIAN_SEED = 2
UNIRAND_SEED = 3
UNIRAND_CASTAN_SEED = 4


@dataclass
class Workload:
    """A named packet sequence."""

    name: str
    packets: list[Packet] = field(default_factory=list)
    description: str = ""

    @property
    def packet_count(self) -> int:
        return len(self.packets)

    @property
    def flow_count(self) -> int:
        return len({p.flow_tuple for p in self.packets})

    def looped(self, total_packets: int) -> list[Packet]:
        """Replay the workload in a loop until ``total_packets`` are emitted."""
        if not self.packets:
            return []
        out: list[Packet] = []
        while len(out) < total_packets:
            remaining = total_packets - len(out)
            out.extend(self.packets[:remaining])
        return out

    def __repr__(self) -> str:
        return f"Workload({self.name!r}, packets={self.packet_count}, flows={self.flow_count})"


# -- flow synthesis respecting per-NF hints -----------------------------------------


def _flow_for_index(nf: NetworkFunction, index: int, rng: random.Random) -> FlowKey:
    """Build the ``index``-th generated flow for this NF's traffic class.

    The map index → flow is **injective** (distinct indices give distinct
    5-tuples): the (src_ip, src_port) pair encodes the index as a mixed-radix
    number, with the IP carrying ``index mod address_space`` and the port
    disambiguating the quotient.  "Unirand" workloads are documented as one
    flow per packet, so a collision here would silently break them.
    """
    hints = nf.workload_hints
    protocol = hints.get("protocol", int(IPProtocol.UDP))
    # NAT-style sources win when both hints are present (chains composing a
    # NAT/firewall with a router pin the destination *and* need internal
    # sources); the hinted destination then rides along.
    if "src_ip_prefix" in hints:  # NAT-style: sources inside the internal prefix
        prefix = hints["src_ip_prefix"]
        bits = hints.get("src_ip_prefix_bits", 8)
        host_space = (1 << (32 - bits)) - 1
        wrap, host_index = divmod(index, host_space + 1)
        # Odd-multiplier Knuth scrambling is a bijection on the host space;
        # forcing a bit (the old ``| 1``) would fold pairs of hosts together.
        src_ip = prefix | ((host_index * 2654435761) & host_space)
        dst_ip = hints.get("dst_ip", 0x08080808)
        src_port = 1024 + ((host_index * 13 + wrap) % 60000)
        dst_port = 80 if index % 2 == 0 else 443
    elif "dst_ip" in hints:  # LB-style: destination pinned to the VIP
        dst_ip = hints["dst_ip"]
        wrap, host = divmod(index, 0xFFFFFF)
        src_ip = 0x0B000000 + host + 1
        src_port = 1024 + ((host * 7 + wrap) % 60000)
        dst_port = 80
    else:  # LPM-style: destinations spread over the address space
        dst_ip = rng.getrandbits(32)
        wrap, host = divmod(index, 0x10000)
        src_ip = 0xC0A80000 | host
        src_port = 1024 + ((host + wrap) % 60000)
        dst_port = 80
    return FlowKey(src_ip, dst_ip, src_port, dst_port, protocol)


# -- the generic workloads -------------------------------------------------------------


def make_one_packet_workload(nf: NetworkFunction, packets: int = 1) -> Workload:
    """The *1 Packet* workload: one packet replayed in a loop (best case)."""
    rng = random.Random(1)
    flow = _flow_for_index(nf, 0, rng)
    return Workload(
        name="1-packet",
        packets=[flow.to_packet() for _ in range(max(1, packets))],
        description="A single packet replayed in a loop; best-case behaviour.",
    )


def make_zipfian_workload(
    nf: NetworkFunction,
    num_packets: int = DEFAULT_ZIPFIAN_PACKETS,
    num_flows: int = DEFAULT_ZIPFIAN_FLOWS,
) -> Workload:
    """Typical real-world traffic: flow popularity follows Zipf(s=1.26)."""
    rng = random.Random(ZIPFIAN_SEED)
    flows = [_flow_for_index(nf, i, rng) for i in range(num_flows)]
    counts = zipf_flow_counts(num_packets, num_flows, seed=ZIPFIAN_SEED)
    packets: list[Packet] = []
    for flow, count in zip(flows, counts):
        packets.extend(flow.to_packet() for _ in range(count))
    rng.shuffle(packets)
    return Workload(
        name="zipfian",
        packets=packets,
        description=(
            f"Zipfian (s={DEFAULT_ZIPF_EXPONENT}) traffic: "
            f"{num_packets} packets, {num_flows} flows."
        ),
    )


def make_unirand_workload(
    nf: NetworkFunction,
    num_packets: int = DEFAULT_UNIRAND_PACKETS,
) -> Workload:
    """Uniform-random traffic: every packet its own flow (stress test / DoS)."""
    rng = random.Random(UNIRAND_SEED)
    packets = [_flow_for_index(nf, i, rng).to_packet() for i in range(num_packets)]
    return Workload(
        name="unirand",
        packets=packets,
        description=f"Uniformly random traffic: {num_packets} packets, one flow each.",
    )


def make_unirand_castan_workload(nf: NetworkFunction, castan_flow_count: int) -> Workload:
    """Uniform traffic with exactly as many flows as the CASTAN workload.

    Used for a fair comparison when sheer flow count is what matters.
    """
    rng = random.Random(UNIRAND_CASTAN_SEED)
    packets = [
        _flow_for_index(nf, 100_000 + i, rng).to_packet() for i in range(max(1, castan_flow_count))
    ]
    return Workload(
        name="unirand-castan",
        packets=packets,
        description=f"Uniform traffic with {castan_flow_count} flows (CASTAN-sized).",
    )


def make_manual_workload(nf: NetworkFunction, count: int | None = None) -> Workload | None:
    """The hand-crafted adversarial workload, when one exists for this NF."""
    if nf.manual_workload is None:
        return None
    packets = nf.manual_workload(count or nf.castan_packet_count)
    return Workload(
        name="manual",
        packets=packets,
        description="Hand-crafted adversarial workload (the paper's Manual).",
    )


def make_castan_workload(packets: list[Packet]) -> Workload:
    """Wrap a CASTAN-synthesized packet sequence as a workload."""
    return Workload(
        name="castan",
        packets=list(packets),
        description="Adversarial workload synthesized by CASTAN.",
    )
