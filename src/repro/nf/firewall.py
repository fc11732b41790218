"""Stateful firewall over a connection-tracking ring buffer.

The firewall admits outbound traffic (sources inside the NAT's 10.0.0.0/8
network) unconditionally and inbound traffic only when it matches a tracked
connection, the classic stateful-filter policy.  Connections live in a
fixed-size **ring buffer** in insertion order: lookups scan the occupied
window, and when the ring is full an insertion first performs a **full-ring
eviction walk** that compacts out expired entries (hits refresh a
connection's expiry, so expired entries do not stay sorted and a cheap
pop-from-head is not enough).

Two adversarial gradients follow from that layout:

* **fill the ring** — every distinct flow appends one entry, so lookups
  (and the eviction walks that full-table insertions trigger) scan further
  and further;
* **partial-key collisions** — entries store the connection's address word
  and port word separately and the scan short-circuits on the address, so
  flows that share one source address but differ in their ports force the
  scan to load *both* words of every candidate entry.

CASTAN discovers the combination (many distinct connections from one
address) automatically; random traffic with scattered addresses pays only
the single-word scan.
"""

from __future__ import annotations

from repro.frontend.compiler import compile_nf
from repro.ir.module import Module
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.nf.common import (
    EXTERNAL_SERVER,
    FIREWALL_SLOTS,
    FIREWALL_TTL_TICKS,
    INTERNAL_PREFIX_OCTET,
    firewall_packet_defaults,
    firewall_workload_hints,
)

FIREWALL_SOURCE = f"""
FW_SLOTS = {FIREWALL_SLOTS}
FW_MASK = {FIREWALL_SLOTS - 1}
FW_TTL = {FIREWALL_TTL_TICKS}
INTERNAL_OCTET = {INTERNAL_PREFIX_OCTET}


def fw_find(addr, ports, now):
    count = fw_count[0]
    head = fw_head[0]
    i = 0
    while i < count:
        slot = (head + i) & FW_MASK
        if fw_addr[slot] == addr:
            if fw_ports[slot] == ports:
                if fw_expiry[slot] > now:
                    return slot + 1
        i = i + 1
    return 0


def fw_sweep(now):
    count = fw_count[0]
    head = fw_head[0]
    kept = 0
    i = 0
    while i < count:
        slot = (head + i) & FW_MASK
        if fw_expiry[slot] > now:
            dst = (head + kept) & FW_MASK
            if dst != slot:
                fw_addr[dst] = fw_addr[slot]
                fw_ports[dst] = fw_ports[slot]
                fw_expiry[dst] = fw_expiry[slot]
            kept = kept + 1
        i = i + 1
    fw_count[0] = kept
    return count - kept


def process(src_ip, dst_ip, src_port, dst_port, protocol):
    if protocol != 17 and protocol != 6:
        return 0
    now = fw_clock[0] + 1
    fw_clock[0] = now
    outbound = 0
    if (src_ip >> 24) == INTERNAL_OCTET:
        outbound = 1
        addr = src_ip
        ports = (src_port << 16) | dst_port
    else:
        if (dst_ip >> 24) != INTERNAL_OCTET:
            return 0
        addr = dst_ip
        ports = (dst_port << 16) | src_port
    found = fw_find(addr, ports, now)
    if found != 0:
        fw_expiry[found - 1] = now + FW_TTL
        return 1
    if outbound == 0:
        return 0
    if fw_count[0] >= FW_SLOTS:
        swept = fw_sweep(now)
        if fw_count[0] >= FW_SLOTS:
            fw_head[0] = (fw_head[0] + 1) & FW_MASK
            fw_count[0] = fw_count[0] - 1
    slot = (fw_head[0] + fw_count[0]) & FW_MASK
    fw_addr[slot] = addr
    fw_ports[slot] = ports
    fw_expiry[slot] = now + FW_TTL
    fw_count[0] = fw_count[0] + 1
    return 1
"""


def manual_firewall_workload(count: int) -> list[Packet]:
    """Distinct connections from one internal host: each packet appends an
    entry that shares the stored address word with every other entry, so
    lookups load both words of every slot they scan."""
    src_ip = (INTERNAL_PREFIX_OCTET << 24) | 0x000101
    return [Packet(src_ip, EXTERNAL_SERVER, 10000, 1024 + i) for i in range(count)]


def build_firewall() -> NetworkFunction:
    """Build the connection-tracking firewall NF."""
    module = Module("fw-conntrack")
    module.add_region("fw_addr", FIREWALL_SLOTS, 8)
    module.add_region("fw_ports", FIREWALL_SLOTS, 8)
    module.add_region("fw_expiry", FIREWALL_SLOTS, 8)
    module.add_region("fw_head", 1, 8)
    module.add_region("fw_count", 1, 8)
    module.add_region("fw_clock", 1, 8)
    compile_nf(module, FIREWALL_SOURCE, entry="process")
    return NetworkFunction(
        name="fw-conntrack",
        module=module,
        description="Stateful firewall tracking connections in a TTL ring buffer.",
        nf_class="fw",
        data_structure="ring-buffer",
        packet_defaults=firewall_packet_defaults(),
        workload_hints=firewall_workload_hints(),
        castan_packet_count=25,
        manual_workload=manual_firewall_workload,
        contention_regions=["fw_addr", "fw_ports", "fw_expiry"],
        notes=(
            "Lookup scans the occupied ring window; full-table insertions walk "
            "the whole ring to evict expired entries."
        ),
    )
