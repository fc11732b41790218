"""Stateful L4 load balancer NFs (§5.1), one per associative container.

The LB translates the virtual IP (VIP) to a backend (direct IP): packets
whose destination is not the VIP are dropped without any data-structure
access; packets of known connections are forwarded to their recorded
backend; new connections pick a backend round-robin and are remembered.
Four variants store that per-flow state in a chained hash table, a hash
ring, an unbalanced binary tree and a red-black tree respectively.
"""

from __future__ import annotations

from repro.frontend.compiler import compile_nf
from repro.hashing.functions import FLOW_HASH_BITS, FLOW_HASH_DIALECT_SOURCE, flow_hash16
from repro.ir.module import Module
from repro.net.packet import Packet
from repro.nf.assoc import CONTAINERS
from repro.nf.base import NetworkFunction
from repro.nf.common import (
    HASH_TABLE_BUCKETS,
    LB_BACKENDS,
    VIP_ADDRESS,
    lb_packet_defaults,
    lb_workload_hints,
)

_LB_HEADER = f"""
VIP = {VIP_ADDRESS}
LB_BACKENDS = {LB_BACKENDS}
"""

_LB_PREAMBLE = """
    if protocol != 17 and protocol != 6:
        return 0
    if dst_ip != VIP:
        return 0
    key = src_ip | (src_port << 32) | (dst_port << 48)
"""

_LB_PROCESS = {
    "hash-table": f"""
def process(src_ip, dst_ip, src_port, dst_port, protocol):
{_LB_PREAMBLE}
    hv = castan_havoc(key, flow_hash16(key))
    bucket = hv & {HASH_TABLE_BUCKETS - 1}
    node = ht_lookup(key, bucket)
    if node != 0:
        return ht_value[node - 1]
    backend = (lb_rr[0] % LB_BACKENDS) + 1
    lb_rr[0] = lb_rr[0] + 1
    inserted = ht_insert(key, backend, bucket)
    if inserted == 0:
        return 0
    return backend
""",
    "hash-ring": f"""
def process(src_ip, dst_ip, src_port, dst_port, protocol):
{_LB_PREAMBLE}
    hv = castan_havoc(key, flow_hash16(key))
    found = ring_find_slot(key, hv)
    if found == 0:
        return 0
    slot = found - 1
    if ring_key[slot] == key:
        return ring_value[slot]
    backend = (lb_rr[0] % LB_BACKENDS) + 1
    lb_rr[0] = lb_rr[0] + 1
    ring_key[slot] = key
    ring_value[slot] = backend
    ring_count[0] = ring_count[0] + 1
    return backend
""",
    "unbalanced-tree": f"""
def process(src_ip, dst_ip, src_port, dst_port, protocol):
{_LB_PREAMBLE}
    node = bst_find(key)
    if node != 0:
        return bst_value[node]
    backend = (lb_rr[0] % LB_BACKENDS) + 1
    lb_rr[0] = lb_rr[0] + 1
    inserted = bst_insert(key, backend)
    if inserted == 0:
        return 0
    return backend
""",
    "red-black-tree": f"""
def process(src_ip, dst_ip, src_port, dst_port, protocol):
{_LB_PREAMBLE}
    node = rb_find(key)
    if node != 0:
        return rb_value[node]
    backend = (lb_rr[0] % LB_BACKENDS) + 1
    lb_rr[0] = lb_rr[0] + 1
    inserted = rb_insert(key, backend)
    if inserted == 0:
        return 0
    return backend
""",
}

_CASTAN_PACKET_COUNTS = {
    "hash-table": 30,
    "hash-ring": 40,
    "unbalanced-tree": 30,
    "red-black-tree": 30,
}


def manual_lb_unbalanced_workload(count: int) -> list[Packet]:
    """Monotonically increasing flow keys: skews the tree into a list."""
    return [Packet(0x0B000001, VIP_ADDRESS, 10000, 1024 + i) for i in range(count)]


def build_lb(data_structure: str) -> NetworkFunction:
    """Build one LB variant; ``data_structure`` is a key of ``CONTAINERS``."""
    try:
        container = CONTAINERS[data_structure]
    except KeyError:
        raise ValueError(
            f"unknown LB data structure {data_structure!r}; options: {sorted(CONTAINERS)}"
        ) from None

    module = Module(f"lb-{data_structure}")
    container["declare"](module)
    module.add_region("lb_rr", 1, 8)

    source_parts = [_LB_HEADER, container["source"], _LB_PROCESS[data_structure]]
    if container["uses_hash"]:
        source_parts.insert(1, FLOW_HASH_DIALECT_SOURCE)
    compile_nf(module, "\n".join(source_parts), entry="process")

    manual = manual_lb_unbalanced_workload if data_structure == "unbalanced-tree" else None
    return NetworkFunction(
        name=f"lb-{data_structure}",
        module=module,
        description=f"Stateful VIP-to-backend load balancer over a {data_structure}.",
        nf_class="lb",
        data_structure=data_structure,
        hash_functions={"flow_hash16": flow_hash16} if container["uses_hash"] else {},
        hash_output_bits={"flow_hash16": FLOW_HASH_BITS} if container["uses_hash"] else {},
        packet_defaults=lb_packet_defaults(),
        workload_hints=lb_workload_hints(),
        castan_packet_count=_CASTAN_PACKET_COUNTS[data_structure],
        manual_workload=manual,
        contention_regions=list(container["contention_regions"]),
    )
