"""Source NAT NFs (§5.1), one per associative container.

The NAT keeps per-flow state so that outgoing packets (from the internal
10.0.0.0/8 network) are rewritten to an allocated external port and
returning traffic can be translated back.  Each new flow therefore inserts
*two* entries keyed on different-but-related parts of the packet — the
property that makes reconciling the NAT's hash havocs hard (§5.4).  Four
variants store the state in a chained hash table, a hash ring, an
unbalanced binary tree and a red-black tree.
"""

from __future__ import annotations

from repro.frontend.compiler import compile_nf
from repro.ir.module import Module
from repro.net.packet import Packet
from repro.nf.assoc import CONTAINERS
from repro.nf.base import NetworkFunction
from repro.nf.common import (
    EXTERNAL_SERVER,
    HASH_TABLE_BUCKETS,
    INTERNAL_PREFIX_OCTET,
    NAT_FIRST_EXTERNAL_PORT,
    nat_packet_defaults,
    nat_workload_hints,
)

_NAT_HEADER = f"""
INTERNAL_OCTET = {INTERNAL_PREFIX_OCTET}
"""

_NAT_PREAMBLE = """
    if protocol != 17 and protocol != 6:
        return 0
    if (src_ip >> 24) != INTERNAL_OCTET:
        return 0
    fkey = src_ip | (src_port << 32) | (dst_port << 48)
"""

_NAT_ALLOC = """
    ext_port = nat_port[0]
    nat_port[0] = ext_port + 1
    rkey = dst_ip | (dst_port << 32) | ((ext_port & 0xFFFF) << 48)
"""

_NAT_PROCESS = {
    "hash-table": f"""
def process(src_ip, dst_ip, src_port, dst_port, protocol):
{_NAT_PREAMBLE}
    fhv = castan_havoc(fkey, flow_hash16(fkey))
    fbucket = fhv & {HASH_TABLE_BUCKETS - 1}
    node = ht_lookup(fkey, fbucket)
    if node != 0:
        return ht_value[node - 1]
{_NAT_ALLOC}
    inserted = ht_insert(fkey, ext_port, fbucket)
    if inserted == 0:
        return 0
    rhv = castan_havoc(rkey, flow_hash16(rkey))
    rbucket = rhv & {HASH_TABLE_BUCKETS - 1}
    inserted = ht_insert(rkey, src_port, rbucket)
    return ext_port & 0xFFFF
""",
    "hash-ring": f"""
def process(src_ip, dst_ip, src_port, dst_port, protocol):
{_NAT_PREAMBLE}
    fhv = castan_havoc(fkey, flow_hash16(fkey))
    found = ring_find_slot(fkey, fhv)
    if found == 0:
        return 0
    fslot = found - 1
    if ring_key[fslot] == fkey:
        return ring_value[fslot]
{_NAT_ALLOC}
    ring_key[fslot] = fkey
    ring_value[fslot] = ext_port
    ring_count[0] = ring_count[0] + 1
    rhv = castan_havoc(rkey, flow_hash16(rkey))
    found = ring_find_slot(rkey, rhv)
    if found != 0:
        rslot = found - 1
        ring_key[rslot] = rkey
        ring_value[rslot] = src_port
        ring_count[0] = ring_count[0] + 1
    return ext_port & 0xFFFF
""",
    "unbalanced-tree": f"""
def process(src_ip, dst_ip, src_port, dst_port, protocol):
{_NAT_PREAMBLE}
    node = bst_find(fkey)
    if node != 0:
        return bst_value[node]
{_NAT_ALLOC}
    inserted = bst_insert(fkey, ext_port)
    if inserted == 0:
        return 0
    inserted = bst_insert(rkey, src_port)
    return ext_port & 0xFFFF
""",
    "red-black-tree": f"""
def process(src_ip, dst_ip, src_port, dst_port, protocol):
{_NAT_PREAMBLE}
    node = rb_find(fkey)
    if node != 0:
        return rb_value[node]
{_NAT_ALLOC}
    inserted = rb_insert(fkey, ext_port)
    if inserted == 0:
        return 0
    inserted = rb_insert(rkey, src_port)
    return ext_port & 0xFFFF
""",
}

_CASTAN_PACKET_COUNTS = {
    "hash-table": 30,
    "hash-ring": 40,
    "unbalanced-tree": 50,
    "red-black-tree": 35,
}


def manual_nat_unbalanced_workload(count: int) -> list[Packet]:
    """Same endpoints, increasing destination ports: keys arrive in order,
    so the unbalanced tree degenerates into a linked list (§5.3)."""
    src_ip = (INTERNAL_PREFIX_OCTET << 24) | 0x000101
    return [Packet(src_ip, EXTERNAL_SERVER, 10000, 1024 + i) for i in range(count)]


def build_nat(data_structure: str) -> NetworkFunction:
    """Build one NAT variant; ``data_structure`` is a key of ``CONTAINERS``."""
    try:
        container = CONTAINERS[data_structure]
    except KeyError:
        raise ValueError(
            f"unknown NAT data structure {data_structure!r}; options: {sorted(CONTAINERS)}"
        ) from None

    module = Module(f"nat-{data_structure}")
    container["declare"](module)
    module.add_region("nat_port", 1, 8, initial={0: NAT_FIRST_EXTERNAL_PORT})

    source = "\n".join([_NAT_HEADER, container["source"], _NAT_PROCESS[data_structure]])
    compile_nf(module, source, entry="process")

    manual = manual_nat_unbalanced_workload if data_structure == "unbalanced-tree" else None
    return NetworkFunction(
        name=f"nat-{data_structure}",
        module=module,
        description=f"Source NAT keeping two per-flow entries in a {data_structure}.",
        nf_class="nat",
        data_structure=data_structure,
        packet_defaults=nat_packet_defaults(),
        workload_hints=nat_workload_hints(),
        castan_packet_count=_CASTAN_PACKET_COUNTS[data_structure],
        manual_workload=manual,
        contention_regions=list(container["contention_regions"]),
        chain_result_rewrite="src_port",
        notes="Each new flow stores two entries keyed on related packet fields.",
    )
