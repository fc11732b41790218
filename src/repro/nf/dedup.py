"""Packet dedup over a Bloom filter with an exact slow-path store.

The NF drops duplicate packets.  Each packet is reduced to a fingerprint
(the simulated packet model carries no payload, so the packed flow key
stands in for a payload digest) and probed against a Bloom filter with two
``castan_havoc``-annotated hash probes — the second over the port-swapped
key packing, which stays flow-shaped and therefore rainbow-invertible.  If
either probed bit is clear the packet is certainly new: the fast path sets
both bits, appends the fingerprint to an exact store and forwards.  If both
bits are set the packet is only *possibly* a duplicate, and the NF takes
the **slow path**: a linear verification scan of the exact store that
either finds the fingerprint (true duplicate → drop) or proves a false
positive (append and forward).

Two adversarial gradients:

* **bit saturation** — distinct flows whose probes land on already-set bits
  turn every first-sighting packet into a false positive, paying a
  full-store scan before the append (the havoc-reconciled collision
  channel);
* **honest duplicates** — repeating a flow that was inserted *deep* in the
  store forces the verification scan to walk all the entries in front of it
  on every repetition; no hash collision is needed, so this channel
  survives even when reconciliation fails (§5.4's partial results).
"""

from __future__ import annotations

from repro.frontend.compiler import compile_nf
from repro.hashing.functions import FLOW_HASH_BITS, FLOW_HASH_DIALECT_SOURCE, flow_hash16
from repro.ir.module import Module
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.nf.common import (
    BLOOM_BITS,
    DEDUP_MAX_FINGERPRINTS,
    EXTERNAL_SERVER,
    middlebox_packet_defaults,
)

DEDUP_SOURCE = f"""
BLOOM_MASK = {BLOOM_BITS - 1}
DEDUP_MAX = {DEDUP_MAX_FINGERPRINTS}


def process(src_ip, dst_ip, src_port, dst_port, protocol):
    if protocol != 17 and protocol != 6:
        return 0
    fp = src_ip | (src_port << 32) | (dst_port << 48)
    alt = src_ip | (dst_port << 32) | (src_port << 48)
    h1 = castan_havoc(fp, flow_hash16(fp))
    b1 = h1 & BLOOM_MASK
    h2 = castan_havoc(alt, flow_hash16(alt))
    b2 = h2 & BLOOM_MASK
    if bloom_bit[b1] == 1 and bloom_bit[b2] == 1:
        count = dedup_count[0]
        i = 0
        while i < count:
            if dedup_fp[i] == fp:
                return 0
            i = i + 1
    bloom_bit[b1] = 1
    bloom_bit[b2] = 1
    count = dedup_count[0]
    if count < DEDUP_MAX:
        dedup_fp[count] = fp
        dedup_count[0] = count + 1
    return 1
"""


def manual_dedup_workload(count: int) -> list[Packet]:
    """Fill the store with distinct flows, then replay the deepest one: each
    duplicate pays a verification scan over everything in front of it."""
    fill = max(1, count // 2)
    packets = [Packet(0x0B000001, EXTERNAL_SERVER, 1024 + i, 80) for i in range(fill)]
    while len(packets) < count:
        packets.append(Packet(0x0B000001, EXTERNAL_SERVER, 1024 + fill - 1, 80))
    return packets


def build_dedup() -> NetworkFunction:
    """Build the Bloom-filter dedup NF."""
    module = Module("dedup-bloom")
    module.add_region("bloom_bit", BLOOM_BITS, 8)
    module.add_region("dedup_fp", DEDUP_MAX_FINGERPRINTS, 8)
    module.add_region("dedup_count", 1, 8)
    compile_nf(module, FLOW_HASH_DIALECT_SOURCE + DEDUP_SOURCE, entry="process")
    return NetworkFunction(
        name="dedup-bloom",
        module=module,
        description="Duplicate suppression via a Bloom filter with exact slow-path verification.",
        nf_class="dedup",
        data_structure="bloom-filter",
        hash_functions={"flow_hash16": flow_hash16},
        hash_output_bits={"flow_hash16": FLOW_HASH_BITS},
        packet_defaults=middlebox_packet_defaults(),
        castan_packet_count=20,
        manual_workload=manual_dedup_workload,
        contention_regions=["bloom_bit"],
        notes=(
            "Saturated filter bits force every packet through the slow-path "
            "verification scan of the exact fingerprint store."
        ),
    )
