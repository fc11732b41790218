"""Shared configuration for the evaluation NFs.

Routing tables (for the LPM NFs), scaled structure sizes, well-known
addresses (the LB's VIP, the NAT's internal prefix) and the helpers that
build packed flow keys.  The sizes are scaled down from the paper's
(1 GB / 64 MB tables, 25.6 MB L3) so experiments run in seconds, while
preserving the ratios that drive the evaluation: the 1-stage direct-lookup
table and the hash ring dwarf the simulated L3, the 2-stage first-level
table exceeds it by a small factor, and everything else fits comfortably.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.packet import IPProtocol

# -- well-known addresses -------------------------------------------------------

VIP_ADDRESS = 0xC0A80001  # 192.168.0.1 — the LB's virtual IP
INTERNAL_PREFIX_OCTET = 10  # the NAT serves 10.0.0.0/8
EXTERNAL_SERVER = 0x08080808  # 8.8.8.8 — default external endpoint
DEFAULT_SERVICE_PORT = 80

# -- scaled structure sizes ------------------------------------------------------

# LPM with 1-stage direct lookup: 2^18 entries of 16 bytes = 4 MiB,
# i.e. 8x the default simulated L3 (the paper: 1 GB vs 25.6 MB ≈ 40x).
DIRECT_LOOKUP_BITS = 18
DIRECT_LOOKUP_ENTRY_BYTES = 16

# DPDK-style 2-stage lookup: first stage 2^16 entries of 16 bytes = 1 MiB
# (2x the simulated L3; the paper: 64 MB vs 25.6 MB ≈ 2.5x), second stage
# groups of 256 entries.
DPDK_STAGE1_BITS = 16
DPDK_STAGE1_ENTRY_BYTES = 16
DPDK_TBL8_GROUPS = 64
DPDK_TBL8_FLAG = 1 << 16

# Patricia/binary trie node pool.
TRIE_MAX_NODES = 2048

# Chained hash table: 4096 buckets, up to 8192 stored flows (32 KiB of
# bucket heads — well inside L3, so collisions, not contention, are the
# attack surface, as in the paper's 65,536-entry table).
HASH_TABLE_BUCKETS = 4096
HASH_TABLE_MAX_FLOWS = 8192

# Open-addressing hash ring: 65,536 cache-line-sized entries = 4 MiB,
# dwarfing the simulated L3 (the paper: 16.7M entries ≈ 1 GB).
HASH_RING_SIZE = 65536
HASH_RING_ENTRY_BYTES = 64

# Binary trees (unbalanced and red-black) node pools.
TREE_MAX_NODES = 8192

# Load balancer backends.
LB_BACKENDS = 16

# NAT external port allocation starts here.
NAT_FIRST_EXTERNAL_PORT = 20000

# Stateful firewall: connection-tracking ring buffer.  128 slots keep the
# symbolic scans tractable while being small enough that a few hundred
# distinct flows fill the ring on the testbed; fixed per-connection TTL in
# clock ticks (one tick per processed packet).
FIREWALL_SLOTS = 128
FIREWALL_TTL_TICKS = 512

# Token-bucket policer: two-choice (cuckoo-style) hash tables.  Like the
# hash ring, each table keeps one cache-line-sized key entry per slot and
# spans the full 16-bit hash range, so the two tables together dwarf the
# simulated L3 and give the cache model real contention sets to target.
POLICER_SLOTS = 65536  # per table; power of two (slot = hash & (SLOTS - 1))
POLICER_KEY_ENTRY_BYTES = 64
POLICER_BURST = 4  # bucket capacity in tokens
POLICER_REFILL_TICKS = 4  # clock ticks to earn one token
POLICER_MAX_KICKS = 4  # relocation-cascade bound per insertion

# Bloom-filter dedup: bit-array size (one 8-byte word per bit keeps the
# dialect simple) and exact-store capacity for slow-path verification.
BLOOM_BITS = 1024
DEDUP_MAX_FINGERPRINTS = 2048

# DPI pattern trie: node pool, children per node, pseudo-payload depth.
DPI_MAX_NODES = 256
DPI_FANOUT = 4
DPI_DEPTH = 8


# -- the routing table used by every LPM NF (§5.1) --------------------------------


@dataclass(frozen=True)
class Route:
    """One IPv4 route: ``prefix/length -> port``."""

    prefix: int
    length: int
    port: int

    def matches(self, address: int) -> bool:
        if self.length == 0:
            return True
        shift = 32 - self.length
        return (address >> shift) == (self.prefix >> shift)


def build_routes(include_host_routes: bool = True) -> list[Route]:
    """The paper's forwarding table: 8 routes each of /8, /16, /24 (and /32).

    Prefixes overlap as much as possible: every prefix contains a more
    specific one (except the host routes).
    """
    routes: list[Route] = []
    port = 1
    base = INTERNAL_PREFIX_OCTET << 24  # 10.0.0.0
    for i in range(8):  # /8: 10.0.0.0/8 .. 17.0.0.0/8
        routes.append(Route(prefix=((INTERNAL_PREFIX_OCTET + i) << 24), length=8, port=port))
        port += 1
    for i in range(8):  # /16: 10.0.0.0/16 .. 10.7.0.0/16 (inside 10/8)
        routes.append(Route(prefix=base | (i << 16), length=16, port=port))
        port += 1
    for i in range(8):  # /24: 10.0.0.0/24 .. 10.0.7.0/24 (inside 10.0/16)
        routes.append(Route(prefix=base | (i << 8), length=24, port=port))
        port += 1
    if include_host_routes:
        for i in range(8):  # /32: 10.0.0.0/32 .. 10.0.0.7/32 (inside 10.0.0/24)
            routes.append(Route(prefix=base | i, length=32, port=port))
            port += 1
    return routes


def longest_prefix_match(routes: list[Route], address: int) -> int:
    """Reference LPM lookup (used by tests as ground truth).  0 = no route."""
    best_port = 0
    best_length = -1
    for route in routes:
        if route.length > best_length and route.matches(address):
            best_port = route.port
            best_length = route.length
    return best_port


# -- packet-field defaults shared by the NF descriptors -----------------------------


def lpm_packet_defaults() -> dict[str, int]:
    return {
        "src_ip": 0xC0A80064,
        "dst_ip": (INTERNAL_PREFIX_OCTET << 24) | 1,
        "src_port": 10000,
        "dst_port": DEFAULT_SERVICE_PORT,
        "protocol": int(IPProtocol.UDP),
    }


def lb_packet_defaults() -> dict[str, int]:
    return {
        "src_ip": 0x0B000001,
        "dst_ip": VIP_ADDRESS,
        "src_port": 10000,
        "dst_port": DEFAULT_SERVICE_PORT,
        "protocol": int(IPProtocol.UDP),
    }


def nat_packet_defaults() -> dict[str, int]:
    return {
        "src_ip": (INTERNAL_PREFIX_OCTET << 24) | 0x000101,
        "dst_ip": EXTERNAL_SERVER,
        "src_port": 10000,
        "dst_port": DEFAULT_SERVICE_PORT,
        "protocol": int(IPProtocol.UDP),
    }


def lb_workload_hints() -> dict[str, int]:
    """Generated LB traffic must target the VIP (the only interesting case)."""
    return {"dst_ip": VIP_ADDRESS, "protocol": int(IPProtocol.UDP)}


def nat_workload_hints() -> dict[str, int]:
    """Generated NAT traffic must come from the internal network."""
    return {"src_ip_prefix": INTERNAL_PREFIX_OCTET << 24, "src_ip_prefix_bits": 8,
            "protocol": int(IPProtocol.UDP)}


def firewall_packet_defaults() -> dict[str, int]:
    """The firewall tracks outbound (internal → external) connections, so it
    shares the NAT's internal-source defaults."""
    return nat_packet_defaults()


def firewall_workload_hints() -> dict[str, int]:
    """Generated firewall traffic is outbound, like the NAT's."""
    return nat_workload_hints()


def middlebox_packet_defaults() -> dict[str, int]:
    """Defaults for the transparent middleboxes (policer, dedup, DPI).

    Any L4 traffic is interesting, so no field is *semantically* required
    (unlike the LB's VIP or the NAT's internal prefix) — these are just the
    fallback values unconstrained packet-field symbols materialise as."""
    return {
        "src_ip": 0x0B000001,
        "dst_ip": EXTERNAL_SERVER,
        "src_port": 10000,
        "dst_port": DEFAULT_SERVICE_PORT,
        "protocol": int(IPProtocol.UDP),
    }
