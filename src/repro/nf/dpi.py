"""DPI-style signature matcher over a byte-granular pattern trie.

The simulated packet model carries no payload, so the matcher inspects a
**pseudo-payload**: the 8 bytes of ``(src_ip << 32) | (src_port << 16) |
dst_port``, most-significant byte first — the same "first payload bytes"
role the paper's data-structure NFs give to header fields.  Signatures are
byte strings anchored at offset 0, stored in a statically allocated trie
whose nodes keep up to ``DPI_FANOUT`` (byte, child) pairs in parallel
arrays; matching walks the trie byte by byte, remembering the last
accepting node (like the LPM's best-match walk), and the verdict of the
deepest matched rule decides whether the packet is blocked.

Matching cost grows with descent depth — each level loads the node's child
list and compares the current byte against every stored edge — so the
adversarial workload drives **maximal-depth trie descents**: packets whose
pseudo-payload follows the longest signature chain.  Random traffic falls
off the trie after a byte or two.
"""

from __future__ import annotations

from repro.frontend.compiler import compile_nf
from repro.ir.module import Module
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.nf.common import (
    DPI_DEPTH,
    DPI_FANOUT,
    DPI_MAX_NODES,
    middlebox_packet_defaults,
)

DPI_SOURCE = f"""
DPI_FANOUT = {DPI_FANOUT}
DPI_DEPTH = {DPI_DEPTH}


def pp_byte(src_ip, src_port, dst_port, depth):
    if depth < 4:
        return (src_ip >> (24 - depth * 8)) & 0xFF
    if depth < 6:
        return (src_port >> (40 - depth * 8)) & 0xFF
    return (dst_port >> (56 - depth * 8)) & 0xFF


def process(src_ip, dst_ip, src_port, dst_port, protocol):
    if protocol != 17 and protocol != 6:
        return 0
    node = 0
    verdict = 0
    depth = 0
    advanced = 1
    while advanced == 1 and depth < DPI_DEPTH:
        byte = pp_byte(src_ip, src_port, dst_port, depth)
        kids = dpi_nkids[node]
        advanced = 0
        k = 0
        while k < kids:
            if dpi_child_byte[node * DPI_FANOUT + k] == byte:
                node = dpi_child_node[node * DPI_FANOUT + k]
                advanced = 1
                break
            k = k + 1
        if advanced == 1:
            rule = dpi_rule[node]
            if rule != 0:
                verdict = rule
            depth = depth + 1
    if verdict != 0:
        return 0
    return 1
"""

#: Default signature set: chains share prefixes so descent depth varies from
#: 2 to the full pseudo-payload, and the deepest chain (rule 4) is the
#: adversarial target.  Bytes follow the pseudo-payload layout: 4 source-IP
#: bytes, 2 source-port bytes, 2 destination-port bytes.
DEFAULT_SIGNATURES: tuple[tuple[bytes, int], ...] = (
    (b"\x0a\x00\x00", 1),  # any source in 10.0.0.0/24
    (b"\x0a\x00\x00\x01", 2),  # source host 10.0.0.1
    (b"\x0a\x00\x00\x01\x27\x0f", 3),  # ... from source port 9999
    (b"\x0a\x00\x00\x01\x27\x0f\x00\x35", 4),  # ... to destination port 53
    (b"\xc0\xa8\x01", 5),  # any source in 192.168.1.0/24
    (b"\xde\xad\xbe\xef", 6),  # source host 222.173.190.239
)


def build_dpi_trie(
    signatures: tuple[tuple[bytes, int], ...],
) -> tuple[dict[int, int], dict[int, int], dict[int, int], dict[int, int]]:
    """Build the trie node-pool arrays from ``(pattern_bytes, rule_id)`` pairs.

    Node 0 is the root.  Returns the ``initial`` dictionaries for the
    ``dpi_nkids``, ``dpi_child_byte``, ``dpi_child_node`` and ``dpi_rule``
    regions; raises on fanout/depth/pool overflow so a bad signature set
    fails at build time, not during analysis.
    """
    nkids: dict[int, int] = {}
    child_byte: dict[int, int] = {}
    child_node: dict[int, int] = {}
    rule_of: dict[int, int] = {}
    next_node = 1
    for pattern, rule in signatures:
        if not pattern or len(pattern) > DPI_DEPTH:
            raise ValueError(
                f"signature {pattern!r} must be 1..{DPI_DEPTH} bytes long"
            )
        if rule == 0:
            raise ValueError("rule id 0 is reserved for 'no match'")
        node = 0
        for byte in pattern:
            kids = nkids.get(node, 0)
            child = 0
            for k in range(kids):
                if child_byte.get(node * DPI_FANOUT + k, 0) == byte:
                    child = child_node[node * DPI_FANOUT + k]
                    break
            if child == 0:
                if kids >= DPI_FANOUT:
                    raise ValueError(
                        f"node fanout exceeds DPI_FANOUT={DPI_FANOUT}; "
                        "reduce signature branching"
                    )
                if next_node >= DPI_MAX_NODES:
                    raise ValueError("trie node pool exhausted; raise DPI_MAX_NODES")
                child = next_node
                next_node += 1
                child_byte[node * DPI_FANOUT + kids] = byte
                child_node[node * DPI_FANOUT + kids] = child
                nkids[node] = kids + 1
            node = child
        if node in rule_of:
            raise ValueError(
                f"duplicate signature {pattern!r}: a rule already ends at this node"
            )
        rule_of[node] = rule
    return nkids, child_byte, child_node, rule_of


def packet_for_signature(pattern: bytes, pad_dst_ip: int = 0x08080808) -> Packet:
    """A packet whose pseudo-payload starts with ``pattern`` (zero-padded)."""
    padded = pattern.ljust(DPI_DEPTH, b"\x00")
    src_ip = int.from_bytes(padded[0:4], "big")
    src_port = int.from_bytes(padded[4:6], "big")
    dst_port = int.from_bytes(padded[6:8], "big")
    return Packet(src_ip, pad_dst_ip, src_port, dst_port)


def manual_dpi_workload(count: int) -> list[Packet]:
    """Packets following the deepest signature chains (maximal descents)."""
    deepest = sorted(DEFAULT_SIGNATURES, key=lambda sig: -len(sig[0]))
    packets: list[Packet] = []
    index = 0
    while len(packets) < count:
        pattern, _rule = deepest[index % len(deepest)]
        packets.append(packet_for_signature(pattern, pad_dst_ip=0x08080808 + index))
        index += 1
    return packets


def build_dpi() -> NetworkFunction:
    """Build the pattern-trie DPI NF over ``DEFAULT_SIGNATURES``."""
    nkids, child_byte, child_node, rule_of = build_dpi_trie(DEFAULT_SIGNATURES)
    module = Module("dpi-trie")
    module.add_region("dpi_nkids", DPI_MAX_NODES, 8, initial=nkids)
    module.add_region("dpi_child_byte", DPI_MAX_NODES * DPI_FANOUT, 8, initial=child_byte)
    module.add_region("dpi_child_node", DPI_MAX_NODES * DPI_FANOUT, 8, initial=child_node)
    module.add_region("dpi_rule", DPI_MAX_NODES, 8, initial=rule_of)
    compile_nf(module, DPI_SOURCE, entry="process")
    return NetworkFunction(
        name="dpi-trie",
        module=module,
        description="DPI-style signature matching over a byte-granular pattern trie.",
        nf_class="dpi",
        data_structure="pattern-trie",
        packet_defaults=middlebox_packet_defaults(),
        castan_packet_count=8,
        manual_workload=manual_dpi_workload,
        contention_regions=[],
        notes=(
            "Matching cost follows trie descent depth; adversarial packets "
            "track the longest signature chains."
        ),
    )
