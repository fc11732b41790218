"""LPM over a Patricia/binary trie (§5.1, data structure 1).

The forwarding table is encoded in a statically allocated binary trie over
destination-address bits; lookup walks from the root, remembering the last
node that carried a route.  Lookup cost grows with the length of the
matched prefix, so packets matching the most specific (host) routes — or
addresses that differ from them only in their final bits — maximise the
number of executed instructions.  That is exactly the Manual adversarial
workload, and the workload CASTAN rediscovers automatically (§5.3).
"""

from __future__ import annotations

from repro.frontend.compiler import compile_nf
from repro.ir.module import Module
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.nf.common import (
    TRIE_MAX_NODES,
    Route,
    build_routes,
    lpm_packet_defaults,
)

PATRICIA_SOURCE = """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    node = 0
    best = 0
    depth = 0
    keep_going = 1
    while keep_going == 1 and depth < 32:
        route = trie_route[node]
        if route != 0:
            best = route
        bit = (dst_ip >> (31 - depth)) & 1
        if bit == 1:
            next_node = trie_right[node]
        else:
            next_node = trie_left[node]
        if next_node == 0:
            keep_going = 0
        else:
            node = next_node
            depth = depth + 1
    route = trie_route[node]
    if route != 0:
        best = route
    return best
"""


def build_trie_arrays(routes: list[Route]) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """Build the left/right/route node-pool arrays from a route list.

    Node 0 is the root; children are allocated sequentially.  Returns the
    ``initial`` dictionaries for the three regions.
    """
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    route_of: dict[int, int] = {}
    next_node = 1
    for route in routes:
        node = 0
        for depth in range(route.length):
            bit = (route.prefix >> (31 - depth)) & 1
            children = right if bit else left
            child = children.get(node, 0)
            if child == 0:
                if next_node >= TRIE_MAX_NODES:
                    raise ValueError("trie node pool exhausted; raise TRIE_MAX_NODES")
                child = next_node
                next_node += 1
                children[node] = child
            node = child
        route_of[node] = route.port
    return left, right, route_of


def manual_patricia_workload(count: int) -> list[Packet]:
    """Packets matching the most specific routes (the paper's 8-packet Manual)."""
    routes = sorted(build_routes(), key=lambda r: -r.length)
    packets: list[Packet] = []
    for route in routes:
        packets.append(Packet(0xC0A80064, route.prefix, 10000, 80))
        if len(packets) >= count:
            break
    index = 0
    while len(packets) < count:
        # Pad with addresses that are off by one final bit, which take the
        # same number of trie steps (the trick CASTAN also discovers).
        route = routes[index % len(routes)]
        packets.append(Packet(0xC0A80064, route.prefix ^ 1, 10000, 80))
        index += 1
    return packets


def build_lpm_patricia() -> NetworkFunction:
    """Build the Patricia-trie LPM NF with the standard routing table."""
    routes = build_routes()
    left, right, route_of = build_trie_arrays(routes)
    module = Module("lpm-patricia")
    module.add_region("trie_left", TRIE_MAX_NODES, 8, initial=left)
    module.add_region("trie_right", TRIE_MAX_NODES, 8, initial=right)
    module.add_region("trie_route", TRIE_MAX_NODES, 8, initial=route_of)
    compile_nf(module, PATRICIA_SOURCE, entry="process")
    return NetworkFunction(
        name="lpm-patricia",
        module=module,
        description="Destination LPM over a statically allocated binary (Patricia) trie.",
        nf_class="lpm",
        data_structure="patricia-trie",
        packet_defaults=lpm_packet_defaults(),
        castan_packet_count=8,
        manual_workload=manual_patricia_workload,
        contention_regions=[],
        notes="Algorithmic-complexity attack surface: lookup depth follows prefix length.",
    )
