"""LPM with one-stage Direct Lookup (§5.1, data structure 2).

The forwarding table is flattened into a single large array indexed by the
top ``DIRECT_LOOKUP_BITS`` bits of the destination address.  Lookup is a
single memory access, so instruction counts are flat across packets — the
attack surface is purely the cache: the table dwarfs the simulated L3, and
a workload whose destinations map to one L3 contention set keeps evicting
itself and pays a DRAM access per packet (§5.2, Figs. 4–5).
"""

from __future__ import annotations

from repro.frontend.compiler import compile_nf
from repro.ir.module import Module
from repro.nf.base import NetworkFunction
from repro.nf.common import (
    DIRECT_LOOKUP_BITS,
    DIRECT_LOOKUP_ENTRY_BYTES,
    Route,
    build_routes,
    longest_prefix_match,
    lpm_packet_defaults,
)

DIRECT_LOOKUP_SOURCE = f"""
DL_SHIFT = {32 - DIRECT_LOOKUP_BITS}


def process(src_ip, dst_ip, src_port, dst_port, protocol):
    index = dst_ip >> DL_SHIFT
    return dl_table[index]
"""


def build_direct_lookup_table(routes: list[Route]) -> dict[int, int]:
    """Expand the route list into the flat array's non-zero initial entries.

    Every route is truncated/expanded to ``DIRECT_LOOKUP_BITS`` bits of
    prefix; more specific routes win, mirroring how the C NF builds its
    table at start-up.
    """
    bits = DIRECT_LOOKUP_BITS
    table: dict[int, int] = {}
    # Expand from least to most specific so that longer prefixes overwrite.
    for route in sorted(routes, key=lambda r: r.length):
        effective = min(route.length, bits)
        base = (route.prefix >> (32 - bits)) & ((1 << bits) - 1)
        base &= ~((1 << (bits - effective)) - 1) if effective < bits else (1 << bits) - 1
        span = 1 << (bits - effective)
        for offset in range(span):
            table[base + offset] = route.port
    return table


def build_lpm_direct() -> NetworkFunction:
    """Build the one-stage Direct Lookup LPM NF."""
    routes = build_routes(include_host_routes=False)
    table = build_direct_lookup_table(routes)
    module = Module("lpm-direct")
    module.add_region(
        "dl_table", 1 << DIRECT_LOOKUP_BITS, DIRECT_LOOKUP_ENTRY_BYTES, initial=table
    )
    compile_nf(module, DIRECT_LOOKUP_SOURCE, entry="process")
    nf = NetworkFunction(
        name="lpm-direct",
        module=module,
        description="Destination LPM via a single flat lookup table (one memory access).",
        nf_class="lpm",
        data_structure="direct-lookup",
        packet_defaults=lpm_packet_defaults(),
        castan_packet_count=40,
        contention_regions=["dl_table"],
        notes=(
            "The table exceeds the simulated L3 severalfold; adversarial workloads "
            "drive all lookups into one contention set."
        ),
    )
    # Keep the reference model handy for tests.
    nf.reference_lookup = lambda address: longest_prefix_match(routes, address)  # type: ignore[attr-defined]
    return nf
