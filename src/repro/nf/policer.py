"""Per-flow token-bucket policer keyed by a two-choice (cuckoo-style) hash.

Each flow owns a token bucket (capacity ``POLICER_BURST``, one token earned
every ``POLICER_REFILL_TICKS`` clock ticks; the clock advances once per
packet).  Buckets live in **two** hash tables: a flow is stored either at
``flow_hash16(key) & MASK`` in table A or at ``flow_hash16(alt_key) & MASK``
in table B, where ``alt_key`` swaps the two port fields of the packed key
(keeping it flow-shaped, so the rainbow tables of §3.5 can invert both
probes).  Insertion is cuckoo-style: if both candidate slots are occupied,
the table-A occupant is kicked to *its* alternate slot, possibly displacing
another entry, for at most ``POLICER_MAX_KICKS`` relocations (the last
displaced entry is dropped — a bounded, stash-less cuckoo).

The adversarial pattern is hash-driven: flows whose probes collide in
*both* tables force every insertion through the relocation cascade, each
kick re-hashing a stored key and rewriting three words in the other table.
Random traffic spreads over ``2 * POLICER_SLOTS`` slots and almost never
cascades.  Both hashes are ``castan_havoc``-annotated, so the analysis
suppresses them during the search and reconciles concrete colliding keys
afterwards.

Key 0 marks an empty slot (the hash ring's convention); the all-zero
5-tuple packs to key 0 and would alias it, so that one degenerate flow is
forwarded without being tracked.
"""

from __future__ import annotations

from repro.frontend.compiler import compile_nf
from repro.ir.module import Module
from repro.nf.base import NetworkFunction
from repro.nf.common import (
    POLICER_BURST,
    POLICER_KEY_ENTRY_BYTES,
    POLICER_MAX_KICKS,
    POLICER_REFILL_TICKS,
    POLICER_SLOTS,
    middlebox_packet_defaults,
)

POLICER_SOURCE = f"""
POL_MASK = {POLICER_SLOTS - 1}
POL_BURST = {POLICER_BURST}
POL_REFILL_TICKS = {POLICER_REFILL_TICKS}
POL_MAX_KICKS = {POLICER_MAX_KICKS}


def pol_alt_key(key):
    ip = key & 0xFFFFFFFF
    p1 = (key >> 32) & 0xFFFF
    p2 = (key >> 48) & 0xFFFF
    return ip | (p2 << 32) | (p1 << 48)


def pol_refill(tokens, last, now):
    return min(tokens + (now - last) // POL_REFILL_TICKS, POL_BURST)


def pol_advance(last, now):
    return last + ((now - last) // POL_REFILL_TICKS) * POL_REFILL_TICKS


def process(src_ip, dst_ip, src_port, dst_port, protocol):
    if protocol != 17 and protocol != 6:
        return 0
    now = pol_clock[0] + 1
    pol_clock[0] = now
    key = src_ip | (src_port << 32) | (dst_port << 48)
    if key == 0:
        return 1
    alt = src_ip | (dst_port << 32) | (src_port << 48)
    ha = castan_havoc(key, flow_hash16(key))
    slot_a = ha & POL_MASK
    if pol_key_a[slot_a] == key:
        last = pol_last_a[slot_a]
        tokens = pol_refill(pol_tokens_a[slot_a], last, now)
        pol_last_a[slot_a] = pol_advance(last, now)
        if tokens == 0:
            pol_tokens_a[slot_a] = 0
            return 0
        pol_tokens_a[slot_a] = tokens - 1
        return 1
    hb = castan_havoc(alt, flow_hash16(alt))
    slot_b = hb & POL_MASK
    if pol_key_b[slot_b] == key:
        last = pol_last_b[slot_b]
        tokens = pol_refill(pol_tokens_b[slot_b], last, now)
        pol_last_b[slot_b] = pol_advance(last, now)
        if tokens == 0:
            pol_tokens_b[slot_b] = 0
            return 0
        pol_tokens_b[slot_b] = tokens - 1
        return 1
    if pol_key_a[slot_a] == 0:
        pol_key_a[slot_a] = key
        pol_tokens_a[slot_a] = POL_BURST - 1
        pol_last_a[slot_a] = now
        return 1
    if pol_key_b[slot_b] == 0:
        pol_key_b[slot_b] = key
        pol_tokens_b[slot_b] = POL_BURST - 1
        pol_last_b[slot_b] = now
        return 1
    cur_key = pol_key_a[slot_a]
    cur_tok = pol_tokens_a[slot_a]
    cur_last = pol_last_a[slot_a]
    pol_key_a[slot_a] = key
    pol_tokens_a[slot_a] = POL_BURST - 1
    pol_last_a[slot_a] = now
    to_b = 1
    kicks = 0
    while kicks < POL_MAX_KICKS:
        if to_b == 1:
            akey = pol_alt_key(cur_key)
            hv = castan_havoc(akey, flow_hash16(akey))
            slot = hv & POL_MASK
            vkey = pol_key_b[slot]
            vtok = pol_tokens_b[slot]
            vlast = pol_last_b[slot]
            pol_key_b[slot] = cur_key
            pol_tokens_b[slot] = cur_tok
            pol_last_b[slot] = cur_last
        else:
            hv = castan_havoc(cur_key, flow_hash16(cur_key))
            slot = hv & POL_MASK
            vkey = pol_key_a[slot]
            vtok = pol_tokens_a[slot]
            vlast = pol_last_a[slot]
            pol_key_a[slot] = cur_key
            pol_tokens_a[slot] = cur_tok
            pol_last_a[slot] = cur_last
        if vkey == 0:
            return 1
        cur_key = vkey
        cur_tok = vtok
        cur_last = vlast
        to_b = 1 - to_b
        kicks = kicks + 1
    return 1
"""


def build_policer() -> NetworkFunction:
    """Build the two-choice token-bucket policer NF."""
    module = Module("policer-two-choice")
    module.add_region("pol_key_a", POLICER_SLOTS, POLICER_KEY_ENTRY_BYTES)
    module.add_region("pol_tokens_a", POLICER_SLOTS, 8)
    module.add_region("pol_last_a", POLICER_SLOTS, 8)
    module.add_region("pol_key_b", POLICER_SLOTS, POLICER_KEY_ENTRY_BYTES)
    module.add_region("pol_tokens_b", POLICER_SLOTS, 8)
    module.add_region("pol_last_b", POLICER_SLOTS, 8)
    module.add_region("pol_clock", 1, 8)
    compile_nf(module, POLICER_SOURCE, entry="process")
    return NetworkFunction(
        name="policer-two-choice",
        module=module,
        description="Per-flow token-bucket policer in a cuckoo-style two-choice hash.",
        nf_class="policer",
        data_structure="two-choice-hash",
        packet_defaults=middlebox_packet_defaults(),
        castan_packet_count=30,
        contention_regions=["pol_key_a", "pol_key_b"],
        notes=(
            "Colliding both candidate slots forces cuckoo relocation cascades "
            "of up to POLICER_MAX_KICKS displacements per insertion."
        ),
    )
