"""NF-dialect sources and region layouts for the associative containers.

The NAT and LB NFs store per-flow state in one of four containers (§5.1):
a chained hash table, an open-addressing hash ring, an unbalanced binary
search tree, and a red-black tree.  Each container is defined here as a
pair of (dialect source with helper functions, region declarations) so the
NAT and LB front halves can share them.  All node pools are statically
allocated arrays indexed by small integers, exactly as the paper's C NFs
allocate their state up front.
"""

from __future__ import annotations

from repro.ir.module import Module
from repro.nf.common import (
    HASH_RING_ENTRY_BYTES,
    HASH_RING_SIZE,
    HASH_TABLE_BUCKETS,
    HASH_TABLE_MAX_FLOWS,
    TREE_MAX_NODES,
)

# -- chained hash table -------------------------------------------------------------
#
# `ht_bucket[b]` holds (node index + 1) of the chain head, 0 when empty.
# Nodes live in parallel arrays indexed 0..MAX-1 and are never freed (flows
# are only added, as in the paper's measurement runs).

HASH_TABLE_SOURCE = f"""
HT_BUCKETS = {HASH_TABLE_BUCKETS}
HT_MAX_FLOWS = {HASH_TABLE_MAX_FLOWS}


def ht_lookup(key, bucket):
    node = ht_bucket[bucket]
    while node != 0:
        if ht_key[node - 1] == key:
            return node
        node = ht_next[node - 1]
    return 0


def ht_insert(key, value, bucket):
    count = ht_count[0]
    if count >= HT_MAX_FLOWS:
        return 0
    ht_key[count] = key
    ht_value[count] = value
    ht_next[count] = ht_bucket[bucket]
    ht_bucket[bucket] = count + 1
    ht_count[0] = count + 1
    return count + 1
"""


def declare_hash_table_regions(module: Module) -> None:
    module.add_region("ht_bucket", HASH_TABLE_BUCKETS, 8)
    module.add_region("ht_key", HASH_TABLE_MAX_FLOWS, 8)
    module.add_region("ht_value", HASH_TABLE_MAX_FLOWS, 8)
    module.add_region("ht_next", HASH_TABLE_MAX_FLOWS, 8)
    module.add_region("ht_count", 1, 8)


# -- open-addressing hash ring ---------------------------------------------------------
#
# One cache-line-sized entry per slot (the key); values live in a parallel
# array touched only on hit/insert.  key == 0 marks an empty slot.

HASH_RING_SOURCE = f"""
RING_SIZE = {HASH_RING_SIZE}
RING_MASK = {HASH_RING_SIZE - 1}
RING_MAX_PROBES = 128


def ring_find_slot(key, start):
    slot = start & RING_MASK
    probes = 0
    while probes < RING_MAX_PROBES:
        stored = ring_key[slot]
        if stored == 0:
            return slot + 1
        if stored == key:
            return slot + 1
        slot = (slot + 1) & RING_MASK
        probes = probes + 1
    return 0
"""


def declare_hash_ring_regions(module: Module) -> None:
    module.add_region("ring_key", HASH_RING_SIZE, HASH_RING_ENTRY_BYTES)
    module.add_region("ring_value", HASH_RING_SIZE, 8)
    module.add_region("ring_count", 1, 8)


# -- unbalanced binary search tree ---------------------------------------------------------
#
# Parallel arrays indexed by node id (1-based; 0 is the nil sentinel).
# No rebalancing: insertion order dictates the shape, so ordered keys
# degenerate the tree into a linked list — the attack the paper describes.

UNBALANCED_TREE_SOURCE = f"""
BST_MAX_NODES = {TREE_MAX_NODES}


def bst_find(key):
    node = bst_root[0]
    while node != 0:
        stored = bst_key[node]
        if stored == key:
            return node
        if key < stored:
            node = bst_left[node]
        else:
            node = bst_right[node]
    return 0


def bst_insert(key, value):
    parent = 0
    go_right = 0
    node = bst_root[0]
    while node != 0:
        stored = bst_key[node]
        if stored == key:
            return node
        parent = node
        if key < stored:
            node = bst_left[node]
            go_right = 0
        else:
            node = bst_right[node]
            go_right = 1
    new = bst_count[0] + 1
    if new >= BST_MAX_NODES:
        return 0
    bst_count[0] = new
    bst_key[new] = key
    bst_value[new] = value
    bst_left[new] = 0
    bst_right[new] = 0
    if parent == 0:
        bst_root[0] = new
    else:
        if go_right == 1:
            bst_right[parent] = new
        else:
            bst_left[parent] = new
    return new
"""


def declare_unbalanced_tree_regions(module: Module) -> None:
    module.add_region("bst_root", 1, 8)
    module.add_region("bst_count", 1, 8)
    module.add_region("bst_key", TREE_MAX_NODES, 8)
    module.add_region("bst_value", TREE_MAX_NODES, 8)
    module.add_region("bst_left", TREE_MAX_NODES, 8)
    module.add_region("bst_right", TREE_MAX_NODES, 8)


# -- red-black tree (the std::map stand-in) ----------------------------------------------------
#
# Standard CLRS insertion with recolouring and rotations.  Node 0 is the
# nil sentinel (always black).  Colour 1 = red, 0 = black.

RED_BLACK_TREE_SOURCE = f"""
RB_MAX_NODES = {TREE_MAX_NODES}


def rb_find(key):
    node = rb_root[0]
    while node != 0:
        stored = rb_key[node]
        if stored == key:
            return node
        if key < stored:
            node = rb_left[node]
        else:
            node = rb_right[node]
    return 0


def rb_rotate_left(x):
    y = rb_right[x]
    rb_right[x] = rb_left[y]
    if rb_left[y] != 0:
        rb_parent[rb_left[y]] = x
    rb_parent[y] = rb_parent[x]
    if rb_parent[x] == 0:
        rb_root[0] = y
    else:
        if x == rb_left[rb_parent[x]]:
            rb_left[rb_parent[x]] = y
        else:
            rb_right[rb_parent[x]] = y
    rb_left[y] = x
    rb_parent[x] = y
    return 0


def rb_rotate_right(x):
    y = rb_left[x]
    rb_left[x] = rb_right[y]
    if rb_right[y] != 0:
        rb_parent[rb_right[y]] = x
    rb_parent[y] = rb_parent[x]
    if rb_parent[x] == 0:
        rb_root[0] = y
    else:
        if x == rb_right[rb_parent[x]]:
            rb_right[rb_parent[x]] = y
        else:
            rb_left[rb_parent[x]] = y
    rb_right[y] = x
    rb_parent[x] = y
    return 0


def rb_insert_fixup(z):
    while rb_color[rb_parent[z]] == 1:
        parent = rb_parent[z]
        grand = rb_parent[parent]
        if parent == rb_left[grand]:
            uncle = rb_right[grand]
            if rb_color[uncle] == 1:
                rb_color[parent] = 0
                rb_color[uncle] = 0
                rb_color[grand] = 1
                z = grand
            else:
                if z == rb_right[parent]:
                    z = parent
                    rb_rotate_left(z)
                    parent = rb_parent[z]
                    grand = rb_parent[parent]
                rb_color[parent] = 0
                rb_color[grand] = 1
                rb_rotate_right(grand)
        else:
            uncle = rb_left[grand]
            if rb_color[uncle] == 1:
                rb_color[parent] = 0
                rb_color[uncle] = 0
                rb_color[grand] = 1
                z = grand
            else:
                if z == rb_left[parent]:
                    z = parent
                    rb_rotate_right(z)
                    parent = rb_parent[z]
                    grand = rb_parent[parent]
                rb_color[parent] = 0
                rb_color[grand] = 1
                rb_rotate_left(grand)
    rb_color[rb_root[0]] = 0
    return 0


def rb_insert(key, value):
    parent = 0
    node = rb_root[0]
    while node != 0:
        stored = rb_key[node]
        if stored == key:
            return node
        parent = node
        if key < stored:
            node = rb_left[node]
        else:
            node = rb_right[node]
    new = rb_count[0] + 1
    if new >= RB_MAX_NODES:
        return 0
    rb_count[0] = new
    rb_key[new] = key
    rb_value[new] = value
    rb_left[new] = 0
    rb_right[new] = 0
    rb_parent[new] = parent
    rb_color[new] = 1
    if parent == 0:
        rb_root[0] = new
    else:
        if key < rb_key[parent]:
            rb_left[parent] = new
        else:
            rb_right[parent] = new
    rb_insert_fixup(new)
    return new
"""


def declare_red_black_tree_regions(module: Module) -> None:
    module.add_region("rb_root", 1, 8)
    module.add_region("rb_count", 1, 8)
    module.add_region("rb_key", TREE_MAX_NODES, 8)
    module.add_region("rb_value", TREE_MAX_NODES, 8)
    module.add_region("rb_left", TREE_MAX_NODES, 8)
    module.add_region("rb_right", TREE_MAX_NODES, 8)
    module.add_region("rb_parent", TREE_MAX_NODES, 8)
    module.add_region("rb_color", TREE_MAX_NODES, 8)


# Registry used by the NAT/LB builders: data-structure name -> (source,
# region declarator, lookup/insert helper names, large regions for the
# cache model).
CONTAINERS = {
    "hash-table": {
        "source": HASH_TABLE_SOURCE,
        "declare": declare_hash_table_regions,
        "contention_regions": ["ht_bucket", "ht_key"],
    },
    "hash-ring": {
        "source": HASH_RING_SOURCE,
        "declare": declare_hash_ring_regions,
        "contention_regions": ["ring_key"],
    },
    "unbalanced-tree": {
        "source": UNBALANCED_TREE_SOURCE,
        "declare": declare_unbalanced_tree_regions,
        "contention_regions": ["bst_key"],
    },
    "red-black-tree": {
        "source": RED_BLACK_TREE_SOURCE,
        "declare": declare_red_black_tree_regions,
        "contention_regions": ["rb_key"],
    },
}
