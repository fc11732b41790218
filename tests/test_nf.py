"""Tests for the registry's 16 NFs: compilation, functional correctness
against reference models, and state behaviour across packets.  The four
scenario-expansion NFs (firewall, policer, dedup, DPI) have their own
behavioural suite in ``tests/test_new_nfs.py``."""

import dataclasses
import random

import pytest

from repro.hashing.functions import flow_key
from repro.ir.verify import verify_module
from repro.net.packet import IPProtocol, Packet
from repro.nf.common import (
    EXTERNAL_SERVER,
    LB_BACKENDS,
    NAT_FIRST_EXTERNAL_PORT,
    VIP_ADDRESS,
    build_routes,
    longest_prefix_match,
)
from repro.nf.registry import EVALUATION_NF_NAMES, NF_NAMES, available_nfs, get_nf
from repro.perf.interpreter import ConcreteInterpreter


def interpreter_for(name):
    nf = get_nf(name)
    return nf, ConcreteInterpreter(nf.module, nf.entry)


def lb_packet(i, sport=None, dport=80):
    return Packet(
        src_ip=0x0B000001 + i,
        dst_ip=VIP_ADDRESS,
        src_port=sport if sport is not None else 1024 + i,
        dst_port=dport,
        protocol=int(IPProtocol.UDP),
    )


def nat_packet(i, dport=80):
    return Packet(
        src_ip=0x0A000001 + i,
        dst_ip=EXTERNAL_SERVER,
        src_port=2048 + i,
        dst_port=dport,
        protocol=int(IPProtocol.UDP),
    )


class TestRegistry:
    def test_eighteen_nfs_available(self):
        assert len(available_nfs()) == 18
        assert len(EVALUATION_NF_NAMES) == 17  # without the NOP baseline

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_nf("no-such-nf")

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(KeyError, match="did you mean 'lpm-patricia'"):
            get_nf("lpm-patrica")
        with pytest.raises(KeyError, match="did you mean 'fw-conntrack'"):
            get_nf("fw-contrack")

    def test_unknown_name_without_close_match_lists_options(self):
        with pytest.raises(KeyError, match="available: nop, lpm-direct"):
            get_nf("zzzzz")

    @pytest.mark.parametrize("name", NF_NAMES)
    def test_every_nf_compiles_and_verifies(self, name):
        nf = get_nf(name)
        verify_module(nf.module)
        assert nf.module.instruction_count > 0
        assert nf.entry in nf.module.functions

    @pytest.mark.parametrize("name", NF_NAMES)
    def test_fresh_instances_are_independent(self, name):
        first, second = get_nf(name), get_nf(name)
        assert first.module is not second.module


class TestLPM:
    @pytest.mark.parametrize("name", ["lpm-patricia", "lpm-dpdk"])
    def test_matches_reference_lpm(self, name):
        routes = build_routes()
        nf, interpreter = interpreter_for(name)
        rng = random.Random(11)
        mismatches = 0
        for _ in range(300):
            if rng.random() < 0.6:
                address = 0x0A000000 | rng.getrandbits(16)
            else:
                address = rng.getrandbits(32)
            got = interpreter.call_entry([1, address, 2, 3, 17]).action
            want = longest_prefix_match(routes, address)
            if name == "lpm-dpdk" and want > 16:
                # The scaled 2-stage table resolves prefixes only to its
                # second-stage granularity; accept any covered route port.
                mismatches += int(got == 0)
            else:
                mismatches += int(got != want)
        assert mismatches == 0

    def test_direct_lookup_single_memory_access(self):
        nf, interpreter = interpreter_for("lpm-direct")
        counters = interpreter.call_entry([1, 0x0A000001, 2, 3, 17])
        assert counters.loads == 1 and counters.stores == 0

    def test_direct_lookup_default_route_is_drop(self):
        nf, interpreter = interpreter_for("lpm-direct")
        assert interpreter.call_entry([1, 0xDEADBEEF, 2, 3, 17]).action == 0

    def test_patricia_depth_depends_on_prefix_length(self):
        nf, interpreter = interpreter_for("lpm-patricia")
        shallow = interpreter.call_entry([1, 0x12000001, 2, 3, 17]).instructions  # /8 match
        deep = interpreter.call_entry([1, 0x0A000001, 2, 3, 17]).instructions  # host-route area
        assert deep > shallow

    def test_manual_patricia_workload_targets_specific_routes(self):
        nf = get_nf("lpm-patricia")
        packets = nf.manual_workload(8)
        routes = build_routes()
        assert len(packets) == 8
        assert all(longest_prefix_match(routes, p.dst_ip) > 0 for p in packets)


class TestLoadBalancers:
    @pytest.mark.parametrize(
        "name",
        ["lb-hash-table", "lb-hash-ring", "lb-unbalanced-tree", "lb-red-black-tree"],
    )
    def test_flow_stickiness_and_round_robin(self, name):
        nf, interpreter = interpreter_for(name)
        first = [interpreter.process_packet(lb_packet(i)).action for i in range(8)]
        again = [interpreter.process_packet(lb_packet(i)).action for i in range(8)]
        assert first == again  # same flow -> same backend
        assert all(1 <= b <= LB_BACKENDS for b in first)
        assert len(set(first)) == 8  # round-robin over distinct new flows

    @pytest.mark.parametrize(
        "name",
        ["lb-hash-table", "lb-hash-ring", "lb-unbalanced-tree", "lb-red-black-tree"],
    )
    def test_non_vip_and_non_l4_traffic_dropped(self, name):
        nf, interpreter = interpreter_for(name)
        not_vip = Packet(src_ip=1, dst_ip=0x01020304, src_port=5, dst_port=6, protocol=17)
        icmp = Packet(src_ip=1, dst_ip=VIP_ADDRESS, src_port=5, dst_port=6, protocol=1)
        assert interpreter.process_packet(not_vip).action == 0
        assert interpreter.process_packet(icmp).action == 0

    def test_unbalanced_tree_degenerates_under_ordered_keys(self):
        nf, interpreter = interpreter_for("lb-unbalanced-tree")
        ordered = [lb_packet(0, sport=1000, dport=1024 + i) for i in range(24)]
        costs = [interpreter.process_packet(p).instructions for p in ordered]
        # Each insertion walks one level deeper: instruction counts grow.
        assert costs[-1] > costs[2] + 10

    def test_red_black_tree_stays_balanced_under_ordered_keys(self):
        unbalanced_nf, unbalanced = interpreter_for("lb-unbalanced-tree")
        rb_nf, rb = interpreter_for("lb-red-black-tree")
        ordered = [lb_packet(0, sport=1000, dport=1024 + i) for i in range(64)]
        unbalanced_last = [unbalanced.process_packet(p).instructions for p in ordered][-1]
        rb_last = [rb.process_packet(p).instructions for p in ordered][-1]
        # Lookup/insert work in the red-black tree grows ~log(n) and must be
        # well below the skewed unbalanced tree's linear growth.
        assert rb_last < unbalanced_last

    def test_hash_table_chains_grow_on_collisions(self):
        nf, interpreter = interpreter_for("lb-hash-table")
        # Find two distinct flows whose keys collide in the bucket index.
        from repro.hashing.functions import flow_hash16
        from repro.nf.common import HASH_TABLE_BUCKETS

        base_key_bucket = flow_hash16(flow_key(0x0B000001, 1024, 80)) & (HASH_TABLE_BUCKETS - 1)
        colliding = None
        for sport in range(1025, 20000):
            if flow_hash16(flow_key(0x0B000001, sport, 80)) & (HASH_TABLE_BUCKETS - 1) == base_key_bucket:
                colliding = sport
                break
        assert colliding is not None
        interpreter.process_packet(lb_packet(0, sport=1024))  # insert A
        interpreter.process_packet(lb_packet(0, sport=colliding))  # insert B at chain head
        lookup_a = interpreter.process_packet(lb_packet(0, sport=1024))
        lookup_b = interpreter.process_packet(lb_packet(0, sport=colliding))
        # A now sits behind B in the chain, so its lookup walks further.
        assert lookup_a.instructions > lookup_b.instructions


class TestNAT:
    @pytest.mark.parametrize(
        "name",
        ["nat-hash-table", "nat-hash-ring", "nat-unbalanced-tree", "nat-red-black-tree"],
    )
    def test_port_allocation_and_stickiness(self, name):
        nf, interpreter = interpreter_for(name)
        ports = [interpreter.process_packet(nat_packet(i)).action for i in range(6)]
        assert ports == list(range(NAT_FIRST_EXTERNAL_PORT, NAT_FIRST_EXTERNAL_PORT + 6))
        repeat = [interpreter.process_packet(nat_packet(i)).action for i in range(6)]
        assert repeat == ports

    @pytest.mark.parametrize(
        "name",
        ["nat-hash-table", "nat-hash-ring", "nat-unbalanced-tree", "nat-red-black-tree"],
    )
    def test_external_traffic_is_dropped(self, name):
        nf, interpreter = interpreter_for(name)
        external = Packet(src_ip=0xC0000001, dst_ip=EXTERNAL_SERVER, src_port=1, dst_port=2, protocol=17)
        assert interpreter.process_packet(external).action == 0

    def test_nat_stores_two_entries_per_flow(self):
        nf, interpreter = interpreter_for("nat-unbalanced-tree")
        interpreter.process_packet(nat_packet(0))
        assert interpreter.read_region("bst_count", 0) == 2
        interpreter.process_packet(nat_packet(1))
        assert interpreter.read_region("bst_count", 0) == 4

    def test_manual_nat_workload_is_monotone(self):
        nf = get_nf("nat-unbalanced-tree")
        packets = nf.manual_workload(10)
        keys = [flow_key(p.src_ip, p.src_port, p.dst_port) for p in packets]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestMetadata:
    @pytest.mark.parametrize("name", EVALUATION_NF_NAMES)
    def test_contention_regions_exist(self, name):
        nf = get_nf(name)
        for region in nf.contention_regions:
            assert region in nf.module.regions

    @pytest.mark.parametrize(
        "name",
        ["lb-hash-table", "lb-hash-ring", "nat-hash-table", "nat-hash-ring",
         "policer-two-choice", "dedup-bloom"],
    )
    def test_hash_nfs_havoc_flow_hash16(self, name):
        assert get_nf(name).havoc_functions == ["flow_hash16"]

    def test_chain_stages_havoc_their_own_flow_hash16(self):
        assert get_nf("chain-edge").havoc_functions == [
            "s2_nat_hash_table__flow_hash16",
            "s3_policer_two_choice__flow_hash16",
        ]

    def test_partial_packet_defaults_are_refused(self):
        nf = get_nf("lpm-direct")
        with pytest.raises(ValueError, match="lacks dst_port, protocol"):
            dataclasses.replace(nf, packet_defaults={"src_ip": 1, "dst_ip": 2, "src_port": 3})

    @pytest.mark.parametrize("name", ["lb-unbalanced-tree", "lb-red-black-tree", "lpm-patricia", "lpm-direct"])
    def test_tree_and_lpm_nfs_do_not_hash(self, name):
        assert get_nf(name).havoc_functions == []


#: NF name -> ``NetworkFunction.fingerprint()``.  The service result store
#: keys analyses by this digest, so a moved fingerprint orphans every stored
#: result of that NF.  On an intentional change to what an NF analyzes as,
#: a failing case prints its replacement row; list the NFs in ``CHANGES.md``.
FINGERPRINTS = {
    "nop": "a9c0a18b08abb97bd0726514abd6c0f8c41f83a0d15e592579b5bfe295ba858b",
    "lpm-patricia": "e5ee239f00877ec1713ce83d0841fe88cbb84a4825e9f55b70ef970565189b77",
    "lpm-direct": "6a3f86add0321784d1b36704f9cc4f4934c44646b932fea5a74e518b21ca4048",
    "lpm-dpdk": "a0cd206df1fabcc4abbb26ee1d68083c4d9a6df0048d1f4d05a1af290b756f32",
    "lb-hash-table": "1e16bec09dfdbf79d8338c525fcd8ba816587cd45c0e9be1c807bf9364ceb519",
    "lb-hash-ring": "a0628911b997e778083c82f94f016b8af4beefd46e1892509fa8e853b7a18aea",
    "lb-unbalanced-tree": "57aa90a10bac159ac32f663891c63e527c2903b08e763c5a8ad363b1acb47a11",
    "lb-red-black-tree": "20130f570613e5ea05b254c5325eef29a78aed14a5827079a2b654cd8cd116c3",
    "nat-hash-table": "3bd99a836a015bbfa46fedebef7fd42909619ca9043c9e6bc08671acf9f4cfab",
    "nat-hash-ring": "1b83b9b697fa206dbdda43dfb181ece74edfbeaa2cc596ebc38afb096627fb57",
    "nat-unbalanced-tree": "8ef4d486e7f122cc47d88f468a09db2e00fdcdc4c9c70856acdedfa9aa8f5008",
    "nat-red-black-tree": "fec6b9a38d8b762f61cbca6b97f2bbda9574c553433ab2efcd26d1b9acc0a4e4",
    "fw-conntrack": "6c8981de4f7014f96cd2fdf5e47003c66a58b3916fd12a8d00861d278a0da18c",
    "policer-two-choice": "bcb35fc1dea9e3bbb9bac45cb01faa2777dc499e45a697a35e25498c347626c0",
    "dedup-bloom": "48aacf44d503cf677d85cd1e7b93917d6759fd138e633c82b6dcb529d301a738",
    "dpi-trie": "f1c0b3a2b04dbdf377430691c8c80187fd31794ac09353fdc05aeccb57c86ba5",
    "chain-gateway": "026287d732589356947701aad4000a803f9d6e13176292c3c1db0c23060a4f8e",
    "chain-edge": "de8ecaaa10687b388d571efe4fa49a25a02613e0e1fd26d88d3ba02bff20661d",
}


def _fingerprint_row(name):
    return f'    "{name}": "{get_nf(name).fingerprint()}",'


class TestFingerprintPins:
    def test_pins_cover_every_registered_nf(self):
        missing = [name for name in NF_NAMES if name not in FINGERPRINTS]
        stale = sorted(set(FINGERPRINTS) - set(NF_NAMES))
        assert not missing, "\n".join(["unpinned NFs; add these rows:", *map(_fingerprint_row, missing)])
        assert not stale, f"rows for unregistered NFs, delete them: {stale}"

    @pytest.mark.parametrize("name", NF_NAMES)
    def test_fingerprint_matches_the_pin(self, name):
        assert get_nf(name).fingerprint() == FINGERPRINTS[name], (
            f"the fingerprint moved; if intended, re-pin with:\n{_fingerprint_row(name)}"
        )
