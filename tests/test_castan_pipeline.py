"""End-to-end tests of the CASTAN pipeline: analysis, workload synthesis,
havoc reconciliation, pcap output and adversarial effect on the testbed."""

import dataclasses
import logging

import pytest

from repro.core import castan as castan_module
from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.core.workload import make_packet_symbols, packets_from_model, symbol_defaults
from repro.frontend.compiler import compile_nf
from repro.hashing.functions import FLOW_HASH_DIALECT_SOURCE, flow_hash16, lb_flow_key
from repro.ir.module import Module
from repro.net.pcap import read_pcap
from repro.nf.base import NetworkFunction
from repro.nf.common import HASH_TABLE_BUCKETS, VIP_ADDRESS, middlebox_packet_defaults
from repro.nf.registry import get_nf
from repro.service.store import canonical_result_digest, result_summary
from repro.symbex.incremental import CONTEXT_STATS, clear_incremental_caches
from repro.symbex.solver import Model
from repro.testbed.measure import measure_latency
from repro.workloads.generators import make_castan_workload, make_unirand_castan_workload


def quick_config(**overrides) -> CastanConfig:
    defaults = dict(max_states=150, deadline_seconds=8.0, num_packets=6)
    defaults.update(overrides)
    return CastanConfig(**defaults)


class TestWorkloadSymbols:
    def test_packet_symbol_naming_and_widths(self):
        sets = make_packet_symbols(3)
        assert len(sets) == 3
        assert sets[1].symbols["dst_ip"].name == "pkt1.dst_ip"
        assert sets[1].symbols["protocol"].bits == 8

    def test_defaults_produce_distinct_flows(self):
        sets = make_packet_symbols(4)
        defaults = symbol_defaults(sets, {"src_ip": 100, "src_port": 10, "protocol": 17})
        ips = {defaults[s.symbol_name_field] for s in [] } if False else None
        src_ips = [defaults[f"pkt{i}.src_ip"] for i in range(4)]
        assert len(set(src_ips)) == 4

    def test_packets_from_model_uses_model_then_defaults(self):
        sets = make_packet_symbols(2)
        model = Model(values={"pkt0.dst_ip": 0x01020304, "pkt0.protocol": 6})
        packets = packets_from_model(sets, model, {"dst_ip": 0x0A000001, "protocol": 17})
        assert packets[0].dst_ip == 0x01020304 and packets[0].protocol == 6
        assert packets[1].dst_ip == 0x0A000001 and packets[1].protocol == 17


class TestPipeline:
    def test_lpm_direct_contention_workload(self):
        nf = get_nf("lpm-direct")
        result = Castan(quick_config(num_packets=24)).analyze(nf)
        assert result.packet_count == 24
        assert result.unique_flows > 1
        assert result.contention_sets_used > 0
        # The synthesized destinations must map to very few L3 contention
        # sets — that is the whole point of the workload.
        from repro.cache.contention import ContentionSets
        from repro.cache.hierarchy import MemoryHierarchy

        hierarchy = MemoryHierarchy(Castan(quick_config()).config.hierarchy)
        region = nf.module.get_region("dl_table")
        shift = 32 - 18
        keys = {
            hierarchy.oracle_contention_key(region.address_of(p.dst_ip >> shift))
            for p in result.packets
        }
        assert len(keys) <= 3

    def test_lpm_patricia_beats_typical_depth(self):
        nf = get_nf("lpm-patricia")
        result = Castan(quick_config(num_packets=4, max_states=400)).analyze(nf)
        assert result.metrics.max_estimated_cycles_per_packet > 0
        # At least one synthesized packet matches deep (long-prefix) routes.
        deep = [p for p in result.packets if p.dst_ip >> 24 == 10]
        assert deep

    def test_lb_hash_table_collisions_after_reconciliation(self):
        nf = get_nf("lb-hash-table")
        result = Castan(quick_config(num_packets=5, max_states=250)).analyze(nf)
        assert result.havoc_outcome is not None
        assert result.packet_count == 5
        # Reconciled havocs mean the concrete packets really collide in the
        # bucket index; require at least a couple of packets in one bucket.
        buckets = [
            flow_hash16(lb_flow_key(p.src_ip, p.src_port, p.dst_port)) & (HASH_TABLE_BUCKETS - 1)
            for p in result.packets
            if p.dst_ip == VIP_ADDRESS
        ]
        if result.havoc_outcome.reconciled:
            assert len(set(buckets)) < len(buckets)

    def test_lb_unbalanced_tree_costs_grow_per_packet(self):
        nf = get_nf("lb-unbalanced-tree")
        result = Castan(quick_config(num_packets=6, max_states=300)).analyze(nf)
        instructions = result.metrics.instructions_per_packet
        assert instructions[-1] > instructions[0]

    def test_result_pcap_roundtrip(self, tmp_path):
        nf = get_nf("lpm-direct")
        result = Castan(quick_config(num_packets=4)).analyze(nf)
        path = tmp_path / "castan.pcap"
        assert result.write_pcap(path) == result.packet_count
        restored = read_pcap(path)
        assert [p.dst_ip for p in restored] == [p.dst_ip for p in result.packets]

    def test_metrics_report_renders(self):
        nf = get_nf("lpm-direct")
        result = Castan(quick_config(num_packets=3)).analyze(nf)
        report = result.metrics.to_report()
        assert "est.cycles" in report and "havocs reconciled" in report
        assert result.summary().startswith("CASTAN[lpm-direct]")

    def test_searcher_and_cache_model_ablation_options(self):
        nf = get_nf("lpm-patricia")
        castan = Castan(quick_config(num_packets=3, searcher="random", cache_model="none"))
        result = castan.analyze(nf)
        assert result.packet_count >= 1
        assert result.contention_sets_used == 0

    def test_probing_contention_source(self):
        nf = get_nf("lpm-direct")
        config = quick_config(num_packets=4)
        config.contention_source = "probing"
        result = Castan(config).analyze(nf)
        assert result.contention_sets_used >= 1

    def test_red_black_tree_resists_skew(self):
        # CASTAN should NOT find a strongly growing path in the RB tree: the
        # per-packet instruction counts stay within a small factor.
        nf = get_nf("lb-red-black-tree")
        result = Castan(quick_config(num_packets=6, max_states=250)).analyze(nf)
        instructions = [i for i in result.metrics.instructions_per_packet if i > 0]
        assert instructions
        assert max(instructions) <= 4 * min(instructions)


class TestUnsolvedPathsAreReported:
    """A final solve that is not ``sat`` is loud, and costs what it should."""

    DETERMINISTIC = dict(max_states=200, deadline_seconds=None)

    @pytest.mark.parametrize(
        "name",
        ["lb-unbalanced-tree", "lb-red-black-tree", "nat-unbalanced-tree", "nat-red-black-tree"],
    )
    def test_contradictory_tree_path_is_proven_unsat_and_reported(self, name, caplog):
        # The selected tree paths order one pair of keys both ways (bst_find
        # and bst_insert of one packet take opposite sides), so the honest
        # status is unsat — by an ordering proof, not an exhausted search.
        CONTEXT_STATS.reset()
        with caplog.at_level(logging.WARNING, logger="repro.core.castan"):
            result = Castan(CastanConfig(**self.DETERMINISTIC)).analyze(get_nf(name))
        assert result.solver_status == "unsat"
        assert result.unsolved_reason.startswith("ordering contradiction: ")
        assert CONTEXT_STATS.order_unsat_proofs >= 1
        (record,) = caplog.records
        message = record.getMessage()
        assert name in message and "unsat" in message and result.unsolved_reason in message
        assert "emitting defaults-only packets" in message
        assert result.unsolved_reason in result.summary()
        assert result_summary(result)["unsolved_reason"] == result.unsolved_reason
        # The reason explains the status; it is not part of the result's identity.
        solved_elsewhere = dataclasses.replace(result, unsolved_reason="")
        assert canonical_result_digest(solved_elsewhere) == canonical_result_digest(result)

    def test_a_solved_path_reports_no_reason(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.core.castan"):
            result = Castan(CastanConfig(**self.DETERMINISTIC)).analyze(get_nf("lpm-patricia"))
        assert result.solver_status == "sat" and result.unsolved_reason == ""
        assert not caplog.records
        assert "NOT solved" not in result.summary()

    @pytest.mark.parametrize("name", ["lb-red-black-tree", "nat-hash-ring"])
    def test_propagation_waves_visit_what_changed_not_the_whole_path(self, name):
        # A count, not a timing: per feasibility query or committed
        # constraint a wave re-propagates the new constraint plus whatever
        # it wakes.  Visiting the whole pending list in round 0 alone, as the
        # waves once did, reads 22 and 13 here.
        clear_incremental_caches()  # an earlier analysis' memos would answer everything
        CONTEXT_STATS.reset()
        Castan(CastanConfig(**self.DETERMINISTIC)).analyze(get_nf(name))
        waves = CONTEXT_STATS.queries + CONTEXT_STATS.adds
        assert waves > 500
        assert CONTEXT_STATS.wave_visits / waves < 1.5
        assert CONTEXT_STATS.wave_skips > 10 * CONTEXT_STATS.wave_visits


TWEAKED_HASH_SOURCE = """
def tweaked_hash16(key):
    return flow_hash16(key ^ 0x5A5A5A5A)


def process(src_ip, dst_ip, src_port, dst_port, protocol):
    key = src_ip | (src_port << 32) | (dst_port << 48)
    slot = castan_havoc(key, tweaked_hash16(key)) & 255
    buckets[slot] = buckets[slot] + 1
    return 1
"""


def tweaked_hash16(key: int) -> int:
    return flow_hash16(key ^ 0x5A5A5A5A)


class TestRainbowTablesPerNF:
    def test_nf_with_its_own_hash_gets_a_table_for_that_hash(self, tmp_path, monkeypatch):
        """A ``flow_hash16`` table for another hash fails every havoc, silently."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        module = Module("tweaked")
        module.add_region("buckets", 256, 8)
        compile_nf(module, FLOW_HASH_DIALECT_SOURCE + TWEAKED_HASH_SOURCE, entry="process")
        nf = NetworkFunction(
            name="tweaked",
            module=module,
            description="hash table indexed by a hash other than flow_hash16",
            nf_class="lb",
            data_structure="hash-table",
            hash_functions={"tweaked_hash16": tweaked_hash16},
            hash_output_bits={"tweaked_hash16": 16},
            packet_defaults=middlebox_packet_defaults(),
            castan_packet_count=4,
        )
        castan = Castan(
            quick_config(num_packets=4, max_states=60, rainbow_chains=2048, rainbow_chain_length=24)
        )
        result = castan.analyze(nf)
        assert result.havoc_outcome.reconciled and not result.havoc_outcome.failed
        table = castan._rainbow_tables(nf)["tweaked_hash16"]
        assert table.hash_fn is tweaked_hash16
        assert table is Castan(castan.config)._rainbow_tables(nf)["tweaked_hash16"]  # per process
        assert not list(tmp_path.iterdir())  # and never persisted

    def test_corrupt_cache_file_never_changes_the_result(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        config = quick_config(deadline_seconds=None, max_states=60, num_packets=5)
        digests = []
        for corrupt in (False, True, False):
            monkeypatch.setattr(castan_module, "_RAINBOW_TABLE_CACHE", {})
            if corrupt:
                (cached,) = (tmp_path / "castan-repro").iterdir()
                raw = bytearray(cached.read_bytes())
                raw[len(raw) // 2] ^= 0xFF
                cached.write_bytes(raw)
            with caplog.at_level(logging.WARNING, logger="repro.hashing.rainbow"):
                result = Castan(config).analyze(get_nf("nat-hash-table"))
            assert ("failed its checksum" in caplog.text) == corrupt
            caplog.clear()
            digests.append(canonical_result_digest(result))
        assert result.havoc_outcome.reconciled  # the table was really used
        assert len(set(digests)) == 1


class TestAdversarialEffect:
    def test_castan_workload_hurts_lpm_direct_more_than_unirand_castan(self):
        nf = get_nf("lpm-direct")
        result = Castan(quick_config(num_packets=24)).analyze(nf)
        castan_workload = make_castan_workload(result.packets)
        fair_comparison = make_unirand_castan_workload(nf, castan_workload.flow_count)
        castan_measure = measure_latency(nf, castan_workload, replay_packets=600)
        fair_measure = measure_latency(nf, fair_comparison, replay_packets=600)
        assert (
            castan_measure.counter_summary.median_l3_misses
            >= fair_measure.counter_summary.median_l3_misses
        )
