"""Service-chain NFs (`repro.nf.chain`): spec parsing, module stitching,
per-stage cost attribution, and the composition gate — the chain-synthesized
workload must cost more on the full chain than any single stage's
adversarial workload replayed through the same chain.  A chain analysed in a
service worker is checked in ``tests/test_service.py``."""

from __future__ import annotations

import pytest

from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.net.packet import Packet
from repro.nf.chain import (
    CHAIN_PACKET_DEFAULTS,
    PRESET_CHAINS,
    STAGE_ADDRESS_STRIDE,
    parse_chain_spec,
)
from repro.nf.registry import EVALUATION_NF_NAMES, get_nf
from repro.perf.interpreter import ConcreteInterpreter

SMOKE = dict(max_states=60, num_packets=5, deadline_seconds=None)

GATEWAY_LABELS = ["lpm-dpdk", "fw-conntrack", "nat-hash-table"]


@pytest.fixture(scope="module")
def gateway_result():
    """One smoke-scale analysis of the preset gateway chain."""
    return Castan(CastanConfig(**SMOKE)).analyze(get_nf("chain-gateway"))


class TestChainSpecParsing:
    def test_aliases_resolve_to_canonical_names(self):
        assert parse_chain_spec("chain:router,fw,nat") == [
            ("lpm-dpdk", "lpm-dpdk"),
            ("fw-conntrack", "fw-conntrack"),
            ("nat-hash-table", "nat-hash-table"),
        ]

    def test_unknown_stage_names_position_and_suggests(self):
        with pytest.raises(KeyError) as excinfo:
            parse_chain_spec("chain:router,fw-contrack,nat")
        message = str(excinfo.value)
        assert "chain stage 2" in message
        assert "'fw-contrack'" in message
        assert "did you mean" in message and "fw-conntrack" in message

    def test_unknown_stage_without_close_match_lists_options(self):
        with pytest.raises(KeyError, match="available:"):
            parse_chain_spec("chain:router,zzzzz")

    def test_duplicate_stages_need_distinct_labels(self):
        with pytest.raises(KeyError) as excinfo:
            parse_chain_spec("chain:nat,nat")
        message = str(excinfo.value)
        assert "chain stage 2" in message
        assert "duplicates stage 1" in message
        assert "distinct labels" in message and "nat-hash-table@" in message

    def test_duplicate_stages_with_labels_accepted(self):
        assert parse_chain_spec("chain:nat@nat1,nat@nat2") == [
            ("nat-hash-table", "nat1"),
            ("nat-hash-table", "nat2"),
        ]

    def test_nested_chains_rejected(self):
        with pytest.raises(KeyError, match="cannot nest"):
            parse_chain_spec("chain:router,chain-gateway")

    @pytest.mark.parametrize("bad", ["chain:", "chain:router,,nat", "chain:router, "])
    def test_empty_stage_rejected(self, bad):
        with pytest.raises(KeyError, match="empty stage"):
            parse_chain_spec(bad)

    def test_non_chain_spec_rejected(self):
        with pytest.raises(KeyError, match="chain:"):
            parse_chain_spec("lpm-patricia")


class TestChainConstruction:
    def test_presets_are_registered_evaluation_nfs(self):
        for preset in PRESET_CHAINS:
            assert preset in EVALUATION_NF_NAMES
        nf = get_nf("chain-gateway")
        assert nf.is_chain
        assert nf.entry == "process"
        assert [stage.label for stage in nf.chain_stages] == GATEWAY_LABELS

    def test_ad_hoc_spec_builds_same_stages_as_preset(self):
        ad_hoc = get_nf("chain:router,fw,nat")
        preset = get_nf("chain-gateway")
        assert [s.nf_name for s in ad_hoc.chain_stages] == [
            s.nf_name for s in preset.chain_stages
        ]

    def test_stage_symbols_are_prefixed_and_planes_disjoint(self):
        nf = get_nf("chain-gateway")
        staged = 0
        for stage in nf.chain_stages:
            assert stage.entry in nf.module.functions
            assert nf.stage_entries[stage.entry] == stage.label
            regions = [r for r in nf.module.regions.values() if r.name.startswith(stage.prefix)]
            assert regions, stage.label
            staged += len(regions)
            for region in regions:
                # Every stage's regions live on their own address plane.
                assert (
                    stage.address_offset
                    <= region.base_address
                    < stage.address_offset + STAGE_ADDRESS_STRIDE
                )
        # Every merged region belongs to exactly one stage.
        assert staged == len(nf.module.regions)

    def test_contention_regions_cover_every_stage(self):
        nf = get_nf("chain-gateway")
        for stage in nf.chain_stages:
            assert any(name.startswith(stage.prefix) for name in nf.contention_regions)
        for region_name in nf.contention_regions:
            nf.module.get_region(region_name)  # must resolve

    def test_merged_hints_thread_all_stages(self):
        hints = get_nf("chain-gateway").workload_hints
        # NAT/firewall stages need internal sources; the router stage needs
        # a routed destination — the merged hints carry both.
        assert "src_ip_prefix" in hints
        assert hints["dst_ip"] == CHAIN_PACKET_DEFAULTS["dst_ip"]

    def test_default_packet_traverses_every_stage(self):
        nf = get_nf("chain-gateway")
        interp = ConcreteInterpreter(nf.module, nf.entry)
        good = interp.process_packet(Packet(**CHAIN_PACKET_DEFAULTS))
        # The NAT is the last stage: the verdict is its allocated external
        # port, proving the packet survived router and firewall.
        assert good.action >= 1024
        blocked = interp.process_packet(
            Packet(**{**CHAIN_PACKET_DEFAULTS, "src_ip": 0xC0A80101})
        )
        assert blocked.action == 0  # external source: dropped mid-chain
        assert blocked.cycles < good.cycles

    def test_nat_rewrites_src_port_for_downstream_stages(self):
        assert get_nf("nat-hash-table").chain_result_rewrite == "src_port"
        edge = get_nf("chain-edge")
        assert [stage.nf_name for stage in edge.chain_stages][-2:] == [
            "nat-hash-table",
            "policer-two-choice",
        ]
        # The edge chain still forwards the default packet end to end.
        interp = ConcreteInterpreter(edge.module, edge.entry)
        assert interp.process_packet(Packet(**CHAIN_PACKET_DEFAULTS)).action != 0


class TestChainAnalysis:
    def test_synthesizes_end_to_end(self, gateway_result):
        assert gateway_result.packet_count > 0
        assert gateway_result.best_state_cost > 0
        assert gateway_result.solver_status == "sat"

    def test_stage_attribution_covers_every_stage(self, gateway_result):
        stage_cycles = gateway_result.metrics.stage_cycles
        assert set(stage_cycles) == set(GATEWAY_LABELS)
        assert all(cycles > 0 for cycles in stage_cycles.values())
        # Attribution is exclusive of the glue, so stages sum to at most
        # the best state's total cost.
        assert sum(stage_cycles.values()) <= gateway_result.best_state_cost

    def test_report_includes_attribution(self, gateway_result):
        report = gateway_result.metrics.to_report()
        assert "per-stage attribution" in report
        for label in GATEWAY_LABELS:
            assert label in report

    def test_standalone_nf_has_no_stage_attribution(self):
        config = CastanConfig(max_states=40, num_packets=2, deadline_seconds=None)
        result = Castan(config).analyze(get_nf("lpm-patricia"))
        assert result.metrics.stage_cycles == {}
        assert "per-stage attribution" not in result.metrics.to_report()


class TestChainBeatsSingleStageWorkloads:
    """The composition gate: per-stage adversaries do not compose — the
    chain-synthesized workload must beat every single-stage CASTAN workload
    when both are replayed through the full chain."""

    def test_chain_workload_dominates_single_stage_workloads(self, gateway_result):
        chain = get_nf("chain-gateway")
        interp = ConcreteInterpreter(chain.module, chain.entry)

        def replay(packets) -> int:
            interp.reset()
            return interp.process_packets(packets).total_cycles

        chain_cost = replay(gateway_result.packets)
        single_costs = {}
        for stage in chain.chain_stages:
            standalone = Castan(CastanConfig(**SMOKE)).analyze(get_nf(stage.nf_name))
            single_costs[stage.label] = replay(standalone.packets)
        assert chain_cost > max(single_costs.values()), (chain_cost, single_costs)
