"""Tests for the workload generators and the simulated testbed."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nf.common import VIP_ADDRESS
from repro.nf.registry import NF_NAMES, get_nf
from repro.testbed.cdf import CDF
from repro.testbed.dut import DeviceUnderTest, TestbedConfig
from repro.testbed.measure import _loss_fraction_at_rate, measure_latency, measure_throughput
from repro.workloads.generators import (
    _flow_for_index,
    make_castan_workload,
    make_manual_workload,
    make_one_packet_workload,
    make_unirand_castan_workload,
    make_unirand_workload,
    make_zipfian_workload,
)
from repro.workloads.zipf import zipf_flow_counts, zipf_sample, zipf_weights


@pytest.fixture(scope="module")
def lb_nf():
    return get_nf("lb-hash-table")


@pytest.fixture(scope="module")
def nat_nf():
    return get_nf("nat-hash-table")


@pytest.fixture(scope="module")
def lpm_nf():
    return get_nf("lpm-patricia")


class TestZipf:
    def test_weights_are_decreasing(self):
        weights = zipf_weights(10)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_sample_range_and_determinism(self):
        sample = zipf_sample(500, 50, seed=3)
        assert all(0 <= rank < 50 for rank in sample)
        assert sample == zipf_sample(500, 50, seed=3)

    def test_flow_counts_sum(self):
        counts = zipf_flow_counts(1000, 40, seed=1)
        assert sum(counts) == 1000
        assert counts[0] > counts[-1]  # heavy head


class TestGenerators:
    def test_one_packet_workload(self, lpm_nf):
        workload = make_one_packet_workload(lpm_nf, packets=10)
        assert workload.packet_count == 10
        assert workload.flow_count == 1

    def test_zipfian_sizes_and_skew(self, lb_nf):
        workload = make_zipfian_workload(lb_nf, num_packets=800, num_flows=60)
        assert workload.packet_count == 800
        assert workload.flow_count <= 60
        assert workload.flow_count > 20

    def test_unirand_every_packet_its_own_flow(self, lb_nf):
        workload = make_unirand_workload(lb_nf, num_packets=300)
        assert workload.packet_count == 300
        assert workload.flow_count == 300

    def test_unirand_castan_flow_count(self, lb_nf):
        workload = make_unirand_castan_workload(lb_nf, castan_flow_count=17)
        assert workload.flow_count == 17

    def test_lb_workloads_respect_vip_hint(self, lb_nf):
        for workload in (
            make_zipfian_workload(lb_nf, num_packets=200, num_flows=20),
            make_unirand_workload(lb_nf, num_packets=100),
        ):
            assert all(p.dst_ip == VIP_ADDRESS for p in workload.packets)

    def test_nat_workloads_respect_internal_prefix(self, nat_nf):
        workload = make_unirand_workload(nat_nf, num_packets=100)
        assert all(p.src_ip >> 24 == 10 for p in workload.packets)

    def test_manual_workload_only_when_defined(self, lpm_nf, lb_nf):
        assert make_manual_workload(lpm_nf) is not None
        assert make_manual_workload(lb_nf) is None

    def test_castan_workload_wrapper_and_looping(self, lpm_nf):
        packets = make_one_packet_workload(lpm_nf, packets=3).packets
        workload = make_castan_workload(packets)
        assert workload.packet_count == 3
        looped = workload.looped(10)
        assert len(looped) == 10
        assert looped[3].flow_tuple == packets[0].flow_tuple


class TestFlowInjectivity:
    """`_flow_for_index` must be injective for every NF's workload hints:
    "unirand" is documented as one flow per packet, so a collision would
    silently break it (regression: the NAT branch's ``| 1`` folded pairs
    of hosts onto one source address)."""

    @pytest.mark.parametrize("nf_name", NF_NAMES)
    def test_dense_index_ranges_are_collision_free(self, nf_name):
        nf = get_nf(nf_name)
        rng = random.Random(0)
        flows = [_flow_for_index(nf, i, rng) for i in range(4000)]
        assert len(set(flows)) == len(flows)

    @pytest.mark.parametrize("nf_name", NF_NAMES)
    @settings(max_examples=25, deadline=None)
    @given(
        indices=st.lists(
            st.integers(min_value=0, max_value=60_000 * 0xFFFF),
            min_size=2,
            max_size=200,
            unique=True,
        )
    )
    def test_scattered_indices_are_collision_free(self, nf_name, indices):
        nf = get_nf(nf_name)
        rng = random.Random(1)
        flows = [_flow_for_index(nf, i, rng) for i in indices]
        assert len(set(flows)) == len(flows)

    def test_nat_hosts_are_not_forced_odd(self):
        nf = get_nf("nat-hash-table")
        rng = random.Random(2)
        hosts = {_flow_for_index(nf, i, rng).src_ip & 0xFFFFFF for i in range(64)}
        assert any(host % 2 == 0 for host in hosts)


class TestCDF:
    def test_median_and_percentiles(self):
        cdf = CDF(samples=list(map(float, range(1, 101))))
        assert cdf.median == 50.0
        assert cdf.p95 == 95.0
        assert cdf.minimum == 1.0 and cdf.maximum == 100.0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_percentiles_are_nearest_rank(self, n):
        samples = [float(value) for value in range(n, 0, -1)]  # unsorted on purpose
        cdf = CDF(samples=samples)
        for fraction in (0.05, 0.25, 1 / 3, 0.5, 0.75, 0.9, 0.95, 1.0):
            # The smallest sample with at least `fraction` of all samples at or below it.
            expected = min(
                value
                for value in samples
                if sum(other <= value for other in samples) >= Fraction(fraction) * n
            )
            assert cdf.percentile(fraction) == expected, (n, fraction)
        for value, fraction in cdf.series(points=n):
            assert value == cdf.percentile(fraction)

    def test_exact_ranks_survive_float_error(self):
        cdf = CDF(samples=list(map(float, range(1, 501))))
        assert cdf.median == 250.0
        assert cdf.p95 == 475.0
        assert 0.07 * 100 > 7  # the product lands just above the exact rank
        assert CDF(samples=list(map(float, range(1, 101)))).percentile(0.07) == 7.0

    def test_series_is_monotone(self):
        cdf = CDF(samples=[5.0, 1.0, 3.0, 2.0, 4.0])
        series = cdf.series(points=5)
        values = [v for v, _ in series]
        fractions = [p for _, p in series]
        assert values == sorted(values)
        assert fractions[-1] == 1.0

    def test_empty_cdf(self):
        cdf = CDF()
        assert cdf.median == 0.0 and cdf.series() == []

    def test_render_contains_label(self):
        assert "lat" in CDF(samples=[1.0, 2.0]).render(label="lat")

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            CDF(samples=[1.0]).percentile(0.0)


class TestTestbed:
    def test_latency_includes_wire_overhead(self, lpm_nf):
        workload = make_one_packet_workload(lpm_nf)
        result = measure_latency(lpm_nf, workload, replay_packets=200)
        config = TestbedConfig()
        assert result.median_latency_ns > config.wire_overhead_ns
        assert result.replayed_packets == 200

    def test_nop_is_fastest(self):
        nop = get_nf("nop")
        patricia = get_nf("lpm-patricia")
        workload_nop = make_one_packet_workload(nop)
        workload_lpm = make_one_packet_workload(patricia)
        nop_result = measure_latency(nop, workload_nop, replay_packets=300)
        lpm_result = measure_latency(patricia, workload_lpm, replay_packets=300)
        assert lpm_result.median_latency_ns > nop_result.median_latency_ns
        assert lpm_result.deviation_from(nop_result) > 0

    def test_unirand_slower_than_one_packet_for_stateful_nf(self, lb_nf):
        one = measure_latency(lb_nf, make_one_packet_workload(lb_nf), replay_packets=400)
        unirand = measure_latency(
            lb_nf, make_unirand_workload(lb_nf, num_packets=400), replay_packets=400
        )
        assert unirand.counter_summary.median_cycles >= one.counter_summary.median_cycles

    def test_throughput_nop_close_to_calibration(self):
        nop = get_nf("nop")
        result = measure_throughput(nop, make_one_packet_workload(nop), replay_packets=300)
        assert 3.0 < result.max_rate_mpps < 3.8  # calibrated to ~3.45 Mpps
        assert result.loss_at_max < 0.01

    def test_throughput_decreases_with_heavier_workload(self, lb_nf):
        one = measure_throughput(lb_nf, make_one_packet_workload(lb_nf), replay_packets=300)
        unirand = measure_throughput(
            lb_nf, make_unirand_workload(lb_nf, num_packets=300), replay_packets=300
        )
        assert unirand.max_rate_mpps <= one.max_rate_mpps

    def test_dut_reset_restores_cold_state(self, lb_nf):
        dut = DeviceUnderTest(lb_nf)
        workload = make_one_packet_workload(lb_nf)
        first = dut.process(workload.packets[0])
        dut.reset()
        again = dut.process(workload.packets[0])
        assert again.l3_misses >= first.l3_misses  # cold caches again

    @pytest.mark.parametrize("nf_name", ["nop", "lpm-patricia", "lb-hash-table"])
    def test_reported_rate_really_is_loss_free(self, nf_name):
        """Invariant: the loss measured *at the reported rate* is below the
        threshold (loss is not monotone in offered rate, so the bisection
        alone cannot guarantee this)."""
        nf = get_nf(nf_name)
        workload = make_unirand_workload(nf, num_packets=300)
        config = TestbedConfig()
        result = measure_throughput(nf, workload, config=config, replay_packets=300)
        assert result.loss_at_max < config.loss_threshold
        assert result.max_rate_mpps > 0

    def test_loss_simulation_deque_matches_reference(self):
        """The O(1) deque retirement must behave exactly like the old O(n)
        list-filter implementation."""

        def reference_loss(service_times_ns, rate_mpps, queue_capacity):
            if rate_mpps <= 0:
                return 0.0
            interval_ns = 1000.0 / rate_mpps
            queue_free_at = []
            server_free_at = 0.0
            dropped = 0
            now = 0.0
            for service in service_times_ns:
                now += interval_ns
                queue_free_at = [t for t in queue_free_at if t > now]
                if len(queue_free_at) >= queue_capacity:
                    dropped += 1
                    continue
                start = max(now, server_free_at)
                server_free_at = start + service
                queue_free_at.append(server_free_at)
            return dropped / max(1, len(service_times_ns))

        rng = random.Random(42)
        service_times = [rng.uniform(100.0, 4000.0) for _ in range(500)]
        for rate in (0.1, 0.5, 1.0, 2.5, 5.0, 10.0):
            assert _loss_fraction_at_rate(service_times, rate, 32) == pytest.approx(
                reference_loss(service_times, rate, 32)
            )
