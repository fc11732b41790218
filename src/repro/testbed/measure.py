"""Measurement procedures of the evaluation (§5.1).

Three experiments per (NF, workload) pair, matching the paper:

* **Latency** — replay the workload's pcap in a loop at a rate low enough
  that at most one packet is outstanding; report the end-to-end latency CDF
  (hardware-timestamp style) next to a NOP baseline.
* **Maximum throughput** — find the highest offered rate at which the DUT
  drops less than 1 % of packets, by simulating a fixed-capacity rx queue
  fed at a constant rate and drained at the measured per-packet service
  times.
* **Micro-architectural characterisation** — per-packet reference cycles,
  instructions retired and L3 misses from the performance counters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.nf.base import NetworkFunction
from repro.perf.counters import CounterSummary, PacketCounters, aggregate_counters
from repro.testbed.cdf import CDF
from repro.testbed.dut import DeviceUnderTest
from repro.workloads.generators import Workload

#: Number of packets replayed per latency measurement (the paper replays
#: each pcap for 20 seconds; the scaled default keeps runs in seconds).
DEFAULT_REPLAY_PACKETS = 3000

#: Step (Mpps) of the throughput search's bisection and of its step-down.
RATE_RESOLUTION_MPPS = 0.01

#: Packets the DUT's rx queue holds before it drops.
QUEUE_CAPACITY = 256

#: Loss fraction at or above which an offered rate is not loss-free (1 %).
LOSS_THRESHOLD = 0.01


@dataclass
class LatencyResult:
    """Latency CDF plus the per-packet counters behind it."""

    nf_name: str
    workload_name: str
    latency_ns: CDF = field(default_factory=CDF)
    cycles: CDF = field(default_factory=CDF)
    counters: list[PacketCounters] = field(default_factory=list)
    replayed_packets: int = 0

    @property
    def median_latency_ns(self) -> float:
        return self.latency_ns.median

    @property
    def counter_summary(self) -> CounterSummary:
        return aggregate_counters(self.counters)

    def deviation_from(self, baseline: "LatencyResult") -> float:
        """Median latency deviation from a baseline run (Table 5)."""
        return self.median_latency_ns - baseline.median_latency_ns


@dataclass
class ThroughputResult:
    """Maximum loss-free (<1 %) throughput."""

    nf_name: str
    workload_name: str
    max_rate_mpps: float
    loss_at_max: float

    def __str__(self) -> str:
        return f"{self.max_rate_mpps:.2f} Mpps"


def measure_latency(
    nf: NetworkFunction,
    workload: Workload,
    replay_packets: int = DEFAULT_REPLAY_PACKETS,
) -> LatencyResult:
    """Replay ``workload`` and collect the end-to-end latency CDF."""
    dut = DeviceUnderTest(nf)
    dut.reset()
    result = LatencyResult(nf_name=nf.name, workload_name=workload.name)
    for packet in workload.looped(replay_packets):
        counters = dut.process(packet)
        result.counters.append(counters)
        result.latency_ns.add(dut.end_to_end_latency_ns(counters))
        result.cycles.add(counters.cycles)
        result.replayed_packets += 1
    return result


def _loss_fraction_at_rate(service_times_ns: list[float], rate_mpps: float) -> float:
    """Simulate a fixed-size rx queue fed at ``rate_mpps``; return loss."""
    if rate_mpps <= 0:
        return 0.0
    interval_ns = 1000.0 / rate_mpps  # ns between arrivals at rate (Mpps)
    # Completion times of queued/in-service packets.  The server is FIFO, so
    # completion times are appended in non-decreasing order and retiring is
    # an O(1) popleft from the front instead of an O(n) list filter.
    queue_free_at: deque[float] = deque()
    server_free_at = 0.0
    dropped = 0
    now = 0.0
    for service in service_times_ns:
        now += interval_ns
        # Retire completed packets from the queue.
        while queue_free_at and queue_free_at[0] <= now:
            queue_free_at.popleft()
        if len(queue_free_at) >= QUEUE_CAPACITY:
            dropped += 1
            continue
        start = max(now, server_free_at)
        server_free_at = start + service
        queue_free_at.append(server_free_at)
    return dropped / max(1, len(service_times_ns))


def measure_throughput(
    nf: NetworkFunction,
    workload: Workload,
    replay_packets: int = DEFAULT_REPLAY_PACKETS,
) -> ThroughputResult:
    """Find the highest offered rate with less than 1 % packet loss."""
    dut = DeviceUnderTest(nf)
    dut.reset()
    service_times = [
        dut.service_time_ns(dut.process(packet)) for packet in workload.looped(replay_packets)
    ]
    mean_service = sum(service_times) / len(service_times)
    # A single-core DUT cannot forward faster than its mean service rate;
    # bisect below that bound, letting the queue simulation account for
    # loss caused by service-time variability.
    low, high = 0.05, 1000.0 / mean_service
    while high - low > RATE_RESOLUTION_MPPS:
        mid = (low + high) / 2.0
        loss = _loss_fraction_at_rate(service_times, mid)
        if loss < LOSS_THRESHOLD:
            low = mid
        else:
            high = mid
    # Loss is not monotone in the offered rate (arrival/drain phase effects),
    # so the bisection's `low` can end on a rate whose measured loss exceeds
    # the threshold.  Step the reported rate down until the loss actually
    # measured at it is below the threshold, so "max loss-free rate" holds.
    rate = round(low, 2)
    loss = _loss_fraction_at_rate(service_times, rate)
    while loss >= LOSS_THRESHOLD and rate > RATE_RESOLUTION_MPPS:
        rate = round(rate - RATE_RESOLUTION_MPPS, 6)
        loss = _loss_fraction_at_rate(service_times, rate)
    return ThroughputResult(
        nf_name=nf.name,
        workload_name=workload.name,
        max_rate_mpps=rate,
        loss_at_max=loss,
    )
