"""Shared, memoised experiment runners behind every table and figure.

All benchmark targets pull from these functions, so running the whole
``benchmarks/`` directory analyses each NF once and replays each workload
once, no matter how many tables reference the same numbers.

Scaling: the defaults in :class:`EvalSettings` are sized for laptop runs
(seconds per NF).  Set the environment variable ``REPRO_EVAL_SCALE=full``
for larger workloads and exploration budgets closer to the paper's, or
``REPRO_EVAL_SCALE=smoke`` for CI-sized runs.  Every analysis runs
in-process, once per NF; to analyse a suite across processes, submit it to
the synthesis service (:mod:`repro.service`), whose store keeps each result.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import lru_cache

from repro.core.castan import Castan, CastanResult
from repro.core.config import CastanConfig
from repro.nf.base import NetworkFunction
from repro.nf.registry import get_nf
from repro.testbed.dut import TestbedConfig
from repro.testbed.measure import LatencyResult, ThroughputResult, measure_latency, measure_throughput
from repro.workloads.generators import (
    Workload,
    make_castan_workload,
    make_manual_workload,
    make_one_packet_workload,
    make_unirand_castan_workload,
    make_unirand_workload,
    make_zipfian_workload,
)

@dataclass(frozen=True)
class EvalSettings:
    """Knobs shared by every experiment run."""

    castan_max_states: int = 250
    castan_deadline_seconds: float = 10.0
    castan_num_packets: int | None = None  # per-NF paper-sized packet counts
    replay_packets: int = 1200
    zipfian_packets: int = 1600
    zipfian_flows: int = 110
    unirand_packets: int = 1600
    throughput_replay_packets: int = 800

    @classmethod
    def from_environment(cls) -> "EvalSettings":
        scale = os.environ.get("REPRO_EVAL_SCALE", "quick").lower()
        if scale not in ("quick", "full", "smoke"):
            warnings.warn(
                f"unrecognized REPRO_EVAL_SCALE={scale!r}; falling back to 'quick' "
                "(options: smoke, quick, full)",
                RuntimeWarning,
                stacklevel=2,
            )
            scale = "quick"
        if scale == "full":
            return cls(
                castan_max_states=2500,
                castan_deadline_seconds=120.0,
                castan_num_packets=None,  # per-NF paper-sized packet counts
                replay_packets=6000,
                zipfian_packets=8000,
                zipfian_flows=540,
                unirand_packets=8000,
                throughput_replay_packets=3000,
            )
        if scale == "smoke":
            return cls(
                castan_max_states=60,
                castan_deadline_seconds=4.0,
                castan_num_packets=5,
                replay_packets=300,
                zipfian_packets=400,
                zipfian_flows=40,
                unirand_packets=400,
                throughput_replay_packets=200,
            )
        return cls()


SETTINGS = EvalSettings.from_environment()
_TESTBED_CONFIG = TestbedConfig()


@lru_cache(maxsize=None)
def nf_instance(name: str) -> NetworkFunction:
    """One shared (analysis-side) instance of each NF."""
    return get_nf(name)


@lru_cache(maxsize=None)
def castan_result(name: str) -> CastanResult:
    """Run CASTAN once per NF and cache the synthesized workload."""
    config = CastanConfig(
        max_states=SETTINGS.castan_max_states,
        deadline_seconds=SETTINGS.castan_deadline_seconds,
        num_packets=SETTINGS.castan_num_packets,
    )
    return Castan(config).analyze(nf_instance(name))


@lru_cache(maxsize=None)
def workload_suite(name: str) -> dict[str, Workload]:
    """All workloads of §5.1 for one NF (keyed by workload name)."""
    nf = nf_instance(name)
    analysis = castan_result(name)
    castan_workload = make_castan_workload(analysis.packets)
    suite: dict[str, Workload] = {
        "1-packet": make_one_packet_workload(nf),
        "zipfian": make_zipfian_workload(
            nf, num_packets=SETTINGS.zipfian_packets, num_flows=SETTINGS.zipfian_flows
        ),
        "unirand": make_unirand_workload(nf, num_packets=SETTINGS.unirand_packets),
        "unirand-castan": make_unirand_castan_workload(nf, castan_workload.flow_count),
        "castan": castan_workload,
    }
    manual = make_manual_workload(nf)
    if manual is not None:
        suite["manual"] = manual
    return suite


@lru_cache(maxsize=None)
def latency_results(name: str) -> dict[str, LatencyResult]:
    """Latency (and counter) measurements for every workload of one NF.

    Includes a ``"nop"`` entry: the NOP NF measured under its own 1-packet
    workload, the baseline every figure and Table 5 subtract from.
    """
    results: dict[str, LatencyResult] = {}
    nop = nf_instance("nop")
    results["nop"] = measure_latency(
        nop,
        make_one_packet_workload(nop),
        config=_TESTBED_CONFIG,
        replay_packets=SETTINGS.replay_packets,
    )
    nf = nf_instance(name)
    for workload_name, workload in workload_suite(name).items():
        results[workload_name] = measure_latency(
            nf, workload, config=_TESTBED_CONFIG, replay_packets=SETTINGS.replay_packets
        )
    return results


@lru_cache(maxsize=None)
def throughput_results(name: str) -> dict[str, ThroughputResult]:
    """Maximum throughput for every workload of one NF (plus the NOP bound)."""
    results: dict[str, ThroughputResult] = {}
    nop = nf_instance("nop")
    results["nop"] = measure_throughput(
        nop,
        make_one_packet_workload(nop),
        config=_TESTBED_CONFIG,
        replay_packets=SETTINGS.throughput_replay_packets,
    )
    nf = nf_instance(name)
    for workload_name, workload in workload_suite(name).items():
        results[workload_name] = measure_throughput(
            nf,
            workload,
            config=_TESTBED_CONFIG,
            replay_packets=SETTINGS.throughput_replay_packets,
        )
    return results
