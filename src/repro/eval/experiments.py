"""Shared, memoised experiment runners behind every table and figure.

All benchmark targets pull from these functions, so running the whole
``benchmarks/`` directory analyses each NF once and replays each workload
once, no matter how many tables reference the same numbers.

Every table and figure analyses at :data:`EVAL_CONFIG`, the config the
quality gate (:func:`quality_row`, ``tests/test_quality.py``) holds to
floors, so the tables describe the workloads the gate checks.  It sets no deadline, so
the workloads do not depend on machine speed.  Scaling: the replay and
workload sizes in :class:`EvalSettings` are sized for laptop runs; set
``REPRO_EVAL_SCALE=full`` for larger ones, or ``smoke`` for CI-sized
runs.  Every analysis runs in-process, once per NF; to analyse a suite
across processes, submit it to the synthesis service
(:mod:`repro.service`), whose store keeps each result.
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

#: The one analysis config of the evaluation: the paper's tables and the
#: quality gate read it.  No deadline makes every analysis deterministic.
EVAL_CONFIG = CastanConfig(deadline_seconds=None, max_states=1000)

#: Packets per replay of a quality row (not scaled by ``REPRO_EVAL_SCALE``).
QUALITY_REPLAY_PACKETS = 500


@dataclass(frozen=True)
class EvalSettings:
    """Replay and workload sizes shared by every experiment run."""

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
                replay_packets=6000,
                zipfian_packets=8000,
                zipfian_flows=540,
                unirand_packets=8000,
                throughput_replay_packets=3000,
            )
        if scale == "smoke":
            return cls(
                replay_packets=300,
                zipfian_packets=400,
                zipfian_flows=40,
                unirand_packets=400,
                throughput_replay_packets=200,
            )
        return cls()


SETTINGS = EvalSettings.from_environment()


@lru_cache(maxsize=None)
def nf_instance(name: str) -> NetworkFunction:
    """One shared (analysis-side) instance of each NF."""
    return get_nf(name)


_ANALYSES: dict[tuple[str, str], CastanResult] = {}


def castan_result(name: str, config: CastanConfig = EVAL_CONFIG) -> CastanResult:
    """Run CASTAN once per NF and config, and cache the synthesized workload."""
    key = (name, config.content_hash())
    if key not in _ANALYSES:
        _ANALYSES[key] = Castan(config).analyze(nf_instance(name))
    return _ANALYSES[key]


def _median_cycles(nf: NetworkFunction, workload: Workload) -> float:
    return measure_latency(nf, workload, replay_packets=QUALITY_REPLAY_PACKETS).cycles.median


def quality_row(name: str, config: CastanConfig = EVAL_CONFIG) -> dict:
    """What one NF's analysis found, and how its workload replays.

    Three replays of ``QUALITY_REPLAY_PACKETS`` packets, a cold DUT each:
    the CASTAN workload, same-size uniform-random traffic (UniRand-CASTAN)
    and the NF's Manual workload where it has one.  ``witnessed`` /
    ``searched`` count the reconciled havocs a witness model and a model
    search proved; NFs without havocs have ``None`` there.
    """
    nf = nf_instance(name)
    result = castan_result(name, config)
    castan = _median_cycles(nf, make_castan_workload(result.packets))
    unirand = _median_cycles(nf, make_unirand_castan_workload(nf, len(result.packets)))
    manual_workload = make_manual_workload(nf)
    manual = None if manual_workload is None else _median_cycles(nf, manual_workload)
    havoc = result.havoc_outcome
    return {
        "nf": name,
        "states": result.states_explored,
        "packets": len(result.packets),
        "stop": result.stop_reason,
        "status": result.solver_status,
        "reconciled": None if havoc is None else f"{len(havoc.reconciled)}/{havoc.total}",
        "witnessed": None if havoc is None else havoc.witnessed,
        "searched": None if havoc is None else havoc.searched,
        "predicted": result.best_state_cost,
        "castan": castan,
        "unirand": unirand,
        "manual": manual,
        "vs_unirand": castan / unirand,
        "vs_manual": None if manual is None else castan / manual,
    }


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
        nop, make_one_packet_workload(nop), replay_packets=SETTINGS.replay_packets
    )
    nf = nf_instance(name)
    for workload_name, workload in workload_suite(name).items():
        results[workload_name] = measure_latency(
            nf, workload, replay_packets=SETTINGS.replay_packets
        )
    return results


@lru_cache(maxsize=None)
def throughput_results(name: str) -> dict[str, ThroughputResult]:
    """Maximum throughput for every workload of one NF (plus the NOP bound)."""
    results: dict[str, ThroughputResult] = {}
    nop = nf_instance("nop")
    results["nop"] = measure_throughput(
        nop, make_one_packet_workload(nop), replay_packets=SETTINGS.throughput_replay_packets
    )
    nf = nf_instance(name)
    for workload_name, workload in workload_suite(name).items():
        results[workload_name] = measure_throughput(
            nf, workload, replay_packets=SETTINGS.throughput_replay_packets
        )
    return results
