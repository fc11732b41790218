"""The two interpreters agree on concrete packets.

``SymbolicEngine`` and ``ConcreteInterpreter`` step the same decoded module
(:mod:`repro.ir.decode`).  Given constant packet arguments the engine does
not fork, so one step of its search runs a whole packet stream, and every
packet must retire the same instructions, loads and stores, return the same
action and cost the same non-memory cycles as on the concrete interpreter.
Memory cycles differ by design (the engine's cache model against the
simulated hierarchy) and are subtracted on both sides.

Only packets before the first havoc are compared: from there on the engine
binds the hash result to a fresh symbol and charges ``hash_call``, while
the concrete interpreter runs the hash body.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.net.packet import Packet
from repro.nf.registry import NF_NAMES, get_nf
from repro.perf.cycles import DEFAULT_CYCLE_COSTS, CycleCosts
from repro.perf.interpreter import ConcreteInterpreter
from repro.symbex.engine import SymbolicEngine
from repro.symbex.expr import Const
from repro.workloads.generators import make_manual_workload, make_zipfian_workload

PACKETS_PER_STREAM = 8

#: Every field a different value, so a cost read from the wrong field shows.
DISTINCT_CYCLE_COSTS = CycleCosts(
    **{
        f.name: value
        for f, value in zip(
            dataclasses.fields(CycleCosts),
            (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 2.9),
            strict=True,
        )
    }
)

#: NFs whose every stream reaches a havoc on its first packet, so nothing
#: is compared (the differential holds vacuously for them).
HAVOC_ON_FIRST_PACKET = {
    "policer-two-choice": "hashes the flow key of every TCP/UDP packet",
    "dedup-bloom": "hashes the fingerprint of every TCP/UDP packet",
}


def _random_packets(nf_name: str, count: int) -> list[Packet]:
    rng = random.Random(f"agreement:{nf_name}")
    nf = get_nf(nf_name)
    return [
        Packet(
            src_ip=rng.getrandbits(32),
            dst_ip=rng.getrandbits(32),
            src_port=rng.getrandbits(16),
            dst_port=rng.getrandbits(16),
            protocol=rng.choice((6, 17, nf.packet_defaults["protocol"])),
        )
        for _ in range(count)
    ]


def _streams(nf_name: str) -> dict[str, list[Packet]]:
    nf = get_nf(nf_name)
    streams = {
        "random": _random_packets(nf_name, PACKETS_PER_STREAM),
        "zipfian": make_zipfian_workload(nf, num_packets=PACKETS_PER_STREAM).packets,
    }
    manual = make_manual_workload(nf, PACKETS_PER_STREAM)
    if manual is not None:
        streams["manual"] = manual.packets[:PACKETS_PER_STREAM]
    return streams


def _args(packet: Packet) -> list[int]:
    return [packet.src_ip, packet.dst_ip, packet.src_port, packet.dst_port, packet.protocol]


def _compare_stream(nf_name: str, costs: CycleCosts, packets: list[Packet]) -> int:
    """Assert agreement packet by packet; return how many packets were compared."""
    nf = get_nf(nf_name)
    engine = SymbolicEngine(
        nf.module,
        nf.entry,
        [[Const(value) for value in _args(packet)] for packet in packets],
        cycle_costs=costs,
    )
    state = engine.make_initial_state()
    outcomes = engine.execute_until_fork(state, max_instructions=10**7)
    first_havoc = min((r.packet_index for r in state.havoc_records), default=len(packets))
    # Constant packets run to the end, or fork on a havoc's symbol.
    assert len(state.packet_metrics) >= first_havoc
    assert len(outcomes) == 1 or state.havoc_records
    interpreter = ConcreteInterpreter(nf.module, nf.entry, cycle_costs=costs)
    for index in range(first_havoc):
        concrete = interpreter.process_packet(packets[index])
        symbolic = state.packet_metrics[index]
        memory = symbolic.l1_hits + symbolic.l3_hits + symbolic.dram_accesses
        assert memory == symbolic.loads + symbolic.stores  # no level left out
        symbolic_memory_cycles = (
            symbolic.l1_hits * costs.l1_hit
            + symbolic.l3_hits * costs.l3_hit
            + symbolic.dram_accesses * costs.dram
        )
        concrete_memory_cycles = (
            concrete.l1_hits * costs.l1_hit
            + concrete.l2_hits * costs.l2_hit
            + concrete.l3_hits * costs.l3_hit
            + concrete.l3_misses * costs.dram
        )
        assert (
            symbolic.instructions,
            symbolic.loads,
            symbolic.stores,
            symbolic.action,
            symbolic.cycles - symbolic_memory_cycles,
        ) == (
            concrete.instructions,
            concrete.loads,
            concrete.stores,
            concrete.action,
            concrete.cycles - concrete_memory_cycles,
        ), f"{nf_name} packet {index}"
    return first_havoc


@pytest.mark.parametrize(
    "costs", [DEFAULT_CYCLE_COSTS, DISTINCT_CYCLE_COSTS], ids=["default", "distinct"]
)
@pytest.mark.parametrize("nf_name", NF_NAMES)
def test_interpreters_agree_on_concrete_packets(nf_name, costs):
    compared = sum(_compare_stream(nf_name, costs, s) for s in _streams(nf_name).values())
    if nf_name in HAVOC_ON_FIRST_PACKET:
        assert compared == 0, "the havoc moved: drop the NF from HAVOC_ON_FIRST_PACKET"
    else:
        assert compared >= PACKETS_PER_STREAM


def test_distinct_costs_are_distinct():
    values = [getattr(DISTINCT_CYCLE_COSTS, f.name) for f in dataclasses.fields(CycleCosts)]
    assert len(set(values)) == len(values)
