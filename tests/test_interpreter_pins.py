"""Output pins and invariants for the concrete interpreter and replay calibration.

* **Counter pins** — every registered NF processes a seeded 300-packet
  stream (fresh random flows mixed with repeats of earlier ones, so table
  hits, inserts and cache reuse all occur) on a cold DUT; a digest of every
  :class:`~repro.perf.counters.PacketCounters` field of every packet is
  pinned.  A change to the interpreter, the memory hierarchy or the cost
  table that moves a single counter of a single packet fails here.
* **Replay invariants** — :class:`~repro.scoring.replay.PrimedReplay` costs do
  not depend on probe order, a snapshot restores the exact primed state after
  probes that evicted lines and wrote NF memory, and a restore keeps using the
  hierarchy object the caller passed in.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import MemoryHierarchy
from repro.ir.builder import FunctionBuilder
from repro.ir.instructions import Unreachable
from repro.ir.module import Module
from repro.ir.values import Register
from repro.net.packet import Packet
from repro.nf.registry import NF_NAMES, get_nf
from repro.perf import interpreter as interpreter_module
from repro.perf.interpreter import ConcreteInterpreter, ExecutionError
from repro.scoring.replay import PrimedReplay
from repro.testbed.dut import DeviceUnderTest

_FIELD_BITS = {"src_ip": 32, "dst_ip": 32, "src_port": 16, "dst_port": 16, "protocol": 8}

#: sha256 over the per-packet counter lines of :func:`counter_digest`,
#: recorded before the interpreter was predecoded.
COUNTER_PINS = {
    "nop": "67f4c820babce979ee768b757cc1710f1ee525fee389fdaaec1467221ea49040",
    "lpm-patricia": "2cc31c56ed3ae81eeae1d706ed2f8deca45149e4aee5f269ac4f66a809bab916",
    "lpm-direct": "cc5184d4b95f80a395adcb5e9225722656e48bc15dc11f21a87531179db1ca64",
    "lpm-dpdk": "80ca45ad6959a5d32ab7428fd7983016eb52393026f418f0bd46944e4dc3079e",
    "lb-hash-table": "5e001544bef6acac342454a8f9afdf5deb2d11ccd8bd04be47d19a8eab047ae8",
    "lb-hash-ring": "6519361ee81090d401b03ca56c3d27f3c0dd69ba72fac4b433b28f2147e64045",
    "lb-unbalanced-tree": "9f17a465c7000ad50d11a872d2ea0474b1ae77af265c5b657bfa8ae1d279e540",
    "lb-red-black-tree": "2e325970df5cfecad271d94084c9539009b300e480effad4b1d456226df535a0",
    "nat-hash-table": "061aa4ddc747ac60a48ee2f28834ae09edba38f88f837c8c0e94fc23a78aa8b3",
    "nat-hash-ring": "bacc9257e668b17592f26edeccd120fad8d9ca4d97820c46594afe23538467f0",
    "nat-unbalanced-tree": "2a000608726fcc0599c044dde8a8aff1fb8a07e6738372d34bad0e6a3e91e017",
    "nat-red-black-tree": "ccc86e9e6569dcfe0c00eaac94c22344181df7bd4818e13938acb6752b6e287c",
    "fw-conntrack": "4a970bdf686fda9a324cd63dfe3662614e348b727ac89dbee9b639df420ef3f0",
    "policer-two-choice": "47d1404e2b887740312ddeeff2a8849431fa8ebdb79874864901f2f6d8e102f3",
    "dedup-bloom": "80d9ce5247e8daffe2602b03e0272adef4db4a905ade6aed1fd80e376b582fdf",
    "dpi-trie": "3c52c122509d353434f780b728a9a232513c274c178e9cefe84c548dc5d1a7fe",
    "chain-gateway": "8e56c614011e34fb86aa6ced8776d52c64ba95abcdef6035989ec7b3052ef9f8",
    "chain-edge": "8084434fe01d58de67355007257f28798a19944574b58156af3f884b1396efe1",
}


def packet_stream(nf, count: int = 300, seed: int = 26) -> list[Packet]:
    """``count`` seeded packets for ``nf``: new flows and repeats of old ones.

    A new flow takes each field from the NF's defaults and workload hints
    half of the time (so traffic reaches the NF's interesting paths) and a
    uniformly random value otherwise.
    """
    rng = random.Random(f"{seed}:{nf.name}")
    preferred = dict(nf.packet_defaults)
    preferred.update((k, v) for k, v in nf.workload_hints.items() if k in _FIELD_BITS)

    def field(name: str, bits: int) -> int:
        if name in preferred and rng.random() < 0.5:
            return preferred[name]
        if name == "protocol":
            return rng.choice((6, 17, rng.getrandbits(bits)))
        return rng.getrandbits(bits)

    seen: list[tuple[int, ...]] = []
    packets = []
    for _ in range(count):
        if seen and rng.random() < 0.4:
            flow = rng.choice(seen)
        else:
            flow = tuple(field(name, bits) for name, bits in _FIELD_BITS.items())
            seen.append(flow)
        packets.append(Packet(*flow))
    return packets


def counter_digest(nf, packets: list[Packet]) -> str:
    """Digest of every counter of every packet on a fresh, cold DUT.

    A packet that raises contributes its ``ExecutionError`` message instead.
    """
    interpreter = ConcreteInterpreter(nf.module, nf.entry)
    digest = hashlib.sha256()
    for packet in packets:
        try:
            c = interpreter.process_packet(packet)
        except ExecutionError as exc:
            line = f"error:{exc}"
        else:
            line = (
                f"{c.cycles},{c.instructions},{c.loads},{c.stores},{c.l1_hits},"
                f"{c.l2_hits},{c.l3_hits},{c.l3_misses},{c.action}"
            )
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("nf_name", NF_NAMES)
def test_counters_match_pins(nf_name):
    nf = get_nf(nf_name)
    assert counter_digest(nf, packet_stream(nf)) == COUNTER_PINS[nf_name]


def test_pins_cover_every_registered_nf():
    assert sorted(COUNTER_PINS) == sorted(NF_NAMES)


# -- the checks every packet is held to -------------------------------------------


def _module(build) -> Module:
    """A one-function module ``f(x)`` (plus a 4-cell region) whose body ``build`` emits."""
    module = Module("m")
    module.add_region("table", 4, 8)
    builder = FunctionBuilder("f", ["x"])
    builder.switch_to(builder.block("entry"))
    build(builder)
    module.add_function(builder.build())
    return module


@pytest.mark.parametrize(
    "build, budget, message",
    [
        (lambda b: b.ret(Register("ghost")), 100, "read of undefined register %ghost in f"),
        (lambda b: b.ret(b.load("table", 5)), 100, r"out-of-bounds access to @table\[5\] \(length 4\)"),
        (lambda b: b.store("table", b.add(b.param("x"), 4), 1), 100, r"@table\[11\]"),
        (lambda b: b.ret(b.call("f", [b.param("x")])), 10_000, "call depth limit exceeded"),
        (lambda b: b.current_block.append(Unreachable()), 100, "reached unreachable in f"),
        (lambda b: b.add(b.param("x"), 1), 100, "fell off the end of block 'entry' in f"),
        # Falling off is reported even when the sentinel step crosses the budget.
        (lambda b: b.add(b.param("x"), 1), 1, "fell off the end of block 'entry' in f"),
        (lambda b: b.jump("entry"), 50, "instruction budget exceeded in f"),
    ],
    ids=["register", "load-bounds", "store-bounds", "depth", "unreachable", "fall-off",
         "fall-off-at-budget", "budget"],
)
def test_execution_errors(build, budget, message, monkeypatch):
    monkeypatch.setattr(interpreter_module, "MAX_INSTRUCTIONS_PER_PACKET", budget)
    interpreter = ConcreteInterpreter(_module(build), "f")
    with pytest.raises(ExecutionError, match=message):
        interpreter.call_function("f", [7])


def test_select_reads_only_the_chosen_operand():
    def build(b):
        b.ret(b.select(b.param("x"), 3, Register("ghost")))

    interpreter = ConcreteInterpreter(_module(build), "f")
    assert interpreter.call_function("f", [1]) == 3
    with pytest.raises(ExecutionError, match="undefined register %ghost"):
        interpreter.call_function("f", [0])


# -- replay calibration ------------------------------------------------------------


@pytest.fixture(scope="module")
def nat_replay():
    """A NAT primed with 120 flows, 48 probe flows (new and primed), and more traffic."""
    nf = get_nf("nat-hash-table")
    flows = [p.flow_tuple for p in packet_stream(nf, count=1000, seed=5)]
    priming, probes = flows[:120], flows[120:160] + flows[:8]
    return PrimedReplay(nf, priming), probes, flows[160:]


@given(order=st.permutations(range(12)))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_probe_costs_do_not_depend_on_probe_order(nat_replay, order):
    replay, probes, _ = nat_replay
    reference = replay.probe_costs(probes[:12])
    assert replay.probe_costs([probes[i] for i in order]) == [reference[i] for i in order]


@given(disturb=st.integers(0, 40), probe=st.integers(0, 47))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_snapshot_survives_unrestored_traffic(nat_replay, disturb, probe):
    """Whatever ran since — inserts, evictions — a probe sees the primed state."""
    replay, probes, extra = nat_replay
    before = replay.probe_cost(probes[probe])
    for flow in extra[:disturb]:
        replay.interpreter.process_packet(Packet(*flow))
    assert replay.probe_cost(probes[probe]) == before


def test_restore_undoes_writes_and_evictions(nat_replay):
    replay, probes, extra = nat_replay
    expected = PrimedReplay(replay.nf, replay.priming_flows).probe_costs(probes)
    interpreter = replay.interpreter
    interpreter.restore_state(replay._snapshot)
    memory, caches = interpreter.snapshot_state()
    for flow in probes + extra:
        interpreter.process_packet(Packet(*flow))
    disturbed_memory, disturbed_caches = interpreter.snapshot_state()
    assert disturbed_memory != memory  # the NAT inserted flows ...
    evictions = [state[3] for state in caches[0]]  # per-level (sets, hits, misses, evictions)
    assert [state[3] for state in disturbed_caches[0]] > evictions  # ... and evicted lines
    assert replay.probe_costs(probes) == expected


def test_extended_replay_equals_a_fresh_priming(nat_replay):
    replay, probes, extra = nat_replay
    extended = replay.extended(extra)
    fresh = PrimedReplay(replay.nf, replay.priming_flows + extra)
    assert extended.priming_flows == fresh.priming_flows
    assert extended.probe_costs(probes) == fresh.probe_costs(probes)
    # The base replay stays usable and unchanged by its extension.
    assert replay.probe_costs(probes) == PrimedReplay(replay.nf, replay.priming_flows).probe_costs(
        probes
    )


def test_restore_keeps_the_callers_hierarchy():
    nf = get_nf("nat-hash-table")
    flows = [p.flow_tuple for p in packet_stream(nf, count=40, seed=9)]
    hierarchy = MemoryHierarchy()
    replay = PrimedReplay(nf, flows[:30], hierarchy=hierarchy)
    stats = hierarchy.stats
    primed_accesses = stats.accesses
    for flow in flows[30:]:
        replay.probe_cost(flow)
    assert replay.interpreter.hierarchy is hierarchy and hierarchy.stats is stats
    # The stats count the primed traffic plus the last probe, and nothing else.
    reference = ConcreteInterpreter(nf.module, nf.entry)
    for flow in flows[:30]:
        reference.process_packet(Packet(*flow))
    probe = reference.process_packet(Packet(*flows[-1]))
    assert stats.accesses == primed_accesses + probe.memory_accesses


def test_device_under_test_keeps_its_hierarchy_across_restores():
    dut = DeviceUnderTest(get_nf("lpm-patricia"))
    snapshot = dut.interpreter.snapshot_state()
    dut.process(Packet())
    dut.interpreter.restore_state(snapshot)
    assert dut.interpreter.hierarchy is dut.hierarchy
    assert dut.hierarchy.stats.accesses == 0
