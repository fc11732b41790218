"""Tests for the adversarial-traffic scoring layer (``repro.scoring``).

Three gates, mirroring the layer's three claims:

* **serialization** — signature predicates are interned DAGs; the flat
  node-table JSON form must round-trip to the *same* interned node, stay
  linear in unique nodes (the unrolled flow hash would be exponential as a
  tree), and keep content hashes stable;
* **soundness** (property-based) — after priming the NF with a signature's
  recorded workload, packets satisfying the predicate incur replay cost at
  or above the published threshold while in-class background packets stay
  below it;
* **reference identity** (differential) — the columnar scorer's verdict
  masks are byte-identical to the per-packet reference
  (``score_batch_fields``) on pcap-sourced and hypothesis-generated batches,
  including empty / single-packet / window-boundary shapes.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.hashing.functions import flow_hash16
from repro.ir.instructions import BinOpKind, CmpKind
from repro.net.packet import FlowKey, Packet
from repro.net.pcap import PcapWriter, packets_to_pcap_bytes
from repro.nf.registry import get_nf
from repro.perf.cycles import CycleCosts
from repro.perf.interpreter import ConcreteInterpreter
from repro.scoring.distill import (
    SCAN_CHUNK,
    DistillReport,
    _mine_matching_columns,
    _scan_traffic_class,
    distill_signatures,
)
from repro.scoring.jobs import obtain_result, obtain_signatures, run_score_job
from repro.scoring.replay import PrimedReplay
from repro.scoring.scorer import ScorerOptions, StreamScorer, score_batch_fields, verdict_bytes
from repro.scoring.signatures import (
    FIELD_ORDER,
    AdversarialSignature,
    SignatureSet,
    field_sym,
    signature_from_dict,
    signature_set_from_json,
)
from repro.scoring.stream import (
    fields_to_columns,
    iter_pcap_batches,
    packets_to_fields,
    random_flow_columns,
)
from repro.service.store import ResultStore
from repro.symbex.expr import (
    Const,
    Sym,
    evaluate,
    expr_from_dict,
    expr_to_dict,
    make_binop,
    make_cmp,
)
from repro.workloads.generators import _flow_for_index

SMOKE = {"max_states": 40, "deadline_seconds": None, "search_mode": "beam"}

#: NFs the soundness suite distills at smoke scale: a chained hash table
#: (bucket collisions), an open-addressing ring (arc / exact-hash
#: collisions) and the patricia LPM (field clustering, no hash).
SOUNDNESS_NFS = ("nat-hash-table", "lb-hash-ring", "lpm-patricia")


@pytest.fixture(scope="module", params=SOUNDNESS_NFS)
def distilled(request):
    """One smoke-scale analysis + distillation per soundness NF."""
    nf = get_nf(request.param)
    config = CastanConfig(**SMOKE)
    result = Castan(config).analyze(nf, num_packets=3)
    signature_set = distill_signatures(nf, result, config=config)
    return nf, config, result, signature_set


@pytest.fixture(scope="module")
def nat_store(tmp_path_factory):
    """A result store that :func:`nat_distilled` warms for ``run_score_job``."""
    return ResultStore(tmp_path_factory.mktemp("score-store"))


@pytest.fixture(scope="module")
def nat_distilled(nat_store):
    """The NAT's signatures (includes the unrolled-hash predicate)."""
    nf = get_nf("nat-hash-table")
    config = CastanConfig(**SMOKE)
    result = obtain_result(nf, config, 3, store=nat_store)
    signature_set = obtain_signatures(nf, result, config, store=nat_store)
    assert signature_set.signatures, "smoke NAT run must distill signatures"
    return nf, signature_set


def _flow_of(fields: dict) -> FlowKey:
    return FlowKey(**fields)


def _random_fields(nf, size: int, rng: random.Random) -> list[dict[str, int]]:
    """``size`` random in-class packets as per-packet field dicts."""
    columns = random_flow_columns(nf, size, rng)
    return [dict(zip(FIELD_ORDER, row)) for row in zip(*(columns[n].tolist() for n in FIELD_ORDER))]


def _feed_reference(scorer: StreamScorer, fields: list[dict[str, int]]):
    """Account a field-dict batch scored by the per-packet reference."""
    masks = score_batch_fields(scorer.signatures, fields)
    rows = [row for row, mask in enumerate(masks) if mask]
    flows = [_flow_of(fields[row]) for row in rows]
    return scorer.ingest(len(masks), rows, [masks[row] for row in rows], flows)


def _feed_columns(scorer: StreamScorer, fields: list[dict[str, int]]):
    return scorer.feed(fields_to_columns(fields))


# -- serialization -------------------------------------------------------------


class TestSerialization:
    def test_flow_hash_expr_matches_concrete_hash(self):
        expr = flow_hash16(Sym("key", bits=64))
        from repro.symbex.expr import dag_evaluator

        evaluator = dag_evaluator(expr)
        rng = random.Random(11)
        for _ in range(64):
            key = rng.getrandbits(64)
            assert evaluator({"key": key}) == flow_hash16(key)

    def test_expr_dag_serialization_is_linear_in_unique_nodes(self):
        # The unrolled hash references each round's intermediate several
        # times; a tree rendering would have ~4^depth entries.  The node
        # table must stay at the unique-node count.
        data = expr_to_dict(flow_hash16(Sym("key", bits=64)))
        assert data["k"] == "expr-dag-v1"
        assert len(data["nodes"]) < 200
        # ... and survive a JSON round trip to the same interned node.
        clone = expr_from_dict(json.loads(json.dumps(data)))
        assert clone is flow_hash16(Sym("key", bits=64))

    def test_expr_round_trip_reinterns(self):
        pred = make_cmp(CmpKind.EQ, field_sym("dst_port"), Const(443))
        assert expr_from_dict(expr_to_dict(pred)) is pred

    def test_expr_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError):
            expr_from_dict({"k": "const", "v": 1})  # old nested format
        with pytest.raises(ValueError):
            expr_from_dict({"k": "expr-dag-v1", "nodes": [], "root": 0})

    def test_expr_from_dict_rejects_forward_references(self):
        data = {
            "k": "expr-dag-v1",
            "nodes": [
                {"k": "bin", "op": "ADD", "lhs": 1, "rhs": 1},
                {"k": "const", "v": 1},
            ],
            "root": 0,
        }
        with pytest.raises(ValueError, match="forward or out-of-range"):
            expr_from_dict(data)

    def test_signature_set_json_round_trip(self, nat_distilled):
        _nf, signature_set = nat_distilled
        clone = signature_set_from_json(signature_set.to_json())
        assert clone.labels == signature_set.labels
        for original, rebuilt in zip(signature_set, clone):
            assert rebuilt.predicate is original.predicate
            assert rebuilt.content_hash() == original.content_hash()
            assert rebuilt.priming_flows == original.priming_flows
        assert clone.content_hash() == signature_set.content_hash()
        assert clone.store_key() == signature_set.store_key()

    def test_signature_version_gate(self, nat_distilled):
        _nf, signature_set = nat_distilled
        data = signature_set.signatures[0].to_dict()
        data["version"] = "castan-signature-v0"
        with pytest.raises(ValueError, match="version"):
            signature_from_dict(data)

    def test_store_signature_shelf_round_trip(self, nat_distilled, tmp_path):
        from repro.service.store import ResultStore

        _nf, signature_set = nat_distilled
        store = ResultStore(tmp_path)
        key = store.put_signatures(signature_set)
        assert key == signature_set.store_key()
        assert store.signature_keys() == [key]
        assert store.keys() == []  # the sig shelf never pollutes results
        restored = store.get_signatures(key)
        assert restored is not None
        assert restored.content_hash() == signature_set.content_hash()
        assert store.get_signatures("0" * 64) is None

    def test_signature_shelf_is_keyed_on_the_distillation_config(self, tmp_path, monkeypatch):
        """Two seeds give lpm-patricia one result digest but different signatures."""
        import repro.scoring.jobs as jobs_module
        from repro.service.store import canonical_result_digest

        distilled = []
        real_distill = jobs_module.distill_signatures

        def counting_distill(nf, result, config=None, report=None):
            distilled.append(config.seed)
            return real_distill(nf, result, config=config, report=report)

        monkeypatch.setattr(jobs_module, "distill_signatures", counting_distill)
        nf = get_nf("lpm-patricia")
        store = ResultStore(tmp_path)
        seed = CastanConfig().seed
        sets, digests = [], []
        for config_seed in (seed, seed + 1):
            config = CastanConfig(max_states=200, deadline_seconds=None, seed=config_seed)
            result = obtain_result(nf, config, None, store=store)
            digests.append(canonical_result_digest(result))
            sets.append(obtain_signatures(nf, result, config, store=store))
            assert sets[-1].config_hash == config.content_hash()
        assert digests[0] == digests[1]  # the result alone cannot tell them apart
        assert distilled == [seed, seed + 1]  # the second call distilled, no shelf hit
        assert sets[0].store_key() != sets[1].store_key()
        assert len(store.signature_keys()) == 2


# -- soundness (property-based) ------------------------------------------------

#: Per-(nf, label) calibration state, built once — PrimedReplay priming and
#: pool mining are far too slow to repeat per hypothesis example.
_CALIBRATION_CACHE: dict = {}


def _calibration_state(nf, signature: AdversarialSignature):
    key = (nf.name, signature.label)
    if key in _CALIBRATION_CACHE:
        return _CALIBRATION_CACHE[key]
    rng = random.Random(1234)
    priming = set(signature.priming_flows)

    matching: list[tuple] = []

    def accept(flow):
        if flow not in priming and signature.matches(flow._asdict()):
            matching.append(flow)

    _mine_matching_columns(
        nf, signature.predicate, accept, lambda: 8 - len(matching), rng, batches=24
    )
    # Top-up: scan the traffic class directly.
    for fields in _random_fields(nf, 20_000, rng):
        if len(matching) >= 8:
            break
        accept(_flow_of(fields))

    background: list[tuple] = []
    for fields in _random_fields(nf, 50_000, rng):
        flow = _flow_of(fields)
        if flow in priming or signature.matches(fields):
            continue
        background.append(flow)
        if len(background) >= 32:
            break

    state = (PrimedReplay(nf, signature.priming_flows), matching, background)
    _CALIBRATION_CACHE[key] = state
    return state


@given(data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_signature_soundness(distilled, data):
    """The published claim, held per signature on the primed NF:

    matching packet  -> replay cost >= threshold_cycles
    background packet -> replay cost <  threshold_cycles
    """
    nf, _config, _result, signature_set = distilled
    if not signature_set.signatures:
        pytest.skip(f"{nf.name}: no calibrated signature at smoke scale")
    signature = data.draw(st.sampled_from(signature_set.signatures))
    replay, matching, background = _calibration_state(nf, signature)

    if matching:
        flow = data.draw(st.sampled_from(matching))
        cost = replay.probe_cost(flow)
        assert cost >= signature.threshold_cycles, (
            f"{nf.name} [{signature.label}]: matching flow {flow} cost {cost} "
            f"< threshold {signature.threshold_cycles}"
        )
    assert background, f"{nf.name} [{signature.label}]: no background flows mined"
    flow = data.draw(st.sampled_from(background))
    cost = replay.probe_cost(flow)
    assert cost < signature.threshold_cycles, (
        f"{nf.name} [{signature.label}]: background flow {flow} cost {cost} "
        f">= threshold {signature.threshold_cycles}"
    )


def test_thresholds_separate_calibration_costs(distilled):
    """The stored calibration numbers themselves must bracket the threshold."""
    nf, _config, _result, signature_set = distilled
    if not signature_set.signatures:
        pytest.skip(f"{nf.name}: no calibrated signature at smoke scale")
    for signature in signature_set:
        assert signature.baseline_cycles < signature.threshold_cycles
        assert signature.threshold_cycles <= signature.matching_cycles
        assert signature.priming_flows  # the claim is about a primed NF


#: (sha256 of the canonical payload without its version tags and config
#: hash, signature count) per soundness NF, recorded while every candidate still primed its
#: own fresh NF.  Calibration that primes once and restores snapshots must
#: publish the very same signatures.
SIGNATURE_PAYLOAD_PINS = {
    "nat-hash-table": ("729f8f2b9e20d99a93031978b936393c6b0b87ed7d8243179890e3da12413d03", 1),
    "lb-hash-ring": ("86d4deb8b53178523d921f2cd41ef023b6d1c723a263149ad45cd7ac396305e8", 1),
    "lpm-patricia": ("f2c6b3aeace1949f9b798e5fc6d29a03f644b6fb3895ac640da0981d240e58ac", 1),
}


def _payload_digest(signature_set: SignatureSet) -> tuple[str, int]:
    data = signature_set.to_dict()
    del data["version"], data["config_hash"]  # addresses, not the signatures
    for entry in data["signatures"]:
        del entry["version"]
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest(), len(data["signatures"])


def test_distilled_payloads_match_pins(distilled):
    nf, _config, _result, signature_set = distilled
    assert _payload_digest(signature_set) == SIGNATURE_PAYLOAD_PINS[nf.name]


def _fresh_cost(nf, priming, probe, config: CastanConfig) -> int:
    """One probe's cycles on a new DUT of ``config``'s machine, primed from boot."""
    interpreter = ConcreteInterpreter(
        nf.module,
        nf.entry,
        hierarchy=MemoryHierarchy(config.hierarchy, cycle_costs=config.cycle_costs),
        cycle_costs=config.cycle_costs,
    )
    for flow in priming:
        interpreter.process_packet(Packet(*flow))
    return interpreter.process_packet(Packet(*probe)).cycles


def test_calibration_runs_on_the_analysis_machine(monkeypatch):
    # (On this table the NAT's bucket signature no longer separates from
    # background traffic, so it is dropped; the ring's arc signature holds.)
    nf = get_nf("lb-hash-ring")
    config = CastanConfig(**SMOKE, cycle_costs=CycleCosts(dram=400))
    result = Castan(config).analyze(nf, num_packets=3)
    calls = []
    probe_costs = PrimedReplay.probe_costs

    def recording(self, flows):
        calls.append((list(self.priming_flows), list(flows)))
        return probe_costs(self, flows)

    monkeypatch.setattr(PrimedReplay, "probe_costs", recording)
    report = DistillReport()
    signature_set = distill_signatures(nf, result, config=config, report=report)
    assert signature_set.signatures
    assert report.probe_packets == sum(len(flows) for _, flows in calls)
    for signature in signature_set:
        # A candidate's first measurement is its matching probes.
        probes = next(flows for priming, flows in calls if priming == signature.priming_flows)
        costs = [_fresh_cost(nf, signature.priming_flows, probe, config) for probe in probes]
        assert min(costs) == signature.matching_cycles
        default = [_fresh_cost(nf, signature.priming_flows, p, CastanConfig()) for p in probes]
        assert min(default) < signature.matching_cycles  # the table really mattered


def _scan_flow_at_a_time(nf, predicate, matching, indices, seen, count, rng):
    """The traffic-class scan one flow and one ``evaluate`` at a time."""
    flows = []
    for index in indices:
        flow = _flow_for_index(nf, index, rng)
        if flow in seen or bool(evaluate(predicate, flow._asdict())) != matching:
            continue
        seen.add(flow)
        flows.append(flow)
        if len(flows) >= count:
            break
    return flows


#: One in 16 flows matches each: a destination nibble for the LPM's class
#: (its generator draws one destination per index from the rng), and a
#: hash nibble of the source for the NAT's hinted class (no draws).
_SCAN_PREDICATES = {
    "lpm-patricia": make_cmp(
        CmpKind.EQ, make_binop(BinOpKind.LSHR, field_sym("dst_ip"), Const(28)), Const(3)
    ),
    "nat-hash-table": make_cmp(
        CmpKind.EQ,
        make_binop(BinOpKind.AND, flow_hash16(field_sym("src_ip")), Const(15)),
        Const(3),
    ),
}


@pytest.mark.parametrize("nf_name", sorted(_SCAN_PREDICATES))
@pytest.mark.parametrize(
    "matching, count",
    [
        (True, 150),  # stops inside the fourth or fifth chunk (of 1 200 / 2 400)
        (False, 24),  # stops inside the second chunk (of 48)
        (True, 10_000),  # runs out of indices at about 800 flows
    ],
)
def test_scan_matches_a_flow_at_a_time_scan(nf_name, matching, count):
    nf = get_nf(nf_name)
    predicate = _SCAN_PREDICATES[nf_name]
    indices = range(200_000, 200_000 + 3 * SCAN_CHUNK)
    rng, reference_rng = random.Random(7), random.Random(7)
    # Seen flows are skipped, not counted: take out some early qualifiers.
    seen = set(_scan_flow_at_a_time(nf, predicate, matching, indices, set(), 5, random.Random(7)))
    reference_seen = set(seen)
    flows = _scan_traffic_class(nf, predicate, matching, indices, seen, count, rng)
    reference = _scan_flow_at_a_time(
        nf, predicate, matching, indices, reference_seen, count, reference_rng
    )
    assert flows == reference and (len(flows) == count) is (count < 1_000)
    assert seen == reference_seen
    assert rng.getstate() == reference_rng.getstate()
    # Later draws from the shared rng see the same stream.
    assert rng.getrandbits(32) == reference_rng.getrandbits(32)


# -- reference identity (differential) ----------------------------------------

_FIELD_MAX = {
    "src_ip": 2**32 - 1,
    "dst_ip": 2**32 - 1,
    "src_port": 2**16 - 1,
    "dst_port": 2**16 - 1,
    "protocol": 2**8 - 1,
}

_batch_strategy = st.lists(
    st.fixed_dictionaries(
        {name: st.integers(0, _FIELD_MAX[name]) for name in FIELD_ORDER}
    ),
    min_size=0,
    max_size=40,
)


def _assert_tiers_agree(signatures, fields):
    from repro.scoring.scorer import score_batch_columns

    reference = score_batch_fields(signatures, fields)
    columns = fields_to_columns(fields)
    vector = score_batch_columns(signatures, columns)
    assert verdict_bytes(vector) == verdict_bytes(reference)
    return reference


class TestTierIdentity:
    @given(fields=_batch_strategy)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_hypothesis_batches(self, nat_distilled, fields):
        _nf, signature_set = nat_distilled
        _assert_tiers_agree(signature_set.signatures, fields)

    def test_pcap_batches(self, nat_distilled):
        nf, signature_set = nat_distilled
        # A capture mixing known-matching flows (the signatures' own
        # priming workloads) with in-class noise, so both verdict outcomes
        # are exercised; batch size 7 forces ragged batch boundaries.
        rng = random.Random(5)
        flows = [f for s in signature_set for f in s.priming_flows[:20]]
        flows += [_flow_of(f) for f in _random_fields(nf, 50, rng)]
        packets = [Packet(*flow[:4]) for flow in flows]
        blob = packets_to_pcap_bytes(packets)

        total_matched = 0
        for batch in iter_pcap_batches(io.BytesIO(blob), batch_size=7):
            fields = packets_to_fields(batch)
            masks = _assert_tiers_agree(signature_set.signatures, fields)
            total_matched += sum(1 for mask in masks if mask)
        assert total_matched > 0  # the capture must exercise the match path

    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9])
    def test_boundary_sizes(self, nat_distilled, size):
        nf, signature_set = nat_distilled
        rng = random.Random(size)
        fields = _random_fields(nf, size, rng)
        _assert_tiers_agree(signature_set.signatures, fields)

    def test_stream_scorer_tier_equality(self, nat_distilled):
        """A column-fed scorer reports the windows of reference-scored ``ingest``."""
        nf, signature_set = nat_distilled
        rng = random.Random(9)
        fields = _random_fields(nf, 64, rng)
        # Seed guaranteed matches so windows carry offenders.
        for index, flow in enumerate(signature_set.signatures[0].priming_flows[:6]):
            fields[index * 10] = flow._asdict()

        def run(feed):
            scorer = StreamScorer(
                signature_set.signatures, window_size=10, top_k=3
            )
            windows = []
            for start in range(0, len(fields), 8):  # 8 straddles the window
                windows.extend(feed(scorer, fields[start : start + 8]))
            trailing = scorer.finish()
            if trailing is not None:
                windows.append(trailing)
            return [w.to_dict() for w in windows], scorer.summary()

        reference_windows, reference_summary = run(_feed_reference)
        vector_windows, vector_summary = run(_feed_columns)
        assert vector_windows == reference_windows
        assert vector_summary == reference_summary
        assert reference_summary["matched"] > 0


# -- ingest and window accounting ----------------------------------------------


def _port_signatures(count: int) -> list[AdversarialSignature]:
    """``count`` signatures: bit *i* is ``dst_port == i + 1``, the last ``protocol == 17``."""
    predicates = [
        make_cmp(CmpKind.EQ, field_sym("dst_port"), Const(bit + 1)) for bit in range(count - 1)
    ] + [make_cmp(CmpKind.EQ, field_sym("protocol"), Const(17))]
    return [
        AdversarialSignature(
            nf_name="x", kind="field-cluster", label=f"s{bit}", predicate=predicate,
            threshold_cycles=1,
        )
        for bit, predicate in enumerate(predicates)
    ]


def _naive_account(masks, flows, window_size, top_k):
    """Per-packet window accounting, written out the slow way (the oracle)."""
    windows, width = [], max([mask.bit_length() for mask in masks] + [0])
    for start in range(0, len(masks), window_size):
        chunk = list(zip(masks[start : start + window_size], flows[start:]))
        offenders = Counter(flow for mask, flow in chunk if mask)
        windows.append(
            {
                "window": len(windows),
                "start_packet": start,
                "packets": len(chunk),
                "matched": sum(1 for mask, _ in chunk if mask),
                "signature_hits": [
                    sum(mask >> bit & 1 for mask, _ in chunk) for bit in range(width)
                ],
                "top_offenders": [
                    {"flow": list(flow), "hits": hits}
                    for flow, hits in sorted(offenders.items(), key=lambda i: (-i[1], i[0]))
                ][:top_k],
            }
        )
    return windows


def _stream(signatures, batches, window_size, feed=StreamScorer.feed, top_k=3):
    scorer = StreamScorer(signatures, window_size=window_size, top_k=top_k)
    windows = [window for batch in batches for window in feed(scorer, batch)]
    trailing = scorer.finish()
    return [w.to_dict() for w in windows + ([trailing] if trailing else [])], scorer.summary()


def _batches(fields, batch_size):
    return [fields[start : start + batch_size] for start in range(0, len(fields), batch_size)]


class TestWindowAccounting:
    """Column-fed and reference-fed scorers against a per-packet oracle:
    they share ``ingest``, so agreeing with each other alone would prove
    nothing about it."""

    @pytest.mark.parametrize(
        "batch_size, window_size",
        [
            (16, 3),  # one batch closes several windows
            (8, 16),  # a boundary exactly at a batch edge
            (8, 8),
            (5, 7),  # boundaries inside batches, ragged tail
            (64, 1),
            (7, 1000),  # one trailing window
        ],
    )
    def test_windows_equal_the_per_packet_oracle(self, batch_size, window_size):
        signatures = _port_signatures(64)
        rng = random.Random(batch_size * 1000 + window_size)
        fields = [
            {
                "src_ip": rng.randrange(4),
                "dst_ip": 7,
                "src_port": 9,
                "dst_port": rng.choice([0, 1, 2, 2, 63, 64, 500]),
                "protocol": rng.choice([6, 6, 6, 17]),
            }
            for _ in range(50)
        ]
        # An all-miss batch in the middle of the stream.
        for row in range(batch_size, min(2 * batch_size, len(fields))):
            fields[row].update(dst_port=0, protocol=6)
        masks = score_batch_fields(signatures, fields)
        assert any(mask >> 63 for mask in masks)  # bit 63 of a 64-signature set
        assert any(mask & (mask - 1) for mask in masks)  # masks with several bits
        oracle = _naive_account(masks, [_flow_of(f) for f in fields], window_size, 3)
        for window in oracle:
            window["signature_hits"] += [0] * (64 - len(window["signature_hits"]))

        reference_windows, reference_summary = _stream(
            signatures, _batches(fields, batch_size), window_size, _feed_reference
        )
        vector_windows, vector_summary = _stream(
            signatures, _batches(fields, batch_size), window_size, _feed_columns
        )
        assert reference_windows == oracle
        assert vector_windows == oracle
        assert vector_summary == reference_summary
        assert reference_summary["packets"] == 50
        assert reference_summary["matched"] == sum(1 for mask in masks if mask)
        assert [s["hits"] for s in reference_summary["signatures"]] == [
            sum(mask >> bit & 1 for mask in masks) for bit in range(64)
        ]

    def test_all_miss_and_empty_batches_only_move_the_packet_count(self):
        signatures = _port_signatures(2)
        miss = [{"src_ip": 1, "dst_ip": 2, "src_port": 3, "dst_port": 9, "protocol": 6}] * 10
        for feed in (_feed_reference, _feed_columns):
            scorer = StreamScorer(signatures, window_size=4, top_k=3)
            assert feed(scorer, []) == []
            windows = feed(scorer, miss)
            assert [(w.start_packet, w.packets, w.matched) for w in windows] == [
                (0, 4, 0), (4, 4, 0),
            ]
            assert all(w.top_offenders == [] and w.signature_hits == [0, 0] for w in windows)
            assert scorer.summary()["packets"] == 10 and scorer.summary()["matched"] == 0


def _mixed_capture(signature_set, nf):
    """Frames of every kind the parser distinguishes, matching flows among them."""
    rng = random.Random(5)
    flows = [f for s in signature_set for f in s.priming_flows[:12]]
    flows += [_flow_of(f) for f in _random_fields(nf, 40, rng)]
    rng.shuffle(flows)
    frames = [Packet(*flow[:4]).to_bytes() for flow in flows]
    plain = frames[0]
    odd = [
        plain[:12] + b"\x86\xdd" + plain[14:],  # IPv6
        plain[:12] + b"\x81\x00" + plain[14:],  # VLAN tag
        plain[:30],  # truncated inside the IPv4 header
        plain[:14] + b"\x46" + plain[15:34] + b"\x01" * 4 + plain[34:],  # IP options
        plain[:38],  # UDP with 4 L4 bytes: kept, zero ports
        b"",
    ]
    for position, frame in zip((3, 9, 17, 26, 33, 41), odd):
        frames.insert(position, frame)
    writer = PcapWriter(blob := io.BytesIO())
    for frame in frames:
        writer.write_frame(frame)
    return blob.getvalue(), len(frames)


class TestColumnarPipeline:
    def test_columnar_ingest_equals_the_per_packet_pipeline(self, nat_distilled):
        from repro.scoring.scorer import score_batch_columns

        nf, signature_set = nat_distilled
        signatures = signature_set.signatures
        blob, frames = _mixed_capture(signature_set, nf)
        old = [packets_to_fields(b) for b in iter_pcap_batches(io.BytesIO(blob), 7)]
        new = list(iter_pcap_batches(io.BytesIO(blob), 7, columnar=True))
        assert len(old) == len(new) and sum(map(len, old)) == frames - 4
        masks, flows = [], []
        for fields, columns in zip(old, new):
            reference = fields_to_columns(fields)
            assert all((columns[name] == reference[name]).all() for name in FIELD_ORDER)
            assert all(columns[name].dtype == reference[name].dtype for name in FIELD_ORDER)
            expected = score_batch_fields(signatures, fields)
            assert verdict_bytes(score_batch_columns(signatures, columns)) == verdict_bytes(expected)
            masks += expected
            flows += map(_flow_of, fields)
        assert sum(1 for mask in masks if mask) >= 5

        oracle = _naive_account(masks, flows, 10, 3)
        width = len(signatures)
        for window in oracle:
            window["signature_hits"] += [0] * (width - len(window["signature_hits"]))
        reference_windows, reference_summary = _stream(signatures, old, 10, _feed_reference)
        vector_windows, vector_summary = _stream(signatures, new, 10)
        assert reference_windows == oracle and vector_windows == oracle
        assert vector_summary == reference_summary

    def _job(self, nat_store, traffic):
        events = []
        summary = run_score_job(
            "nat-hash-table",
            CastanConfig(**SMOKE),
            traffic,
            num_packets=3,
            store=nat_store,
            options=ScorerOptions(batch_size=16, window_size=10, top_k=3),
            emit=lambda kind, payload: events.append((kind, payload)),
        )
        return summary, [payload for kind, payload in events if kind == "window"]

    def test_score_job_reports_skipped_frames(self, nat_distilled, nat_store, caplog):
        nf, signature_set = nat_distilled
        blob, frames = _mixed_capture(signature_set, nf)
        with caplog.at_level(logging.INFO, logger="repro.scoring"):
            vector_summary, vector_windows = self._job(nat_store, {"pcap_bytes": blob})
        assert vector_summary["frames_skipped"] == 4
        assert vector_summary["packets"] == frames - 4
        assert vector_summary["matched"] >= 5
        (record,) = [r for r in caplog.records if r.name == "repro.scoring"]
        assert record.levelno == logging.INFO and "skipped 4 frame(s)" in record.getMessage()
        assert len(vector_windows) >= 5

    def test_score_job_counts_frames_taken_in_runs(self, nat_store):
        """A capture of one frame size is walked in runs; the summary says how much."""
        with PcapWriter(blob := io.BytesIO()) as writer:
            for index in range(400):
                writer.write_packet(Packet(index, 2, 3, 4))
        summary, _ = self._job(nat_store, {"pcap_bytes": blob.getvalue()})
        assert summary["packets"] == 400 and summary["frames_skipped"] == 0
        assert 300 < summary["frames_in_runs"] < 400

    def test_capture_without_ipv4_says_why_it_scored_nothing(
        self, nat_distilled, nat_store, tmp_path, caplog
    ):
        frame = Packet(1, 2, 3, 4).to_bytes()
        with PcapWriter(path := tmp_path / "v6.pcap") as writer:
            for _ in range(5):
                writer.write_frame(frame[:12] + b"\x86\xdd" + frame[14:])
        with caplog.at_level(logging.INFO, logger="repro.scoring"):
            summary, windows = self._job(nat_store, {"pcap_path": str(path)})
            clean, _ = self._job(nat_store, {"synthetic": 20})
        assert (summary["packets"], summary["frames_skipped"], windows) == (0, 5, [])
        assert clean["frames_skipped"] == 0 and clean["packets"] == 20
        assert summary["frames_in_runs"] == clean["frames_in_runs"] == 0
        assert len([r for r in caplog.records if r.name == "repro.scoring"]) == 1

    def test_signatures_event_reports_the_replay_work(self, nat_distilled, nat_store):
        def signatures_event(store):
            events = []
            run_score_job(
                "nat-hash-table",
                CastanConfig(**SMOKE),
                {"synthetic": 10},
                num_packets=3,
                store=store,
                emit=lambda kind, payload: events.append((kind, payload)),
            )
            return next(payload for kind, payload in events if kind == "signatures")

        distilled = signatures_event(None)
        # The 3-packet workload is primed once, then each replayed candidate
        # adds its own amplification flows on top of that snapshot.
        assert distilled["probe_packets"] > 0
        assert distilled["mined_lanes"] > 0
        assert all(
            3 < signature["priming_flows"] <= distilled["primed_packets"]
            for signature in distilled["signatures"]
        )
        # The whole report rides along: every candidate is calibrated or
        # dropped for a reason the notes name.
        report_fields = set(DistillReport.__dataclass_fields__)
        assert report_fields <= set(distilled)
        dropped = [
            distilled[f"dropped_{why}"] for why in ("no_probes", "no_background", "unseparated")
        ]
        assert distilled["calibrated"] == distilled["count"] > 0
        assert distilled["candidates"] >= distilled["calibrated"] + sum(dropped)
        assert len(distilled["notes"]) == sum(dropped)
        shelf_hit = signatures_event(nat_store)
        assert {name: shelf_hit[name] for name in report_fields} == {
            **{name: 0 for name in report_fields},
            "notes": [],
        }
        assert shelf_hit["content_hash"] == distilled["content_hash"]


# -- scorer plumbing -----------------------------------------------------------


class TestScorerPlumbing:
    def test_max_signatures_enforced(self):
        pred = make_cmp(CmpKind.EQ, field_sym("dst_port"), Const(1))
        sigs = [
            AdversarialSignature(
                nf_name="x", kind="field-cluster", label=f"s{i}",
                predicate=pred, threshold_cycles=1,
            )
            for i in range(65)
        ]
        with pytest.raises(ValueError, match="at most 64"):
            StreamScorer(sigs)

    def test_scorer_options_validated(self):
        options = ScorerOptions(batch_size=4096, window_size=123, top_k=2)
        assert (options.batch_size, options.window_size, options.top_k) == (4096, 123, 2)
        assert ScorerOptions() == ScorerOptions(batch_size=8192, window_size=65536, top_k=5)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("batch_size", 0),
            ("top_k", -3),
            ("window_size", "big"),
            ("batch_size", True),
            ("window_size", 2.0),
        ],
    )
    def test_scorer_options_reject_bad_values(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            ScorerOptions(**{knob: value})

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("top_k", -1),
            ("top_k", 0),
            ("top_k", True),
            ("top_k", 2.5),
            ("window_size", True),
        ],
    )
    def test_stream_scorer_rejects_bad_values(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            StreamScorer([], **{knob: value})

    def test_iter_pcap_batches_rejects_bad_batch_size(self):
        import io

        blob = packets_to_pcap_bytes([Packet(1, 2, 3, 4)])
        with pytest.raises(ValueError):
            list(iter_pcap_batches(io.BytesIO(blob), batch_size=0))

    def test_verdict_bytes_list_rendering(self):
        assert verdict_bytes([1, 0, 2**63]) == (
            b"\x01" + b"\x00" * 7 + b"\x00" * 8 + b"\x00" * 7 + b"\x80"
        )
        assert verdict_bytes([]) == b""
