"""Signature distillation: from a CASTAN result to adversarial signatures.

The distiller walks one :class:`~repro.core.castan.CastanResult` and emits
:class:`~repro.scoring.signatures.AdversarialSignature` predicates that
recognise *more* traffic like the synthesized worst case:

1. **Hash-bucket signatures** come from the havoc records.  Each record's
   key expression is renamed from the engine's ``pkt<i>.*`` namespace onto
   the canonical single-packet fields; key templates that are uniform
   across packets (the NAT's forward key, the LB's flow key — per-flow
   constants disqualify the NAT's reverse key automatically) are hashed
   concretely over the workload to find the bucket the workload piles
   into, and the predicate pins that bucket *symbolically*:
   ``(flow_hash16(key_template) & bucket_mask) == bucket``.
2. **Cache-set / field-cluster signatures** come from the packets alone:
   field projections (``field >> shift``) that concentrate on one value
   across most of the workload (the clustered destinations that walk a
   deep LPM/tree path, the sources mapping to one contention set).

Every candidate is then **calibrated by replay** (:mod:`.replay`) on the
analysis machine (``config.hierarchy`` and ``config.cycle_costs``): the NF
is primed with the synthesized workload, fresh matching probes are
synthesized — inverting the hash via the rainbow table and handing the
key-packing tree to the solver, exactly the trees the solver already
inverts during reconciliation — and traffic-class background probes are
drawn from the workload generators.  A signature survives only if every
matching probe costs strictly more than every background probe with a
clear margin; the published threshold is the midpoint.  Trivial predicates
(implied by the traffic class) die here: no non-matching background can
be built, so they are dropped.

A candidate's symbolic predicate is its only matcher: the expression that
is published, serialized and scored is the one that picks the probes and
the background.  Solved flows are checked with ``evaluate``; mined batches
and traffic-class scans run it through ``column_evaluator``, so matching
flows come from the columnar scorer and this module needs numpy (the
[vector] extra) like the rest of :mod:`repro.scoring`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field as dataclass_field

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.castan import SOLVER_BUDGET, CastanResult, rainbow_table
from repro.core.config import CastanConfig
from repro.hashing.functions import FLOW_HASH_MASK, flow_hash16
from repro.ir.instructions import CmpKind
from repro.net.packet import FlowKey
from repro.nf.base import NetworkFunction
from repro.nf.common import HASH_TABLE_BUCKETS
from repro.scoring.replay import PrimedReplay
from repro.scoring.signatures import (
    FIELD_ORDER,
    AdversarialSignature,
    SignatureSet,
    conjoin,
    field_sym,
    hint_gate_exprs,
    packet_symbol_map,
)
from repro.scoring.stream import random_flow_columns
from repro.symbex.expr import (
    Const,
    Expr,
    column_evaluator,
    evaluate,
    expr_eq,
    make_cmp,
    rename_symbols,
    require_numpy,
)
from repro.symbex.solver import Solver
from repro.workloads.generators import _flow_for_index

_np = require_numpy()

_CANONICAL_FIELDS = frozenset(FIELD_ORDER)

#: Minimum fraction of workload packets a field projection must cover.
MIN_COVERAGE = 0.6

#: Field projections tried for cache-set / field-cluster candidates.
_PROJECTIONS = (
    ("dst_ip", 0),
    ("dst_ip", 8),
    ("dst_ip", 16),
    ("dst_ip", 24),
    ("src_ip", 0),
    ("src_ip", 8),
    ("src_ip", 16),
    ("dst_port", 0),
    ("src_port", 0),
)


#: Matching probes measured per candidate, background probes measured
#: against them, and surplus matching flows that amplify the priming.
MATCH_PROBES = 3
BACKGROUND_PROBES = 24
AMPLIFY = 48

#: Most flows a traffic-class scan generates and judges per column
#: evaluation (its first chunk is the flows it wants, and chunks double).
SCAN_CHUNK = 4096


@dataclass
class _Candidate:
    """A predicate awaiting replay calibration."""

    kind: str
    label: str
    predicate: Expr
    evidence_packets: int
    # For hash-bucket / hash-range candidates: how to invert the hash.
    key_template: Expr | None = None
    # Target 16-bit hash values whose keys satisfy the predicate.
    hash_targets: tuple[int, ...] = ()
    # The range predicate's own distance node: matching flows sort on it
    # weakest-last (probes at the arc's tail walk the shortest run).
    weakness: Expr | None = None


def _candidate(kind, core, core_label, gates, gate_labels, evidence, **hash_fields) -> _Candidate:
    """The candidate ``core`` behind the traffic-class gates (and its label)."""
    label = " && ".join([core_label, *gate_labels])
    return _Candidate(kind, label, conjoin(gates + [core]), evidence, **hash_fields)


@dataclass
class DistillReport:
    """What the distiller did (kept for the service's event stream)."""

    candidates: int = 0
    calibrated: int = 0
    dropped_no_probes: int = 0
    dropped_no_background: int = 0
    dropped_unseparated: int = 0
    # Packets replayed to prime calibration states, and probe packets measured.
    primed_packets: int = 0
    probe_packets: int = 0
    # Lanes the columnar miner evaluated the candidate predicates over.
    mined_lanes: int = 0
    notes: list[str] = dataclass_field(default_factory=list)


def _dominant_stage(result: CastanResult) -> str:
    cycles = result.metrics.stage_cycles
    if not cycles:
        return ""
    return max(cycles, key=lambda label: (cycles[label], label))


def _packet_flows(result: CastanResult) -> list[FlowKey]:
    return [FlowKey(*p.flow_tuple) for p in result.packets]


# -- candidate extraction ---------------------------------------------------------


def _havoc_groups(result: CastanResult) -> dict[tuple[Expr, str], int]:
    """Packet-uniform key templates from the run's havoc records.

    Each record's key expression is renamed from its ``pkt<i>.*`` namespace
    onto the canonical fields; a template that survives renaming with only
    canonical symbols is uniform — the same 5-tuple function of whichever
    packet it came from.  Templates carrying per-flow constants (the NAT's
    reverse key embeds the allocated external port) keep foreign or no
    symbols and drop out here.  Groups are keyed by the havoced function's
    name too, so the two stages of a chain that hash one template stay
    apart.
    """
    outcome = result.havoc_outcome
    if outcome is None:
        return {}
    groups: dict[tuple[Expr, str], int] = {}
    for record in list(outcome.reconciled) + list(outcome.failed):
        template = rename_symbols(record.key_expr, packet_symbol_map(record.packet_index))
        if not template.symbol_names or not template.symbol_names <= _CANONICAL_FIELDS:
            continue
        key = (template, record.hash_function)
        groups[key] = groups.get(key, 0) + 1
    return groups


#: Width of the hash window a hash-range candidate pins (open-addressing
#: rings cluster keys in an *arc* of consecutive hash values, not a bucket).
RANGE_WIDTH = 64


def _hash_bucket_candidates(
    result: CastanResult, gates: list[Expr], gate_labels: list[str]
) -> list[_Candidate]:
    """Bucket- and arc-collision predicates from the run's havoc records."""
    flows = _packet_flows(result)
    if not flows:
        return []
    candidates: list[_Candidate] = []
    for (template, _stage_hash), count in _havoc_groups(result).items():
        if count < 2:
            continue  # not established across packets
        hash_expr = flow_hash16(template)
        hashes = [evaluate(hash_expr, flow._asdict()) for flow in flows]
        # Chained-table shape: the workload piles into one bucket (the low
        # hash bits).  Generous on purpose — small-budget runs reconcile
        # few havocs, so even a 2-packet pile-up is worth proposing; replay
        # calibration decides whether the bucket is hot enough.
        mask = HASH_TABLE_BUCKETS - 1
        bucket, hits = Counter(h & mask for h in hashes).most_common(1)[0]
        if hits >= 2:
            core = make_cmp(CmpKind.EQ, hash_expr & mask, Const(bucket))
            label = f"flow_hash16(key) & 0x{mask:x} == 0x{bucket:x}"
            targets = tuple(range(bucket, FLOW_HASH_MASK + 1, mask + 1))
            candidates.append(_candidate("hash-bucket", core, label, gates, gate_labels, hits,
                                         key_template=template, hash_targets=targets))

        # Open-addressing shape: the workload clusters in an arc of
        # consecutive hash values (linear probing piles the run up).  Pin
        # the densest RANGE_WIDTH window; wraparound subtraction keeps the
        # predicate a pure mask/shift/compare tree.
        lo, range_hits = Counter(
            h for h in hashes for other in hashes if ((other - h) & FLOW_HASH_MASK) < RANGE_WIDTH
        ).most_common(1)[0]
        if range_hits >= 2:
            distance = (hash_expr - lo) & FLOW_HASH_MASK
            core = make_cmp(CmpKind.ULE, distance, Const(RANGE_WIDTH - 1))
            label = f"flow_hash16(key) - 0x{lo:x} < 0x{RANGE_WIDTH:x}"
            targets = tuple((lo + j) & FLOW_HASH_MASK for j in range(RANGE_WIDTH))
            candidates.append(_candidate("hash-range", core, label, gates, gate_labels, range_hits,
                                         key_template=template, hash_targets=targets,
                                         weakness=distance))

        # Neither shape concentrated: at small search budgets an
        # open-addressing attack can land its havocs on *spaced* slots, so
        # no window holds two workload hashes.  Fall back to the sharpest
        # predicate there is — exact hash equality with the dominant
        # workload hash.  One packet of evidence is enough to propose it:
        # amplification piles synthesized colliders into one probe run, and
        # replay calibration is the actual gate.
        if hits < 2 and range_hits < 2:
            target, hits = Counter(hashes).most_common(1)[0]
            core = make_cmp(CmpKind.EQ, hash_expr, Const(target))
            label = f"flow_hash16(key) == 0x{target:x}"
            candidates.append(_candidate("hash-bucket", core, label, gates, gate_labels, hits,
                                         key_template=template, hash_targets=(target,)))
    return candidates


def _field_cluster_candidates(
    nf: NetworkFunction, result: CastanResult, gates: list[Expr], gate_labels: list[str]
) -> list[_Candidate]:
    """Field projections the workload concentrates on (cache-set clustering)."""
    flows = _packet_flows(result)
    if len(flows) < 2:
        return []
    kind = "cache-set" if nf.contention_regions else "field-cluster"
    candidates: list[_Candidate] = []
    seen_values: set[tuple[str, int]] = set()
    for field_name, shift in _PROJECTIONS:
        values = [getattr(flow, field_name) >> shift for flow in flows]
        value, hits = Counter(values).most_common(1)[0]
        if hits < max(2, int(MIN_COVERAGE * len(flows))):
            continue
        # A finer projection already captured this field at an equal or
        # better concentration; a coarser one adds only false positives.
        if (field_name, hits) in seen_values:
            continue
        seen_values.add((field_name, hits))
        core = make_cmp(CmpKind.EQ, field_sym(field_name) >> shift, Const(value))
        projection = f"{field_name} >> {shift}" if shift else field_name
        label = f"{projection} == 0x{value:x}"
        candidates.append(_candidate(kind, core, label, gates, gate_labels, hits))
    return candidates


# -- matching-flow synthesis ---------------------------------------------------------


def _model_flow(nf: NetworkFunction, model) -> FlowKey:
    defaults = nf.packet_defaults
    return FlowKey(
        *(model.get(name, defaults[name]) & field_sym(name).mask for name in FIELD_ORDER)
    )


def _mine_matching_columns(
    nf: NetworkFunction,
    predicate: Expr,
    accept,
    needed,
    rng: random.Random,
    batches: int = 32,
    batch_size: int = 65536,
) -> int:
    """Mine matching flows by scoring random columnar batches.

    This is the vectorized scorer run in reverse: evaluate the predicate
    over random in-class field columns and hand every matching lane to
    ``accept`` until ``needed()`` drops to 0.  Returns the number of lanes
    evaluated.
    """
    evaluator = column_evaluator(predicate)

    lanes = 0
    for _ in range(batches):
        columns = random_flow_columns(nf, batch_size, rng)
        verdict = evaluator(columns)
        lanes += batch_size
        for lane in _np.flatnonzero(verdict):
            accept(FlowKey(*(int(columns[name][lane]) for name in FlowKey._fields)))
            if needed() <= 0:
                return lanes
    return lanes


def _scan_traffic_class(
    nf: NetworkFunction,
    predicate: Expr,
    matching: bool,
    indices: range,
    seen: set[FlowKey],
    count: int,
    rng: random.Random,
) -> list[FlowKey]:
    """Up to ``count`` generated flows, in index order, that are not in
    ``seen`` and do (``matching``) or do not satisfy ``predicate``.

    ``seen`` gains every flow returned.  The flows of ``indices`` come from
    :func:`_flow_for_index` and are judged a chunk at a time by the column
    evaluator: ``count`` flows first, doubling up to :data:`SCAN_CHUNK`, so
    a scan whose first flows qualify generates few more than it returns.
    ``rng`` is left where a flow-at-a-time scan stopping at the
    ``count``-th flow leaves it (the LPM-style traffic class draws from it
    per index): a chunk the scan stops inside is generated again from the
    chunk's starting state, up to the stopping index.
    """
    evaluator = column_evaluator(predicate)
    flows: list[FlowKey] = []
    start, size = indices.start, max(count, 1)
    while start < indices.stop:
        chunk_indices = range(start, min(start + size, indices.stop))
        start, size = chunk_indices.stop, min(2 * size, SCAN_CHUNK)
        state = rng.getstate()
        chunk = [_flow_for_index(nf, index, rng) for index in chunk_indices]
        columns = zip(FIELD_ORDER, _np.array(chunk, dtype=_np.uint64).T)
        verdict = evaluator(dict(columns))
        for lane in _np.flatnonzero(verdict if matching else verdict == 0):
            flow = chunk[lane]
            if flow in seen:
                continue
            seen.add(flow)
            flows.append(flow)
            if len(flows) >= count:
                rng.setstate(state)
                for index in chunk_indices[: lane + 1]:
                    _flow_for_index(nf, index, rng)
                return flows
    return flows


def synthesize_matching_flows(
    nf: NetworkFunction,
    candidate: _Candidate,
    gates: list[Expr],
    config: CastanConfig,
    exclude: set[FlowKey],
    count: int,
    rng: random.Random,
    report: DistillReport,
) -> list[FlowKey]:
    """Fresh flows satisfying the candidate predicate (none in ``exclude``).

    Hash-bucket and hash-range candidates are inverted the way
    reconciliation inverts havocs: the rainbow table proposes keys hashing
    to the target values and the solver inverts the (disjoint-bitfield)
    key-packing template to recover field values.  Field candidates go to
    the solver directly with varied defaults for diversity.  A solved flow
    is kept if the predicate holds on it.  Columnar mining — the vectorized
    scorer run over random in-class batches — then fills the remainder
    (``report.mined_lanes`` counts the mined lanes), and a scan of the
    traffic class tops up what mining missed.
    """
    solver = Solver(search_budget=SOLVER_BUDGET, seed=config.seed)
    flows: list[FlowKey] = []
    seen = set(exclude)

    def accept(flow: FlowKey) -> None:
        if flow not in seen:
            seen.add(flow)
            flows.append(flow)

    defaults = nf.packet_defaults
    if candidate.key_template is not None:
        table = rainbow_table(config)
        targets = list(candidate.hash_targets)
        rng.shuffle(targets)
        queries = (
            ([expr_eq(candidate.key_template, Const(key))] + gates, defaults)
            for target in targets
            for key in table.invert(target, limit=8)
        )
    else:
        queries = (
            (
                [candidate.predicate],
                # Varied defaults, for diversity (drawn in this order).
                {
                    **defaults,
                    "src_port": 1024 + rng.randrange(60000),
                    "src_ip": defaults["src_ip"] ^ rng.getrandbits(8),
                },
            )
            for _attempt in range(2 * count)
        )
    for constraints, query_defaults in queries:
        check = solver.check(constraints, defaults=query_defaults)
        if check.is_sat:
            flow = _model_flow(nf, check.model)
            if evaluate(candidate.predicate, flow._asdict()):
                accept(flow)
        if len(flows) >= count:
            return flows

    report.mined_lanes += _mine_matching_columns(
        nf, candidate.predicate, accept, lambda: count - len(flows), rng
    )
    if len(flows) < count:
        flows += _scan_traffic_class(
            nf, candidate.predicate, True, range(200_000, 220_000), seen, count - len(flows), rng
        )
    return flows


# -- the distiller ----------------------------------------------------------------


def distill_signatures(
    nf: NetworkFunction,
    result: CastanResult,
    config: CastanConfig,
    report: DistillReport | None = None,
) -> SignatureSet:
    """Distill calibrated adversarial signatures from one analysis result.

    :data:`AMPLIFY` extra matching flows are synthesized per candidate and
    *added to the priming workload* before calibration.  A small-budget
    analysis reconciles few havocs, so the raw workload may pile only a
    couple of flows into the adversarial bucket; the signature machinery
    can invert as many colliding keys as it likes, and amplification is
    exactly the attack the signature claims to recognise.  The amplified
    flow list is recorded as the signature's ``priming_flows``, so the
    published claim is self-contained.

    The analysis workload is replayed once per call: each candidate starts
    from that primed snapshot and adds only its own amplification flows
    (``report.primed_packets`` / ``report.probe_packets`` count the replay).
    ``report`` is observability only: no digest or content hash reads it.
    """
    report = report if report is not None else DistillReport()
    rng = random.Random(config.seed + 9)
    gates, gate_labels = hint_gate_exprs(nf.workload_hints)
    stage_label = _dominant_stage(result)
    workload = _packet_flows(result)
    workload_set = set(workload)

    candidates = _hash_bucket_candidates(result, gates, gate_labels)
    candidates += _field_cluster_candidates(nf, result, gates, gate_labels)
    report.candidates = len(candidates)

    signatures: list[AdversarialSignature] = []
    seen_predicates: set[Expr] = set()
    # The analysis workload, primed once (for the first candidate that gets
    # as far as replay); each candidate extends its snapshot with its flows.
    primed: PrimedReplay | None = None
    for candidate in candidates:
        if candidate.predicate in seen_predicates:
            continue
        seen_predicates.add(candidate.predicate)
        matching = synthesize_matching_flows(
            nf, candidate, gates, config, workload_set, MATCH_PROBES + AMPLIFY, rng, report
        )
        if len(matching) < MATCH_PROBES:
            report.dropped_no_probes += 1
            report.notes.append(f"no matching probes: {candidate.label}")
            continue
        # Surplus matching flows amplify the priming; the rest stay out of
        # it and serve as the independent probes.  When the candidate ranks
        # matching flows by weakness, probe the weakest — the published
        # threshold must hold for *every* matching packet.
        if candidate.weakness is not None:
            matching.sort(key=lambda flow: evaluate(candidate.weakness, flow._asdict()))
            probes, extra = matching[-MATCH_PROBES:], matching[:-MATCH_PROBES]
        else:
            probes, extra = matching[:MATCH_PROBES], matching[MATCH_PROBES:]
        priming = workload + extra
        indices = range(500_000, 500_000 + 50 * BACKGROUND_PROBES)
        priming_set = workload_set | set(extra)
        background = _scan_traffic_class(
            nf, candidate.predicate, False, indices, priming_set, BACKGROUND_PROBES, rng
        )
        if len(background) < BACKGROUND_PROBES:
            # The predicate is (nearly) implied by the traffic class — it
            # cannot separate adversarial from benign traffic.
            report.dropped_no_background += 1
            report.notes.append(f"no background probes: {candidate.label}")
            continue
        if primed is None:
            primed = PrimedReplay(
                nf,
                workload,
                hierarchy=MemoryHierarchy(config.hierarchy, cycle_costs=config.cycle_costs),
                cycle_costs=config.cycle_costs,
            )
            report.primed_packets += len(workload)
        replay = primed.extended(extra)
        report.primed_packets += len(extra)
        match_costs = replay.probe_costs(probes)
        background_costs = replay.probe_costs(background)
        report.probe_packets += len(probes) + len(background)
        min_match = min(match_costs)
        max_background = max(background_costs)
        if min_match < max_background * 1.1 + 2:
            report.dropped_unseparated += 1
            report.notes.append(f"unseparated ({min_match} vs {max_background}): {candidate.label}")
            continue
        threshold = max_background + (min_match - max_background) // 2
        report.calibrated += 1
        signatures.append(
            AdversarialSignature(
                nf_name=nf.name,
                kind=candidate.kind,
                label=candidate.label,
                predicate=candidate.predicate,
                threshold_cycles=threshold,
                baseline_cycles=max_background,
                matching_cycles=min_match,
                priming_flows=priming,
                evidence_packets=candidate.evidence_packets,
                stage_label=stage_label,
            )
        )

    from repro.service.store import canonical_result_digest

    return SignatureSet(
        nf_name=nf.name,
        nf_fingerprint=nf.fingerprint(),
        source_result_digest=canonical_result_digest(result),
        config_hash=config.content_hash(),
        signatures=signatures,
    )
