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

Matching flows are mined with the columnar scorer, so this module needs
numpy (the [vector] extra) like the rest of :mod:`repro.scoring`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field as dataclass_field

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.castan import SOLVER_BUDGET, CastanResult, rainbow_table
from repro.core.config import CastanConfig
from repro.hashing.functions import FLOW_HASH_MASK, flow_hash16
from repro.ir.instructions import BinOpKind, CmpKind
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
    make_binop,
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


@dataclass
class _Candidate:
    """A predicate awaiting replay calibration."""

    kind: str
    label: str
    predicate: Expr
    evidence_packets: int
    # Fast concrete matcher (avoids re-evaluating the unrolled hash tree
    # thousands of times during background filtering).
    matcher: object
    # For hash-bucket / hash-range candidates: how to invert the hash.
    key_template: Expr | None = None
    # Target 16-bit hash values whose keys satisfy the predicate.
    hash_targets: tuple[int, ...] = ()
    # Orders matching flows weakest-last (hash-range probes at the arc's
    # tail walk the shortest run, so calibration must measure them).
    weakness: object = None


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
        hashes = [flow_hash16(evaluate(template, flow._asdict())) for flow in flows]
        hash_expr = flow_hash16(template)

        # Chained-table shape: the workload piles into one bucket (the low
        # hash bits).  Generous on purpose — small-budget runs reconcile
        # few havocs, so even a 2-packet pile-up is worth proposing; replay
        # calibration decides whether the bucket is hot enough.
        mask = HASH_TABLE_BUCKETS - 1
        bucket, hits = Counter(h & mask for h in hashes).most_common(1)[0]
        if hits >= 2:
            core = make_cmp(
                CmpKind.EQ, make_binop(BinOpKind.AND, hash_expr, Const(mask)), Const(bucket)
            )
            label = f"flow_hash16(key) & 0x{mask:x} == 0x{bucket:x}"
            if gate_labels:
                label += " && " + " && ".join(gate_labels)

            def bucket_matcher(fields, _t=template, _m=mask, _b=bucket, _g=gates):
                if any(evaluate(gate, fields) == 0 for gate in _g):
                    return False
                return (flow_hash16(evaluate(_t, fields)) & _m) == _b

            span = (FLOW_HASH_MASK + 1) // (mask + 1)
            candidates.append(
                _Candidate(
                    kind="hash-bucket",
                    label=label,
                    predicate=conjoin(gates + [core]),
                    evidence_packets=hits,
                    matcher=bucket_matcher,
                    key_template=template,
                    hash_targets=tuple(bucket | (j * (mask + 1)) for j in range(span)),
                )
            )

        # Open-addressing shape: the workload clusters in an arc of
        # consecutive hash values (linear probing piles the run up).  Pin
        # the densest RANGE_WIDTH window; wraparound subtraction keeps the
        # predicate a pure mask/shift/compare tree.
        window_hits = Counter()
        for h in hashes:
            for other in hashes:
                if ((other - h) & FLOW_HASH_MASK) < RANGE_WIDTH:
                    window_hits[h] += 1
        lo, range_hits = window_hits.most_common(1)[0] if window_hits else (0, 0)
        if range_hits >= 2:
            core = make_cmp(
                CmpKind.ULE,
                make_binop(
                    BinOpKind.AND,
                    make_binop(BinOpKind.SUB, hash_expr, Const(lo)),
                    Const(FLOW_HASH_MASK),
                ),
                Const(RANGE_WIDTH - 1),
            )
            label = f"flow_hash16(key) - 0x{lo:x} < 0x{RANGE_WIDTH:x}"
            if gate_labels:
                label += " && " + " && ".join(gate_labels)

            def range_matcher(fields, _t=template, _lo=lo, _g=gates):
                if any(evaluate(gate, fields) == 0 for gate in _g):
                    return False
                return ((flow_hash16(evaluate(_t, fields)) - _lo) & FLOW_HASH_MASK) < RANGE_WIDTH

            def range_weakness(fields, _t=template, _lo=lo):
                return (flow_hash16(evaluate(_t, fields)) - _lo) & FLOW_HASH_MASK

            candidates.append(
                _Candidate(
                    kind="hash-range",
                    label=label,
                    predicate=conjoin(gates + [core]),
                    evidence_packets=range_hits,
                    matcher=range_matcher,
                    key_template=template,
                    hash_targets=tuple((lo + j) & FLOW_HASH_MASK for j in range(RANGE_WIDTH)),
                    weakness=range_weakness,
                )
            )

        # Neither shape concentrated: at small search budgets an
        # open-addressing attack can land its havocs on *spaced* slots, so
        # no window holds two workload hashes.  Fall back to the sharpest
        # predicate there is — exact hash equality with the dominant
        # workload hash.  One packet of evidence is enough to propose it:
        # amplification piles synthesized colliders into one probe run, and
        # replay calibration is the actual gate.
        if hits < 2 and range_hits < 2:
            target = Counter(hashes).most_common(1)[0][0]
            core = make_cmp(CmpKind.EQ, hash_expr, Const(target))
            label = f"flow_hash16(key) == 0x{target:x}"
            if gate_labels:
                label += " && " + " && ".join(gate_labels)

            def exact_matcher(fields, _t=template, _v=target, _g=gates):
                if any(evaluate(gate, fields) == 0 for gate in _g):
                    return False
                return flow_hash16(evaluate(_t, fields)) == _v

            candidates.append(
                _Candidate(
                    kind="hash-bucket",
                    label=label,
                    predicate=conjoin(gates + [core]),
                    evidence_packets=Counter(hashes).most_common(1)[0][1],
                    matcher=exact_matcher,
                    key_template=template,
                    hash_targets=(target,),
                )
            )
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
        core = make_cmp(
            CmpKind.EQ,
            make_binop(BinOpKind.LSHR, field_sym(field_name), Const(shift)),
            Const(value),
        )
        label = (
            f"{field_name} >> {shift} == 0x{value:x}" if shift else f"{field_name} == 0x{value:x}"
        )
        if gate_labels:
            label += " && " + " && ".join(gate_labels)

        def matcher(fields, _f=field_name, _s=shift, _v=value, _g=gates):
            if any(evaluate(gate, fields) == 0 for gate in _g):
                return False
            return (fields[_f] >> _s) == _v

        candidates.append(
            _Candidate(
                kind=kind,
                label=label,
                predicate=conjoin(gates + [core]),
                evidence_packets=hits,
                matcher=matcher,
            )
        )
    return candidates


# -- matching-flow synthesis ---------------------------------------------------------


def _model_flow(nf: NetworkFunction, model) -> FlowKey:
    defaults = nf.packet_defaults
    return FlowKey(
        model.get("src_ip", defaults.get("src_ip", 0x0A000001)) & 0xFFFFFFFF,
        model.get("dst_ip", defaults.get("dst_ip", 0x08080808)) & 0xFFFFFFFF,
        model.get("src_port", defaults.get("src_port", 10000)) & 0xFFFF,
        model.get("dst_port", defaults.get("dst_port", 80)) & 0xFFFF,
        model.get("protocol", defaults.get("protocol", 17)) & 0xFF,
    )


def _mine_matching_columns(
    nf: NetworkFunction,
    candidate: _Candidate,
    accept,
    needed,
    rng: random.Random,
    batches: int = 32,
    batch_size: int = 65536,
) -> int:
    """Mine matching flows by scoring random columnar batches.

    This is the vectorized scorer run in reverse: evaluate the predicate
    over random in-class field columns and keep the lanes that match.
    Returns the number of lanes evaluated.
    """
    evaluator = column_evaluator(candidate.predicate)

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
    the solver directly with varied defaults for diversity.  Columnar
    mining — the vectorized scorer run over random in-class batches — then
    fills the remainder (``report.mined_lanes`` counts the mined lanes),
    and a scan of the traffic class tops up what mining missed.
    """
    solver = Solver(search_budget=SOLVER_BUDGET, seed=config.seed)
    flows: list[FlowKey] = []
    seen = set(exclude)

    def accept(flow: FlowKey) -> bool:
        if flow in seen or not candidate.matcher(flow._asdict()):
            return False
        seen.add(flow)
        flows.append(flow)
        return True

    defaults = dict(nf.packet_defaults)
    if candidate.key_template is not None:
        table = rainbow_table(config)
        targets = list(candidate.hash_targets)
        rng.shuffle(targets)
        for target in targets:
            for key in table.invert(target, limit=8):
                check = solver.check(
                    [expr_eq(candidate.key_template, Const(key))] + list(gates),
                    defaults=defaults,
                )
                if check.is_sat:
                    accept(_model_flow(nf, check.model))
                if len(flows) >= count:
                    return flows
    else:
        for _attempt in range(2 * count):
            varied = dict(defaults)
            varied["src_port"] = 1024 + rng.randrange(60000)
            varied["src_ip"] = defaults.get("src_ip", 0x0A000001) ^ rng.getrandbits(8)
            check = solver.check([candidate.predicate], defaults=varied)
            if check.is_sat:
                accept(_model_flow(nf, check.model))
            if len(flows) >= count:
                return flows

    report.mined_lanes += _mine_matching_columns(
        nf, candidate, accept, lambda: count - len(flows), rng
    )
    if len(flows) >= count:
        return flows

    # Top-up: scan the traffic class with the matcher.
    for index in range(200_000, 200_000 + 20_000):
        if accept(_flow_for_index(nf, index, rng)) and len(flows) >= count:
            break
    return flows


def _background_flows(
    nf: NetworkFunction,
    candidate: _Candidate,
    exclude: set[FlowKey],
    count: int,
    rng: random.Random,
) -> list[FlowKey]:
    """In-traffic-class flows that do NOT match the candidate predicate."""
    flows: list[FlowKey] = []
    seen = set(exclude)
    for index in range(500_000, 500_000 + 50 * count):
        flow = _flow_for_index(nf, index, rng)
        if flow in seen or candidate.matcher(flow._asdict()):
            continue
        seen.add(flow)
        flows.append(flow)
        if len(flows) >= count:
            break
    return flows


# -- the distiller ----------------------------------------------------------------


def distill_signatures(
    nf: NetworkFunction,
    result: CastanResult,
    config: CastanConfig | None = None,
    match_probes: int = 3,
    background_probes: int = 24,
    amplify: int = 48,
    report: DistillReport | None = None,
) -> SignatureSet:
    """Distill calibrated adversarial signatures from one analysis result.

    ``amplify`` extra matching flows are synthesized per candidate and
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
    config = config or CastanConfig()
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
            nf, candidate, gates, config, workload_set, match_probes + amplify, rng, report
        )
        if len(matching) < match_probes:
            report.dropped_no_probes += 1
            report.notes.append(f"no matching probes: {candidate.label}")
            continue
        # Surplus matching flows amplify the priming; the rest stay out of
        # it and serve as the independent probes.  When the candidate ranks
        # matching flows by weakness, probe the weakest — the published
        # threshold must hold for *every* matching packet.
        if candidate.weakness is not None:
            matching.sort(key=lambda f: candidate.weakness(f._asdict()))
            probes, extra = matching[-match_probes:], matching[:-match_probes]
        else:
            probes, extra = matching[:match_probes], matching[match_probes:]
        priming = workload + extra
        priming_set = workload_set | set(extra)
        background = _background_flows(nf, candidate, priming_set, background_probes, rng)
        if len(background) < background_probes:
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
            report.notes.append(
                f"unseparated ({min_match} vs {max_background}): {candidate.label}"
            )
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
