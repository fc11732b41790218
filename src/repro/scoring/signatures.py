"""Adversarial signatures: predicates that recognise worst-case traffic.

A CASTAN run produces an *offline* artifact — the synthesized adversarial
workload.  An :class:`AdversarialSignature` turns that artifact into a
*deployable* one: a predicate over a packet 5-tuple (a mask/shift/compare
:class:`~repro.symbex.expr.Expr` tree, possibly routed through the
symbolically-unrolled flow hash) that is nonzero exactly for packets driving
the NF toward its synthesized worst case, plus the replay-calibrated cycle
threshold that the claim is held to.

Signatures serialize to canonical JSON with a versioned SHA-256 content
hash, mirroring the result store's addressing discipline
(``repro.service.store``): a :class:`SignatureSet` is keyed by the NF
fingerprint, the canonical digest of the result it was distilled from and
the content hash of the distillation config, so any change to the NF, the
config, or the analysis output changes the address.

>>> from repro.scoring.signatures import field_sym, signature_from_dict
>>> from repro.ir.instructions import CmpKind
>>> from repro.symbex.expr import Const, make_cmp
>>> pred = make_cmp(CmpKind.EQ, field_sym("dst_port"), Const(80))
>>> sig = AdversarialSignature(
...     nf_name="demo", kind="field-cluster", label="dst_port == 80",
...     predicate=pred, threshold_cycles=100, baseline_cycles=10)
>>> sig.matches({"src_ip": 1, "dst_ip": 2, "src_port": 3, "dst_port": 80, "protocol": 17})
True
>>> clone = signature_from_dict(sig.to_dict())
>>> clone.predicate is sig.predicate  # rebuilt predicates re-intern
True
>>> clone.content_hash() == sig.content_hash()
True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.ir.instructions import BinOpKind, CmpKind
from repro.net.packet import FlowKey, PacketField
from repro.symbex.expr import (
    Const,
    Expr,
    Sym,
    dag_evaluator,
    expr_from_dict,
    expr_to_dict,
    make_binop,
    make_cmp,
)

#: Version tag mixed into every signature content hash (store discipline:
#: bump on any change to the canonical form, so old persisted signatures
#: miss instead of being misread).  v2: thresholds are calibrated on the
#: analysis config's hierarchy and cycle costs, not the default machine.
#: v3: a set records (and is keyed by) the content hash of the config it was
#: distilled under, since distillation reads the config's seed and machine.
SIGNATURE_VERSION = "castan-signature-v3"

#: The canonical per-packet field symbols every signature predicate is
#: expressed over (single-packet namespace; the engine's ``pktN.*`` symbols
#: are renamed onto these during distillation).
FIELD_ORDER = FlowKey._fields

_FIELD_BITS = {f.field_name: f.bits for f in PacketField}


def field_sym(name: str) -> Sym:
    """The canonical symbol for one packet field (width per ``PacketField``)."""
    return Sym(name, bits=_FIELD_BITS[name])


def packet_symbol_map(packet_index: int) -> dict[str, Sym]:
    """Rename map from the engine's ``pkt<i>.*`` symbols to canonical fields."""
    return {f"pkt{packet_index}.{name}": field_sym(name) for name in FIELD_ORDER}


def conjoin(terms: list[Expr]) -> Expr:
    """AND a list of 0/1 condition expressions (empty list = always true)."""
    result: Expr = Const(1)
    for term in terms:
        result = make_binop(BinOpKind.AND, result, term) if result is not Const(1) else term
    return result if terms else Const(1)


@dataclass
class AdversarialSignature:
    """One distilled worst-case-traffic predicate plus its calibrated claim.

    ``predicate`` is nonzero exactly for matching 5-tuples.  The claim —
    held by the property-based soundness tests — is: after the NF is primed
    with ``priming_flows`` (the synthesized adversarial workload), a fresh
    matching probe packet costs at least ``threshold_cycles`` reference
    cycles, while traffic-class background probes stay below it
    (``baseline_cycles`` records the worst background probe seen during
    calibration).
    """

    nf_name: str
    kind: str  # "hash-bucket" | "cache-set" | "field-cluster"
    label: str
    predicate: Expr
    threshold_cycles: int
    baseline_cycles: int = 0
    matching_cycles: int = 0  # cheapest calibrated matching probe
    priming_flows: list[FlowKey] = field(default_factory=list)
    evidence_packets: int = 0  # workload packets matching during distillation
    stage_label: str = ""  # dominant chain stage (empty for standalone NFs)

    def matches(self, fields: dict[str, int]) -> bool:
        """Scalar reference verdict for one packet's field dict.

        Runs through :func:`~repro.symbex.expr.dag_evaluator` — predicates
        route packed keys through the unrolled flow hash, whose shared
        rounds make a plain tree walk exponential.
        """
        return dag_evaluator(self.predicate)(fields) != 0

    def to_dict(self) -> dict:
        return {
            "version": SIGNATURE_VERSION,
            "nf": self.nf_name,
            "kind": self.kind,
            "label": self.label,
            "predicate": expr_to_dict(self.predicate),
            "threshold_cycles": self.threshold_cycles,
            "baseline_cycles": self.baseline_cycles,
            "matching_cycles": self.matching_cycles,
            "priming_flows": [list(flow) for flow in self.priming_flows],
            "evidence_packets": self.evidence_packets,
            "stage_label": self.stage_label,
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(f"{SIGNATURE_VERSION}:{blob}".encode()).hexdigest()


def signature_from_dict(data: dict) -> AdversarialSignature:
    if data.get("version") != SIGNATURE_VERSION:
        raise ValueError(
            f"signature version {data.get('version')!r} != {SIGNATURE_VERSION!r}"
        )
    return AdversarialSignature(
        nf_name=data["nf"],
        kind=data["kind"],
        label=data["label"],
        predicate=expr_from_dict(data["predicate"]),
        threshold_cycles=int(data["threshold_cycles"]),
        baseline_cycles=int(data["baseline_cycles"]),
        matching_cycles=int(data.get("matching_cycles", 0)),
        priming_flows=[FlowKey(*flow) for flow in data.get("priming_flows", [])],
        evidence_packets=int(data.get("evidence_packets", 0)),
        stage_label=data.get("stage_label", ""),
    )


@dataclass
class SignatureSet:
    """Every signature distilled from one CASTAN result."""

    nf_name: str
    nf_fingerprint: str
    source_result_digest: str  # canonical_result_digest of the distilled run
    config_hash: str  # CastanConfig.content_hash() of the distillation config
    signatures: list[AdversarialSignature] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.signatures)

    def __iter__(self):
        return iter(self.signatures)

    @property
    def labels(self) -> list[str]:
        return [signature.label for signature in self.signatures]

    def to_dict(self) -> dict:
        return {
            "version": SIGNATURE_VERSION,
            "nf": self.nf_name,
            "nf_fingerprint": self.nf_fingerprint,
            "source_result_digest": self.source_result_digest,
            "config_hash": self.config_hash,
            "signatures": [signature.to_dict() for signature in self.signatures],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(f"{SIGNATURE_VERSION}:{blob}".encode()).hexdigest()

    def store_key(self) -> str:
        """Store-style content address of this set's *inputs*.

        A function of the NF fingerprint, the distilled result's canonical
        digest and the distillation config's content hash — the same
        derivation shape as :func:`repro.service.store.result_key`.  Two
        configs can yield the same result digest (a different ``seed``)
        and still distill different signatures, so the config is part of
        the address, not only of the source.
        """
        payload = (
            f"{SIGNATURE_VERSION}:{self.nf_fingerprint}:{self.source_result_digest}"
            f":{self.config_hash}"
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def signature_set_from_dict(data: dict) -> SignatureSet:
    if data.get("version") != SIGNATURE_VERSION:
        raise ValueError(
            f"signature set version {data.get('version')!r} != {SIGNATURE_VERSION!r}"
        )
    return SignatureSet(
        nf_name=data["nf"],
        nf_fingerprint=data["nf_fingerprint"],
        source_result_digest=data["source_result_digest"],
        config_hash=data["config_hash"],
        signatures=[signature_from_dict(entry) for entry in data["signatures"]],
    )


def signature_set_from_json(text: str) -> SignatureSet:
    return signature_set_from_dict(json.loads(text))


def hint_gate_exprs(workload_hints: dict[str, int]) -> tuple[list[Expr], list[str]]:
    """Traffic-class gates implied by an NF's workload hints.

    Returns parallel lists of gate expressions and human-readable labels;
    the gates are ANDed into every distilled predicate so synthesized
    matching packets pass the NF's preamble (protocol checks, internal
    prefix, VIP destination).
    """
    gates: list[Expr] = []
    labels: list[str] = []
    if "protocol" in workload_hints:
        gates.append(
            make_cmp(CmpKind.EQ, field_sym("protocol"), Const(workload_hints["protocol"]))
        )
        labels.append(f"protocol == {workload_hints['protocol']}")
    if "src_ip_prefix" in workload_hints:
        bits = workload_hints.get("src_ip_prefix_bits", 8)
        shift = 32 - bits
        prefix = workload_hints["src_ip_prefix"] >> shift
        gates.append(
            make_cmp(
                CmpKind.EQ,
                make_binop(BinOpKind.LSHR, field_sym("src_ip"), Const(shift)),
                Const(prefix),
            )
        )
        labels.append(f"src_ip >> {shift} == 0x{prefix:x}")
    if "dst_ip" in workload_hints:
        gates.append(make_cmp(CmpKind.EQ, field_sym("dst_ip"), Const(workload_hints["dst_ip"])))
        labels.append(f"dst_ip == 0x{workload_hints['dst_ip']:08x}")
    return gates, labels
