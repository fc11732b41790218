"""The score job: analyze (or cache-hit) → distill → stream windows.

One entry point shared by the service's score-job worker process
(:func:`repro.service.worker.run_job_worker`) and the
``tools/repro_score.py`` CLI, so both wire the same pipeline:

1. **result** — reuse the content-addressed store entry for
   ``(nf, config, num_packets)`` when present, otherwise run the analysis
   (and persist it, so the next score job for the same triple is free);
2. **signatures** — distill calibrated signatures from the result, cached
   in the store's signature shelf under the set's own content address;
3. **stream** — score the requested traffic (an uploaded pcap or a
   synthetic in-class stream) in batches, emitting one event per completed
   window plus a terminal summary (``frames_skipped``: frames of a capture
   the parser dropped as not IPv4 or truncated; ``frames_in_runs``: frames
   the pcap record walker took in runs of equal length rather than one by
   one, 0 for synthetic traffic).

``emit(kind, payload)`` receives ``("signatures", ...)`` once, then
``("window", ...)`` per window; the returned summary carries lifetime
counters.  The function runs to completion: the service stops a cancelled
or overdue score job by revoking the worker process that runs it.
"""

from __future__ import annotations

import dataclasses
import io
import logging
from collections import Counter

from repro.core.castan import Castan, CastanResult
from repro.core.config import CastanConfig
from repro.net.pcap import PcapReader
from repro.nf.base import NetworkFunction
from repro.nf.registry import get_nf
from repro.scoring.distill import DistillReport, distill_signatures
from repro.scoring.scorer import ScorerOptions, StreamScorer
from repro.scoring.signatures import SignatureSet
from repro.scoring.stream import (  # bench/ wraps the first three as names of this module
    fields_to_columns,
    iter_pcap_batches,
    packets_to_fields,
    synthetic_batches,
)

logger = logging.getLogger("repro.scoring")


def obtain_result(
    nf: NetworkFunction,
    config: CastanConfig,
    num_packets: int | None = None,
    store=None,
    label: str = "service",
) -> CastanResult:
    """The analysis result for ``(nf, config, num_packets)``, store-first.

    A result computed here is stored with a perf record labelled ``label``.
    """
    if store is not None:
        key = store.key_for(nf, config, num_packets)
        entry = store.get(key)
        if entry is not None:
            return entry[0]
    result = Castan(config).analyze(nf, num_packets=num_packets)
    if store is not None:
        from repro.service.store import perf_record

        store.put(key, result, perf=perf_record(result, label=label))
    return result


def obtain_signatures(
    nf: NetworkFunction,
    result: CastanResult,
    config: CastanConfig,
    store=None,
    report: DistillReport | None = None,
) -> SignatureSet:
    """Distilled signatures for ``result``, cached on the store's sig shelf."""
    if store is not None:
        from repro.service.store import canonical_result_digest

        probe = SignatureSet(
            nf_name=nf.name,
            nf_fingerprint=nf.fingerprint(),
            source_result_digest=canonical_result_digest(result),
            config_hash=config.content_hash(),
        )
        cached = store.get_signatures(probe.store_key())
        if cached is not None:
            return cached
    signature_set = distill_signatures(nf, result, config=config, report=report)
    if store is not None:
        store.put_signatures(signature_set)
    return signature_set


#: The key sets a traffic spec may have: one source, and a seed only with
#: synthetic traffic.  Anything else — a typoed key, two sources — is refused
#: rather than silently ignored.
TRAFFIC_KEY_SETS = ({"pcap_bytes"}, {"pcap_path"}, {"synthetic"}, {"synthetic", "seed"})


def check_traffic(traffic: dict) -> None:
    """Raise ``ValueError`` unless ``traffic`` is a scorable traffic spec.

    Its keys must be one of :data:`TRAFFIC_KEY_SETS`.  ``synthetic`` must be
    an int >= 0 and ``seed`` an int (a bool is neither).  A pcap is checked
    by its 24-byte global header only (magic, truncation, link type — the
    reader's ``PcapFormatError``), so a submission boundary can refuse a
    file that is not a pcap at all without parsing it; a malformed *record*
    still surfaces while streaming.
    """
    if set(traffic) not in TRAFFIC_KEY_SETS:
        raise ValueError(
            "traffic spec needs exactly one of 'pcap_bytes', 'pcap_path' or "
            f"'synthetic' (with an optional 'seed'); got keys {sorted(traffic)}"
        )
    if "synthetic" in traffic:
        count = traffic["synthetic"]
        if type(count) is not int or count < 0:
            raise ValueError(f"synthetic packet count must be an int >= 0, got {count!r}")
        seed = traffic.get("seed", 0)
        if type(seed) is not int:
            raise ValueError(f"synthetic seed must be an int, got {seed!r}")
    elif "pcap_bytes" in traffic:
        PcapReader(io.BytesIO(traffic["pcap_bytes"]))
    else:
        try:
            stream = open(traffic["pcap_path"], "rb")
        except OSError as exc:
            raise ValueError(f"cannot read pcap_path: {exc}") from None
        with stream:
            PcapReader(stream)


def _traffic_batches(nf: NetworkFunction, traffic: dict, options: ScorerOptions, counters: Counter):
    """Check ``traffic`` now (:func:`check_traffic`); return its lazy column batches.

    ``counters`` takes the pcap parser's ``frames_skipped`` and ``frames_in_runs``.
    """
    check_traffic(traffic)
    if "synthetic" in traffic:
        return synthetic_batches(
            nf, traffic["synthetic"], options.batch_size, seed=traffic.get("seed", 0)
        )
    source = io.BytesIO(traffic["pcap_bytes"]) if "pcap_bytes" in traffic else traffic["pcap_path"]
    return iter_pcap_batches(source, options.batch_size, columnar=True, counters=counters)


def run_score_job(
    nf_spec: str,
    config: CastanConfig,
    traffic: dict,
    num_packets: int | None = None,
    store=None,
    options: ScorerOptions | None = None,
    emit=None,
    label: str = "service",
) -> dict:
    """Run one score job end to end; returns the terminal summary dict.

    ``label`` names the perf record of an analysis this job stores.
    """
    options = options or ScorerOptions()
    emit = emit or (lambda kind, payload: None)
    nf = get_nf(nf_spec)
    counters: Counter = Counter()
    # A bad traffic spec fails here, before the analysis is paid for.
    batches = _traffic_batches(nf, traffic, options, counters)
    result = obtain_result(nf, config, num_packets, store=store, label=label)
    report = DistillReport()
    signature_set = obtain_signatures(nf, result, config, store=store, report=report)
    emit(
        "signatures",
        {
            "nf": nf.name,
            "count": len(signature_set),
            "store_key": signature_set.store_key(),
            "content_hash": signature_set.content_hash(),
            # What distillation did and why candidates were dropped; all 0
            # (and no notes) when the signature shelf hit.
            **dataclasses.asdict(report),
            "signatures": [
                {
                    "kind": s.kind,
                    "label": s.label,
                    "threshold_cycles": s.threshold_cycles,
                    "baseline_cycles": s.baseline_cycles,
                    "priming_flows": len(s.priming_flows),
                }
                for s in signature_set
            ],
        },
    )

    scorer = StreamScorer(
        signature_set.signatures,
        window_size=options.window_size,
        top_k=options.top_k,
    )
    for batch in batches:
        for window in scorer.feed(batch):
            emit("window", window.to_dict())
    trailing = scorer.finish()
    if trailing is not None:
        emit("window", trailing.to_dict())

    summary = scorer.summary()
    summary["frames_in_runs"] = counters["frames_in_runs"]
    skipped = summary["frames_skipped"] = counters["frames_skipped"]
    if skipped:
        logger.info("%s: skipped %d frame(s) that are not IPv4 or are truncated", nf.name, skipped)
    summary["nf"] = nf.name
    summary["signature_store_key"] = signature_set.store_key()
    return summary
