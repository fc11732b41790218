"""Line-rate scoring of packet streams against adversarial signatures.

Per packet the scorer produces a **verdict mask**: a 64-bit word whose bit
*i* is set iff the packet matches signature *i*.  The scorer
(:func:`score_batch_columns`) evaluates each predicate once over columnar
field arrays via :func:`~repro.symbex.expr.column_evaluator`, each unique
DAG node once, and packs the verdict bits lanewise.  It needs numpy (the
[vector] extra): without it, importing this module raises ``ImportError``.

:func:`score_batch_fields` is the per-packet reference: it evaluates each
predicate per packet through :func:`~repro.symbex.expr.dag_evaluator`.
The two must agree *byte for byte*: :func:`verdict_bytes` renders any
batch of masks as little-endian ``u64`` and ``tests/test_scoring.py`` pins
``verdict_bytes(columns) == verdict_bytes(reference)`` on captures and
hypothesis-generated batches.

:class:`StreamScorer` adds the online part — lifetime and windowed
per-signature hit counters plus a top-K offender report per window —
shaped by :class:`ScorerOptions` (batch size, window size, top-K).
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, fields

from repro.scoring.signatures import FIELD_ORDER, AdversarialSignature
from repro.symbex.expr import column_evaluator, dag_evaluator, require_numpy

_np = require_numpy()  # eager: a scoring process pays the import in set-up

#: A verdict mask is one 64-bit word, so a scorer carries at most 64
#: signatures (far above anything the distiller emits per NF).
MAX_SIGNATURES = 64

DEFAULT_BATCH = 8192
DEFAULT_WINDOW = 65536
DEFAULT_TOPK = 5


def _check_positive_int(name: str, value) -> None:
    # bool is an int subclass, but `true` is not a packet count.
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be a positive int, got {value!r}")


def _check_signatures(signatures: list[AdversarialSignature]) -> None:
    if len(signatures) > MAX_SIGNATURES:
        raise ValueError(
            f"at most {MAX_SIGNATURES} signatures fit one verdict mask, "
            f"got {len(signatures)}"
        )


def score_batch_fields(
    signatures: list[AdversarialSignature], fields: list[dict[str, int]]
) -> list[int]:
    """Reference verdict masks for a batch of per-packet field dicts."""
    _check_signatures(signatures)
    evaluators = [dag_evaluator(signature.predicate) for signature in signatures]
    masks = []
    for packet in fields:
        mask = 0
        for bit, evaluator in enumerate(evaluators):
            if evaluator(packet) != 0:
                mask |= 1 << bit
        masks.append(mask)
    return masks


def score_batch_columns(signatures: list[AdversarialSignature], columns):
    """Vectorized verdict masks over one columnar batch (uint64 array).

    Value-identical to :func:`score_batch_fields` on the same packets; the
    differential tests hold the two byte-equal via :func:`verdict_bytes`.
    """
    _check_signatures(signatures)
    size = len(columns[FIELD_ORDER[0]])
    masks = _np.zeros(size, dtype=_np.uint64)
    zero = _np.uint64(0)
    for bit, signature in enumerate(signatures):
        verdict = column_evaluator(signature.predicate)(columns)
        lanes = _np.broadcast_to(_np.asarray(verdict), (size,))
        masks |= _np.where(_np.not_equal(lanes, zero), _np.uint64(1 << bit), zero)
    return masks


def verdict_bytes(masks) -> bytes:
    """Canonical little-endian ``u64`` rendering of a batch of verdict masks.

    The byte-identity surface of scorer and reference: equal packets must
    yield equal bytes whether ``masks`` is a Python list
    (:func:`score_batch_fields`) or a numpy array (:func:`score_batch_columns`).
    """
    if isinstance(masks, _np.ndarray):
        return masks.astype("<u8").tobytes()
    return struct.pack(f"<{len(masks)}Q", *masks)


@dataclass
class ScoreWindow:
    """One completed scoring window: counters plus the top-K offenders."""

    index: int
    start_packet: int
    packets: int
    matched: int
    signature_hits: list[int]
    top_offenders: list[tuple[tuple[int, int, int, int, int], int]]

    def to_dict(self) -> dict:
        return {
            "window": self.index,
            "start_packet": self.start_packet,
            "packets": self.packets,
            "matched": self.matched,
            "signature_hits": list(self.signature_hits),
            "top_offenders": [
                {"flow": list(flow), "hits": hits} for flow, hits in self.top_offenders
            ],
        }


class StreamScorer:
    """Windowed stream scoring with per-signature counters and top-K flows.

    Feed column batches (a dict of uint64 arrays); each :meth:`feed`
    returns the windows that *completed* inside that batch, and
    :meth:`finish` flushes the final partial window.  :meth:`feed` reduces
    its batch to the matched rows and hands them to the accounting routine
    (:meth:`ingest`), which takes any source of matched rows — the tests
    feed it :func:`score_batch_fields` masks as the reference.
    """

    def __init__(
        self,
        signatures: list[AdversarialSignature],
        window_size: int = DEFAULT_WINDOW,
        top_k: int = DEFAULT_TOPK,
    ) -> None:
        _check_signatures(list(signatures))
        _check_positive_int("window_size", window_size)
        _check_positive_int("top_k", top_k)
        self.signatures = list(signatures)
        self.window_size = window_size
        self.top_k = top_k
        self.total_packets = 0
        self.total_matched = 0
        self.total_hits = [0] * len(self.signatures)
        self.windows_emitted = 0
        self._window_start = 0
        self._window_packets = 0
        self._window_matched = 0
        self._window_hits = [0] * len(self.signatures)
        self._window_offenders: Counter = Counter()

    # -- feeding --------------------------------------------------------------

    def feed(self, batch) -> list[ScoreWindow]:
        """Score one column batch; returns the windows completed by it."""
        masks = score_batch_columns(self.signatures, batch)
        rows = _np.flatnonzero(masks)
        flows = list(zip(*(batch[name][rows].tolist() for name in FIELD_ORDER)))
        return self.ingest(len(masks), rows.tolist(), masks[rows].tolist(), flows)

    def ingest(self, size: int, rows: list, masks: list, flows: list) -> list[ScoreWindow]:
        """Account one batch of ``size`` packets, given only its matched rows.

        ``rows`` are the ascending batch indices of the packets with a
        non-zero verdict, ``masks`` and ``flows`` their verdict masks and
        5-tuples.  The batch is cut at window boundaries by arithmetic — a
        batch may close several windows or none — and each window takes the
        matched rows that fall inside it, so the cost follows the matched
        packets, not the traffic.
        """
        completed: list[ScoreWindow] = []
        self.total_packets += size
        self.total_matched += len(rows)
        done = first = 0  # packets / matched rows already attributed
        while done < size:
            take = min(self.window_size - self._window_packets, size - done)
            done += take
            self._window_packets += take
            last = bisect_left(rows, done, first)
            self._window_matched += last - first
            self._window_offenders.update(flows[first:last])
            for mask, count in Counter(masks[first:last]).items():
                while mask:
                    bit = (mask & -mask).bit_length() - 1
                    self.total_hits[bit] += count
                    self._window_hits[bit] += count
                    mask &= mask - 1
            first = last
            if self._window_packets >= self.window_size:
                completed.append(self._close_window())
        return completed

    def _close_window(self) -> ScoreWindow:
        offenders = sorted(
            self._window_offenders.items(), key=lambda item: (-item[1], item[0])
        )[: self.top_k]
        window = ScoreWindow(
            index=self.windows_emitted,
            start_packet=self._window_start,
            packets=self._window_packets,
            matched=self._window_matched,
            signature_hits=list(self._window_hits),
            top_offenders=offenders,
        )
        self.windows_emitted += 1
        self._window_start += self._window_packets
        self._window_packets = 0
        self._window_matched = 0
        self._window_hits = [0] * len(self.signatures)
        self._window_offenders = Counter()
        return window

    def finish(self) -> ScoreWindow | None:
        """Close and return the trailing partial window (``None`` if empty)."""
        if self._window_packets == 0:
            return None
        return self._close_window()

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict:
        """Lifetime totals (JSON-safe)."""
        return {
            "packets": self.total_packets,
            "matched": self.total_matched,
            "windows": self.windows_emitted,
            "signatures": [
                {
                    "label": signature.label,
                    "kind": signature.kind,
                    "threshold_cycles": signature.threshold_cycles,
                    "hits": hits,
                }
                for signature, hits in zip(self.signatures, self.total_hits)
            ],
        }


@dataclass
class ScorerOptions:
    """Scorer knobs: packets per columnar batch, per report window, and
    offending flows reported per window.  Each must be a positive int."""

    batch_size: int = DEFAULT_BATCH
    window_size: int = DEFAULT_WINDOW
    top_k: int = DEFAULT_TOPK

    def __post_init__(self) -> None:
        for f in fields(self):
            _check_positive_int(f.name, getattr(self, f.name))
