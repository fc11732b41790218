"""Packet streams for the scorer: pcap batches, columns, synthetic traffic.

The scorer consumes traffic in *batches*.  With numpy a batch is columnar —
one ``uint64`` array per packet field, the layout
:func:`~repro.symbex.expr.column_evaluator` executes predicates over
directly — and without numpy it degrades to a list of per-packet field
dicts for the scalar reference path.  Both representations carry exactly
the five canonical fields of :data:`~repro.scoring.signatures.FIELD_ORDER`.
A pcap reaches the vector tier without a per-packet object in between:
:func:`iter_pcap_batches` in columnar mode parses the capture's bytes straight
into the columns.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.net.columns import parse_frame_columns
from repro.net.packet import Packet, PacketParseError
from repro.net.pcap import PcapReader
from repro.nf.base import NetworkFunction
from repro.scoring.signatures import FIELD_ORDER
from repro.symbex.expr import load_numpy

_np = load_numpy()  # eager: a scoring process pays the import in set-up


def packets_to_fields(packets: list[Packet]) -> list[dict[str, int]]:
    """Scalar batch representation: one field dict per packet."""
    return [dict(zip(FIELD_ORDER, packet.flow_tuple)) for packet in packets]


def fields_to_columns(fields: list[dict[str, int]]):
    """Columnar batch representation, or ``None`` without numpy."""
    if _np is None:
        return None
    return {
        name: _np.array([f[name] for f in fields], dtype=_np.uint64)
        for name in FIELD_ORDER
    }


def iter_pcap_batches(
    source: str | Path | BinaryIO,
    batch_size: int,
    columnar: bool = False,
    counters: Counter | None = None,
) -> Iterator:
    """Parseable packets of a pcap capture, in batches of exactly ``batch_size``.

    A batch is a ``list[Packet]``, or with ``columnar=True`` (needs numpy) the
    dict of ``uint64`` field columns, parsed straight from the capture's
    bytes.  Unparseable frames are skipped (the NFs drop non-IPv4 traffic the
    same way) and counted into ``counters["frames_skipped"]``; malformed
    *containers* still raise :class:`~repro.net.pcap.PcapFormatError`.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if columnar and _np is None:
        raise RuntimeError("columnar pcap batches require numpy (the [vector] extra)")
    if counters is None:
        counters = Counter()
    with PcapReader(source) as reader:
        if columnar:
            yield from _column_batches(reader, batch_size, counters)
            return
        batch: list[Packet] = []
        for record in reader:
            try:
                batch.append(record.to_packet())
            except PacketParseError:
                counters["frames_skipped"] += 1
                continue
            if len(batch) >= batch_size:
                yield batch
                batch = []
    if batch:
        yield batch


def _column_batches(reader: PcapReader, batch_size: int, counters: Counter) -> Iterator[dict]:
    """Re-cut the reader's chunks into column batches of ``batch_size`` rows."""
    rows = _np.empty((len(FIELD_ORDER), 0), dtype=_np.uint64)
    for buffer, offsets, lengths in reader.chunks():
        parsed, skipped = parse_frame_columns(buffer, offsets, lengths)
        counters["frames_skipped"] += skipped
        rows = _np.concatenate([rows, parsed], axis=1)
        while rows.shape[1] >= batch_size:
            yield dict(zip(FIELD_ORDER, rows[:, :batch_size]))
            rows = rows[:, batch_size:]
    if rows.shape[1]:
        yield dict(zip(FIELD_ORDER, rows))


def random_flow_columns(nf: NetworkFunction, size: int, rng: random.Random):
    """Random in-traffic-class packet field columns (uint64 arrays).

    Honours the NF's workload hints — source-prefix forcing, pinned VIP
    destination, protocol — so every lane passes the NF's preamble, the
    same traffic class the analysis searched.  Requires numpy.
    """
    hints = nf.workload_hints
    gen = _np.random.default_rng(rng.getrandbits(32))
    src_ip = gen.integers(0, 1 << 32, size=size, dtype=_np.uint64)
    if "src_ip_prefix" in hints:
        bits = hints.get("src_ip_prefix_bits", 8)
        host = (1 << (32 - bits)) - 1
        src_ip = (src_ip & _np.uint64(host)) | _np.uint64(hints["src_ip_prefix"])
    if "dst_ip" in hints:
        dst_ip = _np.full(size, hints["dst_ip"], dtype=_np.uint64)
    else:
        dst_ip = gen.integers(0, 1 << 32, size=size, dtype=_np.uint64)
    return {
        "src_ip": src_ip,
        "dst_ip": dst_ip,
        "src_port": gen.integers(1024, 1 << 16, size=size, dtype=_np.uint64),
        "dst_port": gen.integers(1, 1 << 16, size=size, dtype=_np.uint64),
        "protocol": _np.full(size, hints.get("protocol", 17), dtype=_np.uint64),
    }


def random_flow_fields(
    nf: NetworkFunction, size: int, rng: random.Random
) -> list[dict[str, int]]:
    """Scalar twin of :func:`random_flow_columns` (numpy-free).

    Draws from the same traffic class but not the same RNG stream —
    synthetic scalar and columnar streams are *statistically* alike, not
    lane-identical (differential tests convert one batch representation to
    the other instead of regenerating).
    """
    hints = nf.workload_hints
    fields = []
    for _ in range(size):
        src_ip = rng.getrandbits(32)
        if "src_ip_prefix" in hints:
            bits = hints.get("src_ip_prefix_bits", 8)
            host = (1 << (32 - bits)) - 1
            src_ip = (src_ip & host) | hints["src_ip_prefix"]
        fields.append(
            {
                "src_ip": src_ip,
                "dst_ip": hints.get("dst_ip", rng.getrandbits(32)),
                "src_port": 1024 + rng.randrange((1 << 16) - 1024),
                "dst_port": 1 + rng.randrange((1 << 16) - 1),
                "protocol": hints.get("protocol", 17),
            }
        )
    return fields


def synthetic_batches(
    nf: NetworkFunction, count: int, batch_size: int, seed: int = 0
) -> Iterator:
    """``count`` synthetic in-class packets in batches of ``batch_size``.

    Yields columnar batches with numpy, per-packet field-dict batches
    without — the two representations the scorer's vector and scalar entry
    points consume respectively.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    rng = random.Random(seed)
    remaining = count
    while remaining > 0:
        size = min(batch_size, remaining)
        remaining -= size
        if _np is not None:
            yield random_flow_columns(nf, size, rng)
        else:
            yield random_flow_fields(nf, size, rng)
