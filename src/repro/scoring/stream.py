"""Packet streams for the scorer: pcap batches, columns, synthetic traffic.

The scorer consumes traffic in columnar *batches*: one ``uint64`` array per
packet field, the layout :func:`~repro.symbex.expr.column_evaluator`
executes predicates over directly, carrying exactly the five canonical
fields of :data:`~repro.scoring.signatures.FIELD_ORDER`.  A pcap reaches the
scorer without a per-packet object in between: :func:`iter_pcap_batches` in
columnar mode parses the capture's bytes straight into the columns.  Its
Packet mode, :func:`packets_to_fields` and :func:`fields_to_columns` are the
per-packet reference the tests and the benchmark check the columns against.
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
from repro.symbex.expr import require_numpy

_np = require_numpy()  # eager: a scoring process pays the import in set-up


def packets_to_fields(packets: list[Packet]) -> list[dict[str, int]]:
    """Per-packet reference representation: one field dict per packet."""
    return [dict(zip(FIELD_ORDER, packet.flow_tuple)) for packet in packets]


def fields_to_columns(fields: list[dict[str, int]]):
    """The columnar batch of a list of per-packet field dicts."""
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

    A batch is a ``list[Packet]``, or with ``columnar=True`` the dict of
    ``uint64`` field columns, parsed straight from the capture's bytes.
    Unparseable frames are skipped (the NFs drop non-IPv4 traffic the same
    way) and counted into ``counters["frames_skipped"]``; malformed
    *containers* still raise :class:`~repro.net.pcap.PcapFormatError`.  Once
    the capture is read, ``counters["frames_in_runs"]`` gains the frames the
    record walker took in runs of equal length
    (:attr:`~repro.net.pcap.PcapReader.frames_in_runs`).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if counters is None:
        counters = Counter()
    with PcapReader(source) as reader:
        if columnar:
            yield from _column_batches(reader, batch_size, counters)
        else:
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
        counters["frames_in_runs"] += reader.frames_in_runs


def _column_batches(reader: PcapReader, batch_size: int, counters: Counter) -> Iterator[dict]:
    """Re-cut the reader's chunks into column batches of ``batch_size`` rows."""
    rows = _np.empty((len(FIELD_ORDER), 0), dtype=_np.uint64)
    for chunk in reader.chunks():
        parsed, skipped = parse_frame_columns(*chunk)
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
    same traffic class the analysis searched.
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


def synthetic_batches(
    nf: NetworkFunction, count: int, batch_size: int, seed: int = 0
) -> Iterator:
    """``count`` synthetic in-class packets, in column batches of ``batch_size``."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    rng = random.Random(seed)
    remaining = count
    while remaining > 0:
        size = min(batch_size, remaining)
        remaining -= size
        yield random_flow_columns(nf, size, rng)
