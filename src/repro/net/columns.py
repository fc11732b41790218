"""Columnar frame parsing: the five-tuple of many frames, one numpy pass.

The columnar twin of :func:`repro.net.packet.parse_packet`, for consumers
that want the five-tuple of every frame of a capture and nothing else (the
stream scorer).  It reads the header bytes of all frames of one
:meth:`~repro.net.pcap.PcapReader.chunks` buffer at their per-row offsets and
never builds a :class:`~repro.net.packet.Packet`; a chunk entry that stands
for a run of equal-length records is expanded to its rows with ``np.repeat``.

The accept/skip rules are ``parse_packet``'s, and a hypothesis differential
in ``tests/test_net.py`` holds the two equal row for row:

* skipped — frames shorter than Ethernet + minimal IPv4 (34 bytes), EtherType
  other than IPv4, IHL below 5, or an IPv4 header that runs past the frame;
* zero ports — UDP with fewer than 8 and TCP with fewer than 20 bytes after
  the IPv4 header, and every other protocol.

Requires numpy (the [vector] extra): without it, importing this module
raises an ``ImportError`` that says so.
"""

from __future__ import annotations

from repro.net.packet import (
    ETHER_HEADER_LEN,
    IPV4_HEADER_LEN,
    TCP_HEADER_LEN,
    UDP_HEADER_LEN,
    EtherType,
    IPProtocol,
)
from repro.net.pcap import RECORD_HEADER_BYTES
from repro.symbex.expr import require_numpy

_np = require_numpy()


def parse_frame_columns(buffer: bytes, offsets: list[int], lengths: list[int], counts: list[int]):
    """Five-tuples of the parseable frames of one chunk, plus the skip count.

    Takes one :meth:`~repro.net.pcap.PcapReader.chunks` tuple: entry *i* is
    ``counts[i]`` frames of ``lengths[i]`` bytes, the first at
    ``offsets[i]`` and each next one ``RECORD_HEADER_BYTES + lengths[i]``
    bytes after the one before.  Returns
    ``(columns, skipped)``: a ``(5, kept)`` ``uint64`` matrix whose rows are
    the fields in :attr:`~repro.net.packet.Packet.flow_tuple` order and
    whose columns are the kept frames in capture order, and the number of
    frames dropped.
    """
    data = _np.frombuffer(buffer, dtype=_np.uint8)
    start = _np.array(offsets, dtype=_np.int64)
    length = _np.array(lengths, dtype=_np.int64)
    frames = len(counts)
    if counts.count(1) != frames:  # some entries stand for runs: one row per frame
        count = _np.array(counts, dtype=_np.int64)
        frames = int(count.sum())
        within = _np.arange(frames) - _np.repeat(_np.cumsum(count) - count, count)
        start = _np.repeat(start, count) + within * _np.repeat(length + RECORD_HEADER_BYTES, count)
        length = _np.repeat(length, count)

    def byte(at):
        return data[at].astype(_np.uint64)

    def be16(at):
        return byte(at) << 8 | byte(at + 1)

    # Long enough for every fixed-offset read below, then IPv4 with a whole header.
    long_enough = length >= ETHER_HEADER_LEN + IPV4_HEADER_LEN
    start, length = start[long_enough], length[long_enough]
    ip = start + ETHER_HEADER_LEN
    ihl = (data[ip] & 0x0F).astype(_np.int64) * 4
    keep = (
        (be16(start + 12) == int(EtherType.IPV4))
        & (ihl >= IPV4_HEADER_LEN)
        & (ihl <= length - ETHER_HEADER_LEN)
    )
    ip, ihl, length = ip[keep], ihl[keep], length[keep]

    protocol = byte(ip + 9)
    l4_bytes = length - ETHER_HEADER_LEN - ihl
    has_ports = ((protocol == int(IPProtocol.UDP)) & (l4_bytes >= UDP_HEADER_LEN)) | (
        (protocol == int(IPProtocol.TCP)) & (l4_bytes >= TCP_HEADER_LEN)
    )
    # Rows without ports read (and discard) their own first IP bytes instead.
    l4 = _np.where(has_ports, ip + ihl, ip)
    zero = _np.uint64(0)
    columns = _np.stack(
        [
            be16(ip + 12) << 16 | be16(ip + 14),
            be16(ip + 16) << 16 | be16(ip + 18),
            _np.where(has_ports, be16(l4), zero),
            _np.where(has_ports, be16(l4 + 2), zero),
            protocol,
        ]
    )
    return columns, frames - columns.shape[1]
