"""Minimal pcap (libpcap classic format) reader and writer.

CASTAN emits adversarial workloads as pcap files that MoonGen replays; this
module implements the classic pcap container (magic 0xA1B2C3D4, microsecond
timestamps, LINKTYPE_ETHERNET) so generated workloads round-trip through a
format any standard tool (tcpdump, Wireshark, MoonGen) can consume.  The
reader also takes the nanosecond variant (magic 0xA1B23C4D) current tcpdump
writes.  It has one container parser, :meth:`PcapReader.chunks`; per-record
iteration and the columnar frame parser (:mod:`repro.net.columns`) sit on it.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.net.packet import Packet, PacketParseError, parse_packet

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_NANO = 0xA1B23C4D
PCAP_VERSION_MAJOR = 2
PCAP_VERSION_MINOR = 4
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")

#: Magic -> sub-second units per second; read byte-swapped, a big-endian capture.
_MAGICS = {PCAP_MAGIC: 1e6, PCAP_MAGIC_NANO: 1e9}

#: Bytes the record walker reads at a time: with ``MAX_RECORD_BYTES`` it caps
#: the reader's memory whatever the capture's size.
CHUNK_BYTES = 1 << 20

#: Link types this reader knows how to hand to the packet parser.  Anything
#: else (LINKTYPE_RAW, 802.11, ...) would silently misparse every frame, so
#: an unknown link type is a format error at open time, not a per-record one.
SUPPORTED_LINKTYPES = frozenset({LINKTYPE_ETHERNET})

#: Upper bound on a single record's captured length.  Real captures top out
#: at the 64 KiB snaplen this writer uses; a larger claim is a corrupt or
#: hostile length field and must not drive a giant allocation.
MAX_RECORD_BYTES = 1 << 18


class PcapFormatError(ValueError):
    """Raised when a file is not a well-formed classic pcap capture."""


@dataclass
class PcapRecord:
    """One captured frame: timestamp plus raw bytes."""

    timestamp: float
    data: bytes

    def to_packet(self) -> Packet:
        """Parse the raw frame into a :class:`Packet`."""
        return parse_packet(self.data)


class PcapWriter:
    """Stream packets into a pcap file.

    Usage::

        with PcapWriter(path) as writer:
            for packet in workload:
                writer.write_packet(packet)
    """

    def __init__(self, target: str | Path | BinaryIO, snaplen: int = 65535) -> None:
        if isinstance(target, (str, Path)):
            self._stream: BinaryIO = open(target, "wb")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self._snaplen = snaplen
        self._clock = 0.0
        self._stream.write(
            _GLOBAL_HEADER.pack(
                PCAP_MAGIC,
                PCAP_VERSION_MAJOR,
                PCAP_VERSION_MINOR,
                0,  # thiszone
                0,  # sigfigs
                snaplen,
                LINKTYPE_ETHERNET,
            )
        )

    def write_frame(self, data: bytes, timestamp: float | None = None) -> None:
        """Write one raw Ethernet frame."""
        if timestamp is None:
            timestamp = self._clock
            self._clock += 1e-6
        seconds = int(timestamp)
        microseconds = int(round((timestamp - seconds) * 1_000_000))
        captured = data[: self._snaplen]
        self._stream.write(
            _RECORD_HEADER.pack(seconds, microseconds, len(captured), len(data))
        )
        self._stream.write(captured)

    def write_packet(self, packet: Packet, timestamp: float | None = None) -> None:
        """Serialise and write one :class:`Packet`."""
        self.write_frame(packet.to_bytes(), timestamp)

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class PcapReader:
    """Read a classic pcap file: either byte order, micro- or nanoseconds."""

    def __init__(self, source: str | Path | BinaryIO) -> None:
        if isinstance(source, (str, Path)):
            self._stream: BinaryIO = open(source, "rb")
            self._owns_stream = True
        else:
            self._stream = source
            self._owns_stream = False
        try:
            self._read_global_header()
        except BaseException:
            self.close()  # a rejected file must not leak the stream opened above
            raise

    def _read_global_header(self) -> None:
        header = self._stream.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise PcapFormatError("truncated pcap global header")
        magic_le, magic_be = (int.from_bytes(header[:4], order) for order in ("little", "big"))
        self._endian = "<" if magic_le in _MAGICS else ">"
        self._subsecond = _MAGICS.get(magic_le) or _MAGICS.get(magic_be)
        if not self._subsecond:
            raise PcapFormatError(f"bad pcap magic 0x{magic_le:08x}")
        fields = struct.unpack(self._endian + "IHHiIII", header)
        self.snaplen = fields[5]
        self.linktype = fields[6]
        if self.linktype not in SUPPORTED_LINKTYPES:
            raise PcapFormatError(
                f"unsupported pcap link type {self.linktype} "
                f"(supported: {sorted(SUPPORTED_LINKTYPES)})"
            )

    def chunks(self) -> Iterator[tuple[bytes, list[int], list[int]]]:
        """Walk the records: ``(buffer, offsets, lengths)`` per bounded read.

        ``buffer[offsets[i] : offsets[i] + lengths[i]]`` is the *i*-th frame
        of the chunk and its record header the 16 bytes before it.  A record
        that straddles a read is carried into the next buffer, so a buffer
        never exceeds ``CHUNK_BYTES`` plus one record.  Records before a
        malformed one are handed out before the error is raised.
        """
        header_size = _RECORD_HEADER.size
        captured_len = struct.Struct(self._endian + "8xI").unpack_from
        pending = b""
        while True:
            data = self._stream.read(CHUNK_BYTES)
            buffer = pending + data
            offsets, lengths, error = [], [], None
            position, end = 0, len(buffer)
            while position + header_size <= end:
                (length,) = captured_len(buffer, position)
                if length > MAX_RECORD_BYTES:
                    error = f"implausible pcap record length {length} (limit {MAX_RECORD_BYTES})"
                    break
                start = position + header_size
                if start + length > end:
                    break
                offsets.append(start)
                lengths.append(length)
                position = start + length
            if offsets:
                yield buffer, offsets, lengths
            pending = buffer[position:]
            if error is None and not data and pending:
                have = len(pending)  # a whole header means the walk above read its ``length``
                error = (
                    f"truncated pcap record header ({have} of {header_size} bytes)"
                    if have < header_size
                    else f"truncated pcap record data ({have - header_size} of {length} bytes)"
                )
            if error is not None:
                raise PcapFormatError(error)
            if not data:
                return

    def __iter__(self) -> Iterator[PcapRecord]:
        header_size = _RECORD_HEADER.size
        stamp = struct.Struct(self._endian + "II").unpack_from
        for buffer, offsets, lengths in self.chunks():
            for offset, length in zip(offsets, lengths):
                seconds, fraction = stamp(buffer, offset - header_size)
                yield PcapRecord(
                    timestamp=seconds + fraction / self._subsecond,
                    data=buffer[offset : offset + length],
                )

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_pcap(path: str | Path, packets: Iterable[Packet]) -> int:
    """Write a packet sequence to ``path``; returns the number written."""
    count = 0
    with PcapWriter(path) as writer:
        for packet in packets:
            writer.write_packet(packet)
            count += 1
    return count


def read_pcap(path: str | Path, strict: bool = False) -> list[Packet]:
    """Read all parseable packets from ``path``.

    With ``strict=True`` unparseable frames raise; otherwise they are
    silently skipped (mirroring how the NFs drop non-IPv4 traffic).
    """
    packets: list[Packet] = []
    with PcapReader(path) as reader:
        for record in reader:
            try:
                packets.append(record.to_packet())
            except PacketParseError:
                if strict:
                    raise
    return packets


def packets_to_pcap_bytes(packets: Iterable[Packet]) -> bytes:
    """Serialise a packet sequence to in-memory pcap bytes."""
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    for packet in packets:
        writer.write_packet(packet)
    return buffer.getvalue()
