"""Minimal pcap (libpcap classic format) reader and writer.

CASTAN emits adversarial workloads as pcap files that MoonGen replays; this
module implements the classic pcap container (magic 0xA1B2C3D4, microsecond
timestamps, LINKTYPE_ETHERNET) so generated workloads round-trip through a
format any standard tool (tcpdump, Wireshark, MoonGen) can consume.  The
reader also takes the nanosecond variant (magic 0xA1B23C4D) current tcpdump
writes.  It has one container parser, :meth:`PcapReader.chunks`; per-record
iteration and the columnar frame parser (:mod:`repro.net.columns`) sit on it.
The parser takes the tail of a run of equal-length records (a fixed snaplen,
a dominant frame size) in one step instead of one step per record.

A round trip through an in-memory capture:

>>> import io, struct
>>> from repro.net.packet import Packet
>>> blob = packets_to_pcap_bytes([Packet(1, 2, 3, 4), Packet(5, 6, 7, 8, protocol=6)])
>>> [record.to_packet().flow_tuple for record in PcapReader(io.BytesIO(blob))]
[(1, 2, 3, 4, 17), (5, 6, 7, 8, 6)]

A timestamp whose fraction rounds up to a whole second carries into the
seconds, so the record header stays valid (microseconds below 10**6):

>>> stream = io.BytesIO()
>>> PcapWriter(stream).write_frame(Packet(1, 2, 3, 4).to_bytes(), timestamp=1.9999996)
>>> struct.unpack_from("<II", stream.getvalue(), 24)
(2, 0)
>>> [record.timestamp for record in PcapReader(io.BytesIO(stream.getvalue()))]
[2.0]
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

#: Bytes of a record header (seconds, sub-seconds, captured and wire length);
#: the frame follows it.
RECORD_HEADER_BYTES = _RECORD_HEADER.size

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

#: Records :meth:`PcapReader.chunks` walks one at a time between two looks
#: for a run of equal lengths, and how many strides ahead it looks.  A look
#: costs about one record step; these spacings keep captures without long
#: runs (alternating or short-burst frame sizes) as fast as a plain walk.
_RUN_PROBE_EVERY = 32
_RUN_PROBE_AHEAD = 16

#: Records :func:`_run_length` compares in its first window; each window
#: that matches throughout doubles the next.
_FIRST_WINDOW = 64


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
        self._clock_usec = 0  # the default clock, one microsecond per frame
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
        """Write one raw Ethernet frame, stamped ``timestamp`` seconds.

        Without a timestamp the *n*-th frame is stamped *n* microseconds.
        """
        if timestamp is None:
            seconds, microseconds = divmod(self._clock_usec, 1_000_000)
            self._clock_usec += 1
        else:
            seconds = int(timestamp)
            microseconds = int(round((timestamp - seconds) * 1_000_000))
            if microseconds == 1_000_000:  # the fraction rounded up to a whole second
                seconds, microseconds = seconds + 1, 0
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
        #: Records :meth:`chunks` has found in runs of equal length so far.
        self.frames_in_runs = 0
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

    def chunks(self) -> Iterator[tuple[bytes, list[int], list[int], list[int]]]:
        """Walk the records: ``(buffer, offsets, lengths, counts)`` per bounded read.

        Entry *i* stands for ``counts[i]`` consecutive records of captured
        length ``lengths[i]``, ``RECORD_HEADER_BYTES + lengths[i]`` bytes
        apart; the first frame is ``buffer[offsets[i] : offsets[i] +
        lengths[i]]`` and each record header is the 16 bytes before its
        frame.  A record that straddles a read is carried into the next
        buffer, so a buffer never exceeds ``CHUNK_BYTES`` plus one record.
        Records before a malformed one are handed out before the error is
        raised.

        Records are walked one at a time in blocks of ``_RUN_PROBE_EVERY``.
        When a block ends on two records of one length and the record
        ``_RUN_PROBE_AHEAD`` strides further has that length too,
        :func:`_run_length` takes the rest of the run in one entry.  It
        compares every length field it passes, so the entries describe
        exactly the records a one-at-a-time walk finds; each run adds its
        records to :attr:`frames_in_runs`.
        """
        header_size = RECORD_HEADER_BYTES
        limit = MAX_RECORD_BYTES
        captured_len = struct.Struct(self._endian + "8xI").unpack_from
        byteorder = "little" if self._endian == "<" else "big"
        block = range(_RUN_PROBE_EVERY)
        pending = b""
        while True:
            data = self._stream.read(CHUNK_BYTES)
            buffer = pending + data
            offsets, lengths, runs, error = [], [], {}, None
            position, end = 0, len(buffer)
            last = end - header_size  # the last offset a whole record header starts at
            while position <= last:
                for _ in block:
                    (length,) = captured_len(buffer, position)
                    if length > limit:
                        error = f"implausible pcap record length {length} (limit {limit})"
                        break
                    start = position + header_size
                    if start + length > end:
                        break
                    offsets.append(start)
                    lengths.append(length)
                    position = start + length
                    if position > last:
                        break
                else:
                    stride = header_size + length
                    ahead = position + _RUN_PROBE_AHEAD * stride
                    if (
                        lengths[-2] == length
                        and ahead <= last
                        and captured_len(buffer, ahead)[0] == length
                    ):
                        field = length.to_bytes(4, byteorder)
                        count = _run_length(buffer, position, stride, field, end)
                        if count:
                            runs[len(offsets)] = count
                            offsets.append(position + header_size)
                            lengths.append(length)
                            position += count * stride
                            self.frames_in_runs += count
                    continue
                break
            if offsets:
                counts = [1] * len(offsets)
                for index, count in runs.items():
                    counts[index] = count
                yield buffer, offsets, lengths, counts
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
        header_size = RECORD_HEADER_BYTES
        stamp = struct.Struct(self._endian + "II").unpack_from
        for buffer, offsets, lengths, counts in self.chunks():
            for first, length, count in zip(offsets, lengths, counts):
                stride = header_size + length
                for offset in range(first, first + count * stride, stride):
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


def _run_length(buffer: bytes, position: int, stride: int, field: bytes, end: int) -> int:
    """How many records from ``position`` on have the 4-byte length field ``field``.

    Counts only records that end by ``end``.  While records share one length
    they are ``stride`` bytes apart, so byte *j* of their length fields is
    element *k* of the strided slice ``buffer[position + 8 + j :: stride]``,
    and the run ends where the first of the four slices stops repeating that
    byte of ``field``.  Every field passed over is compared, so the count is
    the one a record-by-record walk finds.  The window doubles from
    ``_FIRST_WINDOW`` records, so a short run costs about its own length.
    """
    byte0, byte1, byte2, byte3 = field[:1], field[1:2], field[2:3], field[3:]
    limit = (end - position) // stride
    at = position + 8
    count, window = 0, _FIRST_WINDOW
    while count < limit:
        take = min(window, limit - count)
        stop = at + take * stride
        left = max(
            len(buffer[at:stop:stride].lstrip(byte0)),
            len(buffer[at + 1 : stop + 1 : stride].lstrip(byte1)),
            len(buffer[at + 2 : stop + 2 : stride].lstrip(byte2)),
            len(buffer[at + 3 : stop + 3 : stride].lstrip(byte3)),
        )
        count += take - left
        if left:
            break
        at, window = stop, window * 2
    return count


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
