"""Tests for the packet substrate: headers, checksums, flows, pcap I/O."""

import io
import json
import pickle
import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.checksum import internet_checksum, verify_checksum
from repro.net.columns import parse_frame_columns
from repro.net.packet import (
    FlowKey,
    IPProtocol,
    Packet,
    PacketField,
    PacketParseError,
    parse_packet,
)
import repro.net.pcap as pcap_module
from repro.net.pcap import (
    MAX_RECORD_BYTES,
    PCAP_MAGIC,
    PCAP_MAGIC_NANO,
    RECORD_HEADER_BYTES,
    PcapFormatError,
    PcapReader,
    PcapWriter,
    packets_to_pcap_bytes,
    read_pcap,
    write_pcap,
)
from repro.scoring.signatures import FIELD_ORDER
from repro.scoring.stream import iter_pcap_batches
from repro.workloads.generators import Workload

TCP = int(IPProtocol.TCP)


class TestChecksum:
    def test_known_vector(self):
        # RFC 1071 example data.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_zero_buffer(self):
        assert internet_checksum(b"\x00" * 10) == 0xFFFF

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    @given(st.binary(min_size=0, max_size=64))
    def test_checksum_in_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF

    @given(st.binary(min_size=2, max_size=64).filter(lambda d: len(d) % 2 == 0))
    def test_verify_with_embedded_checksum(self, data):
        # Appending the checksum only keeps 16-bit words aligned for
        # even-length payloads (as in real IPv4/TCP/UDP headers).
        checksum = internet_checksum(data)
        assert verify_checksum(data + checksum.to_bytes(2, "big"))


class TestPacket:
    def test_field_masking(self):
        packet = Packet(src_ip=1 << 40, src_port=1 << 20, protocol=300)
        assert packet.src_ip < (1 << 32)
        assert packet.src_port < (1 << 16)
        assert packet.protocol < (1 << 8)

    def test_flow_tuple(self):
        packet = Packet(1, 2, 3, 4)
        assert packet.flow_tuple == (1, 2, 3, 4, int(IPProtocol.UDP))

    @pytest.mark.parametrize("protocol", [IPProtocol.UDP, IPProtocol.TCP])
    def test_serialise_parse_roundtrip(self, protocol):
        packet = Packet(0x0A000001, 0xC0A80001, 1234, 80, int(protocol), payload=b"hello")
        parsed = parse_packet(packet.to_bytes())
        assert parsed.src_ip == packet.src_ip
        assert parsed.dst_ip == packet.dst_ip
        assert parsed.src_port == packet.src_port
        assert parsed.dst_port == packet.dst_port
        assert parsed.protocol == int(protocol)
        assert parsed.payload == b"hello"

    @given(
        src=st.integers(0, 2**32 - 1),
        dst=st.integers(0, 2**32 - 1),
        sport=st.integers(0, 2**16 - 1),
        dport=st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=50)
    def test_roundtrip_property(self, src, dst, sport, dport):
        packet = Packet(src, dst, sport, dport)
        parsed = parse_packet(packet.to_bytes())
        assert parsed.flow_tuple == packet.flow_tuple

    def test_parse_rejects_short_frames(self):
        with pytest.raises(PacketParseError):
            parse_packet(b"\x00" * 10)

    def test_parse_rejects_non_ipv4(self):
        frame = bytearray(Packet(1, 2, 3, 4).to_bytes())
        frame[12:14] = b"\x86\xdd"  # IPv6 ethertype
        with pytest.raises(PacketParseError):
            parse_packet(bytes(frame))

    def test_wire_length_includes_headers(self):
        assert Packet(1, 2, 3, 4).wire_length == 14 + 20 + 8


class TestFlows:
    def test_flow_key_packet_roundtrip(self):
        key = FlowKey(10, 20, 30, 40)
        assert key.protocol == int(IPProtocol.UDP)
        assert FlowKey(*key.to_packet().flow_tuple) == key

    def test_flow_key_is_its_plain_tuple(self):
        """Sets, digests and signature payloads cannot tell the two apart."""
        key = FlowKey(0x0A000001, 0x08080808, 1234, 80, 6)
        plain = (0x0A000001, 0x08080808, 1234, 80, 6)
        assert key == plain and hash(key) == hash(plain)
        assert plain in {key} and key in {plain}
        assert json.dumps(key) == json.dumps(plain) == json.dumps(list(plain))
        assert pickle.loads(pickle.dumps(key)) == key
        assert key._asdict() == dict(zip(FIELD_ORDER, plain))

    def test_field_order_is_packet_field_order(self):
        assert FIELD_ORDER == FlowKey._fields
        assert FIELD_ORDER == tuple(field.field_name for field in PacketField)
        assert Packet(*FlowKey(1, 2, 3, 4, 6)).flow_tuple == (1, 2, 3, 4, 6)

    def test_workload_flow_count_counts_distinct(self):
        packets = [FlowKey(1, 2, 3, p).to_packet() for p in range(10)] * 3
        assert Workload("w", packets).flow_count == 10


class TestPcap:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "workload.pcap"
        packets = [Packet(i, i + 1, 1000 + i, 80) for i in range(20)]
        assert write_pcap(path, packets) == 20
        restored = read_pcap(path)
        assert [p.flow_tuple for p in restored] == [p.flow_tuple for p in packets]

    def test_in_memory_roundtrip(self):
        packets = [Packet(1, 2, 3, 4, TCP), Packet(5, 6, 7, 8)]
        blob = packets_to_pcap_bytes(packets)
        reader = PcapReader(io.BytesIO(blob))
        restored = [record.to_packet() for record in reader]
        assert len(restored) == 2
        assert restored[0].protocol == int(IPProtocol.TCP)

    def test_reader_rejects_bad_magic(self):
        with pytest.raises(PcapFormatError):
            PcapReader(io.BytesIO(b"\x00" * 32))

    def test_reader_rejects_truncated_header(self):
        with pytest.raises(PcapFormatError):
            PcapReader(io.BytesIO(b"\x01\x02"))

    @pytest.mark.parametrize(
        "header",
        [
            b"\x00" * 32,
            b"\x01\x02",
            struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 101),
        ],
        ids=["bad-magic", "truncated-header", "unsupported-linktype"],
    )
    def test_rejected_file_is_closed(self, header, tmp_path, monkeypatch):
        """A path the reader opened is closed when its header is rejected; a
        stream the caller handed in stays open."""
        import repro.net.pcap as pcap_module

        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(pcap_module, "open", recording_open, raising=False)
        path = tmp_path / "bad.pcap"
        path.write_bytes(header)
        with pytest.raises(PcapFormatError):
            PcapReader(path)
        assert len(opened) == 1 and opened[0].closed
        stream = io.BytesIO(header)
        with pytest.raises(PcapFormatError):
            PcapReader(stream)
        assert not stream.closed

    def test_writer_timestamps_monotonic(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        for i in range(5):
            writer.write_packet(Packet(i, i, i, i))
        reader = PcapReader(io.BytesIO(buffer.getvalue()))
        timestamps = [record.timestamp for record in reader]
        assert timestamps == sorted(timestamps)

    def test_writer_carries_a_rounded_up_fraction_into_the_seconds(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        for stamp in (1.9999996, 1.9999994, 7.0000004):
            writer.write_frame(Packet(1, 2, 3, 4).to_bytes(), stamp)
        blob = buffer.getvalue()
        headers = [struct.unpack_from("<II", blob, 24 + index * (16 + 42)) for index in range(3)]
        assert headers == [(2, 0), (1, 999_999), (7, 0)]
        timestamps = [record.timestamp for record in PcapReader(io.BytesIO(blob))]
        assert timestamps == [2.0, 1 + 0.999999, 7.0]

    def test_default_clock_counts_whole_microseconds(self):
        """Frame *n* is stamped *n* microseconds, also past two million frames,
        where a clock that added 1e-6 to a float wrote a microsecond field of 10**6."""

        def stamps(first, count):
            buffer = io.BytesIO()
            writer = PcapWriter(buffer)
            writer._clock_usec = first  # skip the frames before ``first``
            for _ in range(count):
                writer.write_frame(b"")
            return [struct.unpack_from("<II", buffer.getvalue(), 24 + 16 * i) for i in range(count)]

        assert stamps(0, 3000) == [divmod(index, 10**6) for index in range(3000)]
        assert stamps(999_999, 2) == [(0, 999_999), (1, 0)]
        assert stamps(1_999_999, 2) == [(1, 999_999), (2, 0)]

    def test_reader_rejects_unsupported_linktype(self):
        import struct

        from repro.net.pcap import _GLOBAL_HEADER

        header = _GLOBAL_HEADER.pack(0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)  # RAW
        with pytest.raises(PcapFormatError, match="link type 101"):
            PcapReader(io.BytesIO(header))
        # Byte-swapped captures get the same check after the endian flip.
        swapped = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 105)
        with pytest.raises(PcapFormatError, match="link type 105"):
            PcapReader(io.BytesIO(swapped))

    def test_reader_rejects_truncated_record_header(self):
        packets = [Packet(1, 2, 3, 4)]
        blob = packets_to_pcap_bytes(packets)
        # Chop the second record's header off mid-way.
        truncated = blob + b"\x00" * 7
        with pytest.raises(PcapFormatError, match=r"record header \(7 of 16"):
            list(PcapReader(io.BytesIO(truncated)))

    def test_reader_rejects_truncated_record_data(self):
        blob = packets_to_pcap_bytes([Packet(1, 2, 3, 4)])
        with pytest.raises(PcapFormatError, match="truncated pcap record data"):
            list(PcapReader(io.BytesIO(blob[:-5])))

    def test_reader_rejects_implausible_record_length(self):
        import struct

        from repro.net.pcap import _GLOBAL_HEADER, MAX_RECORD_BYTES

        header = _GLOBAL_HEADER.pack(0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        bogus = struct.pack("<IIII", 0, 0, MAX_RECORD_BYTES + 1, MAX_RECORD_BYTES + 1)
        with pytest.raises(PcapFormatError, match="implausible pcap record length"):
            list(PcapReader(io.BytesIO(header + bogus)))

    def test_read_skips_unparseable_frames_by_default(self, tmp_path):
        path = tmp_path / "mixed.pcap"
        with PcapWriter(path) as writer:
            writer.write_packet(Packet(1, 2, 3, 4))
            writer.write_frame(b"\xff" * 20)  # not an IPv4 frame
        assert len(read_pcap(path)) == 1
        with pytest.raises(PacketParseError):
            read_pcap(path, strict=True)


def capture(frames, endian="<", magic=PCAP_MAGIC, stamps=None) -> bytes:
    """A pcap blob of raw frames with every header field in ``endian`` order."""
    blob = struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)
    for index, frame in enumerate(frames):
        seconds, fraction = stamps[index] if stamps else (index, 0)
        blob += struct.pack(endian + "IIII", seconds, fraction, len(frame), len(frame)) + frame
    return blob


def raw_frame(ether_type=0x0800, ihl=5, protocol=17, src=1, dst=2, l4=b"") -> bytes:
    """An Ethernet frame whose IPv4 header claims ``ihl`` words (options zeroed)."""
    ip = bytearray(max(ihl, 5) * 4)
    ip[0] = 0x40 | ihl
    ip[9] = protocol
    ip[12:16] = src.to_bytes(4, "big")
    ip[16:20] = dst.to_bytes(4, "big")
    return b"\x02" * 12 + ether_type.to_bytes(2, "big") + bytes(ip) + l4


class TestPcapVariants:
    """Nanosecond and big-endian captures, and reads that split records."""

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_nanosecond_magic_is_accepted_and_scales_timestamps(self, endian):
        frames = [Packet(1, 2, 3, 4).to_bytes(), Packet(5, 6, 7, 8, TCP).to_bytes()]
        blob = capture(frames, endian, PCAP_MAGIC_NANO, stamps=[(1, 500_000_000), (2, 1)])
        records = list(PcapReader(io.BytesIO(blob)))
        assert [record.data for record in records] == frames
        assert [record.timestamp for record in records] == [1.5, 2 + 1e-9]
        # The same sub-second field under the microsecond magic is 1000x larger.
        micro = list(PcapReader(io.BytesIO(capture(frames, endian, stamps=[(1, 500_000), (2, 1)]))))
        assert [record.timestamp for record in micro] == [1.5, 2 + 1e-6]

    def test_big_endian_capture_reads_like_little_endian(self):
        frames = [Packet(i, i + 1, 1000 + i, 80).to_bytes() for i in range(5)]
        big = list(PcapReader(io.BytesIO(capture(frames, ">"))))
        little = list(PcapReader(io.BytesIO(capture(frames, "<"))))
        assert big == little and [record.data for record in big] == frames

    @pytest.mark.parametrize("chunk", [1, 7, 16, 17, 58, 59, 200])
    def test_records_straddling_a_chunk_boundary(self, monkeypatch, chunk):
        frames = [Packet(i, 2, 3, 4, payload=b"x" * (i % 5)).to_bytes() for i in range(9)]
        frames.insert(4, b"")  # a zero-length record is a record all the same
        blob = capture(frames)
        whole = list(PcapReader(io.BytesIO(blob)))
        monkeypatch.setattr("repro.net.pcap.CHUNK_BYTES", chunk)
        assert list(PcapReader(io.BytesIO(blob))) == whole
        assert [record.data for record in whole] == frames
        # Every frame is handed out exactly once, whatever the cut.
        cut = [
            buffer[offset : offset + length]
            for buffer, offsets, lengths, counts in PcapReader(io.BytesIO(blob)).chunks()
            for offset, length in expand_entries(offsets, lengths, counts)
        ]
        assert cut == frames

    def test_records_before_a_malformed_one_are_delivered(self):
        blob = capture([Packet(1, 2, 3, 4).to_bytes()] * 3) + b"\x00" * 7
        seen = []
        with pytest.raises(PcapFormatError, match="truncated pcap record header"):
            for record in PcapReader(io.BytesIO(blob)):
                seen.append(record)
        assert len(seen) == 3


# -- the record walker -----------------------------------------------------------------


def expand_entries(offsets, lengths, counts):
    """The ``(offset, length)`` of every record a chunk's entries stand for."""
    return [
        (offset + index * (RECORD_HEADER_BYTES + length), length)
        for offset, length, count in zip(offsets, lengths, counts)
        for index in range(count)
    ]


def reference_walk(blob):
    """The one-record-at-a-time walk ``PcapReader.chunks`` replaced, kept as the oracle.

    Returns ``(chunks, error)``: per bounded read its buffer and the
    ``(offset, length)`` of each record in it, then the format error's text
    (``None`` for a clean capture).
    """
    magic = int.from_bytes(blob[:4], "little")
    endian = "<" if magic in (PCAP_MAGIC, PCAP_MAGIC_NANO) else ">"
    captured_len = struct.Struct(endian + "8xI").unpack_from
    stream = io.BytesIO(blob[24:])
    chunks, pending = [], b""
    while True:
        data = stream.read(pcap_module.CHUNK_BYTES)
        buffer = pending + data
        records, error = [], None
        position, end = 0, len(buffer)
        while position + 16 <= end:
            (length,) = captured_len(buffer, position)
            if length > MAX_RECORD_BYTES:
                error = f"implausible pcap record length {length} (limit {MAX_RECORD_BYTES})"
                break
            start = position + 16
            if start + length > end:
                break
            records.append((start, length))
            position = start + length
        if records:
            chunks.append((buffer, records))
        pending = buffer[position:]
        if error is None and not data and pending:
            have = len(pending)
            error = (
                f"truncated pcap record header ({have} of 16 bytes)"
                if have < 16
                else f"truncated pcap record data ({have - 16} of {length} bytes)"
            )
        if error is not None or not data:
            return chunks, error


def run_walk(blob):
    """``PcapReader.chunks`` in the shape of :func:`reference_walk`, plus ``frames_in_runs``."""
    reader = PcapReader(io.BytesIO(blob))
    chunks, error = [], None
    try:
        for buffer, offsets, lengths, counts in reader.chunks():
            assert len(offsets) == len(lengths) == len(counts) and min(counts) >= 1
            chunks.append((buffer, expand_entries(offsets, lengths, counts)))
    except PcapFormatError as exc:
        error = str(exc)
    return chunks, error, reader.frames_in_runs


def frame_of(index, size):
    """A ``size``-byte frame: IPv4 UDP or TCP where it is long enough, cut or zero-padded."""
    ports = (1000 + index % 7).to_bytes(2, "big") + (80 + index % 3).to_bytes(2, "big")
    frame = raw_frame(protocol=(17, 6)[index % 2], src=index, dst=7, l4=ports)
    return (frame + b"\x00" * size)[:size]


#: Frame sizes whose length fields agree in all but one byte (42, 298, 1066
#: share their low byte), around the 34-byte parse minimum, and empty frames.
_SIZES = [0, 1, 34, 42, 54, 60, 298, 1066]
_segments = st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, 3) | st.integers(30, 200)), min_size=1, max_size=6
)


@st.composite
def walker_captures(draw):
    """A capture of runs, bursts, AABB / ABAB stretches, maybe broken in a run."""
    sizes = draw(st.lists(st.sampled_from(_SIZES), min_size=1, max_size=3, unique=True))
    segments = draw(_segments)
    lengths = [sizes[which % len(sizes)] for which, repeat in segments for _ in range(repeat)]
    # Where the longest run ends: the walker takes a run's tail at once.
    longest = max(range(len(segments)), key=lambda index: segments[index][1])
    run_end = sum(repeat for _, repeat in segments[: longest + 1])
    frames = [frame_of(index, size) for index, size in enumerate(lengths)]
    endian = draw(st.sampled_from(["<", ">"]))
    blob = capture(frames, endian)
    damage = draw(st.sampled_from(["none", "length", "length", "truncated"]))
    if damage == "none":
        return blob, frames
    at = draw(st.integers(0, len(frames) - 1) | st.integers(max(0, run_end - 100), run_end - 1))
    header = 24 + sum(16 + len(frame) for frame in frames[:at])
    if damage == "truncated":
        return blob[: draw(st.integers(header, len(blob) - 1))], None
    # A length field that differs from the record's in one byte (implausible
    # when it is the top one), or one just over the limit.
    bogus = draw(st.sampled_from([MAX_RECORD_BYTES + 1] + [1 << 8, 1 << 16, 1 << 24] * 2))
    if bogus != MAX_RECORD_BYTES + 1:
        bogus += len(frames[at])
    field = struct.pack(endian + "I", bogus)
    return blob[: header + 8] + field + blob[header + 12 :], None


class TestRecordWalker:
    """``PcapReader.chunks`` against the one-record-at-a-time walk it replaced."""

    # Only whole-megabyte reads hold runs long enough to be taken at once.
    @given(drawn=walker_captures(), chunk=st.sampled_from([1, 17, 59, 333]) | st.just(1 << 20))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_walk_equals_reference(self, drawn, chunk):
        blob, frames = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.net.pcap.CHUNK_BYTES", chunk)
            chunks, error, in_runs = run_walk(blob)
            assert (chunks, error) == reference_walk(blob)
            assert 0 <= in_runs <= sum(len(records) for _, records in chunks)
            if frames is not None:
                # On a clean capture the columns are parse_packet's rows, whatever the chunking.
                assert columnar_rows(blob) == reference_rows(frames)

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_runs_are_taken_whole_and_counted(self, endian):
        frames = [frame_of(index, 42) for index in range(5000)]
        blob = capture(frames, endian)
        reader = PcapReader(io.BytesIO(blob))
        chunks = list(reader.chunks())
        ((buffer, offsets, lengths, counts),) = chunks
        assert len(offsets) < 100 and sum(counts) == 5000
        assert reader.frames_in_runs == sum(count for count in counts if count > 1) > 4800
        records = expand_entries(offsets, lengths, counts)
        assert [buffer[at : at + length] for at, length in records] == frames

    @pytest.mark.parametrize("columnar", [False, True])
    def test_batches_count_the_frames_taken_in_runs(self, columnar):
        sizes = [42] * 900 + [54] * 5 + [60] * 300 + [42] * 3
        blob = capture([frame_of(index, size) for index, size in enumerate(sizes)])
        reader = PcapReader(io.BytesIO(blob))
        for _ in reader.chunks():
            pass
        counters = Counter()
        batches = list(iter_pcap_batches(io.BytesIO(blob), 64, columnar, counters))
        assert sum(len(batch["src_ip"] if columnar else batch) for batch in batches) == 1208
        assert counters["frames_in_runs"] == reader.frames_in_runs > 1000

    @pytest.mark.parametrize("endian", ["<", ">"])
    @pytest.mark.parametrize("odd", [42 + (1 << 8), 42 + (1 << 16), 42 + (1 << 24)])
    def test_a_length_differing_in_one_byte_ends_the_run(self, endian, odd):
        """A run of 42s stops at a field equal to 42 in every byte but one."""
        frames = [frame_of(index, 42) for index in range(300)]
        blob = capture(frames, endian)
        header = 24 + 200 * (16 + 42)
        patched = blob[: header + 8] + struct.pack(endian + "I", odd) + blob[header + 12 :]
        chunks, error, in_runs = run_walk(patched)
        assert (chunks, error) == reference_walk(patched)
        records = [record for _, records in chunks for record in records]
        assert [length for _, length in records[:200]] == [42] * 200 and in_runs > 100
        # What follows the odd record is misread by both walks alike.
        assert error is not None
        if odd > MAX_RECORD_BYTES:
            assert error.startswith("implausible pcap record length") and len(records) == 200

    def test_a_look_ahead_past_other_records_starts_no_run(self):
        """A block ends on two 42s and the record 16 strides on claims 42, but
        the next record is empty: no run entry, nothing skipped."""
        sizes = [42] * 32 + [0] * 58 + [42] * 100
        blob = capture([frame_of(index, size) for index, size in enumerate(sizes)])
        chunks, error, _ = run_walk(blob)
        assert (chunks, error) == reference_walk(blob)
        assert sizes == [length for _, records in chunks for _, length in records]

    def test_iteration_expands_runs(self):
        frames = [frame_of(index, 54) for index in range(400)] + [frame_of(400, 60)]
        stamps = [(index // 7, index) for index in range(len(frames))]
        records = list(PcapReader(io.BytesIO(capture(frames, stamps=stamps))))
        assert [record.data for record in records] == frames
        assert [record.timestamp for record in records] == [s + f / 1e6 for s, f in stamps]


# -- columnar ingest -------------------------------------------------------------------


def reference_rows(frames):
    """``parse_packet`` over every frame: kept five-tuples and the skip count."""
    rows, skipped = [], 0
    for frame in frames:
        try:
            rows.append(parse_packet(frame).flow_tuple)
        except PacketParseError:
            skipped += 1
    return rows, skipped


def columnar_rows(blob, batch_size=4):
    """The columnar ingest over a whole capture: five-tuples and the skip count."""
    counters = Counter()
    rows = []
    for batch in iter_pcap_batches(io.BytesIO(blob), batch_size, columnar=True, counters=counters):
        assert all(str(column.dtype) == "uint64" for column in batch.values())
        rows += zip(*(batch[name].tolist() for name in FIELD_ORDER))
    return rows, counters["frames_skipped"]


# Lengths around every boundary the parser tests: EtherType, the 34-byte
# minimum, the end of the IPv4 header, and the UDP/TCP port thresholds.
_l4 = st.builds(
    lambda ports, filler, size: (ports + filler * 40)[:size],
    ports=st.binary(min_size=4, max_size=4),
    filler=st.binary(min_size=1, max_size=1),
    size=st.sampled_from([0, 3, 4, 7, 8, 9, 19, 20, 21]) | st.integers(0, 44),
)
_frames = st.builds(
    raw_frame,
    ether_type=st.sampled_from([0x0800] * 6 + [0x86DD, 0x0806, 0x8100, 0x0801]),
    ihl=st.sampled_from([5] * 6 + list(range(16))),
    protocol=st.sampled_from([1, 6, 6, 17, 17, 47, 255]),
    src=st.integers(0, 2**32 - 1),
    dst=st.integers(0, 2**32 - 1),
    l4=_l4,
).flatmap(
    lambda frame: st.one_of(
        st.just(frame),
        st.just(frame),
        st.integers(0, len(frame)).map(lambda cut: frame[:cut]),
        st.sampled_from([12, 13, 14, 15, 33, 34, 35]).map(lambda cut: frame[:cut]),
        st.sampled_from([-21, -20, -13, -9, -8, -1]).map(lambda cut: frame[:cut]),
    )
)


class TestColumnarIngest:
    @given(frames=st.lists(_frames, max_size=12))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_parser_equals_parse_packet_row_for_row(self, frames):
        (chunk,) = list(PcapReader(io.BytesIO(capture(frames))).chunks()) or [(b"", [], [], [])]
        columns, skipped = parse_frame_columns(*chunk)
        rows, reference_skipped = reference_rows(frames)
        assert list(zip(*columns.tolist())) == rows
        assert skipped == reference_skipped
        assert str(columns.dtype) == "uint64" and columns.shape == (5, len(rows))

    def test_known_frames(self):
        udp = Packet(0x0A000001, 0x0A000002, 1234, 80, payload=b"hello")
        tcp = Packet(0xC0A80001, 0xFFFFFFFF, 65535, 1, TCP)
        ports = (4321).to_bytes(2, "big") + (53).to_bytes(2, "big")
        frames = [
            udp.to_bytes(),
            raw_frame(ether_type=0x86DD, l4=b"\x00" * 40),  # IPv6
            raw_frame(ether_type=0x8100, l4=b"\x00" * 40),  # VLAN tag
            tcp.to_bytes(),
            udp.to_bytes()[:20],  # truncated below the minimum
            raw_frame(ihl=4, l4=b"\x00" * 20),  # IHL below 5
            raw_frame(ihl=15, l4=b"\x00" * 8)[:60],  # options run past the frame
            raw_frame(ihl=7, protocol=17, src=9, dst=8, l4=ports + b"\x00" * 4),  # IP options
            raw_frame(protocol=17, src=7, dst=6, l4=ports + b"\x00" * 3),  # UDP, 7 L4 bytes
            raw_frame(protocol=6, src=5, dst=4, l4=ports + b"\x00" * 15),  # TCP, 19 L4 bytes
            raw_frame(protocol=1, src=3, dst=2, l4=ports + b"\x00" * 20),  # ICMP
        ]
        rows, skipped = columnar_rows(capture(frames))
        assert (rows, skipped) == reference_rows(frames)
        assert skipped == 5
        assert rows == [
            udp.flow_tuple,
            tcp.flow_tuple,
            (9, 8, 4321, 53, 17),
            (7, 6, 0, 0, 17),
            (5, 4, 0, 0, 6),
            (3, 2, 0, 0, 1),
        ]

    @pytest.mark.parametrize("chunk", [1, 16, 59, 333, 1 << 20])
    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_batches_are_exact_whatever_the_chunking(self, monkeypatch, chunk, endian):
        packets = [Packet(i, i + 1, 1000 + i, 80) for i in range(23)]
        frames = [packet.to_bytes() for packet in packets]
        frames[5:5] = [b"\xff" * 40, b""]  # skipped frames do not count towards a batch
        monkeypatch.setattr("repro.net.pcap.CHUNK_BYTES", chunk)
        blob = capture(frames, endian)
        batches = list(iter_pcap_batches(io.BytesIO(blob), 5, columnar=True))
        assert [len(batch["src_ip"]) for batch in batches] == [5, 5, 5, 5, 3]
        rows, skipped = columnar_rows(blob, batch_size=5)
        assert rows == [packet.flow_tuple for packet in packets] and skipped == 2
        # The per-packet mode cuts the same batches and counts the same skips.
        counters = Counter()
        scalar = list(iter_pcap_batches(io.BytesIO(blob), 5, counters=counters))
        assert [[p.flow_tuple for p in batch] for batch in scalar] == [
            rows[start : start + 5] for start in range(0, 23, 5)
        ]
        assert counters["frames_skipped"] == 2

    def test_empty_and_all_skipped_captures_yield_no_batch(self):
        assert list(iter_pcap_batches(io.BytesIO(capture([])), 4, columnar=True)) == []
        rows, skipped = columnar_rows(capture([b"\xff" * 60] * 3))
        assert (rows, skipped) == ([], 3)

    # The malformed-container cases of ``TestPcap``, through the columnar mode.

    @staticmethod
    def drain(blob):
        return list(iter_pcap_batches(io.BytesIO(blob), 4, columnar=True))

    def test_rejects_bad_magic_and_truncated_global_header(self):
        with pytest.raises(PcapFormatError, match="bad pcap magic"):
            self.drain(b"\x00" * 32)
        with pytest.raises(PcapFormatError, match="truncated pcap global header"):
            self.drain(b"\x01\x02")

    def test_rejects_unsupported_linktype(self):
        with pytest.raises(PcapFormatError, match="link type 101"):
            self.drain(struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 101))
        with pytest.raises(PcapFormatError, match="link type 105"):
            self.drain(struct.pack(">IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 105))

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_rejects_truncated_record_header(self, endian):
        blob = capture([Packet(1, 2, 3, 4).to_bytes()], endian) + b"\x00" * 7
        with pytest.raises(PcapFormatError, match=r"record header \(7 of 16"):
            self.drain(blob)

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_rejects_truncated_record_data(self, endian):
        blob = capture([Packet(1, 2, 3, 4).to_bytes()], endian)
        with pytest.raises(PcapFormatError, match=r"truncated pcap record data \(37 of 42"):
            self.drain(blob[:-5])

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_rejects_implausible_record_length(self, endian):
        bogus = struct.pack(endian + "IIII", 0, 0, MAX_RECORD_BYTES + 1, MAX_RECORD_BYTES + 1)
        with pytest.raises(PcapFormatError, match="implausible pcap record length"):
            self.drain(capture([], endian) + bogus)
        # The bound itself is a legal record.
        frame = Packet(1, 2, 3, 4, payload=b"\x00" * (MAX_RECORD_BYTES - 42)).to_bytes()
        assert len(frame) == MAX_RECORD_BYTES
        (batch,) = self.drain(capture([frame], endian))
        assert batch["src_port"].tolist() == [3]
