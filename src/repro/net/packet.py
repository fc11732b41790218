"""Packet construction and parsing for Ethernet/IPv4/TCP/UDP frames.

CASTAN's output is a sequence of concrete packets; the NFs under analysis
read the five-tuple fields out of those packets.  This module provides a
small, dependency-free packet model: a :class:`Packet` dataclass holding the
fields the evaluation NFs care about, plus byte-level serialisation and
parsing so that workloads can round-trip through real pcap files.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.net.checksum import internet_checksum, pseudo_header

ETHER_HEADER_LEN = 14
IPV4_HEADER_LEN = 20
UDP_HEADER_LEN = 8
TCP_HEADER_LEN = 20

DEFAULT_SRC_MAC = 0x02_00_00_00_00_01
DEFAULT_DST_MAC = 0x02_00_00_00_00_02


class EtherType(enum.IntEnum):
    """EtherType values understood by the evaluation NFs."""

    IPV4 = 0x0800
    ARP = 0x0806
    IPV6 = 0x86DD


class IPProtocol(enum.IntEnum):
    """IP protocol numbers used by the evaluation NFs."""

    ICMP = 1
    TCP = 6
    UDP = 17


class PacketField(enum.Enum):
    """Symbolic names of the packet fields exposed to NF programs.

    These are the fields that become symbolic inputs during CASTAN's
    analysis: the IPv4 five-tuple.  The enumeration keeps the NF dialect,
    the symbolic engine and the concrete interpreter agreeing on field
    identity, width and byte offsets.
    """

    SRC_IP = ("src_ip", 32)
    DST_IP = ("dst_ip", 32)
    SRC_PORT = ("src_port", 16)
    DST_PORT = ("dst_port", 16)
    PROTOCOL = ("protocol", 8)

    def __init__(self, field_name: str, bits: int) -> None:
        self.field_name = field_name
        self.bits = bits

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1


@dataclass
class Packet:
    """A single packet as seen by the evaluation NFs.

    Only the fields the NFs inspect are modelled explicitly; payload bytes
    are preserved opaquely so round-tripping through pcap is lossless.
    """

    src_ip: int = 0x0A000001
    dst_ip: int = 0x0A000002
    src_port: int = 10000
    dst_port: int = 80
    protocol: int = int(IPProtocol.UDP)
    payload: bytes = b""
    src_mac: int = DEFAULT_SRC_MAC
    dst_mac: int = DEFAULT_DST_MAC
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.src_ip &= 0xFFFFFFFF
        self.dst_ip &= 0xFFFFFFFF
        self.src_port &= 0xFFFF
        self.dst_port &= 0xFFFF
        self.protocol &= 0xFF

    @property
    def flow_tuple(self) -> tuple[int, int, int, int, int]:
        """The 5-tuple identifying this packet's flow."""
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol)

    # -- serialisation ----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to an Ethernet frame with correct IPv4/L4 checksums."""
        l4 = self._l4_bytes()
        total_len = IPV4_HEADER_LEN + len(l4)
        ip_header = bytearray(IPV4_HEADER_LEN)
        ip_header[0] = 0x45  # version 4, IHL 5
        ip_header[1] = 0x00
        ip_header[2] = (total_len >> 8) & 0xFF
        ip_header[3] = total_len & 0xFF
        ip_header[4:6] = b"\x00\x00"  # identification
        ip_header[6:8] = b"\x40\x00"  # don't fragment
        ip_header[8] = 64  # TTL
        ip_header[9] = self.protocol
        ip_header[12] = (self.src_ip >> 24) & 0xFF
        ip_header[13] = (self.src_ip >> 16) & 0xFF
        ip_header[14] = (self.src_ip >> 8) & 0xFF
        ip_header[15] = self.src_ip & 0xFF
        ip_header[16] = (self.dst_ip >> 24) & 0xFF
        ip_header[17] = (self.dst_ip >> 16) & 0xFF
        ip_header[18] = (self.dst_ip >> 8) & 0xFF
        ip_header[19] = self.dst_ip & 0xFF
        checksum = internet_checksum(bytes(ip_header))
        ip_header[10] = (checksum >> 8) & 0xFF
        ip_header[11] = checksum & 0xFF

        ether = bytearray(ETHER_HEADER_LEN)
        ether[0:6] = self.dst_mac.to_bytes(6, "big")
        ether[6:12] = self.src_mac.to_bytes(6, "big")
        ether[12] = (int(EtherType.IPV4) >> 8) & 0xFF
        ether[13] = int(EtherType.IPV4) & 0xFF
        return bytes(ether) + bytes(ip_header) + l4

    def _l4_bytes(self) -> bytes:
        if self.protocol == int(IPProtocol.UDP):
            return self._udp_bytes()
        if self.protocol == int(IPProtocol.TCP):
            return self._tcp_bytes()
        return self.payload

    def _udp_bytes(self) -> bytes:
        length = UDP_HEADER_LEN + len(self.payload)
        header = bytearray(UDP_HEADER_LEN)
        header[0] = (self.src_port >> 8) & 0xFF
        header[1] = self.src_port & 0xFF
        header[2] = (self.dst_port >> 8) & 0xFF
        header[3] = self.dst_port & 0xFF
        header[4] = (length >> 8) & 0xFF
        header[5] = length & 0xFF
        pseudo = pseudo_header(self.src_ip, self.dst_ip, self.protocol, length)
        checksum = internet_checksum(pseudo + bytes(header) + self.payload)
        if checksum == 0:
            checksum = 0xFFFF
        header[6] = (checksum >> 8) & 0xFF
        header[7] = checksum & 0xFF
        return bytes(header) + self.payload

    def _tcp_bytes(self) -> bytes:
        length = TCP_HEADER_LEN + len(self.payload)
        header = bytearray(TCP_HEADER_LEN)
        header[0] = (self.src_port >> 8) & 0xFF
        header[1] = self.src_port & 0xFF
        header[2] = (self.dst_port >> 8) & 0xFF
        header[3] = self.dst_port & 0xFF
        header[12] = (TCP_HEADER_LEN // 4) << 4  # data offset
        header[13] = 0x02  # SYN
        header[14] = 0xFF  # window
        header[15] = 0xFF
        pseudo = pseudo_header(self.src_ip, self.dst_ip, self.protocol, length)
        checksum = internet_checksum(pseudo + bytes(header) + self.payload)
        header[16] = (checksum >> 8) & 0xFF
        header[17] = checksum & 0xFF
        return bytes(header) + self.payload

    @property
    def wire_length(self) -> int:
        """Frame length on the wire in bytes (without FCS)."""
        return len(self.to_bytes())

    def __hash__(self) -> int:
        return hash(self.flow_tuple + (self.payload,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return self.flow_tuple == other.flow_tuple and self.payload == other.payload


class FlowKey(NamedTuple):
    """An IPv4 5-tuple identifying a flow, in :class:`Packet`'s field order.

    The one flow type every layer passes around: the workload generators,
    distillation and the signatures' ``priming_flows``.  A ``FlowKey`` is a
    tuple, so it hashes, compares, pickles and JSON-encodes like the plain
    5-tuple :attr:`Packet.flow_tuple`.
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int = int(IPProtocol.UDP)

    def to_packet(self) -> Packet:
        """One payload-less packet of this flow."""
        return Packet(*self)


class PacketParseError(ValueError):
    """Raised when a byte buffer cannot be parsed as an Ethernet/IPv4 frame."""


def parse_packet(data: bytes) -> Packet:
    """Parse an Ethernet frame produced by :meth:`Packet.to_bytes`.

    Non-IPv4 frames and truncated buffers raise :class:`PacketParseError`;
    transport protocols other than TCP/UDP are returned with zero ports and
    the remaining bytes preserved as payload.
    """
    if len(data) < ETHER_HEADER_LEN + IPV4_HEADER_LEN:
        raise PacketParseError(f"frame too short: {len(data)} bytes")
    dst_mac = int.from_bytes(data[0:6], "big")
    src_mac = int.from_bytes(data[6:12], "big")
    ether_type = (data[12] << 8) | data[13]
    if ether_type != int(EtherType.IPV4):
        raise PacketParseError(f"unsupported EtherType 0x{ether_type:04x}")
    ip = data[ETHER_HEADER_LEN:]
    ihl = (ip[0] & 0x0F) * 4
    if ihl < IPV4_HEADER_LEN or len(ip) < ihl:
        raise PacketParseError("truncated IPv4 header")
    protocol = ip[9]
    src_ip = int.from_bytes(ip[12:16], "big")
    dst_ip = int.from_bytes(ip[16:20], "big")
    l4 = ip[ihl:]
    src_port = dst_port = 0
    payload = bytes(l4)
    if protocol == int(IPProtocol.UDP) and len(l4) >= UDP_HEADER_LEN:
        src_port = (l4[0] << 8) | l4[1]
        dst_port = (l4[2] << 8) | l4[3]
        payload = bytes(l4[UDP_HEADER_LEN:])
    elif protocol == int(IPProtocol.TCP) and len(l4) >= TCP_HEADER_LEN:
        src_port = (l4[0] << 8) | l4[1]
        dst_port = (l4[2] << 8) | l4[3]
        data_offset = (l4[12] >> 4) * 4
        payload = bytes(l4[data_offset:]) if len(l4) >= data_offset else b""
    return Packet(
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        payload=payload,
        src_mac=src_mac,
        dst_mac=dst_mac,
    )
