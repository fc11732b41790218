"""Symbolic packet sets and conversion of solver models into packets.

CASTAN's input is a sequence of N symbolic packets; each packet contributes
five symbols (the IPv4 five-tuple).  After the highest-cost state is solved
(and its havocs reconciled), the model is turned back into concrete
:class:`~repro.net.packet.Packet` objects and, optionally, a pcap file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.net.packet import Packet, PacketField
from repro.symbex.expr import Expr, Sym
from repro.symbex.solver import Model

#: Order of entry-function parameters for every evaluation NF: the 5-tuple,
#: in :class:`~repro.net.packet.Packet`'s positional order.
FIELD_ORDER = tuple(PacketField)


@dataclass
class PacketSymbolSet:
    """The five symbols describing one symbolic packet."""

    index: int
    symbols: dict[str, Sym]

    @property
    def args(self) -> list[Expr]:
        """Arguments for the NF entry function, in parameter order."""
        return [self.symbols[field.field_name] for field in FIELD_ORDER]

    def symbol_name(self, field: PacketField) -> str:
        return self.symbols[field.field_name].name


def make_packet_symbols(num_packets: int) -> list[PacketSymbolSet]:
    """Create the symbol sets for ``num_packets`` symbolic packets."""
    sets: list[PacketSymbolSet] = []
    for index in range(num_packets):
        symbols = {
            field.field_name: Sym(f"pkt{index}.{field.field_name}", bits=field.bits)
            for field in FIELD_ORDER
        }
        sets.append(PacketSymbolSet(index=index, symbols=symbols))
    return sets


def symbol_defaults(
    packet_sets: list[PacketSymbolSet], per_field_defaults: dict[str, int]
) -> dict[str, int]:
    """Expand per-field defaults into per-symbol defaults for the solver.

    A small per-packet perturbation is added to IP/port defaults so that
    unconstrained packets still form distinct flows (matching how the paper
    reports "N packets, N flows" workloads).
    """
    defaults: dict[str, int] = {}
    for packet_set in packet_sets:
        for field in FIELD_ORDER:
            name = packet_set.symbol_name(field)
            base = per_field_defaults.get(field.field_name, 0)
            if field in (PacketField.SRC_IP, PacketField.SRC_PORT):
                base = (base + packet_set.index) & field.mask
            defaults[name] = base & field.mask
    return defaults


def workload_digest(packets: Sequence[Packet]) -> str:
    """SHA-256 over the concatenated on-wire bytes of a workload.

    This is *the* definition of "byte-identical" used by the per-NF output
    pins (``tests/test_engine_pins.py``) and by the service store's
    :func:`~repro.service.store.canonical_result_digest`.
    """
    payload = b"".join(packet.to_bytes() for packet in packets)
    return hashlib.sha256(payload).hexdigest()


def packets_from_model(
    packet_sets: list[PacketSymbolSet],
    model: Model,
    per_field_defaults: dict[str, int],
) -> list[Packet]:
    """Materialise concrete packets from a solver model."""
    defaults = symbol_defaults(packet_sets, per_field_defaults)
    packets: list[Packet] = []
    for packet_set in packet_sets:
        values = []
        for field in FIELD_ORDER:
            name = packet_set.symbol_name(field)
            values.append(model.get(name, defaults[name]) & field.mask)
        packets.append(Packet(*values))
    return packets
