"""UDP datagrams and QUIC packet coalescing (RFC 9000 §12.2).

Multiple QUIC packets can be coalesced into one UDP datagram —
"an entire flight can be transmitted in one datagram" (§3 of the
paper). Implementations use coalescing to different extents, which is
why the paper's loss experiments match *datagram indices* to QUIC
content per implementation (Table 4). :class:`Datagram` models one UDP
datagram carrying one or more packets; :func:`pad_initial` applies the
client-side rule that datagrams containing Initial packets must be at
least 1200 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.quic.frames import PaddingFrame
from repro.quic.packet import INITIAL_MIN_DATAGRAM, Packet, PacketType

#: Maximum UDP payload used by the testbed endpoints.
MAX_DATAGRAM_SIZE = 1200

#: RFC 9000 §12.2 coalescing order ranks (Retry shares the Initial
#: encryption level for ordering purposes).
_COALESCE_RANK = {
    PacketType.INITIAL: 0,
    PacketType.HANDSHAKE: 1,
    PacketType.ONE_RTT: 2,
    PacketType.RETRY: 0,
}


@dataclass(slots=True)
class Datagram:
    """One UDP datagram containing coalesced QUIC packets."""

    packets: Tuple[Packet, ...]
    sender: str = ""
    _size: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _contains_crypto: Optional[bool] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.packets:
            raise ValueError("datagram must contain at least one packet")
        self.packets = tuple(self.packets)
        self._validate_order()

    def _validate_order(self) -> None:
        """RFC 9000 §12.2: packet with short header must come last, and
        encryption-level order must be non-decreasing."""
        if len(self.packets) == 1:
            return
        order = [_COALESCE_RANK[p.packet_type] for p in self.packets]
        if order != sorted(order):
            raise ValueError(
                "coalesced packets must be ordered Initial < Handshake < 1-RTT"
            )

    @property
    def size(self) -> int:
        cached = self._size
        if cached is None:
            cached = sum(packet.wire_size() for packet in self.packets)
            self._size = cached
        return cached

    @property
    def ack_eliciting(self) -> bool:
        return any(packet.ack_eliciting for packet in self.packets)

    def contains_initial(self) -> bool:
        return any(p.packet_type is PacketType.INITIAL for p in self.packets)

    def contains_crypto(self) -> bool:
        """Whether any packet carries TLS handshake data — used to
        model the client-side processing penalty for coalesced
        ACK–ServerHello flights."""
        cached = self._contains_crypto
        if cached is None:
            cached = any(p.crypto_frames() for p in self.packets)
            self._contains_crypto = cached
        return cached

    def describe(self) -> str:
        return " | ".join(packet.describe() for packet in self.packets)


def pad_packet_to(packet: Packet, target_payload_increase: int) -> Packet:
    """Return a copy of ``packet`` with PADDING appended."""
    if target_payload_increase <= 0:
        return packet
    return Packet(
        packet_type=packet.packet_type,
        packet_number=packet.packet_number,
        frames=packet.frames + (PaddingFrame(length=target_payload_increase),),
        dcid=packet.dcid,
        scid=packet.scid,
        token=packet.token,
        pn_length=packet.pn_length,
    )


def pad_initial(packets: List[Packet], minimum: int = INITIAL_MIN_DATAGRAM) -> List[Packet]:
    """Pad a packet list destined for one datagram to ``minimum`` bytes.

    RFC 9000 §14.1: a client MUST expand datagrams containing Initial
    packets to at least 1200 bytes. Padding is added to the *last*
    packet in the datagram (common implementation behavior).
    """
    total = sum(p.wire_size() for p in packets)
    deficit = minimum - total
    if deficit <= 0:
        return list(packets)
    padded = list(packets)
    padded[-1] = pad_packet_to(padded[-1], deficit)
    return padded


def coalesce_groups(
    packets: Iterable[Packet],
    max_datagram_size: int = MAX_DATAGRAM_SIZE,
) -> List[List[Packet]]:
    """Greedily pack packets into groups of at most ``max_datagram_size``
    bytes, one group per datagram.

    Packets larger than the limit get a group of their own (the
    simulation treats path MTU as not enforced for such packets, which
    does not occur with the default frame sizing). Senders pad a group
    before wrapping it in a :class:`Datagram`, so the grouping is
    returned unwrapped.
    """
    groups: List[List[Packet]] = []
    current: List[Packet] = []
    current_size = 0
    for packet in packets:
        size = packet.wire_size()
        if current and current_size + size > max_datagram_size:
            groups.append(current)
            current = []
            current_size = 0
        current.append(packet)
        current_size += size
    if current:
        groups.append(current)
    return groups

