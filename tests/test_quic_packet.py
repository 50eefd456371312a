"""Tests for packets, headers, and coalescing."""

import pytest

from repro.quic.coalescing import (
    Datagram,
    MAX_DATAGRAM_SIZE,
    coalesce_groups,
    pad_initial,
)
from repro.quic.frames import AckFrame, CryptoFrame, PaddingFrame, PingFrame
from repro.quic.packet import (
    AEAD_TAG_SIZE,
    INITIAL_MIN_DATAGRAM,
    Packet,
    PacketType,
    RetryPacket,
    Space,
)


def _initial(frames, pn=0):
    return Packet(packet_type=PacketType.INITIAL, packet_number=pn, frames=frames)


def _one_rtt(frames, pn=0):
    return Packet(packet_type=PacketType.ONE_RTT, packet_number=pn, frames=frames)


def test_space_mapping():
    assert PacketType.INITIAL.space is Space.INITIAL
    assert PacketType.HANDSHAKE.space is Space.HANDSHAKE
    assert PacketType.ONE_RTT.space is Space.APPLICATION
    with pytest.raises(ValueError):
        PacketType.RETRY.space


def test_packet_ack_eliciting_follows_frames():
    assert _initial((PingFrame(),)).ack_eliciting
    assert not _initial((AckFrame(ranges=((0, 0),)),)).ack_eliciting
    assert _initial(
        (AckFrame(ranges=((0, 0),)), CryptoFrame(offset=0, length=5))
    ).ack_eliciting


def test_ack_only_property():
    iack = _initial((AckFrame(ranges=((0, 0),)),))
    assert iack.ack_only
    assert not _initial((PingFrame(),)).ack_only


def test_long_header_larger_than_short_header():
    crypto = CryptoFrame(offset=0, length=100)
    long_pkt = _initial((crypto,))
    short_pkt = _one_rtt((crypto,))
    assert long_pkt.header_size() > short_pkt.header_size()
    assert long_pkt.wire_size() == (
        long_pkt.header_size() + long_pkt.payload_size() + AEAD_TAG_SIZE
    )


def test_wire_size_includes_all_frames():
    packet = _initial((CryptoFrame(offset=0, length=50), PaddingFrame(length=10)))
    assert packet.payload_size() == (
        CryptoFrame(offset=0, length=50).wire_size() + 10
    )


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet(PacketType.INITIAL, -1, ())
    with pytest.raises(ValueError):
        Packet(PacketType.INITIAL, 0, (), pn_length=5)


def test_datagram_requires_packets_and_order():
    with pytest.raises(ValueError):
        Datagram(packets=())
    initial = _initial((PingFrame(),))
    handshake = Packet(PacketType.HANDSHAKE, 0, (PingFrame(),))
    # Correct order works; reversed raises.
    Datagram(packets=(initial, handshake))
    with pytest.raises(ValueError):
        Datagram(packets=(handshake, initial))


def test_datagram_introspection():
    initial = _initial((AckFrame(ranges=((0, 0),)), CryptoFrame(offset=0, length=9)))
    dgram = Datagram(packets=(initial,))
    assert dgram.contains_initial()
    assert dgram.contains_crypto()
    assert dgram.size == initial.wire_size()


def test_pad_initial_expands_to_1200():
    packet = _initial((CryptoFrame(offset=0, length=100),))
    padded = pad_initial([packet])
    total = sum(p.wire_size() for p in padded)
    assert total == INITIAL_MIN_DATAGRAM


def test_pad_initial_noop_when_large_enough():
    packet = _initial((CryptoFrame(offset=0, length=1500),))
    padded = pad_initial([packet])
    assert padded[0] is packet


def test_coalesce_respects_max_size():
    packets = [
        Packet(PacketType.HANDSHAKE, pn, (CryptoFrame(offset=pn * 500, length=500),))
        for pn in range(5)
    ]
    groups = coalesce_groups(packets, max_datagram_size=MAX_DATAGRAM_SIZE)
    datagrams = [Datagram(packets=tuple(group)) for group in groups]
    assert all(d.size <= MAX_DATAGRAM_SIZE for d in datagrams)
    assert sum(len(d.packets) for d in datagrams) == 5


def test_coalesce_keeps_packet_order():
    initial = _initial((CryptoFrame(offset=0, length=50),))
    handshake = Packet(PacketType.HANDSHAKE, 0, (CryptoFrame(offset=0, length=50),))
    groups = coalesce_groups([initial, handshake])
    assert len(groups) == 1
    assert groups[0][0].packet_type is PacketType.INITIAL


def test_retry_packet_size_and_description():
    retry = RetryPacket(token=b"\x01" * 16)
    assert retry.wire_size() > 16
    assert "Retry" in retry.describe()


def test_describe_mentions_frames():
    packet = _initial((AckFrame(ranges=((0, 2),)), CryptoFrame(offset=0, length=5)))
    text = packet.describe()
    assert "Initial" in text and "ACK" in text and "CRYPTO" in text
