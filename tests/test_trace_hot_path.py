"""Byte identity of the optimised trace-level path.

Packets now size themselves once at construction, senders coalesce
into packet groups instead of throwaway datagrams, the receive path
dispatches on exact frame classes, loss detection walks the sent map
in order, qlog events are built with their final timestamp, and
in-process suites spill each cell as soon as it finishes. None of
that may change a byte of output. The digests below were recorded
with the code this module keeps as reference (``reference_*``); each
test pins either those digests or the reference code itself against
the production path.
"""

import hashlib
import pickle
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.runtime.matrix as matrix_module
from repro.api import LocalConfig, RunRequest, Session
from repro.api.bundles import bundle_files
from repro.interop.runner import Scenario
from repro.quic.coalescing import MAX_DATAGRAM_SIZE, Datagram, coalesce_groups
from repro.quic.frames import AckFrame, CryptoFrame, PaddingFrame, PingFrame, StreamFrame
from repro.quic.packet import AEAD_TAG_SIZE, Packet, PacketType, Space
from repro.quic.recovery import AckResult, Recovery, RecoveryConfig
from repro.quic.server import ServerMode
from repro.quic.varint import varint_size
from repro.runtime import ArtifactLevel, ArtifactStore, SuiteRunner, execute_cell
from repro.sim.loss import IndexedLoss, RandomLoss

#: Trace-level cells: a fig11-shaped transfer (millisecond qlog
#: timestamps), a lossy IACK transfer (loss detection, spurious
#: retransmissions), and a lost server flight under the quiche
#: PING-drop quirk.
CELLS = {
    "fig11_aioquic": (
        Scenario(client="aioquic", rtt_ms=100.0, response_size=256 * 1024, timeout_ms=600_000.0),
        0,
    ),
    "lossy_quic_go": (
        Scenario(
            client="quic-go",
            mode=ServerMode.IACK,
            rtt_ms=20.0,
            response_size=128 * 1024,
            client_to_server_loss=RandomLoss(0.02),
            server_to_client_loss=RandomLoss(0.05),
        ),
        3,
    ),
    "quiche_flight_loss": (
        Scenario(client="quiche", mode=ServerMode.IACK, server_to_client_loss=IndexedLoss([2, 3])),
        1,
    ),
}

#: SHA-256 of ``repr()`` of each cell's trace records and qlog event
#: lists, and the record/event counts.
CELL_SHA256 = {
    "fig11_aioquic": {
        "trace_records": "9bb2d5687a2f931da0b714d6f4906ab5384c1c37eb1573bd8cb21ea25a52299c",
        "client_qlog_events": "e2cdeb0ad579607be5cf942ef109d047388b0d9397391fb49b40db0f1fd3fa2e",
        "server_qlog_events": "406dd84ecd3a1ad1f55374c023f6fe829abfc81cb2c71896f53481ab9772ad57",
        "counts": (372, 379, 496),
    },
    "lossy_quic_go": {
        "trace_records": "1c68df03ad6b6a111c99c6df84f6a9e00a8cc9f9d28bccb513fb44aded40f4fc",
        "client_qlog_events": "acf4c907aa858a8d066a92f7d00be9857bb33dbc2f8b676071ee2aad998d2594",
        "server_qlog_events": "8aed83b092400a5e0fa60f71e70428943bba0de6b0d99eca2665fa8bf46a7f90",
        "counts": (196, 195, 258),
    },
    "quiche_flight_loss": {
        "trace_records": "6f2321ae9e668af1c012aace960e4a15444e2a6c2cc7b9b8b12725937e82017c",
        "client_qlog_events": "7f1341b9ebfe478b8923664647ab9e8275c873e9aee356ab86da0cec7cb3a99b",
        "server_qlog_events": "ecfdb058da9a53710ecd0f7d79309f1448ce3401a4bdde9aec44f44fda4664b6",
        "counts": (25, 9, 27),
    },
}

#: SHA-256 and length of the protocol-5 pickle of each cell's
#: ``(trace_records, client_qlog_events, server_qlog_events)`` and of
#: the whole artifacts. Pickle bytes follow the interpreter's
#: dataclass pickling, so they are pinned on CPython 3.11 only.
CELL_PICKLE = {
    "fig11_aioquic": ("25da9360557f75bdcfd872ba14251f3f969c2906d893d0b91355272e669956db", 172342),
    "lossy_quic_go": ("47614da2cf8fed9b245dee7594d039fb902a28acc91bc531b0112db28f583d75", 101206),
    "quiche_flight_loss": (
        "adc7849069e684315334b1d4f41875cbeded30044064b246b2ce9e5e9beb7e17",
        10249,
    ),
}

#: SHA-256 of each file of the fig11 smoke bundle.
FIG11_SMOKE_SHA256 = {
    "fig11.json": "fe0100b4097d5422943ae9da84490ec7872e31014519eded1f585f179e0b7b68",
    "suite.json": "b23c3efbb47b84c3757939a1aefeeb643a1e65c228dbc30c26ddb6ad700a7c1e",
}


def _sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# -- reference (pre-optimisation) code -------------------------------------


def reference_payload_size(packet):
    return sum(frame.wire_size() for frame in packet.frames)


def reference_header_size(packet):
    """The lazily computed header size the packet used to memoise."""
    payload = reference_payload_size(packet)
    if packet.is_long_header:
        size = 1 + 4 + 1 + len(packet.dcid) + 1 + len(packet.scid)
        if packet.packet_type is PacketType.INITIAL:
            size += varint_size(len(packet.token)) + len(packet.token)
        size += varint_size(packet.pn_length + payload + AEAD_TAG_SIZE)
        size += packet.pn_length
    else:
        size = 1 + len(packet.dcid) + packet.pn_length
    return size


def reference_coalesce(packets, max_datagram_size=MAX_DATAGRAM_SIZE, sender=""):
    datagrams = []
    current = []
    current_size = 0
    for packet in packets:
        size = packet.wire_size()
        if current and current_size + size > max_datagram_size:
            datagrams.append(Datagram(packets=tuple(current), sender=sender))
            current = []
            current_size = 0
        current.append(packet)
        current_size += size
    if current:
        datagrams.append(Datagram(packets=tuple(current), sender=sender))
    return datagrams


class ReferenceRecovery(Recovery):
    """ACK matching and loss detection before the in-order fast paths:
    the sent map is sorted on every walk, and the largest newly acked
    packet is found by a second and a third pass."""

    def on_ack_received(self, space, ack, now_ms):
        state = self.spaces[space]
        if state.discarded:
            return AckResult(newly_acked=[], rtt_sample_ms=None, lost=[])
        newly_acked = []
        sent = state.sent
        for low, high in ack.ranges:
            if high - low + 1 > len(sent):
                hits = sorted((pn for pn in sent if low <= pn <= high), reverse=True)
            else:
                hits = [pn for pn in range(high, low - 1, -1) if pn in sent]
            for pn in hits:
                sp = sent[pn]
                newly_acked.append(sp)
                if sp.declared_lost:
                    self.spurious_retransmissions += 1
                elif sp.ack_eliciting and sp.in_flight:
                    state.ack_eliciting_in_flight_count -= 1
                del sent[pn]
        rtt_sample = None
        if newly_acked:
            largest_newly = max(sp.packet_number for sp in newly_acked)
            if state.largest_acked is None or largest_newly > state.largest_acked:
                state.largest_acked = largest_newly
                largest_sp = next(sp for sp in newly_acked if sp.packet_number == largest_newly)
                take_sample = largest_sp.ack_eliciting
                if space is Space.INITIAL and not self.config.use_initial_ack_rtt_sample:
                    take_sample = False
                if take_sample:
                    rtt_sample = now_ms - largest_sp.time_sent_ms
                    if rtt_sample > 0:
                        delay = 0.0 if space is Space.INITIAL else ack.ack_delay_ms
                        self.estimator.update(rtt_sample, ack_delay_ms=delay)
            if any(sp.ack_eliciting for sp in newly_acked):
                self.pto_count = 0
                self.last_pto_reset_ms = max(self.last_pto_reset_ms, now_ms)
        lost = self._detect_lost(space, now_ms)
        self._state_version += 1
        return AckResult(newly_acked=newly_acked, rtt_sample_ms=rtt_sample, lost=lost)

    def _detect_lost(self, space, now_ms):
        state = self.spaces[space]
        state.loss_time_ms = None
        if state.largest_acked is None:
            return []
        lost = []
        loss_delay = self._loss_delay_ms()
        for pn in sorted(state.sent):
            sp = state.sent[pn]
            if pn > state.largest_acked:
                continue
            if sp.declared_lost:
                continue
            is_lost, candidate = self.loss_detector.classify(
                packet_number=pn,
                time_sent_ms=sp.time_sent_ms,
                largest_acked=state.largest_acked,
                now_ms=now_ms,
                loss_delay_ms=loss_delay,
                packet_threshold=self.config.packet_threshold,
            )
            if is_lost:
                sp.declared_lost = True
                if sp.ack_eliciting and sp.in_flight:
                    state.ack_eliciting_in_flight_count -= 1
                sp.in_flight = False
                lost.append(sp)
            elif candidate is not None:
                if state.loss_time_ms is None or candidate < state.loss_time_ms:
                    state.loss_time_ms = candidate
        self._state_version += 1
        return lost


# -- pinned digests --------------------------------------------------------


@pytest.fixture(scope="module")
def cell_artifacts():
    return {
        name: execute_cell(scenario, seed, ArtifactLevel.TRACE)
        for name, (scenario, seed) in CELLS.items()
    }


@pytest.mark.parametrize("name", sorted(CELLS))
def test_trace_level_cell_is_byte_identical(cell_artifacts, name):
    artifacts = cell_artifacts[name]
    expected = CELL_SHA256[name]
    lists = {
        "trace_records": artifacts.trace_records,
        "client_qlog_events": artifacts.client_qlog_events,
        "server_qlog_events": artifacts.server_qlog_events,
    }
    assert tuple(len(items) for items in lists.values()) == expected["counts"]
    for field, items in lists.items():
        assert _sha256(repr(items)) == expected[field], field


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pickle bytes pinned on CPython 3.11")
@pytest.mark.parametrize("name", sorted(CELLS))
def test_trace_level_cell_pickles_byte_identically(cell_artifacts, name):
    artifacts = cell_artifacts[name]
    lists = (
        artifacts.trace_records,
        artifacts.client_qlog_events,
        artifacts.server_qlog_events,
    )
    sha, length = CELL_PICKLE[name]
    assert _sha256(pickle.dumps(lists, protocol=5)) == sha
    assert len(pickle.dumps(artifacts, protocol=5)) == length


def test_fig11_smoke_bundle_is_byte_identical():
    with Session(LocalConfig(workers=0)) as session:
        report = session.run(RunRequest(("fig11",), smoke=True))
    files = bundle_files(report)
    assert {name: _sha256(text) for name, text in files.items()} == FIG11_SMOKE_SHA256


# -- eager packet sizes ------------------------------------------------------


def _padding_payload(size):
    return (PaddingFrame(length=size),) if size else ()


#: Payload sizes around the 1→2 (63/64) and 2→4 (16383/16384) byte
#: boundaries of the length varint, which covers pn + payload + tag.
_BOUNDARY_TOTALS = (62, 63, 64, 65, 16382, 16383, 16384, 16385)


def _boundary_payloads(pn_length):
    sizes = {1, 100, 1100}
    for total in _BOUNDARY_TOTALS:
        payload = total - pn_length - AEAD_TAG_SIZE
        if payload > 0:
            sizes.add(payload)
    return sorted(sizes)


@pytest.mark.parametrize("pn_length", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "packet_type, token",
    [
        (PacketType.INITIAL, b""),
        (PacketType.INITIAL, b"t" * 20),
        (PacketType.INITIAL, b"t" * 63),
        (PacketType.INITIAL, b"t" * 64),
        (PacketType.HANDSHAKE, b""),
        (PacketType.ONE_RTT, b""),
    ],
)
def test_eager_sizes_match_reference_formula(packet_type, token, pn_length):
    for payload in _boundary_payloads(pn_length):
        packet = Packet(
            packet_type, 7, _padding_payload(payload), token=token, pn_length=pn_length
        )
        assert packet.payload_size() == reference_payload_size(packet) == payload
        assert packet.header_size() == reference_header_size(packet)
        assert packet.wire_size() == packet.header_size() + payload + AEAD_TAG_SIZE


def test_length_varint_boundaries_are_crossed():
    # 63 bytes of pn + payload + tag fit a 1-byte length, 64 need 2;
    # 16383 fit 2, 16384 need 4.
    sizes = {}
    for total in _BOUNDARY_TOTALS:
        packet = Packet(PacketType.HANDSHAKE, 0, _padding_payload(total - 2 - AEAD_TAG_SIZE))
        sizes[total] = packet.header_size() - 7 - 16 - 2
    assert sizes == {62: 1, 63: 1, 64: 2, 65: 2, 16382: 2, 16383: 2, 16384: 4, 16385: 4}


@pytest.mark.parametrize(
    "frames",
    [
        (),
        (PaddingFrame(length=5),),
        (AckFrame(ranges=((0, 3),)),),
        (AckFrame(ranges=((0, 3),)), PaddingFrame(length=40)),
        (AckFrame(ranges=((0, 3),)), PingFrame()),
        (CryptoFrame(offset=0, length=300, label="CH"),),
        (StreamFrame(stream_id=0, offset=2000, length=1000, fin=True),),
    ],
)
def test_eager_ack_eliciting_matches_frames(frames):
    packet = Packet(PacketType.ONE_RTT, 1, frames)
    assert packet.ack_eliciting is any(frame.ack_eliciting for frame in frames)
    assert packet.ack_only is not packet.ack_eliciting


def test_packet_validation_is_kept():
    with pytest.raises(ValueError, match="non-negative"):
        Packet(PacketType.INITIAL, -1, ())
    with pytest.raises(ValueError, match="1..4"):
        Packet(PacketType.INITIAL, 0, (), pn_length=5)
    with pytest.raises(ValueError, match="Retry"):
        Packet(PacketType.RETRY, 0, ())


# -- coalescing ----------------------------------------------------------------


def _random_packets(rng, count):
    types = (PacketType.INITIAL, PacketType.HANDSHAKE, PacketType.ONE_RTT)
    rank = sorted(rng.randrange(3) for _ in range(count))
    return [
        Packet(types[r], pn, _padding_payload(rng.choice((1, 30, 400, 700, 1100, 1300))))
        for pn, r in enumerate(rank)
    ]


@pytest.mark.parametrize("seed", range(20))
def test_coalesce_groups_match_reference_grouping(seed):
    rng = random.Random(seed)
    packets = _random_packets(rng, rng.randrange(1, 12))
    limit = rng.choice((MAX_DATAGRAM_SIZE, 1500, 600))
    expected = [list(d.packets) for d in reference_coalesce(packets, limit)]
    assert coalesce_groups(packets, limit) == expected


# -- recovery: in-order fast paths ---------------------------------------------


def _sent_packet(pn):
    return Packet(PacketType.ONE_RTT, pn, (StreamFrame(stream_id=0, offset=pn, length=10),))


def _drive(recovery, script):
    """Replay ``script`` ("send", pn, t) / ("ack", ranges, t) steps and
    record every observable outcome."""
    out = []
    for step in script:
        if step[0] == "send":
            recovery.on_packet_sent(_sent_packet(step[1]), step[2], 100)
            continue
        result = recovery.on_ack_received(Space.APPLICATION, AckFrame(ranges=step[1]), step[2])
        state = recovery.spaces[Space.APPLICATION]
        out.append(
            (
                [sp.packet_number for sp in result.newly_acked],
                result.rtt_sample_ms,
                [sp.packet_number for sp in result.lost],
                state.largest_acked,
                state.loss_time_ms,
                state.ack_eliciting_in_flight_count,
                recovery.spurious_retransmissions,
            )
        )
        for space, sp in recovery.detect_lost_on_timer(step[2] + 500.0):
            out.append(("timer", space, sp.packet_number))
    return out


@st.composite
def _scripts(draw):
    count = draw(st.integers(min_value=1, max_value=40))
    script, now = [], 0.0
    for pn in range(count):
        now += draw(st.floats(min_value=0.1, max_value=20.0))
        script.append(("send", pn, now))
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            highs = sorted(
                draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=3, unique=True)),
                reverse=True,
            )
            ranges, floor = [], None
            for high in highs:
                if floor is not None and high >= floor - 1:
                    continue
                # Narrow ranges probe the range walk, wide ones the
                # sent-map scan.
                low = max(0, high - draw(st.sampled_from((0, 1, 3, 6, count))))
                ranges.append((low, high))
                floor = low
            now += draw(st.floats(min_value=0.1, max_value=50.0))
            script.append(("ack", tuple(ranges), now))
    return script


def _sends(*pns):
    return [("send", pn, 1.0 + index) for index, pn in enumerate(pns)]


@settings(max_examples=300, deadline=None)
@given(_scripts())
# Packets 0..6 sent, then 4 acked: 0 and 1 are lost by the packet
# threshold, and the walk stops at 4 with 5 and 6 still outstanding.
@example(_sends(0, 1, 2, 3, 4, 5, 6) + [("ack", ((4, 4),), 20.0)])
# A wide range over a small sent map: hits come back in descending
# order and the scan stops past ``high``.
@example(_sends(0, 1, 2) + [("ack", ((0, 10),), 20.0)])
@example(_sends(0, 1, 5) + [("ack", ((0, 3),), 20.0)])
def test_in_order_fast_paths_match_reference(script):
    """Loss detection and ACK matching walk the sent map in insertion
    order, which is packet-number order; every script must give the
    reference outcome."""
    fast = Recovery(RecoveryConfig())
    assert _drive(fast, script) == _drive(ReferenceRecovery(RecoveryConfig()), script)


def test_sending_below_newest_outstanding_packet_raises():
    """The in-order walks rely on packets entering the sent map in
    packet-number order, so a send below the newest outstanding packet
    is an error rather than a slow path."""
    recovery = Recovery(RecoveryConfig())
    for pn in (0, 2):
        recovery.on_packet_sent(_sent_packet(pn), 1.0, 100)
    with pytest.raises(RuntimeError, match="packet 1 sent after packet 2"):
        recovery.on_packet_sent(_sent_packet(1), 2.0, 100)
    assert list(recovery.spaces[Space.APPLICATION].sent) == [0, 2]


# -- per-cell spill --------------------------------------------------------------


def test_in_process_suite_spills_each_cell_before_running_the_next(monkeypatch, tmp_path):
    calls = []
    real_execute = matrix_module.execute_cell
    real_put = ArtifactStore.put

    def recording_execute(scenario, seed, level, runner=None):
        calls.append(("execute", seed, scenario.client))
        return real_execute(scenario, seed, level, runner)

    def recording_put(self, artifacts):
        calls.append(("put", artifacts.seed, artifacts.scenario.client))
        return real_put(self, artifacts)

    monkeypatch.setattr(matrix_module, "execute_cell", recording_execute)
    monkeypatch.setattr(ArtifactStore, "put", recording_put)
    report = SuiteRunner(workers=0, spill="always", spill_dir=str(tmp_path)).run(
        ["fig11"], overrides={"fig11": {"response_size": 64 * 1024}}, smoke=True
    )
    assert report.spilled_cells == report.executed_cells == 8
    assert [kind for kind, *_ in calls] == ["execute", "put"] * 8
    executed = [cell for kind, *cell in calls if kind == "execute"]
    spilled = [cell for kind, *cell in calls if kind == "put"]
    assert executed == spilled
