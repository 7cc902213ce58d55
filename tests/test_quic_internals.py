"""White-box tests for QUIC connection internals: ACK blocks, flow
control granting, packet packing, and handshake message flow."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netem import Simulator, emulated
from repro.quic import QuicConfig, quic_config
from repro.quic.frames import AckFrame, MaxDataFrame, StreamFrame
from repro.quic.loss import SentPacketRecord
from repro.transport.util import RangeSet

from .conftest import MEDIUM, CountingRangeSet, make_quic_pair, quic_download


class TestAckGeneration:
    def test_ack_every_second_packet(self, sim):
        _, client, server = make_quic_pair(sim, MEDIUM)
        quic_download(sim, client, 200_000)
        # Client acks ~every 2nd retransmittable packet.
        data_packets = server.stats.data_packets_sent
        acks = client.stats.acks_sent
        assert acks >= data_packets // 2 - 5
        assert acks <= data_packets + 5

    def test_ack_blocks_reflect_gaps(self, sim):
        _, client, server = make_quic_pair(sim, MEDIUM)
        # Simulate receiving packets 1,2,4,5 (3 missing).
        client._record_received(0.1, 1, True)
        client._record_received(0.1, 2, True)
        client._record_received(0.2, 4, True)
        client._record_received(0.2, 5, True)
        ack = client._make_ack_frame()
        assert ack.largest_acked == 5
        assert (4, 5) in ack.blocks and (1, 2) in ack.blocks

    def test_ack_delay_measured_from_largest(self, sim):
        _, client, _ = make_quic_pair(sim, MEDIUM)
        client._record_received(0.0, 1, True)
        sim.run(until=0.030)
        ack = client._make_ack_frame()
        assert ack.ack_delay == pytest.approx(0.030)

    def test_block_count_capped(self):
        for max_blocks in (4, 1):
            cfg = quic_config(34).with_(max_ack_blocks=max_blocks)
            _, client, _ = make_quic_pair(Simulator(), MEDIUM, cfg=cfg)
            for num in range(1, 41, 2):  # 20 isolated packets = 20 ranges
                client._record_received(0.1, num, True)
            ack = client._make_ack_frame()
            assert len(ack.blocks) == max_blocks
            assert ack.blocks[0] == (39, 39)
            assert ack.largest_acked == 39
            # The frame fits what _build_packet budgets for it.
            assert ack.wire_bytes <= 16 + 8 * max_blocks

    @pytest.mark.parametrize("blocks", [0, -1])
    def test_fewer_than_one_block_is_refused(self, blocks):
        """``tail(0)`` once returned every range, so a frame meant to
        carry none carried all of them, past _build_packet's budget: such
        a config is refused when it is made."""
        with pytest.raises(ValueError, match="max_ack_blocks"):
            quic_config(34).with_(max_ack_blocks=blocks)
        with pytest.raises(ValueError, match="max_ack_blocks"):
            QuicConfig(max_ack_blocks=blocks)


class TestAckProcessing:
    def test_work_is_proportional_to_new_blocks_not_repeated_ones(self, sim):
        """A frame repeats up to 32 blocks the sender has mostly seen: 500
        frames of 31 old blocks + 1 new one cost one gaps() and one add()
        each, not 32 of both, and no covers() for the repeats."""
        _, _client, server = make_quic_pair(sim, MEDIUM)
        server._peer_acked = acked = CountingRangeSet()
        numbers = list(range(1, 2 * (31 + 500), 2))  # isolated: never merge
        server._on_ack_frame(0.0, AckFrame(
            numbers[30], 0.0, tuple((n, n) for n in reversed(numbers[:31]))))
        acked.calls.clear()
        for newest in range(31, 31 + 500):
            blocks = tuple((n, n) for n in reversed(numbers[newest - 31:newest + 1]))
            assert len(blocks) == 32
            server._on_ack_frame(0.0, AckFrame(numbers[newest], 0.0, blocks))
        assert acked.calls["gaps"] + acked.calls["add"] <= 2 * 500
        assert acked.calls["covers"] == 0
        assert acked.ranges() == [(n, n + 1) for n in numbers]

    def test_new_block_below_a_repeated_head_is_processed(self, sim):
        """Late packets extend an old block under an unchanged head
        block: the frame's head repeats, but its rest does not."""
        _, _client, server = make_quic_pair(sim, MEDIUM)
        server.loss_detector.threshold = 10 ** 9  # keep every record
        for num in range(1, 21):
            server.sent[num] = SentPacketRecord(num, 0.0, 100)
        server._on_ack_frame(0.0, AckFrame(20, 0.0, ((10, 20), (1, 5))))
        assert sorted(server.sent) == [6, 7, 8, 9]
        server._on_ack_frame(0.0, AckFrame(20, 0.0, ((10, 20), (1, 8))))
        assert sorted(server.sent) == [9]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 60), max_size=12), max_size=12))
    def test_acked_numbers_are_the_union_of_all_frames(self, frames):
        """Any frame order — repeats, merges, reordered older frames:
        every number in some block is acked exactly once, and only those."""
        sim = Simulator()
        _, _client, server = make_quic_pair(sim, MEDIUM)
        server.loss_detector.threshold = 10 ** 9
        for num in range(1, 61):
            server.sent[num] = SentPacketRecord(num, 0.0, 100)
        acked = set()
        for numbers in frames:
            if not numbers:
                continue
            blocks = tuple((lo, hi - 1) for lo, hi in
                           reversed(RangeSet((n, n + 1) for n in numbers).ranges()))
            server._on_ack_frame(0.0, AckFrame(max(numbers), 0.0, blocks))
            acked.update(numbers)
        assert set(server.sent) == set(range(1, 61)) - acked
        assert set(server._peer_acked.ranges()) == \
            set(RangeSet((n, n + 1) for n in acked).ranges())
        assert server.bytes_in_flight == -100 * len(acked)


class TestFlowControlGrants:
    def test_conn_window_update_sent_at_half(self, sim):
        # No auto-tune: the cap is the initial window.
        cfg = quic_config(34).with_(conn_flow_window=100_000,
                                    conn_flow_window_cap=100_000)
        _, client, server = make_quic_pair(sim, MEDIUM, cfg=cfg)
        quic_download(sim, client, 300_000)
        # The transfer exceeded the initial window: updates were granted.
        assert client._conn_granted > 100_000
        assert server._peer_conn_limit == client._conn_granted

    def test_auto_tune_doubles_on_frequent_updates(self, sim):
        cfg = quic_config(34).with_(conn_flow_window=50_000,
                                    conn_flow_window_cap=1_000_000)
        _, client, _ = make_quic_pair(sim, emulated(50.0), cfg=cfg)
        quic_download(sim, client, 2_000_000)
        assert client._conn_window > 50_000  # grew toward the cap

    def test_window_cap_respected(self, sim):
        cfg = quic_config(34).with_(conn_flow_window=50_000,
                                    conn_flow_window_cap=120_000)
        _, client, _ = make_quic_pair(sim, emulated(50.0), cfg=cfg)
        quic_download(sim, client, 2_000_000)
        assert client._conn_window <= 120_000

    def test_sender_never_exceeds_peer_limit(self, sim):
        cfg = quic_config(34).with_(conn_flow_window=64_000,
                                    conn_flow_window_cap=128_000)
        _, client, server = make_quic_pair(sim, MEDIUM, cfg=cfg)
        quic_download(sim, client, 500_000)
        assert server._conn_new_bytes_sent <= server._peer_conn_limit


class TestPacketPacking:
    def test_small_requests_bundle_into_one_packet(self, sim):
        """Several small request frames share a packet (multiplexing)."""
        _, client, server = make_quic_pair(sim, MEDIUM)
        done = {}
        client.connect()
        for i in range(4):
            client.request({"size": 5_000, "i": i},
                           lambda s, m, t: done.update({m["i"]: t}),
                           request_bytes=120)
        sim.run_until(lambda: len(done) == 4, timeout=30.0)
        # 4 x (120+12) request bytes + CHLO fit in far fewer packets
        # than 1 + 4 (the CHLO packet carries request frames too).
        assert client.stats.data_packets_sent <= 3

    def test_mtu_respected(self, sim):
        _, client, server = make_quic_pair(sim, MEDIUM)
        quic_download(sim, client, 100_000)
        mtu = server.config.mss
        # No emitted data packet exceeds the MSS payload budget.
        assert server.stats.bytes_sent <= server.stats.packets_sent * (mtu + 60)


class TestHandshakeMessages:
    def test_zero_rtt_sends_full_chlo_only(self, sim):
        _, client, server = make_quic_pair(sim, MEDIUM)
        quic_download(sim, client, 10_000)
        assert server._server_ready_at is not None

    def test_rej_flow_without_cached_config(self, sim):
        cfg = quic_config(34, zero_rtt=False)
        _, client, server = make_quic_pair(sim, MEDIUM, cfg=cfg)
        ready = {}
        client.connect(lambda now: ready.update({"t": now}))
        sim.run_until(lambda: "t" in ready, timeout=5.0)
        # Ready after ~1 RTT (inchoate CHLO -> REJ).
        assert ready["t"] == pytest.approx(0.036, rel=0.2)

    def test_requests_queued_until_rej(self, sim):
        cfg = quic_config(34, zero_rtt=False)
        _, client, _ = make_quic_pair(sim, MEDIUM, cfg=cfg)
        client.connect()
        client.request({"size": 1000}, lambda *a: None)
        assert len(client._request_queue) == 1
        sim.run(until=0.1)
        assert len(client._request_queue) == 0
