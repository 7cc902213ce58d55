"""White-box tests for TCP connection internals: rwnd advertising,
segment packing, SACK scoreboard, and message framing."""

import pytest

from repro.netem import Simulator, emulated
from repro.tcp import tcp_config
from repro.tcp.segment import TcpSegment

from .conftest import MEDIUM, CountingRangeSet, make_tcp_pair, tcp_download


class TestReceiveWindow:
    def test_initial_rwnd_is_buffer(self, sim):
        cfg = tcp_config(receive_buffer=500_000)
        _, client, _ = make_tcp_pair(sim, MEDIUM, cfg=cfg)
        assert client._advertise_rwnd() == 500_000

    def test_rwnd_shrinks_with_unprocessed_backlog(self, sim):
        cfg = tcp_config(receive_buffer=500_000)
        _, client, _ = make_tcp_pair(sim, MEDIUM, cfg=cfg)
        # Simulate stored-but-unprocessed bytes.
        client._rcv_total = 120_000
        client._app_processed = 20_000
        assert client._advertise_rwnd() == 400_000

    def test_rwnd_never_negative(self, sim):
        cfg = tcp_config(receive_buffer=10_000)
        _, client, _ = make_tcp_pair(sim, MEDIUM, cfg=cfg)
        client._rcv_total = 50_000
        assert client._advertise_rwnd() == 0

    def test_sender_respects_peer_rwnd(self, sim):
        cfg = tcp_config(receive_buffer=40_000)
        _, client, server = make_tcp_pair(sim, emulated(100.0), cfg=cfg)
        tcp_download(sim, client, 500_000)
        # Outstanding unacked never exceeded the advertised window.
        assert server._snd_nxt - server._snd_una <= 40_000 + 1350


class TestSegmentPacking:
    def test_multiple_messages_share_a_segment(self, sim):
        _, client, server = make_tcp_pair(sim, MEDIUM)
        server.respond(1, 400)
        server.respond(2, 400)
        record = server._segmentize(1350)
        assert record is not None
        assert len(record.pieces) == 2
        assert record.length == 800

    def test_segment_respects_mss(self, sim):
        _, _client, server = make_tcp_pair(sim, MEDIUM)
        server.respond(1, 10_000)
        record = server._segmentize(1350)
        assert record.length == 1350

    def test_roundrobin_rotates_between_messages(self, sim):
        cfg = tcp_config(scheduler="roundrobin")
        _, _client, server = make_tcp_pair(sim, MEDIUM, cfg=cfg)
        server.respond(1, 5_000)
        server.respond(2, 5_000)
        first = server._segmentize(1350)
        second = server._segmentize(1350)
        assert first.pieces[0].msg_id != second.pieces[0].msg_id

    def test_fifo_finishes_first_message_first(self, sim):
        cfg = tcp_config(scheduler="fifo")
        _, _client, server = make_tcp_pair(sim, MEDIUM, cfg=cfg)
        m1 = server._enqueue_message(3_000, ("resp", 1, None))
        server.respond(2, 3_000)
        ids = []
        for _ in range(4):
            record = server._segmentize(1350)
            ids.extend(p.msg_id for p in record.pieces)
        assert ids[0] == m1 and ids[1] == m1 and ids[2] == m1

    @pytest.mark.parametrize("scheduler", ["round-robin", "FIFO", ""])
    def test_unknown_scheduler_is_refused(self, scheduler):
        """A misspelt name must not quietly run FIFO."""
        with pytest.raises(ValueError, match="'roundrobin' or 'fifo'"):
            tcp_config(scheduler=scheduler)

    def test_fin_flag_on_last_piece(self, sim):
        _, _client, server = make_tcp_pair(sim, MEDIUM)
        server.respond(1, 2_000)
        first = server._segmentize(1350)
        second = server._segmentize(1350)
        assert not first.pieces[-1].fin
        assert second.pieces[-1].fin


class TestSackScoreboard:
    def test_apply_sack_frees_flight_once(self, sim):
        _, _client, server = make_tcp_pair(sim, MEDIUM)
        server._ready = True
        server.respond(1, 5_000)
        record = server._segmentize(1350)
        server._transmit_record(record, retransmit=False)
        flight = server.bytes_in_flight
        assert server._apply_sack(record.seq, record.end) == record.length
        assert server.bytes_in_flight == flight - record.length
        # Applying the same SACK again frees nothing.
        assert server._apply_sack(record.seq, record.end) == 0

    def test_repeated_sack_blocks_cost_no_scoreboard_work(self, sim):
        """Every ACK during recovery repeats the blocks of the last one:
        500 ACKs of 3 old blocks + 1 new one cost one gaps() and one add()
        each, not 4 of both."""
        _, _client, server = make_tcp_pair(sim, MEDIUM)
        server._sacked = sacked = CountingRangeSet()
        blocks = [(1000 * i, 1000 * i + 500) for i in range(1, 3 + 500 + 1)]
        for block in blocks[:3]:
            server._apply_sack(*block)
        sacked.calls.clear()
        for newest in range(3, 3 + 500):
            server._on_ack_info(0.0, TcpSegment(
                server.conn_id, "ack", cum_ack=0, rwnd=100_000,
                sack_blocks=tuple(reversed(blocks[newest - 3:newest + 1]))))
        assert sacked.calls["gaps"] + sacked.calls["add"] <= 2 * 500
        assert sacked.ranges() == blocks
        assert server._highest_sacked == blocks[-1][1]


class TestSackBlockGeneration:
    def test_arrivals_inside_a_built_block_cost_no_bisect(self, sim):
        """Eight recent arrivals, all in one block above a hole: one
        bisect builds the block, the other seven reuse it."""
        _, client, _server = make_tcp_pair(sim, MEDIUM)
        client._rcv_ranges = received = CountingRangeSet()
        for seq in range(1000, 9000, 1000):
            received.add(seq, seq + 1000)
            client._recent_arrivals.appendleft(seq)
        received.calls.clear()
        assert client._sack_blocks() == [(1000, 9000)]
        assert received.calls["containing"] == 1

    def test_arrivals_below_the_frontier_cost_no_bisect(self, sim):
        _, client, _server = make_tcp_pair(sim, MEDIUM)
        client._rcv_ranges = received = CountingRangeSet()
        for seq in range(0, 6000, 1000):
            received.add(seq, seq + 1000)
            client._recent_arrivals.appendleft(seq)
        client._rcv_frontier = 6000
        received.add(8000, 9000)
        client._recent_arrivals.appendleft(8000)
        received.calls.clear()
        assert client._sack_blocks() == [(8000, 9000)]
        assert received.calls["containing"] == 1


class TestScoreboardTrim:
    """The SACK scoreboard keeps only the live window above snd_una."""

    def _pass_holes(self, sim, holes):
        """Send ``2 * holes + 8`` segments, SACK every other one of the
        first ``2 * holes``, then cumulatively ACK past all of them."""
        _, _client, server = make_tcp_pair(sim, MEDIUM)
        server._ready = True
        server._sacked = CountingRangeSet()
        count = 2 * holes + 8
        server.respond(1, 1000 * count)
        records = [server._segmentize(1000) for _ in range(count)]
        for record in records:
            server._transmit_record(record, retransmit=False)

        def ack(cum, *blocks):
            server._on_ack_info(0.0, TcpSegment(
                server.conn_id, "ack", cum_ack=cum, rwnd=10 ** 7,
                sack_blocks=blocks))

        for record in records[1:2 * holes:2]:
            ack(0, (record.seq, record.end))
        assert len(server._sacked) == holes
        ack(records[2 * holes].seq)
        return server, records, ack

    def test_cumulative_ack_trims_passed_ranges(self, sim):
        server, records, ack = self._pass_holes(sim, 50)
        assert not server._sacked
        # A reordered older ACK's blocks below snd_una do not come back.
        ack(0, (records[1].seq, records[1].end))
        assert not server._sacked

    def test_loss_scan_does_not_grow_with_passed_holes(self):
        """The same recovery after passing 5 or 300 holes: each
        _detect_losses call sees the same scoreboard and does the same
        scoreboard work."""
        seen = {}
        for holes in (5, 300):
            server, records, ack = self._pass_holes(Simulator(), holes)
            sacked = server._sacked
            sacked.calls.clear()
            sizes = []
            detect = server._detect_losses

            def counting_detect(now, newly_sacked):
                sizes.append(len(server._sacked))
                return detect(now, newly_sacked)

            server._detect_losses = counting_detect
            live = records[2 * holes:]
            for record in live[2:]:
                ack(live[0].seq, (record.seq, record.end))
            assert live[0].declared_lost and live[1].declared_lost
            seen[holes] = (sizes, dict(sacked.calls))
        assert seen[5] == seen[300]
        assert seen[5][0] == [1] * 6


class TestMessageFraming:
    def test_streaming_message_lifecycle(self, sim):
        _, _client, server = make_tcp_pair(sim, MEDIUM)
        mid = server.open_streaming_response(1)
        server.stream_append(mid, 1_000)
        record = server._segmentize(1350)
        assert record.length == 1_000
        assert not record.pieces[-1].fin
        server.stream_finish(mid)
        fin_record = server._segmentize(1350)
        assert fin_record.pieces[-1].fin

    def test_append_after_finish_rejected(self, sim):
        _, _client, server = make_tcp_pair(sim, MEDIUM)
        mid = server.open_streaming_response(1)
        server.stream_finish(mid)
        with pytest.raises((RuntimeError, KeyError)):
            server.stream_append(mid, 100)

    def test_finish_after_data_sent_adds_trailer(self, sim):
        _, _client, server = make_tcp_pair(sim, MEDIUM)
        mid = server.open_streaming_response(1)
        server.stream_append(mid, 500)
        server._segmentize(1350)  # drain the 500 bytes
        server.stream_finish(mid)
        trailer = server._segmentize(1350)
        assert trailer is not None
        assert trailer.length == 1
        assert trailer.pieces[-1].fin
