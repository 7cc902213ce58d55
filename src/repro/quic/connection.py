"""The QUIC connection: handshake, streams, ACKs, loss recovery, flow control.

One :class:`QuicConnection` class implements both roles; a client/server
pair is created by :func:`open_quic_pair`.  The mechanisms modelled —
each one the paper ties to a finding — are:

* **0-RTT connection establishment** (Fig. 7): with a cached server
  config the client's full CHLO and the first requests leave in the same
  flight; without it an inchoate CHLO/REJ round costs one extra RTT.
* **Independent stream delivery** (no transport HOL blocking).
* **Per-packet, unambiguous ACKs** with ack blocks and receiver-reported
  ack delay, feeding precise RTT and loss information to Cubic.
* **NACK-threshold loss detection** with TLP and RTO tail recovery.
* **Connection- and stream-level flow control** with Chromium's doubling
  auto-tune — the backpressure path that parks the server in
  ``ApplicationLimited`` when a slow (mobile) client cannot drain packets
  (Fig. 13).
* **Packet pacing** from the congestion controller's rate.
* **MSPC**: at most ``max_streams_per_connection`` concurrent requests.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..devices import PacketProcessor
from ..netem.node import Node
from ..netem.packet import Packet
from ..netem.sim import Simulator
from ..transport.base import ResponseCallback, TransportEndpoint
from ..transport.cc.bbr import BBR
from ..transport.cc.cubic import CubicCC
from ..transport.cc.interface import CongestionController
from ..transport.cc.pacing import Pacer
from ..transport.util import RangeSet
from .config import QuicConfig
from .frames import (
    AckFrame,
    CryptoFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    QuicPacket,
    StreamFrame,
)
from .fec import FecDecoder, FecEncoder, FecFrame
from .loss import LossDetector, SentPacketRecord
from .streams import RecvStream, SendStream

#: Wire size of a typical HTTP request head on a stream.
DEFAULT_REQUEST_BYTES = 300
#: Smallest stream chunk worth packing into a packet.
MIN_CHUNK = 32


class QuicStats:
    """Per-connection counters used by tests and root-cause analysis."""

    def __init__(self) -> None:
        self.packets_sent = 0
        self.bytes_sent = 0
        self.data_packets_sent = 0
        self.retransmitted_ranges = 0
        self.acks_sent = 0
        self.packets_received = 0
        self.duplicate_bytes = 0
        self.tlp_probes = 0
        self.rto_fires = 0
        self.flow_blocked_events = 0
        self.app_limited_events = 0


class QuicConnection(TransportEndpoint):
    """One endpoint of a QUIC connection (client or server role)."""

    protocol = "quic"
    stats_type = QuicStats
    ack_delay_field = "ack_delay_timer"

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        conn_id: str,
        peer_addr: str,
        config: QuicConfig,
        role: str,
        *,
        session_cache: Optional["SessionCache"] = None,
        **endpoint_kwargs: Any,
    ) -> None:
        super().__init__(sim, node, conn_id, peer_addr, config, role,
                         **endpoint_kwargs)
        if config.use_bbr:
            self.cc: CongestionController = BBR(self.rtt, mss=config.mss,
                                                trace=self.trace)
        else:
            self.cc = CubicCC(config.cc, self.rtt, trace=self.trace)
            # Receiver-advertised buffer initialises ssthresh (Sec. 4.1).
            self.cc.on_receiver_buffer(config.conn_flow_window_cap)
        self.pacer = Pacer()
        self.loss_detector = LossDetector(config, self.trace)
        self.fec_encoder = (FecEncoder(config.fec_group_size)
                            if config.fec_enabled else None)
        self.fec_decoder = FecDecoder() if config.fec_enabled else None

        # --- send state ---------------------------------------------------
        self._next_pkt_num = 1
        self.sent: Dict[int, SentPacketRecord] = {}
        self.send_streams: Dict[int, SendStream] = {}
        self._send_rr: Deque[int] = deque()
        self._crypto_out: Deque[CryptoFrame] = deque()
        self._control_out: Deque[Any] = deque()
        self._peer_conn_limit = config.conn_flow_window
        self._conn_new_bytes_sent = 0
        self._largest_acked = 0
        self._peer_acked = RangeSet()
        #: The blocks of the last ACK frame processed, all in _peer_acked.
        self._last_ack_blocks: Tuple[Tuple[int, int], ...] = ()
        self._ack_floor = 1
        self._recovery_marker: Optional[int] = None
        self._retx_timer = sim.timer(self._retx_timer_fired)
        self._loss_recheck_timer = sim.timer(self._loss_recheck)

        # --- receive state --------------------------------------------------
        self.recv_streams: Dict[int, RecvStream] = {}
        self._received_nums = RangeSet()
        self._largest_received = 0
        self._largest_received_at = 0.0
        self._ack_pending = 0
        self._ack_timer = sim.timer(self._ack_timer_fired)
        self._timers = (self._retx_timer, self._ack_timer,
                        self._loss_recheck_timer)
        self._reorder_seen = False
        self._conn_bytes_consumed = 0
        self._conn_granted = config.conn_flow_window
        self._conn_window = config.conn_flow_window
        self._last_conn_update = 0.0
        self._stream_windows: Dict[int, int] = {}
        self._processor = PacketProcessor(
            sim,
            self.device.packet_cost("quic"),
            self._process_packet,
            rng=random.Random(self.rng.randrange(1 << 30)),
        )
        #: Stage 2: decrypt + stream consumption; gates flow-control
        #: credit and response completion (Sec. 5.2's mobile root cause).
        self._consumer = PacketProcessor(
            sim,
            self.device.quic_consume_cost,
            self._consume_item,
            rng=random.Random(self.rng.randrange(1 << 30)),
        )

        # --- handshake state ------------------------------------------------
        self._handshake_state = "idle"  # idle|waiting_rej|ready
        #: Optional client-side 0-RTT session store (repro.quic.sessions).
        self.session_cache = session_cache
        self._app_data_allowed = role == "server"
        self._server_ready_at: Optional[float] = None
        self._pending_serve: List[Tuple[int, Any]] = []

        # --- application state ------------------------------------------------
        # Client-initiated streams are odd, server-initiated even.
        self._next_stream_id = 1 if role == "client" else 2
        self._active_requests = 0
        self._request_queue: Deque[Tuple[Any, ResponseCallback, int]] = deque()
        # Received packets enter stage 1 through the device's packet CPU
        # (on a zero-cost device its ``submit`` is ``_process_packet``).
        self.listen(self._processor.submit)

    # ==================================================================
    # public API
    # ==================================================================
    def connect(self, on_ready: Optional[Callable[[float], None]] = None) -> None:
        """Start the handshake (client only).

        0-RTT is attempted when the configuration allows it and, if a
        :class:`~repro.quic.sessions.SessionCache` is attached, the cache
        holds a config for this server (a cold first contact pays the
        REJ round and populates the cache).
        """
        if self.role != "client":
            raise RuntimeError("only clients connect()")
        if self._handshake_state != "idle":
            return
        self.on_ready = on_ready
        zero_rtt = self.config.zero_rtt
        if zero_rtt and self.session_cache is not None:
            zero_rtt = self.session_cache.has_config(self.peer_addr,
                                                     self.sim.now)
        if zero_rtt:
            # Cached server config: full CHLO + 0-RTT data immediately.
            self._enqueue_crypto("chlo", self.config.chlo_bytes)
            self._handshake_state = "ready"
            self._app_data_allowed = True
            self.handshake_ready_time = self.sim.now
            if on_ready is not None:
                self.sim.post(0.0, on_ready, self.sim.now)
        else:
            self._enqueue_crypto("inchoate_chlo", self.config.inchoate_chlo_bytes)
            self._handshake_state = "waiting_rej"
        self._wake_sender()

    def request(self, meta: Any, on_complete: ResponseCallback,
                request_bytes: int = DEFAULT_REQUEST_BYTES) -> None:
        """Issue one request; ``on_complete(stream_id, meta, now)`` fires
        when the full response has been received *and processed*."""
        if self.role != "client":
            raise RuntimeError("only clients issue requests")
        self._request_queue.append((meta, on_complete, request_bytes))
        self._drain_request_queue()

    # -- streaming responses (proxy / deferred-server support) ----------
    def open_streaming_response(self, stream_id: int, meta: Any = None) -> int:
        """Begin a response whose length is not yet known (proxy
        pass-through); returns the handle :meth:`stream_append` and
        :meth:`stream_finish` take — the stream id itself."""
        stream = SendStream(stream_id, 0, self.config.stream_flow_window,
                            meta=meta, finalized=False)
        self.send_streams[stream_id] = stream
        self._send_rr.append(stream_id)
        return stream_id

    def stream_append(self, stream_id: int, nbytes: int) -> None:
        """Append bytes to a streaming response as they become available."""
        stream = self.send_streams.get(stream_id)
        if stream is None:
            raise KeyError(f"no open send stream {stream_id}")
        stream.append(nbytes)
        self._wake_sender()

    def stream_finish(self, stream_id: int) -> None:
        """Mark a streaming response complete; the FIN will be sent."""
        stream = self.send_streams.get(stream_id)
        if stream is None:
            return
        stream.finish()
        self._wake_sender()

    # ==================================================================
    # request plumbing
    # ==================================================================
    def _enqueue_crypto(self, kind: str, size: int) -> None:
        """Queue a handshake message, fragmented to fit in packets.

        Only the final fragment carries the semantic ``kind``; leading
        fragments use ``kind + ":frag"`` which the peer ignores (it acts
        once the message is complete, like reassembling a real REJ).
        """
        budget = self.config.mss - 64
        while size > budget:
            self._crypto_out.append(CryptoFrame(kind + ":frag", budget))
            size -= budget
        self._crypto_out.append(CryptoFrame(kind, size))

    def _drain_request_queue(self) -> None:
        while (
            self._request_queue
            and self._active_requests < self.config.max_streams_per_connection
            and self._app_data_allowed
        ):
            meta, cb, req_bytes = self._request_queue.popleft()
            sid = self._alloc_stream_id()
            self._active_requests += 1
            self._response_cbs[sid] = cb
            self._open_send_stream(sid, req_bytes, meta)

    def _alloc_stream_id(self) -> int:
        sid = self._next_stream_id
        self._next_stream_id += 2
        return sid

    def _open_send_stream(self, sid: int, total_bytes: int, meta: Any) -> None:
        stream = SendStream(sid, total_bytes, self.config.stream_flow_window,
                            meta=meta)
        self.send_streams[sid] = stream
        self._send_rr.append(sid)
        self._wake_sender()

    # ==================================================================
    # send path
    # ==================================================================
    def _send_loop(self) -> None:
        self._send_scheduled = False
        if self.closed:
            return
        sent_something = False
        while True:
            budget = self.cc.can_send_bytes(self.bytes_in_flight)
            if budget < MIN_CHUNK:
                break
            packet = self._build_packet(min(budget, self.config.mss))
            if packet is None:
                break
            self._commit_packet(packet, arm_timer=False)
            sent_something = True
        if not sent_something:
            self._maybe_signal_app_limited()
        else:
            # One timer arming per burst: sim time does not advance inside
            # the loop, so this deadline equals the last per-packet one.
            self._set_retx_timer()
        # A pure-ACK obligation may remain even when cc is blocked.
        if self._ack_pending and not self._ack_timer.armed:
            self._arm_ack_timer()

    def _has_stream_data(self) -> bool:
        # Plain loop, not any(genexpr): the generator frame is a call per
        # stream, and a page load keeps up to a hundred streams open.
        for stream in self.send_streams.values():
            if stream.has_data_to_send:
                return True
        return False

    def _maybe_signal_app_limited(self) -> None:
        """Tell the CC the window is not being utilised (Table 3 semantics)."""
        if not self._sent_any_data:
            return
        if self.bytes_in_flight >= self.cc.cwnd:
            return
        if self._has_stream_data():
            # Data exists but could not be packed: flow-control blocked.
            self.stats.flow_blocked_events += 1
        self.stats.app_limited_events += 1
        self.cc.on_application_limited(self.sim.now)

    def _conn_credit(self) -> int:
        return max(self._peer_conn_limit - self._conn_new_bytes_sent, 0)

    def _build_packet(self, space: int) -> Optional[QuicPacket]:
        """Assemble at most ``space`` payload bytes of frames, or None."""
        frames: List[Any] = []
        carries_data = False
        # Piggyback an ACK when one is owed (only when it surely fits —
        # building the frame clears the pending-ack state, so a dropped
        # frame would silently lose the acknowledgment).
        max_ack_bytes = 16 + 8 * self.config.max_ack_blocks
        if self._ack_pending and space >= max_ack_bytes:
            ack = self._make_ack_frame()
            if ack is not None:
                frames.append(ack)
                space -= ack.wire_bytes
        # Window updates.
        while self._control_out and self._control_out[0].wire_bytes <= space:
            frame = self._control_out.popleft()
            frames.append(frame)
            space -= frame.wire_bytes
            carries_data = True
        # Handshake messages.
        while self._crypto_out and self._crypto_out[0].size <= space:
            frame = self._crypto_out.popleft()
            frames.append(frame)
            space -= frame.wire_bytes
            carries_data = True
        # Stream data, round-robin across sendable streams.
        if self._app_data_allowed:
            carries_data |= self._pack_stream_frames(frames, space)
        if not carries_data:
            return None
        packet = QuicPacket(self.conn_id, self._next_pkt_num, frames)
        self._next_pkt_num += 1
        return packet

    def _pack_stream_frames(self, frames: List[Any], space: int) -> bool:
        packed = False
        tried = 0
        n_streams = len(self._send_rr)
        while space > MIN_CHUNK and tried < n_streams:
            if not self._send_rr:
                break
            sid = self._send_rr[0]
            stream = self.send_streams.get(sid)
            if stream is None or not stream.has_data_to_send:
                self._send_rr.rotate(-1)
                tried += 1
                continue
            conn_credit = self._conn_credit()
            max_payload = space - 12  # STREAM_FRAME_OVERHEAD
            old_max = stream.max_offset_sent
            # Retransmissions are not conn-flow-charged; new data is
            # limited by the connection credit.
            chunk = stream.next_chunk(max_payload, new_data_limit=conn_credit)
            if chunk is None:
                self._send_rr.rotate(-1)
                tried += 1
                continue
            offset, length, fin, meta = chunk
            new_bytes = max(stream.max_offset_sent - old_max, 0)
            self._conn_new_bytes_sent += new_bytes
            frame = StreamFrame(sid, offset, length, fin, meta)
            frames.append(frame)
            space -= frame.wire_bytes
            packed = True
            tried = 0
            self._send_rr.rotate(-1)
        return packed

    def _commit_packet(self, packet: QuicPacket, *, probe: bool = False,
                       arm_timer: bool = True) -> None:
        size = packet.payload_bytes
        now = self.sim.now
        if packet.retransmittable:
            record = SentPacketRecord(packet.pkt_num, now, size,
                                      frames=list(packet.frames), is_probe=probe)
            self.sent[packet.pkt_num] = record
            self.bytes_in_flight += size
            if not self._sent_any_data and any(
                isinstance(f, StreamFrame) for f in packet.frames
            ):
                self._sent_any_data = True
                self.cc.on_connection_start(now)
            self.cc.on_packet_sent(now, size, probe)
            self.stats.data_packets_sent += 1
            if self.fec_encoder is not None and not probe:
                fec = self.fec_encoder.on_packet_sent(
                    packet.pkt_num, packet.frames, size)
                if fec is not None:
                    fec_packet = QuicPacket(self.conn_id, self._next_pkt_num,
                                            [FecFrame(fec)])
                    self._next_pkt_num += 1
                    # FEC packets are paced, tracked and cwnd-charged like
                    # data (GQUIC numbered and acked them); their loss is
                    # simply absorbed (no frames to retransmit).
                    self._commit_packet(fec_packet, arm_timer=arm_timer)
        release = self.pacer.release_time(now, size, self.cc.pacing_rate())
        if release <= now:
            self._emit_packet(packet)
        else:
            self.sim.post_at(release, self._emit_packet, packet)
        if arm_timer:
            self._set_retx_timer()

    def _emit_packet(self, packet: QuicPacket) -> None:
        record = self.sent.get(packet.pkt_num)
        if record is not None:
            record.sent_time = self.sim.now
        self.stats.packets_sent += 1
        self.stats.bytes_sent += packet.payload_bytes
        self.emit(packet, packet.payload_bytes)

    # ==================================================================
    # receive path
    # ==================================================================
    def _process_packet(self, packet: Packet) -> None:
        qp: QuicPacket = packet.payload
        now = self.sim.now
        self.stats.packets_received += 1
        self._record_received(now, qp.pkt_num, qp.retransmittable)
        for frame in qp.frames:
            if isinstance(frame, StreamFrame):
                self._on_stream_frame(now, frame)
            elif isinstance(frame, AckFrame):
                self._on_ack_frame(now, frame)
            elif isinstance(frame, CryptoFrame):
                self._on_crypto_frame(now, frame)
            elif isinstance(frame, MaxDataFrame):
                if frame.max_data > self._peer_conn_limit:
                    self._peer_conn_limit = frame.max_data
                    self._wake_sender()
            elif isinstance(frame, MaxStreamDataFrame):
                stream = self.send_streams.get(frame.stream_id)
                if stream is not None and frame.max_data > stream.flow_limit:
                    stream.flow_limit = frame.max_data
                    self._wake_sender()
            elif isinstance(frame, FecFrame) and self.fec_decoder is not None:
                self._on_fec_frame(now, frame)
        if qp.retransmittable:
            self._maybe_send_ack(now)

    def _on_fec_frame(self, now: float, frame: FecFrame) -> None:
        """Attempt single-loss revival from an XOR FEC packet."""
        revived = self.fec_decoder.on_fec_packet(frame.payload,
                                                 self._received_nums)
        if revived is None:
            return
        pkt_num, frames = revived
        # The revived packet is acknowledged as if received (GQUIC).
        self._record_received(now, pkt_num, ack_eliciting=True)
        for stream_frame in frames:
            self._on_stream_frame(now, stream_frame)
        self._maybe_send_ack(now)

    def _record_received(self, now: float, pkt_num: int,
                         ack_eliciting: bool) -> None:
        """Record a received retransmittable packet number.

        GQUIC acknowledged only retransmittable packets; pure-ACK packets
        are not recorded here (the sender pre-marks its own ACK-only
        numbers as not-awaiting-acknowledgement instead).
        """
        if not ack_eliciting:
            return
        if pkt_num > self._largest_received:
            self._largest_received = pkt_num
            self._largest_received_at = now
        else:
            self._reorder_seen = True
        self._received_nums.add(pkt_num, pkt_num + 1)
        self._ack_pending += 1

    # ------------------------------------------------------------------
    # ACK generation
    # ------------------------------------------------------------------
    def _maybe_send_ack(self, now: float) -> None:
        if self._ack_pending >= self.config.ack_every_n or self._reorder_seen:
            self._send_ack_now()
        elif not self._ack_timer.armed:
            self._arm_ack_timer()

    def _arm_ack_timer(self) -> None:
        self._ack_timer.arm(self.config.ack_delay_timer)

    def _ack_timer_fired(self) -> None:
        if self._ack_pending:
            self._send_ack_now()

    def _send_ack_now(self) -> None:
        ack = self._make_ack_frame()
        if ack is None:
            return
        frames: List[Any] = [ack]
        while self._control_out:
            frames.append(self._control_out.popleft())
        packet = QuicPacket(self.conn_id, self._next_pkt_num, frames)
        self._next_pkt_num += 1
        if packet.retransmittable:
            # Window updates ride along: track for loss recovery.
            self._commit_packet(packet)
        else:
            # Pure ACK: the peer will never acknowledge this number, so
            # pre-mark it as resolved (it must not look like a loss hole).
            self._peer_acked.add(packet.pkt_num, packet.pkt_num + 1)
            self.stats.acks_sent += 1
            self._emit_packet(packet)

    def _make_ack_frame(self) -> Optional[AckFrame]:
        if not self._received_nums:
            return None
        ranges = self._received_nums.tail(self.config.max_ack_blocks)
        # A list comprehension is one call; a generator is one per block.
        blocks = tuple([(lo, hi - 1) for lo, hi in reversed(ranges)])
        ack_delay = self.sim.now - self._largest_received_at
        self._ack_pending = 0
        self._reorder_seen = False
        self._ack_timer.cancel()
        return AckFrame(self._largest_received, ack_delay, blocks)

    # ------------------------------------------------------------------
    # ACK processing (sender side)
    # ------------------------------------------------------------------
    def _on_ack_frame(self, now: float, ack: AckFrame) -> None:
        was_cwnd_limited = (
            self.bytes_in_flight >= self.cc.cwnd - self.config.mss
        )
        newly_acked: List[int] = []
        acked_bytes = 0
        largest_newly: Optional[SentPacketRecord] = None
        # Only numbers not already covered by earlier ACKs are new.  A
        # frame repeats up to max_ack_blocks blocks of the one before, and
        # every block of a processed frame is in _peer_acked (which never
        # shrinks): walk the new head blocks and stop where the rest
        # repeats, so per-ACK work follows the new numbers.
        peer_acked = self._peer_acked
        blocks = ack.blocks
        last = self._last_ack_blocks
        self._last_ack_blocks = blocks
        for index, block in enumerate(blocks):
            if block in last:
                at = last.index(block)
                if blocks[index:] == last[at:at + len(blocks) - index]:
                    break
                continue
            lo, hi = block
            for gap_lo, gap_hi in peer_acked.gaps(lo, hi + 1):
                for pkt_num in range(gap_lo, gap_hi):
                    record = self.sent.pop(pkt_num, None)
                    if record is None:
                        spurious = self.loss_detector.note_ack_of_lost(
                            now, pkt_num, ack.largest_acked
                        )
                        if spurious is not None:
                            newly_acked.append(pkt_num)
                        continue
                    newly_acked.append(pkt_num)
                    acked_bytes += record.size_bytes
                    self.bytes_in_flight -= record.size_bytes
                    if largest_newly is None or pkt_num > largest_newly.pkt_num:
                        largest_newly = record
                    self._on_frames_acked(record)
            peer_acked.add(lo, hi + 1)
        if ack.largest_acked > self._largest_acked:
            self._largest_acked = ack.largest_acked
        if not newly_acked:
            return
        # Probe/RTO state resolution.
        if self._tlp_count or self._rto_count:
            self._tlp_count = 0
            self._rto_count = 0
            self.cc.on_tlp_resolved(now)
            self.cc.on_rto_resolved(now)
        # Unambiguous RTT sample from the largest newly acked packet.
        if largest_newly is not None and largest_newly.pkt_num == ack.largest_acked:
            sample = now - largest_newly.sent_time
            self.rtt.on_sample(sample, now, ack_delay=ack.ack_delay)
            if self.rtt.latest is not None:
                self.cc.on_rtt_sample(now, self.rtt.latest)
        # Loss detection: holes are unacked numbers below the largest
        # acked — few, because ranges merge as retransmissions land.
        newly_acked.sort()
        missing = self._missing_below(self._largest_acked)
        lost = self.loss_detector.detect(
            now, self.sent, missing, newly_acked, self._largest_acked,
            self.rtt.smoothed_rtt,
        )
        if lost:
            self._on_packets_lost(now, lost)
        self._schedule_loss_recheck()
        # Recovery exit: a packet sent after the loss was acked.
        if self.cc.in_recovery and self._recovery_marker is not None:
            if self._largest_acked >= self._recovery_marker:
                self.cc.on_recovery_exit(now)
                self._recovery_marker = None
        if acked_bytes:
            cwnd_limited = was_cwnd_limited or bool(self.sent)
            self.cc.on_ack(now, acked_bytes, cwnd_limited=cwnd_limited)
        self._set_retx_timer()
        self._wake_sender()

    def _schedule_loss_recheck(self) -> None:
        """Time-based loss detection: re-run when a deferral matures."""
        eligible = self.loss_detector.next_eligible_time
        if eligible is None or self._loss_recheck_timer.armed:
            return
        self._loss_recheck_timer.arm(max(eligible - self.sim.now, 0.0))

    def _loss_recheck(self) -> None:
        if self.closed:
            return
        now = self.sim.now
        missing = self._missing_below(self._largest_acked)
        lost = self.loss_detector.detect(
            now, self.sent, missing, [], self._largest_acked,
            self.rtt.smoothed_rtt,
        )
        if lost:
            self._on_packets_lost(now, lost)
        self._schedule_loss_recheck()

    def _missing_below(self, largest_acked: int) -> List[int]:
        """Unacked (by the peer) packet numbers below ``largest_acked``.

        These are the holes in the peer's ack ranges — the candidates for
        NACK-threshold loss declaration.  Numbers of packets already
        declared lost stay holes until retransmissions cover new numbers;
        they are filtered out via the ``sent`` map by the detector.
        """
        live: List[int] = []
        first_live: Optional[int] = None
        for gap_lo, gap_hi in self._peer_acked.gaps(self._ack_floor, largest_acked):
            for num in range(gap_lo, gap_hi):
                if num in self.sent:
                    live.append(num)
                    if first_live is None:
                        first_live = num
            if len(live) > 8192:  # safety valve
                break
        # Advance the floor past dead holes (declared-lost numbers are
        # never re-sent, so gaps below the first live hole stay dead).
        self._ack_floor = first_live if first_live is not None else largest_acked
        return live

    def _on_frames_acked(self, record: SentPacketRecord) -> None:
        for frame in record.frames:
            if not isinstance(frame, StreamFrame):
                continue
            stream = self.send_streams.get(frame.stream_id)
            if stream is not None:
                stream.on_range_acked(frame.offset, frame.length, frame.fin)
                if stream.fully_acked:
                    self._retire_send_stream(frame.stream_id)

    def _retire_send_stream(self, sid: int) -> None:
        self.send_streams.pop(sid, None)
        try:
            self._send_rr.remove(sid)
        except ValueError:
            pass

    def _on_packets_lost(self, now: float, lost: List[SentPacketRecord]) -> None:
        congestion = False
        for record in lost:
            self.bytes_in_flight -= record.size_bytes
            self.stats.retransmitted_ranges += 1
            for frame in record.frames:
                if isinstance(frame, StreamFrame):
                    stream = self.send_streams.get(frame.stream_id)
                    if stream is not None:
                        stream.on_range_lost(frame.offset, frame.length, frame.fin)
                elif isinstance(frame, (CryptoFrame, MaxDataFrame, MaxStreamDataFrame)):
                    self._requeue_control(frame)
            if self._recovery_marker is None or record.pkt_num >= self._recovery_marker:
                congestion = True
        if congestion:
            self.cc.on_congestion_event(now, self.bytes_in_flight)
            self._recovery_marker = self._next_pkt_num
        self._wake_sender()

    def _requeue_control(self, frame: Any) -> None:
        if isinstance(frame, CryptoFrame):
            self._crypto_out.appendleft(frame)
        else:
            self._control_out.append(frame)

    # ------------------------------------------------------------------
    # retransmission timers: TLP then RTO (paper Sec. 2.1)
    # ------------------------------------------------------------------
    def _retx_timer_fired(self, kind: str) -> None:
        if self.bytes_in_flight <= 0 or self.closed:
            return
        now = self.sim.now
        if kind == "tlp":
            self._tlp_count += 1
            self.stats.tlp_probes += 1
            self.trace.log(now, "tlp")
            self.cc.on_tail_loss_probe(now)
            newest = max(self.sent, default=None)
            if newest is not None:
                self._send_probe_for(self.sent[newest])
        else:
            self._rto_count += 1
            self.stats.rto_fires += 1
            self.trace.log(now, "rto")
            self.cc.on_retransmission_timeout(now)
            probes = 0
            for pkt_num in sorted(self.sent):
                if probes >= 2:
                    break
                if self._send_probe_for(self.sent[pkt_num]):
                    probes += 1
        self._set_retx_timer()

    def _send_probe_for(self, record: SentPacketRecord) -> bool:
        """Retransmit a packet's frames immediately, bypassing cc gating.

        Returns True if a probe was sent.  A record whose data has since
        been acknowledged through other copies is a zombie: it is retired
        (removed from the sent map, its bytes freed) instead of probed.
        """
        frames: List[Any] = []
        for frame in record.frames:
            if isinstance(frame, StreamFrame):
                stream = self.send_streams.get(frame.stream_id)
                if stream is None:
                    continue
                if frame.length and stream.acked.covers(frame.offset, frame.end()):
                    continue
                frames.append(StreamFrame(frame.stream_id, frame.offset,
                                          frame.length, frame.fin, frame.meta))
            elif not isinstance(frame, FecFrame):
                frames.append(frame)
        if not frames:
            if self.sent.pop(record.pkt_num, None) is not None:
                self.bytes_in_flight -= record.size_bytes
            return False
        packet = QuicPacket(self.conn_id, self._next_pkt_num, frames)
        self._next_pkt_num += 1
        self._commit_packet(packet, probe=True)
        return True

    # ------------------------------------------------------------------
    # stream frame handling (receiver side)
    # ------------------------------------------------------------------
    def _on_stream_frame(self, now: float, frame: StreamFrame) -> None:
        """Stage 1: reassemble; hand new bytes to the consume stage."""
        stream = self.recv_streams.get(frame.stream_id)
        if stream is None:
            stream = RecvStream(frame.stream_id, self.config.stream_flow_window)
            self.recv_streams[frame.stream_id] = stream
        new_bytes = stream.on_frame(now, frame.offset, frame.length, frame.fin,
                                    frame.meta)
        if new_bytes < frame.length:
            self.stats.duplicate_bytes += frame.length - new_bytes
        if new_bytes or (stream.complete and not stream.consumed_complete):
            # Zero-byte items still pass through the consumer so a bare
            # FIN arriving after the data triggers the completion check.
            self._consumer.submit((stream, new_bytes))

    def _consume_item(self, item: Tuple[RecvStream, int]) -> None:
        """Stage 2: userspace decrypt/consume — returns flow credit."""
        stream, new_bytes = item
        now = self.sim.now
        if new_bytes:
            stream.consumed += new_bytes
            self._conn_bytes_consumed += new_bytes
            self._delivered_app_bytes += new_bytes
            self.delivery_log.append((now, self._delivered_app_bytes))
            self._maybe_grant_conn_window(now)
            self._maybe_grant_stream_window(now, stream)
            if self.on_progress is not None:
                self.on_progress(stream.stream_id, new_bytes, stream.meta)
        if (
            not stream.consumed_complete
            and stream.fin_offset is not None
            and stream.consumed >= stream.fin_offset
            and stream.complete
        ):
            stream.consumed_complete = True
            self._on_stream_complete(now, stream)

    def _maybe_grant_conn_window(self, now: float) -> None:
        remaining = self._conn_granted - self._conn_bytes_consumed
        if remaining > self._conn_window / 2:
            return
        # Chromium auto-tune: frequent updates mean the window is too
        # small for the path's BDP; double it up to the cap.
        if (
            now - self._last_conn_update < 2.0 * self.rtt.smoothed_rtt
            and self._conn_window < self.config.conn_flow_window_cap
        ):
            self._conn_window = min(self._conn_window * 2,
                                    self.config.conn_flow_window_cap)
        self._last_conn_update = now
        self._conn_granted = self._conn_bytes_consumed + self._conn_window
        self._control_out.append(MaxDataFrame(self._conn_granted))
        self._schedule_control_flush()

    def _maybe_grant_stream_window(self, now: float, stream: RecvStream) -> None:
        if stream.consumed_complete or stream.complete:
            return
        consumed = stream.consumed
        remaining = stream.granted - consumed
        if remaining > stream.window / 2:
            return
        if stream.window < self.config.stream_flow_window_cap:
            stream.window = min(stream.window * 2,
                                self.config.stream_flow_window_cap)
        stream.granted = consumed + stream.window
        self._control_out.append(MaxStreamDataFrame(stream.stream_id,
                                                    stream.granted))
        self._schedule_control_flush()

    def _schedule_control_flush(self) -> None:
        """Window updates must go out promptly even without data to send."""
        self.sim.post(0.0, self._flush_control)

    def _flush_control(self) -> None:
        if not self._control_out or self.closed:
            return
        if self._received_nums:
            self._send_ack_now()
        else:
            self._send_bare_control()

    def _send_bare_control(self) -> None:
        frames = list(self._control_out)
        self._control_out.clear()
        packet = QuicPacket(self.conn_id, self._next_pkt_num, frames)
        self._next_pkt_num += 1
        self._commit_packet(packet)

    def _on_stream_complete(self, now: float, stream: RecvStream) -> None:
        if self.role == "server":
            self._handle_request(now, stream)
        else:
            cb = self._response_cbs.pop(stream.stream_id, None)
            if cb is not None:
                self._active_requests -= 1
                cb(stream.stream_id, stream.meta, now)
                self._drain_request_queue()

    # ------------------------------------------------------------------
    # server application
    # ------------------------------------------------------------------
    def _handle_request(self, now: float, stream: RecvStream) -> None:
        if self.request_handler is None and self.on_request is None:
            return
        if self._server_ready_at is None:
            # 0-RTT data arrived before the CHLO finished processing.
            self._pending_serve.append((stream.stream_id, stream.meta))
            return
        delay = self.rng.uniform(0.0, self.server_noise)
        self.sim.post(delay, self._serve, stream.stream_id, stream.meta)

    def _serve(self, stream_id: int, meta: Any) -> None:
        if self.on_request is not None:
            # Deferred application (proxy): it answers via respond() or
            # open_streaming_response().
            self.on_request(stream_id, meta)
            return
        size = self.request_handler(meta)
        if size is None:
            # Deferred response: the application (e.g. a proxy) will call
            # open_streaming_response / respond() itself.
            return
        self._open_send_stream(stream_id, size, meta)

    def respond(self, stream_id: int, size: int, meta: Any = None) -> None:
        """Deferred-response API: serve ``size`` bytes on ``stream_id``."""
        self._open_send_stream(stream_id, size, meta)

    # ------------------------------------------------------------------
    # handshake frames
    # ------------------------------------------------------------------
    def _on_crypto_frame(self, now: float, frame: CryptoFrame) -> None:
        if frame.kind.endswith(":frag"):
            return  # leading fragment; act on the final piece only
        if frame.kind == "connection_close":
            # Peer tore the connection down: stop quietly.
            self.close(notify_peer=False)
            return
        if self.role == "server":
            if frame.kind == "inchoate_chlo":
                self.sim.post(
                    self.device.crypto_setup_cost, self._server_send_rej
                )
            elif frame.kind == "chlo":
                self.sim.post(
                    self.device.crypto_setup_cost, self._server_handshake_done
                )
        else:
            if frame.kind == "rej":
                if self.session_cache is not None:
                    # The REJ carries the server config: the next
                    # connection to this server can use 0-RTT.
                    self.session_cache.store(self.peer_addr, now)
                self._enqueue_crypto("chlo", self.config.chlo_bytes)
                self._handshake_state = "ready"
                self._app_data_allowed = True
                self.handshake_ready_time = now
                if self.on_ready is not None:
                    self.on_ready(now)
                self._drain_request_queue()
                self._wake_sender()
            elif frame.kind == "shlo":
                if self.session_cache is not None:
                    self.session_cache.store(self.peer_addr, now)

    def _server_send_rej(self) -> None:
        self._enqueue_crypto("rej", self.config.rej_bytes)
        self._wake_sender()

    def _server_handshake_done(self) -> None:
        if self._server_ready_at is not None:
            return
        self._server_ready_at = self.sim.now
        self._enqueue_crypto("shlo", self.config.shlo_bytes)
        for stream_id, meta in self._pending_serve:
            delay = self.rng.uniform(0.0, self.server_noise)
            self.sim.post(delay, self._serve, stream_id, meta)
        self._pending_serve.clear()
        self._wake_sender()

    # ------------------------------------------------------------------
    def _send_close(self) -> None:
        """A CONNECTION_CLOSE-style frame, never acknowledged."""
        frame = CryptoFrame("connection_close", 32)
        packet = QuicPacket(self.conn_id, self._next_pkt_num, [frame])
        self._next_pkt_num += 1
        self._peer_acked.add(packet.pkt_num, packet.pkt_num + 1)
        self._emit_packet(packet)


#: A connected client/server QUIC pair (``session_cache`` goes to the
#: client): :meth:`TransportEndpoint.open_pair`.
open_quic_pair = QuicConnection.open_pair
