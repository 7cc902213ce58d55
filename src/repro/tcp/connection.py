"""TCP connection with TLS handshake and HTTP/2-style message framing.

This is the paper's baseline stack ("TCP" = HTTP/2 + TLS + Linux TCP
Cubic).  The behaviours the paper contrasts with QUIC are modelled
exactly:

* **3 RTTs before the first request byte** (TCP handshake + 2-RTT TLS).
* **One ordered byte stream**: application messages (HTTP/2 frames) are
  multiplexed into a single sequence space; a loss anywhere blocks
  delivery of *every* later byte until repaired — transport-level
  head-of-line blocking.
* **Cumulative ACK + SACK with delayed ACKs**: fewer, coarser RTT
  samples; Karn's rule forbids samples from retransmitted segments (ACK
  ambiguity).
* **FACK-style fast retransmit with DSACK adaptation** (RR-TCP): a
  duplicate arrival tells the sender its retransmit was spurious and the
  duplicate threshold rises to the observed reordering depth — why TCP
  tolerates the reordering that breaks QUIC (Fig. 10).
* **RTO with backoff**, marking outstanding data lost (Linux behaviour).

The congestion controller is the same :class:`CubicCC` class QUIC uses,
configured Linux-style (IW10, N=1, no pacing, no MACW), so performance
differences between the protocols come from how the transports *drive*
Cubic — the paper's central methodological point.
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
from ..transport.cc.cubic import CubicCC
from ..transport.util import RangeSet
from .config import TcpConfig
from .segment import Piece, SegmentRecord, TcpSegment

#: Handshake retry timer (initial; doubles).
HANDSHAKE_RTO = 1.0
#: Wire size of a request message head.
DEFAULT_REQUEST_BYTES = 300


class TcpStats:
    """Per-connection counters for tests and root-cause analysis."""

    def __init__(self) -> None:
        self.segments_sent = 0
        self.bytes_sent = 0
        self.acks_sent = 0
        self.retransmits = 0
        self.spurious_retransmits = 0
        self.rto_fires = 0
        self.dsacks_sent = 0
        self.segments_received = 0
        self.duplicate_segments = 0


class _OutMessage:
    """Sender-side application message (one HTTP/2 frame sequence)."""

    __slots__ = ("msg_id", "total", "remaining", "meta", "first_piece_sent",
                 "finalized", "fin_sent")

    def __init__(self, msg_id: int, total: int, meta: Any,
                 finalized: bool = True) -> None:
        self.msg_id = msg_id
        self.total = total
        self.remaining = total
        self.meta = meta
        self.first_piece_sent = False
        #: False while a streaming (proxy) response may still grow.
        self.finalized = finalized
        self.fin_sent = False


class _InMessage:
    """Receiver-side reassembled message."""

    __slots__ = ("msg_id", "total", "meta", "delivered", "complete", "fin_seen")

    def __init__(self, msg_id: int) -> None:
        self.msg_id = msg_id
        self.total: Optional[int] = None
        self.meta: Any = None
        self.delivered = 0
        self.complete = False
        self.fin_seen = False


class TcpConnection(TransportEndpoint):
    """One endpoint of a TCP+TLS connection (client or server role)."""

    protocol = "tcp"
    stats_type = TcpStats
    ack_delay_field = "delayed_ack_timeout"

    def __init__(self, sim: Simulator, node: Node, conn_id: str,
                 peer_addr: str, config: TcpConfig, role: str,
                 **endpoint_kwargs: Any) -> None:
        super().__init__(sim, node, conn_id, peer_addr, config, role,
                         **endpoint_kwargs)
        self.cc = CubicCC(config.cc, self.rtt, trace=self.trace)
        self.cc.on_receiver_buffer(config.receive_buffer)

        # --- handshake -----------------------------------------------------
        self._ready = role == "server"
        self._handshake_stage = "idle"
        self._handshake_timer = sim.timer(self._handshake_retry)
        self._handshake_retries = 0

        # --- send state ------------------------------------------------------
        self._snd_nxt = 0
        self._snd_una = 0
        self._sent: Dict[int, SegmentRecord] = {}
        self._sacked = RangeSet()
        self._highest_sacked = 0
        self._retx_queue: Deque[SegmentRecord] = deque()
        self._msg_queue: Deque[_OutMessage] = deque()
        #: Message bytes queued but not yet segmented (the sum of the
        #: queued messages' ``remaining``), kept by the methods that move
        #: ``remaining``: "is there new data?" is read per ACK and per
        #: send-loop pass.
        self._unsent_bytes = 0
        self._out_messages: Dict[int, _OutMessage] = {}
        self._next_msg_id = 1 if role == "client" else 1_000_001
        self._peer_rwnd = config.receive_buffer
        self._recovery_until: Optional[int] = None
        self._retx_timer = sim.timer(self._retx_timer_fired)
        self.dupthresh = config.dupthresh
        #: nack depth recorded for recently declared-lost segments.
        self._lost_depths: Dict[int, int] = {}
        #: Loss-scan floor: holes below are all already declared lost.
        self._loss_floor = 0
        #: Retransmitted-and-live segments awaiting a re-loss verdict.
        self._retx_live: Dict[int, SegmentRecord] = {}

        # --- receive state ----------------------------------------------------
        self._rcv_ranges = RangeSet()
        self._rcv_total = 0
        self._rcv_frontier = 0
        self._pieces_at: Dict[int, Piece] = {}
        self._piece_walk = 0
        self._in_messages: Dict[int, _InMessage] = {}
        self._app_processed = 0
        self._ack_pending = 0
        self._ack_timer = sim.timer(self._ack_timer_fired)
        self._timers = (self._retx_timer, self._ack_timer,
                        self._handshake_timer)
        self._pending_dsack: Optional[Tuple[int, int]] = None
        #: Sequence numbers of the most recent data arrivals (SACK source).
        self._recent_arrivals: Deque[int] = deque(maxlen=8)
        self._last_advertised_rwnd = config.receive_buffer
        self._processor = PacketProcessor(
            sim, self.device.packet_cost("tcp"), self._process_delivery,
            rng=random.Random(self.rng.randrange(1 << 30)),
        )
        # "Kernel" receive work (ACKs in and out) runs inline on arrival.
        self.listen(self._on_packet)

    # ==================================================================
    # public API
    # ==================================================================
    def connect(self, on_ready: Optional[Callable[[float], None]] = None) -> None:
        """Run the TCP+TLS handshake (client only)."""
        if self.role != "client":
            raise RuntimeError("only clients connect()")
        if self._handshake_stage != "idle":
            return
        self.on_ready = on_ready
        self._advance_handshake("syn")

    def request(self, meta: Any, on_complete: ResponseCallback,
                request_bytes: int = DEFAULT_REQUEST_BYTES) -> None:
        """Issue one request over the shared connection (HTTP/2 style)."""
        if self.role != "client":
            raise RuntimeError("only clients issue requests")
        msg_id = self._enqueue_message(request_bytes, ("req", None, meta))
        self._response_cbs[msg_id] = on_complete

    def open_streaming_response(self, req_msg_id: int, meta: Any = None) -> int:
        """Start a response of unknown length (proxy pass-through);
        returns the handle :meth:`stream_append` and :meth:`stream_finish`
        take — its message id."""
        return self._enqueue_message(0, ("resp", req_msg_id, meta),
                                     finalized=False)

    def stream_append(self, msg_id: int, nbytes: int) -> None:
        """Append bytes to a streaming response."""
        msg = self._out_messages.get(msg_id)
        if msg is None:
            raise KeyError(f"no open message {msg_id}")
        if msg.finalized:
            raise RuntimeError("cannot append to a finalized message")
        if nbytes <= 0:
            return
        msg.total += nbytes
        msg.remaining += nbytes
        self._unsent_bytes += nbytes
        if msg not in self._msg_queue:
            self._msg_queue.append(msg)
        self._wake_sender()

    def stream_finish(self, msg_id: int) -> None:
        """Close a streaming response; its END_STREAM marker will be sent.

        If all appended data already left, a 1-byte trailer (the HTTP/2
        frame-header stand-in) carries the marker.
        """
        msg = self._out_messages.get(msg_id)
        if msg is None or msg.finalized:
            return
        msg.finalized = True
        if msg.remaining <= 0 and not msg.fin_sent:
            msg.total += 1
            msg.remaining += 1
            self._unsent_bytes += 1
        if msg.remaining > 0 and msg not in self._msg_queue:
            self._msg_queue.append(msg)
        self._wake_sender()

    def _enqueue_message(self, total_bytes: int, meta: Any,
                         finalized: bool = True) -> int:
        """Queue an application message onto the byte stream."""
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        if finalized and total_bytes <= 0:
            total_bytes = 1  # bare END_STREAM still occupies a frame byte
        msg = _OutMessage(msg_id, total_bytes, meta, finalized=finalized)
        self._out_messages[msg_id] = msg
        self._msg_queue.append(msg)
        self._unsent_bytes += total_bytes
        self._wake_sender()
        return msg_id

    # ==================================================================
    # handshake (TCP 3WHS + TLS 1.2, paper Sec. 3.1)
    # ==================================================================
    _CLIENT_FLOW = ("syn", "client_hello", "client_finished")
    _REPLY_OF = {
        "syn": "synack",
        "client_hello": "server_hello",
        "client_finished": "server_finished",
    }

    def _advance_handshake(self, stage: str) -> None:
        self._handshake_stage = stage
        self._handshake_retries = 0
        self._emit_ctrl(stage)
        self._arm_handshake_timer()

    def _ctrl_size(self, kind: str) -> int:
        cfg = self.config
        return {
            "syn": 40,
            "synack": 40,
            "client_hello": cfg.client_hello_bytes,
            "server_hello": cfg.server_hello_bytes,
            "client_finished": cfg.client_finished_bytes,
            "server_finished": cfg.server_finished_bytes,
        }[kind]

    def _emit_ctrl(self, kind: str) -> None:
        """Send a handshake message, fragmented to MSS-sized packets.

        Only the final fragment carries the semantic ``kind`` (the peer
        acts once the message completes); a multi-packet ServerHello
        otherwise becomes a jumbo frame that droptail queues always shed.
        """
        size = self._ctrl_size(kind)
        mss = self.config.mss
        while size > mss:
            frag = TcpSegment(self.conn_id, "ctrl", ctrl=kind + ":frag",
                              ctrl_size=mss)
            self.stats.segments_sent += 1
            self.emit(frag, frag.wire_bytes)
            size -= mss
        seg = TcpSegment(self.conn_id, "ctrl", ctrl=kind, ctrl_size=size)
        self.stats.segments_sent += 1
        self.emit(seg, seg.wire_bytes)

    def _arm_handshake_timer(self) -> None:
        self._handshake_timer.arm(HANDSHAKE_RTO * (2 ** self._handshake_retries))

    def _handshake_retry(self) -> None:
        if self._ready or self._handshake_stage == "idle":
            return
        self._handshake_retries += 1
        self._emit_ctrl(self._handshake_stage)
        self._arm_handshake_timer()

    def _on_ctrl(self, now: float, seg: TcpSegment) -> None:
        kind = seg.ctrl
        if kind.endswith(":frag"):
            return  # leading fragment; the final piece drives the flow
        if kind == "rst":
            self.close(notify_peer=False)
            return
        if self.role == "server":
            if kind == "syn":
                self._emit_ctrl("synack")
            elif kind == "client_hello":
                self.sim.post(self.device.crypto_setup_cost,
                                  self._emit_ctrl, "server_hello")
            elif kind == "client_finished":
                self._emit_ctrl("server_finished")
            return
        # Client side: each reply advances the flow.
        expected = self._REPLY_OF.get(self._handshake_stage)
        if kind != expected:
            return
        if kind == "synack":
            if self.config.tls_rtts <= 0:
                self._client_ready(now)
            else:
                self._advance_handshake("client_hello")
        elif kind == "server_hello":
            if self.config.tls_rtts <= 1:
                self._client_ready(now)
            else:
                self.sim.post(self.device.crypto_setup_cost,
                                  self._advance_handshake, "client_finished")
        elif kind == "server_finished":
            self._client_ready(now)

    def _client_ready(self, now: float) -> None:
        if self._ready:
            return
        self._ready = True
        self._handshake_stage = "done"
        self.handshake_ready_time = now
        self._handshake_timer.cancel()
        if self.on_ready is not None:
            self.on_ready(now)
        self._wake_sender()

    # ==================================================================
    # send path
    # ==================================================================
    def _send_loop(self) -> None:
        self._send_scheduled = False
        if self.closed or not self._ready:
            return
        sent = False
        # The window is asked only while something waits to be sent
        # (``can_send_bytes`` is pure, so the order changes no decision).
        while self._retx_queue or self._unsent_bytes > 0:
            budget = self.cc.can_send_bytes(self.bytes_in_flight)
            if budget < 1:
                break
            if self._retx_queue:
                record = self._retx_queue.popleft()
                stale = (
                    not record.declared_lost
                    or record.end <= self._snd_una
                    or self._sacked.covers(record.seq, record.end)
                )
                if stale:
                    continue
                self._transmit_record(record, retransmit=True, arm_timer=False)
                sent = True
                continue
            if self._snd_nxt - self._snd_una >= self._peer_rwnd:
                break  # receiver-window limited
            segment_len = min(self.config.mss, budget)
            record = self._segmentize(segment_len)
            if record is None:
                break
            self._transmit_record(record, retransmit=False, arm_timer=False)
            sent = True
        if not sent:
            self._maybe_signal_app_limited()
        else:
            # One timer arming per burst: sim time does not advance inside
            # the loop, so this deadline equals the last per-segment one.
            self._set_retx_timer()

    def _maybe_signal_app_limited(self) -> None:
        if not self._sent_any_data:
            return
        if self.bytes_in_flight < self.cc.cwnd and not self._retx_queue:
            self.cc.on_application_limited(self.sim.now)

    def _segmentize(self, max_len: int) -> Optional[SegmentRecord]:
        """Carve the next segment from queued messages (HTTP/2 scheduler)."""
        pieces: List[Piece] = []
        remaining = max_len
        while remaining > 0 and self._msg_queue:
            msg = self._msg_queue[0]
            if msg.remaining <= 0:
                self._msg_queue.popleft()
                continue
            take = min(msg.remaining, remaining)
            piece = Piece(msg.msg_id, take)
            if not msg.first_piece_sent:
                piece.total = msg.total if msg.finalized else None
                piece.meta = msg.meta
                msg.first_piece_sent = True
            pieces.append(piece)
            msg.remaining -= take
            self._unsent_bytes -= take
            remaining -= take
            if msg.remaining <= 0:
                if msg.finalized:
                    piece.fin = True
                    msg.fin_sent = True
                    self._out_messages.pop(msg.msg_id, None)
                self._msg_queue.popleft()
            elif self.config.scheduler == "roundrobin":
                self._msg_queue.rotate(-1)
        if not pieces:
            return None
        length = max_len - remaining
        record = SegmentRecord(self._snd_nxt, length, self.sim.now, pieces)
        self._snd_nxt += length
        self._sent[record.seq] = record
        return record

    def _transmit_record(self, record: SegmentRecord, *, retransmit: bool,
                         arm_timer: bool = True) -> None:
        now = self.sim.now
        if retransmit:
            record.retx_count += 1
            record.declared_lost = False
            record.sent_time = now
            record.nack_bytes = 0
            record.retx_edge = self._snd_nxt
            # Re-loss of this copy is judged against evidence above its
            # retx edge, via the (small) retransmission watch set.
            self._retx_live[record.seq] = record
            self._sent.setdefault(record.seq, record)
            self.stats.retransmits += 1
        if not self._sent_any_data:
            self._sent_any_data = True
            self.cc.on_connection_start(now)
        self.bytes_in_flight += record.length
        self.cc.on_packet_sent(now, record.length, retransmit)
        seg = TcpSegment(
            self.conn_id, "data", seq=record.seq, length=record.length,
            pieces=record.pieces, cum_ack=self._rcv_frontier,
            rwnd=self._advertise_rwnd(),
        )
        self.stats.segments_sent += 1
        self.stats.bytes_sent += record.length
        self.emit(seg, seg.wire_bytes)
        if arm_timer:
            self._set_retx_timer()

    # ==================================================================
    # retransmission timer (RTO; optional TLP ablation)
    # ==================================================================
    def _retx_timer_fired(self, kind: str) -> None:
        if self.bytes_in_flight <= 0 or self.closed:
            return
        now = self.sim.now
        if kind == "tlp":
            self._tlp_count += 1
            self.trace.log(now, "tlp")
            self.cc.on_tail_loss_probe(now)
            newest = max(self._sent, default=None)
            if newest is not None:
                record = self._sent[newest]
                self.bytes_in_flight -= record.length
                self._transmit_record(record, retransmit=True)
            self._set_retx_timer()
            return
        self._rto_count += 1
        self.stats.rto_fires += 1
        self.trace.log(now, "rto")
        self.cc.on_retransmission_timeout(now)
        # Linux: everything un-SACKed and outstanding is marked lost.
        self._retx_queue.clear()
        for seq in sorted(self._sent):
            record = self._sent[seq]
            if self._sacked.covers(record.seq, record.end):
                continue
            if not record.declared_lost:
                record.declared_lost = True
                self.bytes_in_flight -= record.length
            self._retx_queue.append(record)
        self.bytes_in_flight = max(self.bytes_in_flight, 0)
        self._recovery_until = self._snd_nxt
        self._wake_sender()
        self._set_retx_timer()

    # ==================================================================
    # receive path
    # ==================================================================
    def _on_packet(self, packet: Packet) -> None:
        seg: TcpSegment = packet.payload
        now = self.sim.now
        if seg.kind == "ctrl":
            self._on_ctrl(now, seg)
            return
        # "Kernel" duties happen inline: ACK processing and generation.
        if seg.cum_ack is not None:
            self._on_ack_info(now, seg)
        if seg.kind == "data":
            self._on_data_segment(now, seg)

    def _on_data_segment(self, now: float, seg: TcpSegment) -> None:
        self.stats.segments_received += 1
        duplicate = self._rcv_ranges.covers(seg.seq, seg.end)
        if duplicate:
            self.stats.duplicate_segments += 1
            if self.config.dsack:
                self._pending_dsack = (seg.seq, seg.end)
            self._send_ack_now(now)
            return
        # Store piece metadata (usable only once bytes are in order).
        offset = seg.seq
        for piece in seg.pieces:
            self._pieces_at.setdefault(offset, piece)
            offset += piece.length
        old_frontier = self._rcv_frontier
        self._rcv_total += self._rcv_ranges.add(seg.seq, seg.end)
        self._recent_arrivals.appendleft(seg.seq)
        self._rcv_frontier = self._rcv_ranges.contiguous_from(0)
        delta = self._rcv_frontier - old_frontier
        if delta > 0:
            # In-order bytes head to the application (device CPU model).
            self._processor.submit(delta)
        # RFC 5681: ACK immediately for out-of-order segments and while
        # holes remain (these are the peer's duplicate/SACK notifications).
        disordered = seg.seq != old_frontier or len(self._rcv_ranges) > 1
        if disordered or self._pending_dsack:
            self._send_ack_now(now)
        else:
            self._ack_pending += 1
            if self._ack_pending >= self.config.ack_every_n:
                self._send_ack_now(now)
            elif not self._ack_timer.armed:
                self._ack_timer.arm(self.config.delayed_ack_timeout)

    def _ack_timer_fired(self) -> None:
        if self._ack_pending:
            self._send_ack_now(self.sim.now)

    def _advertise_rwnd(self) -> int:
        rwnd = self.config.receive_buffer - (self._rcv_total - self._app_processed)
        if rwnd < 0:
            rwnd = 0
        self._last_advertised_rwnd = rwnd
        return rwnd

    def _send_ack_now(self, now: float) -> None:
        self._ack_pending = 0
        self._ack_timer.cancel()
        # SACK blocks (RFC 2018): the ranges containing the most recently
        # received segments, most recent first.  Blocks can only exist
        # when coverage extends beyond the in-order frontier, so the
        # no-holes common case skips the scan entirely.
        blocks: List[Tuple[int, int]] = []
        max_covered = self._rcv_ranges.max_covered()
        if max_covered is not None and max_covered > self._rcv_frontier:
            blocks = self._sack_blocks()
        seg = TcpSegment(
            self.conn_id, "ack",
            cum_ack=self._rcv_frontier,
            sack_blocks=tuple(blocks),
            dsack=self._pending_dsack,
            rwnd=self._advertise_rwnd(),
        )
        if self._pending_dsack is not None:
            self.stats.dsacks_sent += 1
            self._pending_dsack = None
        self.stats.acks_sent += 1
        self.emit(seg, 52)

    def _sack_blocks(self) -> List[Tuple[int, int]]:
        frontier = self._rcv_frontier
        blocks: List[Tuple[int, int]] = []
        for seq in self._recent_arrivals:
            # An arrival below the frontier or inside a block already built
            # adds no block: only the rest need a bisect.
            if seq < frontier:
                continue
            for lo, hi in blocks:
                if lo <= seq < hi:
                    break
            else:
                containing = self._rcv_ranges.containing(seq)
                if containing is None or containing[1] <= frontier:
                    continue
                blocks.append((max(containing[0], frontier), containing[1]))
                if len(blocks) >= self.config.max_sack_blocks:
                    break
        return blocks

    # ------------------------------------------------------------------
    # application delivery (through the device CPU model)
    # ------------------------------------------------------------------
    def _process_delivery(self, delta: int) -> None:
        self._app_processed += delta
        self._delivered_app_bytes += delta
        now = self.sim.now
        self.delivery_log.append((now, self._delivered_app_bytes))
        self._walk_pieces(now)
        # Window update if the advertised window had collapsed.
        if self._last_advertised_rwnd < 4 * self.config.mss:
            self._send_ack_now(now)

    def _walk_pieces(self, now: float) -> None:
        """Credit fully-processed bytes to their messages, fire completions."""
        while self._piece_walk < self._app_processed:
            piece = self._pieces_at.get(self._piece_walk)
            if piece is None:
                break  # metadata not yet arrived (shouldn't happen in order)
            if self._piece_walk + piece.length > self._app_processed:
                break
            del self._pieces_at[self._piece_walk]
            self._piece_walk += piece.length
            msg = self._in_messages.get(piece.msg_id)
            if msg is None:
                msg = _InMessage(piece.msg_id)
                self._in_messages[piece.msg_id] = msg
            if piece.total is not None:
                msg.total = piece.total
            if piece.meta is not None:
                msg.meta = piece.meta
            msg.delivered += piece.length
            if piece.fin:
                msg.fin_seen = True
            if self.on_progress is not None and piece.length:
                self.on_progress(piece.msg_id, piece.length, msg.meta)
            if not msg.complete and msg.fin_seen:
                # In-order delivery: the fin piece is necessarily last.
                msg.complete = True
                self._on_message_complete(now, msg)

    def _on_message_complete(self, now: float, msg: _InMessage) -> None:
        kind = msg.meta[0] if isinstance(msg.meta, tuple) else None
        if self.role == "server" and kind == "req":
            if self.request_handler is None and self.on_request is None:
                return
            _, _, app_meta = msg.meta
            delay = self.rng.uniform(0.0, self.server_noise)
            self.sim.post(delay, self._serve, msg.msg_id, app_meta)
        elif self.role == "client" and kind == "resp":
            _, req_msg_id, app_meta = msg.meta
            cb = self._response_cbs.pop(req_msg_id, None)
            if cb is not None:
                cb(req_msg_id, app_meta, now)

    def _serve(self, req_msg_id: int, app_meta: Any) -> None:
        if self.on_request is not None:
            self.on_request(req_msg_id, app_meta)
            return
        size = self.request_handler(app_meta)
        if size is None:
            # Deferred response: the application (e.g. a proxy) answers
            # later via respond() or open_streaming_response().
            return
        self.respond(req_msg_id, size, app_meta)

    def respond(self, req_msg_id: int, size: int, meta: Any = None) -> None:
        """Deferred-response API: serve ``size`` bytes to ``req_msg_id``."""
        self._enqueue_message(size, ("resp", req_msg_id, meta))

    # ==================================================================
    # ACK processing (sender side)
    # ==================================================================
    def _on_ack_info(self, now: float, seg: TcpSegment) -> None:
        if seg.rwnd is not None:
            self._peer_rwnd = seg.rwnd
        cum = seg.cum_ack
        was_cwnd_limited = self.bytes_in_flight >= self.cc.cwnd - self.config.mss
        newly_acked_bytes = 0
        rtt_candidate: Optional[SegmentRecord] = None
        spurious = False
        if seg.dsack is not None:
            spurious = self._on_dsack(now, seg.dsack)
        # --- cumulative ACK advance ------------------------------------
        if cum > self._snd_una:
            walk = self._snd_una
            sacked = self._sacked if self._sacked else None
            while walk < cum:
                record = self._sent.pop(walk, None)
                if record is None:
                    break
                fully_sacked = (sacked is not None
                                and sacked.covers(record.seq, record.end))
                if not record.declared_lost and not fully_sacked:
                    self.bytes_in_flight -= record.length
                    newly_acked_bytes += record.length
                elif fully_sacked and not record.declared_lost:
                    pass  # already credited when SACKed
                if record.retx_count == 0:
                    rtt_candidate = record
                walk = record.end
            self._snd_una = cum
            self._rto_count = 0
            # Every reader of the scoreboard asks about sequence numbers
            # at or above snd_una only: keep just the live window.
            if sacked is not None:
                sacked.trim_below(cum)
        # --- SACK processing ----------------------------------------------
        newly_sacked = 0
        for lo, hi in seg.sack_blocks:
            newly_sacked += self._apply_sack(lo, hi)
        newly_acked_bytes += newly_sacked
        if newly_sacked and self._highest_sacked > self._snd_una:
            self._detect_losses(now, newly_sacked)
        if newly_acked_bytes <= 0 and not spurious:
            self._post_ack(now)
            return
        # Probe-state resolution: only newly acknowledged data ends a
        # probe episode.  A DSACK of the probe itself proves nothing was
        # repaired, and treating it as progress re-arms the TLP forever.
        if self._tlp_count and newly_acked_bytes > 0:
            self._tlp_count = 0
            self.cc.on_tlp_resolved(now)
        self.cc.on_rto_resolved(now)
        # RTT sample (Karn: never from retransmitted segments).
        if rtt_candidate is not None:
            self.rtt.on_sample(now - rtt_candidate.sent_time, now)
            if self.rtt.latest is not None:
                self.cc.on_rtt_sample(now, self.rtt.latest)
        # Recovery exit.
        if (self.cc.in_recovery and self._recovery_until is not None
                and self._snd_una >= self._recovery_until):
            self.cc.on_recovery_exit(now)
            self._recovery_until = None
        if newly_acked_bytes > 0:
            cwnd_limited = (was_cwnd_limited or bool(self._sent)
                            or self._unsent_bytes > 0)
            self.cc.on_ack(now, newly_acked_bytes, cwnd_limited=cwnd_limited)
        self._post_ack(now)

    def _post_ack(self, now: float) -> None:
        if self._snd_una >= self._snd_nxt and not self._retx_queue:
            self._retx_timer.cancel()
        else:
            self._set_retx_timer()
        self._wake_sender()

    def _apply_sack(self, lo: int, hi: int) -> int:
        """Mark [lo, hi) SACKed; return bytes newly removed from flight."""
        if hi <= self._snd_una:
            # A stale block (a reordered older ACK): nothing below snd_una
            # is in _sent and the scoreboard is trimmed there; only its
            # edge still counts toward _highest_sacked.
            if hi > self._highest_sacked:
                self._highest_sacked = hi
            return 0
        if self._sacked.covers(lo, hi):
            return 0  # a repeated block: nothing new, _highest_sacked >= hi
        freed = 0
        for gap_lo, gap_hi in self._sacked.gaps(lo, hi):
            walk = gap_lo
            while walk < gap_hi:
                record = self._sent.get(walk)
                if record is None:
                    break
                if not record.declared_lost:
                    freed += record.length
                    self.bytes_in_flight -= record.length
                walk = record.end
        self._sacked.add(lo, hi)
        if hi > self._highest_sacked:
            self._highest_sacked = hi
        return freed

    def _detect_losses(self, now: float, newly_sacked: int) -> None:
        """FACK-style: holes with >= dupthresh*MSS SACKed above are lost.

        The scoreboard holds only the live window (it is trimmed at
        snd_una), so each call's work is sized by the holes in flight.
        """
        sacked = self._sacked
        threshold = self.dupthresh * self.config.mss
        congestion = False
        # (1) Retransmitted segments: re-loss needs evidence above the
        # retransmission edge, which only exists once newer data is SACKed.
        for seq, record in list(self._retx_live.items()):
            if (record.end <= self._snd_una or record.declared_lost
                    or sacked.covers(record.seq, record.end)):
                del self._retx_live[seq]
                continue
            if self._highest_sacked <= record.retx_edge:
                continue  # no post-retransmit evidence yet (common case)
            above = sacked.covered_above(max(record.end, record.retx_edge))
            congestion |= self._judge(now, record, above, threshold)
        # (2) Never-retransmitted holes, scanned from the floor.  SACKed
        # bytes above a point are constant across a hole, and drop by the
        # covered run between one hole and the next.
        start = max(self._snd_una, self._loss_floor)
        above = sacked.covered_above(start)
        cursor = start
        first_live: Optional[int] = None
        for gap_lo, gap_hi in sacked.gaps(start, self._highest_sacked):
            above -= gap_lo - cursor
            cursor = gap_hi
            if above < threshold:
                # Later holes have even less SACK evidence above them.
                if first_live is None:
                    first_live = gap_lo
                break
            walk = gap_lo
            while walk < gap_hi:
                record = self._sent.get(walk)
                if record is None:
                    break
                if not record.declared_lost and record.retx_count == 0:
                    edge = max(record.end, record.retx_edge)
                    congestion |= self._judge(
                        now, record,
                        above if edge <= gap_hi else sacked.covered_above(edge),
                        threshold)
                    if not record.declared_lost and first_live is None:
                        first_live = record.seq
                walk = record.end
        # Holes below the floor are declared lost or watched via the
        # retransmission set; skip them on subsequent scans.
        self._loss_floor = first_live if first_live is not None else self._highest_sacked
        if congestion:
            self.cc.on_congestion_event(now, self.bytes_in_flight)
            self._recovery_until = self._snd_nxt
        if len(self._lost_depths) > 1024:
            for seq in sorted(self._lost_depths)[:512]:
                del self._lost_depths[seq]

    def _judge(self, now: float, record: SegmentRecord, sacked_above: int,
               threshold: int) -> bool:
        """Declare ``record`` lost if ``sacked_above`` bytes beyond its edge
        reach ``threshold``; True when that loss is a new congestion event."""
        record.nack_bytes = sacked_above
        if sacked_above < threshold:
            return False
        record.declared_lost = True
        self.bytes_in_flight -= record.length
        self._lost_depths[record.seq] = sacked_above
        self._retx_queue.append(record)
        self._retx_live.pop(record.seq, None)
        self.trace.log(now, "loss", record.seq)
        return (self._recovery_until is None
                or record.seq >= self._recovery_until)

    def _on_dsack(self, now: float, dsack: Tuple[int, int]) -> bool:
        """A duplicate arrival: our retransmission was spurious (RR-TCP)."""
        self.stats.spurious_retransmits += 1
        self.trace.log(now, "false_loss", dsack[0])
        if not self.config.dsack:
            return False
        depth = self._lost_depths.pop(dsack[0], None)
        if depth is not None:
            depth_pkts = depth // self.config.mss + 1
            self.dupthresh = min(max(self.dupthresh, depth_pkts + 1),
                                 self.config.dupthresh_cap)
        return True

    # ------------------------------------------------------------------
    def _send_close(self) -> None:
        """An RST."""
        seg = TcpSegment(self.conn_id, "ctrl", ctrl="rst", ctrl_size=40)
        self.emit(seg, seg.wire_bytes)


#: A connected client/server TCP pair: :meth:`TransportEndpoint.open_pair`.
open_tcp_pair = TcpConnection.open_pair
