"""Shared endpoint plumbing for both transports.

A :class:`HostMux` demultiplexes packets arriving at a host node to the
transport endpoints living there (by connection ID, the role UDP/TCP
ports play in the real stack).  :class:`TransportEndpoint` provides what
:mod:`repro.quic` and :mod:`repro.tcp` share — the constructor preamble,
packet emission, the sender wake-up, the TLP/RTO timer, tear-down and
the client/server pair constructor — so the application surface
(``connect``, ``request``, ``respond``, the streaming-response trio,
``handshake_ready_time``, ``protocol``) is one surface over both stacks.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.instrumentation import Trace
from ..devices import DESKTOP, DeviceProfile
from ..netem.node import Node
from ..netem.packet import HEADER_BYTES, Packet
from ..netem.sim import Simulator, Timer
from .rtt import RttEstimator

RequestHandler = Callable[[Any], Optional[int]]
ResponseCallback = Callable[[int, Any, float], None]

_conn_ids = itertools.count(1)


def fresh_conn_id(prefix: str) -> str:
    """Globally unique connection identifier, e.g. ``quic-17``."""
    return f"{prefix}-{next(_conn_ids)}"


class HostMux:
    """Connection-ID demultiplexer installed as a node's local handler.

    One mux per host node; endpoints register under their connection ID.
    A *listener* can be installed to accept packets for connections that
    do not exist yet (a server accepting new clients).
    """

    def __init__(self, node: Node) -> None:
        self.node = node
        self._endpoints: Dict[str, Callable[[Packet], None]] = {}
        self._listener: Optional[Callable[[Packet], None]] = None
        node.register_handler(self._dispatch)
        self.unroutable = 0

    def register(self, conn_id: str, handler: Callable[[Packet], None]) -> None:
        if conn_id in self._endpoints:
            raise ValueError(f"connection {conn_id!r} already registered")
        self._endpoints[conn_id] = handler

    def unregister(self, conn_id: str) -> None:
        self._endpoints.pop(conn_id, None)

    def set_listener(self, listener: Callable[[Packet], None]) -> None:
        self._listener = listener

    def _dispatch(self, packet: Packet) -> None:
        conn_id = getattr(packet.payload, "conn_id", None)
        handler = self._endpoints.get(conn_id)
        if handler is not None:
            handler(packet)
        elif self._listener is not None:
            self._listener(packet)
        else:
            self.unroutable += 1


def mux_for(node: Node) -> HostMux:
    """Get or lazily create the :class:`HostMux` for a host node."""
    existing = getattr(node, "_host_mux", None)
    if existing is None:
        existing = HostMux(node)
        node._host_mux = existing  # type: ignore[attr-defined]
    return existing


class TransportEndpoint:
    """Base class for one side of a transport connection."""

    #: The stack's name, ``"quic"`` or ``"tcp"``.
    protocol: str
    #: The per-connection counter class (each stack's own field names).
    stats_type: Callable[[], Any]
    #: The config field holding the peer's delayed-ACK allowance, which
    #: the tail-loss-probe deadline waits out.
    ack_delay_field: str
    #: Timers cancelled by :meth:`close`.
    _timers: Tuple[Timer, ...] = ()

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        conn_id: str,
        peer_addr: str,
        config: Any,
        role: str,
        *,
        device: DeviceProfile = DESKTOP,
        trace: Optional[Trace] = None,
        request_handler: Optional[RequestHandler] = None,
        server_noise: float = 0.001,
        rng: Optional[random.Random] = None,
        flow_id: Optional[str] = None,
    ) -> None:
        if role not in ("client", "server"):
            raise ValueError("role must be 'client' or 'server'")
        self.sim = sim
        self.node = node
        self.conn_id = conn_id
        self.peer_addr = peer_addr
        self.flow_id = flow_id if flow_id is not None else conn_id
        self.mux = mux_for(node)
        self.closed = False
        self.config = config
        self.role = role
        self.device = device
        self.rng = rng if rng is not None else random.Random(0)
        self.trace = trace if trace is not None else Trace(
            label=f"{conn_id}:{role}", enabled=False)
        self.stats = self.stats_type()
        self.rtt = RttEstimator(initial_rtt=0.1)
        self.bytes_in_flight = 0
        self._send_scheduled = False
        self._sent_any_data = False
        self._tlp_count = 0
        self._rto_count = 0
        #: When the connection became usable (None while handshaking).
        self.handshake_ready_time: Optional[float] = None
        self.on_ready: Optional[Callable[[float], None]] = None

        # --- application -------------------------------------------------
        self.request_handler = request_handler
        self.server_noise = server_noise
        #: Optional hook fired as response bytes arrive:
        #: ``on_progress(stream_or_message_id, newly_received_bytes, meta)``.
        self.on_progress: Optional[Callable[[int, int, Any], None]] = None
        #: Optional deferred request hook: ``on_request(id, meta)``
        #: replaces ``request_handler`` (used by proxies).
        self.on_request: Optional[Callable[[int, Any], None]] = None
        self._response_cbs: Dict[int, ResponseCallback] = {}
        #: (time, cumulative app bytes) samples for throughput analysis.
        self.delivery_log: List[Tuple[float, int]] = []
        self._delivered_app_bytes = 0

    @classmethod
    def open_pair(
        cls,
        sim: Simulator,
        client_node: Node,
        server_node: Node,
        config: Any,
        *,
        device: DeviceProfile = DESKTOP,
        request_handler: Optional[RequestHandler] = None,
        client_trace: Optional[Trace] = None,
        server_trace: Optional[Trace] = None,
        seed: int = 0,
        server_noise: float = 0.001,
        flow_id: Optional[str] = None,
        **client_options: Any,
    ) -> Tuple[Any, Any]:
        """Create a connected client/server endpoint pair.

        ``client_options`` go to the client alone (QUIC's
        ``session_cache``).
        """
        conn_id = fresh_conn_id(cls.protocol)
        rng = random.Random(seed)
        client = cls(
            sim, client_node, conn_id, server_node.name, config, "client",
            device=device, trace=client_trace,
            rng=random.Random(rng.randrange(1 << 30)), flow_id=flow_id,
            **client_options,
        )
        server = cls(
            sim, server_node, conn_id, client_node.name, config, "server",
            device=DESKTOP, trace=server_trace, request_handler=request_handler,
            rng=random.Random(rng.randrange(1 << 30)), server_noise=server_noise,
            flow_id=flow_id,
        )
        return client, server

    def listen(self, receive: Callable[[Packet], None]) -> None:
        """Start receiving: the host mux hands each packet of this
        connection to ``receive`` (a subclass calls this once, at the end
        of its set-up, with its receive path's first stage)."""
        self.mux.register(self.conn_id, receive)

    # ------------------------------------------------------------------
    def emit(self, payload: Any, payload_bytes: int) -> None:
        """Send one packet to the peer (adds wire header overhead)."""
        self.node.send(Packet(self.node.name, self.peer_addr,
                              payload_bytes + HEADER_BYTES, payload,
                              self.flow_id))

    def _wake_sender(self) -> None:
        if not self._send_scheduled and not self.closed:
            self._send_scheduled = True
            self.sim.post(0.0, self._send_loop)

    # ------------------------------------------------------------------
    # retransmission timer: TLP then RTO (paper Sec. 2.1)
    # ------------------------------------------------------------------
    def _set_retx_timer(self) -> None:
        if self.bytes_in_flight <= 0 or self.closed:
            self._retx_timer.cancel()
            return
        config = self.config
        srtt = self.rtt.smoothed_rtt
        if config.tlp_enabled and self._tlp_count < config.max_tail_loss_probes:
            delay = max(2.0 * srtt,
                        1.5 * srtt + getattr(config, self.ack_delay_field))
            kind = "tlp"
        else:
            delay = self.rtt.retransmission_timeout(config.min_rto)
            delay *= 2 ** min(self._rto_count, 6)
            kind = "rto"
        self._retx_timer.arm(delay, kind)

    # ------------------------------------------------------------------
    def close(self, notify_peer: bool = True) -> None:
        """Tear the connection down.

        With ``notify_peer`` the stack's close message goes out so the
        peer stops its timers too (instead of retransmitting into a dead
        endpoint until its RTO backoff gives up).
        """
        if self.closed:
            return
        if notify_peer:
            self._send_close()
        for timer in self._timers:
            timer.cancel()
        self.trace.close(self.sim.now)
        self.closed = True
        self.mux.unregister(self.conn_id)

    def _send_close(self) -> None:
        """Emit the stack's close message (nothing in the base class)."""
