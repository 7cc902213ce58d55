"""Shared endpoint plumbing for both transports.

A :class:`HostMux` demultiplexes packets arriving at a host node to the
transport endpoints living there (by connection ID, the role UDP/TCP
ports play in the real stack).  :class:`TransportEndpoint` provides the
common conveniences — simulator access, packet emission, connection IDs —
that :mod:`repro.quic` and :mod:`repro.tcp` build on.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

from ..netem.node import Node
from ..netem.packet import HEADER_BYTES, Packet
from ..netem.sim import Simulator

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

    def __init__(self, sim: Simulator, node: Node, conn_id: str,
                 peer_addr: str, flow_id: Optional[str] = None) -> None:
        self.sim = sim
        self.node = node
        self.conn_id = conn_id
        self.peer_addr = peer_addr
        self.flow_id = flow_id if flow_id is not None else conn_id
        self.mux = mux_for(node)
        self.closed = False

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

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.mux.unregister(self.conn_id)
