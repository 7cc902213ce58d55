"""Split-connection proxies (paper Sec. 5.5, Figs. 16-18).

A proxy terminates the transport on both legs and streams response bytes
through as they arrive (cut-through, not store-and-forward — transparent
cellular TCP proxies behave this way, which is why they help at all).

* The **TCP proxy** models the transparent performance-enhancing proxies
  common in cellular networks [40]: each leg sees half the RTT, so
  handshakes, slow start and loss recovery all run twice as fast per leg.
* The **QUIC proxy** is the paper's "unoptimized" one: QUIC's encrypted
  transport headers make *transparent* proxying impossible, so this is an
  explicit terminating proxy, and — as the paper notes — it cannot use
  0-RTT connection establishment on either leg, hurting small objects.

Both are one :class:`SplitConnectionProxy` over one
:class:`~repro.core.executor.ProtocolSpec`, terminated on both legs.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.executor import ProtocolLike, ProtocolSpec
from ..core.instrumentation import Trace
from ..devices import DESKTOP, DeviceProfile
from ..netem.sim import Simulator
from ..netem.topology import Path


class SplitConnectionProxy:
    """Terminates ``protocol`` on the client leg and the server leg,
    streaming response bytes through with cut-through forwarding."""

    def __init__(
        self,
        sim: Simulator,
        path: Path,
        protocol: ProtocolLike,
        origin_handler: Callable[[Any], Optional[int]],
        *,
        device: DeviceProfile = DESKTOP,
        seed: int = 0,
        server_trace: Optional[Trace] = None,
        client_trace: Optional[Trace] = None,
    ) -> None:
        if path.proxy is None:
            raise ValueError("path has no proxy node (use build_proxy_path)")
        spec = ProtocolSpec.of(protocol)
        if spec.name == "quic":
            # "Unoptimized" QUIC proxy: no 0-RTT on either leg (Sec. 5.5).
            spec = ProtocolSpec.quic(spec.resolved_config().with_(zero_rtt=False))
        self.sim = sim
        rng = random.Random(seed ^ 0x9E3779B9)
        self.client, self.left_server = spec.open_pair(
            sim, path.client, path.proxy, device=device,
            seed=rng.randrange(1 << 30), client_trace=client_trace,
        )
        self.right_client, self.origin = spec.open_pair(
            sim, path.proxy, path.server, request_handler=origin_handler,
            server_trace=server_trace, seed=rng.randrange(1 << 30),
        )

        self.left_server.on_request = self._on_left_request
        self.right_client.on_progress = self._on_right_progress
        #: request-meta identity -> left-leg response handle.
        self._left_handle: Dict[int, Any] = {}
        #: right-leg stream/message id -> bytes that arrived before the
        #: response metadata (its carrying frame can be lost and
        #: retransmitted, with later-offset data overtaking it).
        self._pending_by_right: Dict[int, int] = {}
        self.forwarded_bytes = 0
        # A transparent proxy opens its origin leg as soon as the client
        # appears; both legs handshake in parallel.
        sim.post(0.0, self.right_client.connect)

    # ------------------------------------------------------------------
    def _on_left_request(self, left_id: int, meta: Any) -> None:
        """A client request reached the proxy: open a streaming response
        on the left leg and fetch from the origin on the right leg."""
        self._left_handle[id(meta)] = (
            self.left_server.open_streaming_response(left_id, meta))
        self.right_client.request(meta, self._on_right_complete)

    def _meta_key(self, meta: Any) -> Optional[int]:
        """Normalise progress metadata back to the request meta object."""
        if meta is None:
            return None
        if isinstance(meta, tuple) and len(meta) == 3 and meta[0] == "resp":
            meta = meta[2]
        return id(meta) if meta is not None else None

    def _on_right_progress(self, right_id: int, nbytes: int, meta: Any) -> None:
        key = self._meta_key(meta)
        if key is None or key not in self._left_handle:
            # Metadata not yet known (its frame may be in retransmission):
            # buffer the bytes against the right-leg stream id.
            self._pending_by_right[right_id] = (
                self._pending_by_right.get(right_id, 0) + nbytes
            )
            return
        pending = self._pending_by_right.pop(right_id, 0)
        self._forward(self._left_handle[key], pending + nbytes)

    def _forward(self, handle: Any, nbytes: int) -> None:
        if nbytes <= 0:
            return
        self.forwarded_bytes += nbytes
        self.left_server.stream_append(handle, nbytes)

    def _on_right_complete(self, right_id: int, meta: Any, _now: float) -> None:
        key = self._meta_key(meta)
        if key is None:
            return
        handle = self._left_handle.pop(key, None)
        if handle is None:
            return
        # Flush anything that arrived before the metadata did.
        self._forward(handle, self._pending_by_right.pop(right_id, 0))
        self.left_server.stream_finish(handle)


def install_proxy(
    sim: Simulator,
    path: Path,
    protocol: ProtocolLike,
    origin_handler: Callable[[Any], Optional[int]],
    *,
    device: DeviceProfile = DESKTOP,
    seed: int = 0,
    server_trace: Optional[Trace] = None,
    client_trace: Optional[Trace] = None,
) -> Tuple[Any, Any, Tuple[Any, ...]]:
    """Wire a split-connection proxy into a proxy path.

    Returns ``(client_connection, origin_server_connection,
    (left_server, right_client))`` so callers can drive page loads on the
    client and inspect the origin.
    """
    proxy = SplitConnectionProxy(
        sim, path, protocol, origin_handler, device=device, seed=seed,
        server_trace=server_trace, client_trace=client_trace,
    )
    return proxy.client, proxy.origin, (proxy.left_server, proxy.right_client)
