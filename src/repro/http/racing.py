"""Chrome's QUIC/TCP connection racing (paper Sec. 3.3, footnote 9).

Chrome opens a QUIC and a TCP connection to the same server in parallel
and uses whichever establishes first — which is why the paper verifies
the protocol actually used from the HAR instead of trusting its intent.
The paper's experiments pin the protocol per run; this module implements
the racing behaviour itself so that decision can be studied:

* with a cached server config, QUIC's 0-RTT wins instantly;
* without one, QUIC's 1-RTT REJ round still beats TCP's 3-RTT
  TCP+TLS handshake — unless QUIC is blocked (e.g. by a UDP-dropping
  middlebox, modelled by blackholing the QUIC connection), in which case
  the race falls back to TCP, exactly like Chrome behind such networks.
"""

from __future__ import annotations

from typing import Any, Optional

from ..netem.sim import Simulator
from .client import PageLoader, PageLoadResult
from .objects import WebPage


class RacingLoader:
    """Races a QUIC and a TCP connection and loads the page on the winner."""

    def __init__(self, sim: Simulator, quic_connection: Any,
                 tcp_connection: Any, page: WebPage) -> None:
        self.sim = sim
        self.quic_connection = quic_connection
        self.tcp_connection = tcp_connection
        self.page = page
        self.winner: Optional[str] = None
        self.loader: Optional[PageLoader] = None
        self._started_at = 0.0

    def start(self) -> None:
        """Kick off both handshakes; the first ready connection wins."""
        self._started_at = self.sim.now
        self.tcp_connection.connect(lambda now: self._on_ready(self.tcp_connection))
        self.quic_connection.connect(lambda now: self._on_ready(self.quic_connection))
        if self.quic_connection.handshake_ready_time is not None:
            # 0-RTT: QUIC is ready synchronously and wins the race.
            self._on_ready(self.quic_connection)

    def _on_ready(self, connection: Any) -> None:
        if self.winner is not None:
            return
        self.winner = connection.protocol
        loser = (self.tcp_connection if connection is self.quic_connection
                 else self.quic_connection)
        self.loader = PageLoader(self.sim, connection, self.page)
        # The loader re-calls connect(); both transports treat a second
        # connect as a no-op, and the winner is already ready.
        self.loader.start()
        loser.close()

    @property
    def done(self) -> bool:
        return self.loader is not None and self.loader.done

    @property
    def result(self) -> PageLoadResult:
        if self.loader is None:
            raise RuntimeError("race has not produced a winner yet")
        return self.loader.result
