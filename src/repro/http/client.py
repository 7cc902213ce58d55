"""The page loader: issues object requests and measures PLT.

Plays the part of Chrome driven over the remote debugging protocol in
the paper (Sec. 3.3): it connects, requests every object of a page, and
records HAR-style per-resource timings.  PLT is "the time to download
all objects on a page" measured from the moment the load starts — DNS is
excluded by construction (there is none), exactly as the paper excludes
it.

The loader is transport-agnostic: it drives the one application surface
both :class:`~repro.quic.connection.QuicConnection` and
:class:`~repro.tcp.connection.TcpConnection` expose — ``connect(on_ready)``,
``request(meta, on_complete)``, ``handshake_ready_time`` and the
``protocol`` each HAR entry records.  (Chrome's
TCP-vs-QUIC connection racing is intentionally not exercised: like the
paper, experiments pin the protocol per run and verify it from the HAR.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..netem.sim import Simulator
from .objects import WebPage


@dataclass
class ResourceTiming:
    """One HAR entry: request/response timestamps for one object."""

    obj_id: int
    size_bytes: int
    requested_at: Optional[float] = None
    completed_at: Optional[float] = None
    protocol: str = ""

    @property
    def elapsed(self) -> Optional[float]:
        if self.requested_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.requested_at


@dataclass
class PageLoadResult:
    """The outcome of one page load."""

    page: WebPage
    protocol: str
    started_at: float
    finished_at: Optional[float]
    timings: List[ResourceTiming]
    handshake_ready_at: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self.finished_at is not None

    @property
    def plt(self) -> float:
        """Page load time in seconds (raises if the load never finished)."""
        if self.finished_at is None:
            raise RuntimeError(f"page {self.page.name} did not finish loading")
        return self.finished_at - self.started_at


class PageLoader:
    """Loads one page over one transport connection."""

    def __init__(self, sim: Simulator, connection: Any, page: WebPage) -> None:
        self.sim = sim
        self.connection = connection
        self.page = page
        protocol = connection.protocol
        self._timings: Dict[int, ResourceTiming] = {
            o.obj_id: ResourceTiming(o.obj_id, o.size_bytes, protocol=protocol)
            for o in page.objects
        }
        self._outstanding = len(page.objects)
        self.done = False
        #: Set by :meth:`run`: the last completion ends the run loop.
        self._stop_when_done = False
        self.result = PageLoadResult(
            page=page, protocol=protocol, started_at=sim.now,
            finished_at=None, timings=list(self._timings.values()),
        )

    def start(self) -> None:
        """Begin the load: connect, then request every object."""
        self.result.started_at = self.sim.now
        self.connection.connect(self._on_ready)
        if self.connection.handshake_ready_time is not None:
            # QUIC 0-RTT: requests may be issued immediately.
            self._issue_requests()

    def run(self, timeout: float) -> PageLoadResult:
        """Start the load and run the simulator until it finishes (the last
        completion calls :meth:`Simulator.stop`) or ``timeout`` elapses."""
        self._stop_when_done = True
        self.start()
        if not self.done:
            self.sim.run(until=self.sim.now + timeout)
        return self.result

    def _on_ready(self, now: float) -> None:
        self.result.handshake_ready_at = now
        if any(t.requested_at is None for t in self._timings.values()):
            self._issue_requests()

    def _issue_requests(self) -> None:
        now = self.sim.now
        for obj in self.page.objects:
            timing = self._timings[obj.obj_id]
            if timing.requested_at is not None:
                continue
            timing.requested_at = now
            meta = {"obj": obj.obj_id, "size": obj.size_bytes}
            self.connection.request(meta, self._on_complete)

    def _on_complete(self, _stream_id: int, meta: Any, now: float) -> None:
        timing = self._timings[meta["obj"]]
        if timing.completed_at is not None:
            return
        timing.completed_at = now
        self._outstanding -= 1
        if self._outstanding == 0:
            self.result.finished_at = now
            self.done = True
            if self._stop_when_done:
                self.sim.stop()


def load_page(sim: Simulator, connection: Any, page: WebPage,
              timeout: float = 600.0) -> PageLoadResult:
    """Convenience wrapper: run the load to completion on the simulator."""
    return PageLoader(sim, connection, page).run(timeout)
