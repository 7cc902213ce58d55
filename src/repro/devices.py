"""Client device models: desktop, Nexus 6, MotoG (paper Sec. 3.1 / 5.2).

The paper's mobile finding (Fig. 12/13) is architectural: QUIC's transport
runs in the browser process, so a slow phone CPU delays packet processing,
flow-control window updates lag, and the *server* ends up parked in the
``ApplicationLimited`` state (58% of the time on a MotoG vs. 7% on a
desktop).  TCP's transport runs in the kernel, so the same phone hurts TCP
far less.

We model a device as per-packet processing costs (one for QUIC's
userspace decrypt+process path, a smaller one for TCP's kernel path), a
one-off crypto handshake cost, and a small noise term that plays the role
of the real testbed's scheduling jitter (it also gives the statistics
non-degenerate variance, which Welch's t-test needs).

The phone cost numbers are calibration knobs, chosen so that the MotoG's
QUIC packet-processing capacity sits just below the 50 Mbps WiFi band the
paper tested (Sec. 5.2), and the Nexus 6's above it — reproducing
"diminished but present" gains on the Nexus 6 and losses on the MotoG.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

from .netem.sim import Simulator


@dataclass(frozen=True)
class DeviceProfile:
    """CPU characteristics of a client device.

    The QUIC receive path has *two* stages, mirroring Chrome:

    1. ``quic_packet_cost`` — per-packet transport work (header
       processing, ACK generation).  Cheap even on phones.
    2. ``quic_consume_cost`` — per-packet userspace decrypt + stream
       processing that must finish before flow-control credit is
       returned.  This is the stage a phone CPU cannot keep up with, and
       it is what throttles the *server* into ``ApplicationLimited``
       (paper Fig. 13).

    TCP's equivalents run in the kernel with bulk TLS decrypt, so its
    single per-segment cost (``tcp_packet_cost``) is far smaller — the
    paper's architectural asymmetry.
    """

    name: str
    #: Stage 1: seconds per received QUIC packet (ACK path).
    quic_packet_cost: float
    #: Stage 2: seconds per QUIC packet of decrypt+consume work.
    quic_consume_cost: float
    #: Seconds per received TCP segment (kernel+bulk-TLS path).
    tcp_packet_cost: float
    #: One-off handshake crypto cost, seconds.
    crypto_setup_cost: float
    #: Uniform(0, noise) seconds added to request processing, modelling
    #: scheduler jitter / testbed noise.
    noise: float = 0.002

    def packet_cost(self, protocol: str) -> float:
        """Stage-1 per-packet cost for ``protocol`` ("quic" or "tcp")."""
        if protocol == "quic":
            return self.quic_packet_cost
        if protocol == "tcp":
            return self.tcp_packet_cost
        raise ValueError(f"unknown protocol {protocol!r}")


#: Ubuntu desktop, Core i5 3.3 GHz (Sec. 3.1): effectively unbounded.
DESKTOP = DeviceProfile(
    name="desktop",
    quic_packet_cost=0.0,
    quic_consume_cost=0.0,
    tcp_packet_cost=0.0,
    crypto_setup_cost=0.001,
)

#: Nexus 6 (late 2014, 2.7 GHz quad-core): QUIC consume capacity
#: ~48 Mbps — right at the 50 Mbps WiFi band, so gains merely diminish.
NEXUS6 = DeviceProfile(
    name="nexus6",
    quic_packet_cost=15e-6,
    quic_consume_cost=225e-6,
    tcp_packet_cost=30e-6,
    crypto_setup_cost=0.010,
)

#: MotoG (2013, 1.2 GHz quad-core): QUIC consume capacity ~26 Mbps —
#: well below the 50 Mbps band, so QUIC loses its advantage there.
MOTOG = DeviceProfile(
    name="motog",
    quic_packet_cost=30e-6,
    quic_consume_cost=420e-6,
    tcp_packet_cost=80e-6,
    crypto_setup_cost=0.025,
)

DEVICE_PROFILES = {p.name: p for p in (DESKTOP, NEXUS6, MOTOG)}


class PacketProcessor:
    """A single-core packet-consumption model.

    Received packets queue here and are handed to ``handler`` after the
    device's per-packet cost.  With zero cost the processor degenerates to
    an inline call: ``submit`` *is* ``handler`` (desktop fast path — no
    extra simulator event and no frame of its own).
    """

    def __init__(self, sim: Simulator, per_packet_cost: float,
                 handler: Callable[[Any], None],
                 rng: Optional[random.Random] = None,
                 cost_jitter: float = 0.2) -> None:
        if per_packet_cost < 0:
            raise ValueError("per_packet_cost must be >= 0")
        self.sim = sim
        self.cost = per_packet_cost
        self.handler = handler
        self.rng = rng if rng is not None else random.Random(0)
        self.cost_jitter = cost_jitter
        self._queue: Deque[Any] = deque()
        self._busy = False
        #: Items handed on after their CPU cost (a zero-cost processor
        #: calls ``handler`` directly and counts nothing).
        self.processed = 0
        #: Hand one item to the device CPU.
        self.submit: Callable[[Any], None] = (
            handler if per_packet_cost <= 0.0 else self._enqueue)

    @property
    def backlog(self) -> int:
        """Packets waiting for CPU (drives flow-control backpressure)."""
        return len(self._queue) + (1 if self._busy else 0)

    def _enqueue(self, item: Any) -> None:
        self._queue.append(item)
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        item = self._queue.popleft()
        cost = self.cost
        if self.cost_jitter > 0:
            cost *= 1.0 + self.rng.uniform(-self.cost_jitter, self.cost_jitter)
        self.sim.post(cost, self._finish, item)

    def _finish(self, item: Any) -> None:
        self.processed += 1
        self.handler(item)
        self._start_next()
