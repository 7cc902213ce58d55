"""Packet capture and path characterisation (the router's tcpdump).

The paper *measures* its operational networks before emulating them:
Table 5 reports each cell network's throughput, RTT, reordering rate and
loss rate.  This module provides the same measurement capability for the
simulated testbed:

* :class:`PacketCapture` taps a link and records per-packet events
  (time, size, flow) plus drops, like tcpdump + interface counters;
* :meth:`PacketCapture.characterize` reduces a capture to the Table 5
  quantities — achieved throughput, loss rate, reordering rate and mean
  reordering depth;
* :func:`characterize_scenario` runs a canonical probe flow through a
  scenario and reports what a measurer would see — used by the test
  suite to verify that emulated cell profiles actually exhibit their
  configured characteristics (closing the paper's measure-then-emulate
  loop).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .link import Link
from .packet import Packet
from .profiles import Scenario
from .sim import Simulator


@dataclass
class CaptureRecord:
    """One delivered packet, as tcpdump would log it."""

    time: float
    src: str
    dst: str
    size_bytes: int
    flow_id: Optional[str]
    packet_id: int


@dataclass
class PathCharacteristics:
    """The Table 5 quantities for one observed direction."""

    duration: float
    delivered_packets: int
    delivered_bytes: int
    dropped_packets: int
    lost_packets: int
    reordered_packets: int
    mean_reorder_depth: float

    @property
    def throughput_mbps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.delivered_bytes * 8 / self.duration / 1e6

    @property
    def loss_pct(self) -> float:
        offered = self.delivered_packets + self.lost_packets
        if offered == 0:
            return 0.0
        return self.lost_packets / offered * 100.0

    @property
    def reordering_pct(self) -> float:
        if self.delivered_packets == 0:
            return 0.0
        return self.reordered_packets / self.delivered_packets * 100.0

    def describe(self) -> str:
        return (
            f"{self.throughput_mbps:6.2f} Mbps, loss {self.loss_pct:5.2f}%, "
            f"reordering {self.reordering_pct:5.2f}% "
            f"(mean depth {self.mean_reorder_depth:.1f} pkts)"
        )


class PacketCapture:
    """Records every delivery on a link; computes path characteristics.

    Reordering is measured exactly as network measurement tools do: a
    packet is reordered if one with a later link-entry order was
    delivered before it; depth is how many such packets overtook it.

    The capture attaches through the link's official ``on_send`` /
    ``on_deliver`` taps (no method monkeypatching), so an uncaptured link
    pays nothing beyond two ``is not None`` checks.  Per-packet
    record-keeping (the tcpdump-style log behind :attr:`records` and
    :meth:`to_csv`) is opt-out via ``record=False`` or ``max_records=0``
    for measurement-only captures: :meth:`characterize` needs only the
    running counters, not the log.
    """

    def __init__(self, link: Link, max_records: Optional[int] = None,
                 *, record: bool = True) -> None:
        self.link = link
        self.max_records = max_records
        self._record = record and max_records != 0
        self.records: List[CaptureRecord] = []
        self._entry_order: Dict[int, int] = {}
        self._next_entry = 0
        self._delivered_entries: List[int] = []
        self._reordered = 0
        self._depth_total = 0
        self._first_time: Optional[float] = None
        self._last_time: Optional[float] = None
        self._previous_send_tap = link.on_send
        self._previous_tap = link.on_deliver
        link.on_send = self._tap_send
        link.on_deliver = self._tap_deliver

    # ------------------------------------------------------------------
    def _tap_send(self, packet: Packet) -> None:
        if self._previous_send_tap is not None:
            self._previous_send_tap(packet)
        self._entry_order[packet.packet_id] = self._next_entry
        self._next_entry += 1

    def _tap_deliver(self, now: float, packet: Packet) -> None:
        if self._previous_tap is not None:
            self._previous_tap(now, packet)
        if self._first_time is None:
            self._first_time = now
        self._last_time = now
        entry = self._entry_order.pop(packet.packet_id, -1)
        overtakers = sum(1 for e in self._delivered_entries if e > entry)
        if overtakers:
            self._reordered += 1
            self._depth_total += overtakers
        self._delivered_entries.append(entry)
        if len(self._delivered_entries) > 256:
            self._delivered_entries.pop(0)
        if self._record and (self.max_records is None
                             or len(self.records) < self.max_records):
            self.records.append(CaptureRecord(
                now, packet.src, packet.dst, packet.size_bytes,
                packet.flow_id, packet.packet_id,
            ))

    # ------------------------------------------------------------------
    def characterize(self) -> PathCharacteristics:
        stats = self.link.stats
        duration = 0.0
        if self._first_time is not None and self._last_time is not None:
            duration = self._last_time - self._first_time
        delivered = stats.delivered_packets
        return PathCharacteristics(
            duration=duration,
            delivered_packets=delivered,
            delivered_bytes=stats.delivered_bytes,
            dropped_packets=stats.dropped_packets,
            lost_packets=stats.lost_packets,
            reordered_packets=self._reordered,
            mean_reorder_depth=(
                self._depth_total / self._reordered if self._reordered else 0.0
            ),
        )

    def to_csv(self) -> str:
        """Export the capture as CSV text (time,src,dst,size,flow,id)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["time", "src", "dst", "size_bytes", "flow_id",
                         "packet_id"])
        for record in self.records:
            writer.writerow([f"{record.time:.6f}", record.src, record.dst,
                             record.size_bytes, record.flow_id or "",
                             record.packet_id])
        return buffer.getvalue()

    def detach(self) -> None:
        """Stop capturing and restore the link's original taps."""
        self.link.on_send = self._previous_send_tap
        self.link.on_deliver = self._previous_tap


def characterize_scenario(scenario: Scenario, *, duration: float = 20.0,
                          probe_rate_mbps: Optional[float] = None,
                          seed: int = 0) -> PathCharacteristics:
    """Measure a scenario the way the paper measured its cell networks.

    Sends a constant-rate UDP-like probe stream through the scenario's
    bottleneck for ``duration`` seconds and characterises what arrives.
    ``probe_rate_mbps`` defaults to 1.2x the scenario rate cap (so the
    cap, loss and reordering are all exercised).
    """
    from .topology import build_path

    sim = Simulator()
    path = build_path(sim, scenario, seed=seed)
    capture = PacketCapture(path.bottleneck_up, record=False)
    rate = probe_rate_mbps
    if rate is None:
        rate = (scenario.rate_mbps or 10.0) * 1.2
    interval = 1400 * 8 / (rate * 1e6)
    path.server.register_handler(lambda p: None)

    def send_probe() -> None:
        if sim.now >= duration:
            return
        path.client.send(Packet("client", "server", 1400, flow_id="probe"))
        sim.post(interval, send_probe)

    send_probe()
    sim.run(until=duration + 2.0)
    return capture.characterize()
