"""QUIC configuration, keyed by protocol version (paper Secs. 4.1, 5.4).

The paper's longitudinal result is that QUIC versions 25–36 perform
identically *given the same configuration*, and that the big deltas came
from configuration, not protocol changes:

* the **maximum allowed congestion window (MACW)**: 107 packets in the
  uncalibrated public server, 430 in Chrome at the time of the
  experiments (the calibrated value used throughout the paper), 2000 in
  QUIC 37 / newer Chromium;
* **N-connection emulation**: N=2 in QUIC 34, N=1 in QUIC 37;
* the **Chromium-52 ssthresh bug** (server-side early slow-start exit),
  present in the uncalibrated public build.

:func:`quic_config` reproduces those knobs.  Everything else (NACK
threshold 3, MSPC 100, 0-RTT, pacing, TLP, PRR, Hybrid Slow Start) is
constant across the versions the paper tested.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..transport.cc.cubic import CubicConfig

#: Versions released during the paper's study window.
KNOWN_VERSIONS = tuple(range(25, 38))

#: Default maximum-allowed-congestion-window by era (packets).
MACW_PUBLIC_DEFAULT = 107
MACW_CALIBRATED = 430
MACW_QUIC37 = 2000


@dataclass(frozen=True)
class QuicConfig:
    """All tunables of one QUIC endpoint pair."""

    version: int = 34
    mss: int = 1350
    #: Congestion-control configuration (Cubic unless ``use_bbr``).
    cc: CubicConfig = CubicConfig()
    use_bbr: bool = False
    #: Fixed NACK (reordering) threshold for fast retransmit; the paper's
    #: Fig. 10 sweeps this (default 3).
    nack_threshold: int = 3
    #: Adaptive threshold (the fix the QUIC team was experimenting with):
    #: raise the threshold to observed reorder depth + 1 on spurious
    #: retransmits.
    adaptive_nack_threshold: bool = False
    nack_threshold_cap: int = 100
    #: Time-based loss detection: defer declarations by 1/4 SRTT once the
    #: NACK threshold is met (the "time-based solutions" the paper
    #: mentions the QUIC team experimenting with).
    time_based_loss: bool = False
    #: XOR forward error correction — the feature removed from QUIC in
    #: early 2016 for poor performance (Sec. 2.1 footnote 4); off in
    #: every version the paper tested, available here for the ablation.
    fec_enabled: bool = False
    fec_group_size: int = 5
    #: Maximum Streams Per Connection (Sec. 5.2 probes 1 vs default 100).
    max_streams_per_connection: int = 100
    #: 0-RTT connection establishment (Fig. 7 isolates this).
    zero_rtt: bool = True
    #: Tail loss probes (2, then RTO).
    tlp_enabled: bool = True
    max_tail_loss_probes: int = 2
    #: Connection/stream flow control: initial windows with doubling
    #: auto-tune up to the caps (Chromium behaviour).
    conn_flow_window: int = 1_536_000
    conn_flow_window_cap: int = 24 * 1024 * 1024
    stream_flow_window: int = 1_024_000
    stream_flow_window_cap: int = 6 * 1024 * 1024
    #: ACK policy: ack every 2nd retransmittable packet or after 25 ms.
    ack_every_n: int = 2
    ack_delay_timer: float = 0.025
    max_ack_blocks: int = 32
    #: RTO floor (Chromium uses 200 ms like TCP).
    min_rto: float = 0.2
    #: Sizes of handshake messages (bytes on the wire).
    chlo_bytes: int = 1024
    inchoate_chlo_bytes: int = 512
    rej_bytes: int = 2200
    shlo_bytes: int = 1100

    def __post_init__(self) -> None:
        # _build_packet budgets every ACK frame for this many blocks.
        if self.max_ack_blocks < 1:
            raise ValueError(
                f"max_ack_blocks must be >= 1, got {self.max_ack_blocks}")

    def label(self) -> str:
        macw = self.cc.max_cwnd_packets
        return f"QUIC{self.version}(MACW={macw})"

    def with_(self, **changes) -> "QuicConfig":
        return replace(self, **changes)


def quic_config(version: int = 34, *, calibrated: bool = True,
                macw_packets: Optional[int] = None,
                zero_rtt: bool = True) -> QuicConfig:
    """Build the configuration for one QUIC version.

    ``calibrated`` selects the paper's tuned server (Sec. 4.1); the
    uncalibrated public build keeps the small MACW default *and* the
    Chromium-52 ssthresh bug.  ``macw_packets`` overrides the MACW (the
    Fig. 15 experiment runs QUIC 37 with both 430 and 2000).
    """
    if version not in KNOWN_VERSIONS:
        raise ValueError(
            f"QUIC version {version} was not released during the study "
            f"window ({KNOWN_VERSIONS[0]}..{KNOWN_VERSIONS[-1]})"
        )
    if macw_packets is None:
        if not calibrated:
            macw_packets = MACW_PUBLIC_DEFAULT
        elif version >= 37:
            macw_packets = MACW_QUIC37
        else:
            macw_packets = MACW_CALIBRATED
    num_connections = 1 if version >= 37 else 2
    cc = CubicConfig(
        max_cwnd_packets=macw_packets,
        num_emulated_connections=num_connections,
        ssthresh_from_receiver_buffer=calibrated,
    )
    return QuicConfig(version=version, cc=cc, zero_rtt=zero_rtt)
