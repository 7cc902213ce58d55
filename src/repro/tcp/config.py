"""TCP(+TLS) configuration (the paper's baseline stack, Sec. 3.1).

The paper's "TCP" is HTTP/2 over TLS over Linux TCP Cubic with default
settings (kernel 4.4 server).  The corresponding knobs:

* Cubic with ``N = 1`` (no multi-connection emulation), no MACW, no
  pacing (pre-``fq`` default), IW10.
* Delayed ACKs (every 2nd segment or 40 ms), cumulative ACK + SACK.
* Fast retransmit at ``dupthresh`` duplicate notifications with
  DSACK-driven adaptation (RR-TCP) — the mechanism the paper credits for
  TCP's robustness to reordering (Sec. 5.2, Fig. 10).
* RTO floor 200 ms.
* One-RTT TCP handshake plus a two-RTT TLS 1.2 exchange before the first
  request byte (versus QUIC's 0 RTT).
* Tail loss probes exist in Linux 4.4 but the paper attributes TLP to
  QUIC's advantage, so they default off here; the ablation bench flips
  ``tlp_enabled``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..transport.cc.cubic import CubicConfig


def default_tcp_cubic() -> CubicConfig:
    """Linux-flavoured Cubic: IW10, no MACW, no pacing, less sensitive
    HyStart (Linux's HyStart historically triggers less often than
    Chromium's in these regimes)."""
    return CubicConfig(
        initial_cwnd_packets=10,
        max_cwnd_packets=None,
        num_emulated_connections=1,
        pacing_gain_slow_start=None,
        pacing_gain_ca=None,
        hybrid_slow_start=True,
        hss_threshold_divisor=4.0,
    )


@dataclass(frozen=True)
class TcpConfig:
    """All tunables of one TCP endpoint pair."""

    mss: int = 1350
    cc: CubicConfig = default_tcp_cubic()
    #: Fast-retransmit duplicate threshold and DSACK adaptation.
    dupthresh: int = 3
    dsack: bool = True
    dupthresh_cap: int = 100
    #: Delayed-ACK policy.
    ack_every_n: int = 2
    delayed_ack_timeout: float = 0.040
    max_sack_blocks: int = 3
    #: Retransmission timer.
    min_rto: float = 0.2
    #: Tail loss probes (off: see module docstring).
    tlp_enabled: bool = False
    max_tail_loss_probes: int = 2
    #: Receive buffer (kernel socket buffer; autotuned-large default).
    receive_buffer: int = 6 * 1024 * 1024
    #: Handshake: 1 RTT TCP + ``tls_rtts`` RTTs of TLS before data.
    tls_rtts: int = 2
    #: Wire sizes of the TLS flights.
    client_hello_bytes: int = 350
    server_hello_bytes: int = 3600
    client_finished_bytes: int = 300
    server_finished_bytes: int = 300
    #: HTTP/2-style response interleaving: "roundrobin" multiplexes DATA
    #: chunks fairly across in-progress responses; "fifo" finishes one
    #: response before the next.
    scheduler: str = "roundrobin"

    def __post_init__(self) -> None:
        if self.scheduler not in ("roundrobin", "fifo"):
            raise ValueError(
                f"unknown TCP scheduler {self.scheduler!r} (expected "
                f"'roundrobin' or 'fifo')")

    def with_(self, **changes) -> "TcpConfig":
        return replace(self, **changes)


def tcp_config(**changes) -> TcpConfig:
    """The paper's baseline TCP stack, with optional overrides."""
    return TcpConfig().with_(**changes) if changes else TcpConfig()
