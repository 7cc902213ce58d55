#!/usr/bin/env python3
"""Root-cause a performance pathology: QUIC under packet reordering.

Walks through the paper's Fig. 10 analysis end to end:

1. measure QUIC vs TCP on a jittery path (112 ms RTT, 10 ms jitter —
   netem-style jitter reorders packets);
2. use the instrumentation to show *why* QUIC collapses (false losses
   from the fixed NACK threshold; heavy Recovery dwell) while TCP's
   DSACK adaptation raises its duplicate threshold and sails through;
3. apply the fixes the QUIC team was experimenting with (larger /
   adaptive / time-based thresholds) and quantify the repair.

Run:  python examples/reordering_root_cause.py
"""

from repro.core import ProtocolSpec
from repro.core.rootcause import loss_report
from repro.core.runner import run_bulk_transfer
from repro.netem import reordering_scenario
from repro.quic import quic_config

SIZE = 10 * 1024 * 1024


def show(label: str, result) -> None:
    report = loss_report_from(result)
    dwell = result.server_trace.dwell_fractions()
    recovery = dwell.get("Recovery", 0.0) + dwell.get("RetransmissionTimeout", 0.0)
    print(f"{label:<22} {result.elapsed:7.2f}s  "
          f"{result.throughput_mbps:6.2f} Mbps  "
          f"false losses {result.false_losses:5d}  "
          f"time in recovery {recovery * 100:4.1f}%")


def loss_report_from(result):
    return result  # the TransferResult already carries the counters


def main() -> None:
    scenario = reordering_scenario()
    print(f"scenario: {scenario.describe()}  (jitter => reordering)")
    print(f"workload: {SIZE // (1024 * 1024)} MB download\n")

    print("step 1 - the symptom:")
    quic_default = run_bulk_transfer(scenario, SIZE, "quic", seed=1)
    tcp = run_bulk_transfer(scenario, SIZE, "tcp", seed=1)
    show("QUIC (NACK=3)", quic_default)
    show("TCP (DSACK)", tcp)

    print("\nstep 2 - the root cause:")
    rate = quic_default.false_losses / max(quic_default.losses, 1)
    print(f"  {rate * 100:.0f}% of QUIC's declared losses were spurious: "
          "reordered packets deeper than the")
    print("  3-packet NACK threshold are treated as lost, every false loss "
          "halves the window.")
    print("  TCP instead detected its spurious retransmits via DSACK and "
          "raised its dupthresh.\n")

    print("step 3 - the fixes (paper: the QUIC team's experiments):")
    for label, changes in (
        ("QUIC NACK=10", {"nack_threshold": 10}),
        ("QUIC NACK=50", {"nack_threshold": 50}),
        ("QUIC adaptive", {"adaptive_nack_threshold": True}),
        ("QUIC time-based", {"time_based_loss": True}),
    ):
        cfg = quic_config(34).with_(**changes)
        show(label, run_bulk_transfer(scenario, SIZE,
                                      ProtocolSpec("quic", cfg), seed=1))

    print("\nconclusion: with reordering-robust loss detection QUIC matches "
          "or beats TCP again.")


if __name__ == "__main__":
    main()
