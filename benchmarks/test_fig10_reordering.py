"""Fig. 10 — packet reordering vs the NACK threshold.

The paper's setup: 10 MB download, 112 ms RTT with 10 ms jitter (netem's
per-packet delay assignment reorders packets).  Shape: QUIC at the default
threshold (3) is far slower than TCP; raising the threshold progressively
restores QUIC; TCP's DSACK adaptation keeps it robust throughout.
"""

from repro.core.executor import ProtocolSpec
from repro.core.runner import run_bulk_transfer
from repro.netem import reordering_scenario
from repro.quic import quic_config

from .harness import run_once, save_judged

SIZE = 10 * 1024 * 1024
THRESHOLDS = (3, 10, 25, 50)


def quic_transfer(**knobs):
    """One seeded 10 MB QUIC transfer over the reordering path."""
    cfg = quic_config(34)
    for knob, value in knobs.items():
        setattr(cfg, knob, value)
    return run_bulk_transfer(reordering_scenario(), SIZE,
                             ProtocolSpec.quic(cfg), seed=1)


def reordering_sweep(thresholds=THRESHOLDS):
    """Label -> transfer; the first ``QUIC nack=`` row is the default."""
    rows = {f"QUIC nack={t}": quic_transfer(nack_threshold=t)
            for t in thresholds}
    rows["QUIC adaptive"] = quic_transfer(adaptive_nack_threshold=True)
    rows["QUIC time-based"] = quic_transfer(time_based_loss=True)
    rows["TCP (DSACK)"] = run_bulk_transfer(reordering_scenario(), SIZE,
                                            "tcp", seed=1)
    return rows


def test_fig10_reordering_nack_threshold(benchmark):
    rows = run_once(benchmark, reordering_sweep)
    lines = ["Fig. 10 — 10 MB download, 112 ms RTT + 10 ms jitter "
             "(reordering)", ""]
    for label, result in rows.items():
        lines.append(
            f"{label:<18} elapsed {result.elapsed:7.2f}s  "
            f"tput {result.throughput_mbps:6.2f} Mbps  "
            f"losses {result.losses:5d}  false {result.false_losses:5d}"
        )
    save_judged("fig10_reordering", "\n".join(lines), rows)
