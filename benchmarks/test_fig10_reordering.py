"""Fig. 10 — packet reordering vs the NACK threshold.

The paper's setup: 10 MB download, 112 ms RTT with 10 ms jitter (netem's
per-packet delay assignment reorders packets).  Shape: QUIC at the default
threshold (3) is far slower than TCP; raising the threshold progressively
restores QUIC; TCP's DSACK adaptation keeps it robust throughout.
"""

from repro.core.rootcause import loss_report
from repro.core.executor import ProtocolSpec
from repro.core.runner import run_bulk_transfer
from repro.netem import reordering_scenario
from repro.quic import quic_config

from .harness import run_once, save_result

SIZE = 10 * 1024 * 1024
THRESHOLDS = (3, 10, 25, 50)


def _sweep():
    scenario = reordering_scenario()
    rows = []
    for threshold in THRESHOLDS:
        cfg = quic_config(34)
        cfg.nack_threshold = threshold
        result = run_bulk_transfer(scenario, SIZE, ProtocolSpec.quic(cfg),
                                   seed=1)
        rows.append((f"QUIC nack={threshold}", result))
    cfg = quic_config(34)
    cfg.adaptive_nack_threshold = True
    rows.append(("QUIC adaptive",
                 run_bulk_transfer(scenario, SIZE, ProtocolSpec.quic(cfg),
                                   seed=1)))
    cfg = quic_config(34)
    cfg.time_based_loss = True
    rows.append(("QUIC time-based",
                 run_bulk_transfer(scenario, SIZE, ProtocolSpec.quic(cfg),
                                   seed=1)))
    rows.append(("TCP (DSACK)",
                 run_bulk_transfer(scenario, SIZE, "tcp", seed=1)))
    return rows


def test_fig10_reordering_nack_threshold(benchmark):
    rows = run_once(benchmark, _sweep)
    lines = ["Fig. 10 — 10 MB download, 112 ms RTT + 10 ms jitter "
             "(reordering)", ""]
    for label, result in rows:
        lines.append(
            f"{label:<18} elapsed {result.elapsed:7.2f}s  "
            f"tput {result.throughput_mbps:6.2f} Mbps  "
            f"losses {result.losses:5d}  false {result.false_losses:5d}"
        )
    save_result("fig10_reordering", "\n".join(lines))

    by_label = dict(rows)
    default = by_label["QUIC nack=3"]
    best = by_label["QUIC nack=50"]
    tcp = by_label["TCP (DSACK)"]
    # Default QUIC melts down on false losses; TCP does not.
    assert default.elapsed > tcp.elapsed * 1.5
    assert default.false_losses > 100
    # Raising the threshold monotonically (roughly) restores QUIC.
    elapsed = [by_label[f"QUIC nack={t}"].elapsed for t in THRESHOLDS]
    assert elapsed[-1] < elapsed[0] / 2
    assert best.false_losses < default.false_losses / 3
    # The experimental fixes work too.
    assert by_label["QUIC adaptive"].elapsed < default.elapsed
    assert by_label["QUIC time-based"].elapsed < default.elapsed
