"""Fig. 9 — congestion window over time at 100 Mbps with 1% loss.

Paper shape: QUIC recovers from loss events faster and sustains a larger
average window than TCP under the same conditions.
"""

from repro.core.runner import run_bulk_transfer
from repro.core.stats import mean
from repro.netem import emulated

from .harness import run_once, save_judged

SCENARIO = emulated(100.0, loss_pct=1.0)
SIZE = 10 * 1024 * 1024


def _transfers():
    quic = run_bulk_transfer(SCENARIO, SIZE, "quic", seed=1)
    tcp = run_bulk_transfer(SCENARIO, SIZE, "tcp", seed=1)
    return quic, tcp


def test_fig09_cwnd_under_loss(benchmark):
    quic, tcp = run_once(benchmark, _transfers)
    lines = ["Fig. 9 — cwnd over time, 100 Mbps + 1% loss, 10 MB transfer", ""]
    for result in (quic, tcp):
        cwnds = [c / 1350 for _, c in result.cwnd_series]
        lines.append(
            f"{result.protocol:<5} elapsed {result.elapsed:6.2f}s  "
            f"tput {result.throughput_mbps:5.2f} Mbps  "
            f"mean cwnd {mean(cwnds):5.1f} pkts  "
            f"losses {result.losses}"
        )
    save_judged("fig09_cwnd_loss", "\n".join(lines), (quic, tcp))
