"""Fig. 14 / Table 5 — PLT over emulated operational cellular networks.

Paper shapes: on LTE, QUIC behaves like a low-bandwidth desktop link with
a larger 0-RTT benefit (higher RTTs); on 3G, higher reordering eats into
QUIC's advantage and higher variance turns many cells inconclusive.
"""

from repro.core.runner import build_plt_heatmap
from repro.http import single_object_page
from repro.netem import CELLULAR_PROFILES

from .harness import bench_runs, run_once, save_judged

SIZES_KB = (10, 100, 1000)
NETWORKS = ("verizon-lte", "sprint-lte", "verizon-3g", "sprint-3g")


def _cellular_heatmap():
    scenarios = [CELLULAR_PROFILES[name].scenario() for name in NETWORKS]
    pages = [single_object_page(kb * 1024) for kb in SIZES_KB]
    return build_plt_heatmap(
        "Fig. 14 — QUIC34 vs TCP over emulated cell networks (Table 5)",
        scenarios, pages, runs=bench_runs(),
    )


def test_fig14_cellular(benchmark):
    heatmap = run_once(benchmark, _cellular_heatmap)
    table5 = ["Table 5 — emulated network characteristics:"]
    for name in NETWORKS:
        profile = CELLULAR_PROFILES[name]
        table5.append(
            f"  {name:<12} {profile.throughput_mbps:5.2f} Mbps  "
            f"RTT {profile.rtt_ms:5.1f} ({profile.rtt_std_ms:4.1f}) ms  "
            f"reorder {profile.reordering_pct:4.2f}%  "
            f"loss {profile.loss_pct:4.2f}%"
        )
    save_judged("fig14_cellular",
                "\n".join(table5) + "\n\n" + heatmap.render(), heatmap)
