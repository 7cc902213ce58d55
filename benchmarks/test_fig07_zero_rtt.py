"""Fig. 7 — QUIC with vs without 0-RTT connection establishment.

Paper shape: the 0-RTT gain is large for small objects and fades to
insignificance as objects grow and/or bandwidth drops (connection
establishment becomes a negligible PLT fraction).
"""

from repro.core.heatmap import Heatmap
from repro.core.runner import compare_quic_variants
from repro.http import single_object_page
from repro.netem import emulated
from repro.quic import quic_config

from .harness import bench_runs, run_once, save_judged

RATES = (5.0, 10.0, 50.0, 100.0)
SIZES_KB = (5, 100, 1000, 10_000)


def zero_rtt_heatmap(rates=RATES, sizes_kb=SIZES_KB, runs=None):
    heatmap = Heatmap(
        "Fig. 7 — QUIC 0-RTT on vs off (positive = 0-RTT faster)",
        row_labels=[f"{r:g}Mbps" for r in rates],
        col_labels=[f"1x{kb}KB" for kb in sizes_kb],
        treatment="0-RTT",
        baseline="no-0-RTT",
    )
    with_0rtt = quic_config(34, zero_rtt=True)
    without = quic_config(34, zero_rtt=False)
    for rate in rates:
        for kb in sizes_kb:
            cell = compare_quic_variants(
                emulated(rate), single_object_page(kb * 1024),
                treatment_cfg=with_0rtt, baseline_cfg=without,
                runs=runs or bench_runs(),
            )
            heatmap.put(f"{rate:g}Mbps", f"1x{kb}KB", cell)
    return heatmap


def test_fig07_zero_rtt_benefit(benchmark):
    heatmap = run_once(benchmark, zero_rtt_heatmap)
    save_judged("fig07_zero_rtt", heatmap.render(), heatmap)
