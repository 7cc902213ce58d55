"""Fig. 15 — QUIC 37 with MACW 430 vs the new default 2000.

Paper shape: with MACW clamped to 430, QUIC 37 performs identically to
QUIC 34; with its real default of 2000 it gains further on large
transfers over high-bandwidth paths (the window was the binding cap).
"""

from repro.core.heatmap import Heatmap
from repro.core.runner import measure_plts
from repro.core.comparison import Comparison
from repro.core.executor import ProtocolSpec
from repro.core.stats import mean
from repro.http import single_object_page
from repro.netem import emulated
from repro.quic import quic_config

from .harness import bench_runs, run_once, save_result

RATES = (50.0, 100.0)
SIZES_KB = (1000, 10_000, 30_000)


def _grid():
    """For each cell: PLTs under MACW=430 and MACW=2000 (both QUIC 37)."""
    heatmap = Heatmap(
        "Fig. 15 — QUIC37 MACW=2000 vs MACW=430 (positive = 2000 faster)",
        row_labels=[f"{r:g}Mbps" for r in RATES],
        col_labels=[f"1x{kb}KB" for kb in SIZES_KB],
        treatment="MACW2000",
        baseline="MACW430",
    )
    runs = bench_runs()
    cfg_430 = quic_config(37, macw_packets=430)
    cfg_2000 = quic_config(37, macw_packets=2000)
    v34_delta = []
    for rate in RATES:
        # Add enough delay that the BDP can exceed 430 packets (580 KB).
        scenario = emulated(rate, extra_delay_ms=50)
        for kb in SIZES_KB:
            page = single_object_page(kb * 1024)
            big = measure_plts(scenario, page, ProtocolSpec.quic(cfg_2000),
                               runs=runs)
            small = measure_plts(scenario, page, ProtocolSpec.quic(cfg_430),
                                 runs=runs)
            heatmap.put(f"{rate:g}Mbps", f"1x{kb}KB",
                        Comparison(f"{rate}/{kb}", big, small))
            v34 = measure_plts(scenario, page,
                               ProtocolSpec.quic(quic_config(34)), runs=3)
            v34_delta.append(abs(mean(small) - mean(v34)) / mean(v34))
    return heatmap, v34_delta


def test_fig15_macw(benchmark):
    heatmap, v34_delta = run_once(benchmark, _grid)
    text = heatmap.render() + (
        "\n\nQUIC37@MACW430 vs QUIC34 mean |PLT delta|: "
        f"{mean(v34_delta) * 100:.2f}% (paper: 'almost identical')"
    )
    save_result("fig15_macw", text)

    # Same MACW -> versions 34 and 37 are interchangeable.
    assert mean(v34_delta) < 0.05
    # The larger MACW helps the big-transfer, high-BDP cells.
    big_cell = heatmap.get("100Mbps", "1x30000KB")
    assert big_cell.pct_diff > 5
