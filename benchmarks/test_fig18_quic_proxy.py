"""Fig. 18 — QUIC direct vs QUIC through an (unoptimized) QUIC proxy.

Paper shape: the proxy *hurts* small objects (no 0-RTT on the proxied
legs) but *helps* large objects under loss (per-leg loss recovery at half
the RTT).
"""

from repro.core.comparison import Comparison
from repro.core.heatmap import Heatmap
from repro.core.runner import measure_plts
from repro.http import single_object_page
from repro.netem import emulated

from .harness import bench_runs, run_once, save_judged

SIZES_KB = (10, 200, 1000, 10_000)
CONDITIONS = (
    ("base-36ms", dict()),
    ("loss-1pct", dict(loss_pct=1.0)),
    ("delay+100ms", dict(extra_delay_ms=100.0)),
)


def quic_proxy_grid(conditions=CONDITIONS, sizes_kb=SIZES_KB, runs=None):
    heatmap = Heatmap(
        "Fig. 18 — QUIC direct vs QUIC proxied (positive = direct faster)",
        row_labels=[name for name, _ in conditions],
        col_labels=[f"1x{kb}KB" for kb in sizes_kb],
        treatment="direct",
        baseline="proxied",
    )
    runs = runs or bench_runs()
    for name, kwargs in conditions:
        scenario = emulated(10.0, **kwargs)
        for kb in sizes_kb:
            page = single_object_page(kb * 1024)
            direct = measure_plts(scenario, page, "quic", runs=runs)
            proxied = measure_plts(scenario, page, "quic", runs=runs,
                                   proxied=True)
            heatmap.put(name, f"1x{kb}KB",
                        Comparison(f"{name}/{kb}", direct, proxied))
    return heatmap


def test_fig18_quic_proxy(benchmark):
    heatmap = run_once(benchmark, quic_proxy_grid)
    save_judged("fig18_quic_proxy", heatmap.render(), heatmap)
