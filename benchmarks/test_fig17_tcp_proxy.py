"""Fig. 17 — QUIC (direct) vs proxied TCP.

Paper shape: a split TCP proxy recovers much of QUIC's edge in low-loss /
low-latency cells and under loss, but QUIC still wins on high-delay links
(0-RTT beats even a halved handshake for small objects).  The same cells
against direct TCP are measured too, so the proxy's own gain is judged.
"""

from repro.core.comparison import Comparison
from repro.core.heatmap import Heatmap
from repro.core.runner import measure_plts
from repro.http import single_object_page
from repro.netem import emulated

from .harness import bench_runs, run_once, save_judged

SIZES_KB = (10, 200, 1000)
CONDITIONS = (
    ("base-36ms", dict()),
    ("loss-1pct", dict(loss_pct=1.0)),
    ("delay+100ms", dict(extra_delay_ms=100.0)),
)


def proxy_grids(conditions=CONDITIONS, sizes_kb=SIZES_KB, runs=None):
    """QUIC vs proxied TCP ("proxied") and vs direct TCP ("direct")."""
    grids = {side: Heatmap(
        f"QUIC direct vs {side} TCP (positive = QUIC faster)",
        row_labels=[name for name, _ in conditions],
        col_labels=[f"1x{kb}KB" for kb in sizes_kb],
        baseline=f"tcp-{side}",
    ) for side in ("proxied", "direct")}
    runs = runs or bench_runs()
    for name, kwargs in conditions:
        scenario = emulated(10.0, **kwargs)
        for kb in sizes_kb:
            page = single_object_page(kb * 1024)
            quic = measure_plts(scenario, page, "quic", runs=runs)
            for side, grid in grids.items():
                tcp = measure_plts(scenario, page, "tcp", runs=runs,
                                   proxied=side == "proxied")
                grid.put(name, f"1x{kb}KB",
                         Comparison(f"{name}/{kb}", quic, tcp))
    return grids


def test_fig17_quic_vs_proxied_tcp(benchmark):
    grids = run_once(benchmark, proxy_grids)
    save_judged("fig17_tcp_proxy", "\n\n".join(
        grid.render() for grid in grids.values()), grids)
