"""Fig. 12 — QUIC vs TCP on the MotoG and Nexus 6 (WiFi rates).

Paper shape: on phones QUIC's gains diminish across the board; on the
older MotoG at 50 Mbps QUIC's advantage disappears or reverses for large
objects (the 100 Mbps row is omitted, as the paper's phones could not
exceed ~50 Mbps over WiFi).
"""

from repro.core.runner import build_plt_heatmap
from repro.devices import DESKTOP, MOTOG, NEXUS6
from repro.http import single_object_page
from repro.netem import emulated

from .harness import bench_runs, run_once, save_judged

RATES = (5.0, 10.0, 50.0)
SIZES_KB = (100, 1000, 10_000)


def device_heatmaps(devices=(DESKTOP, NEXUS6, MOTOG), rates=RATES,
                    sizes_kb=SIZES_KB, runs=None):
    """Device name -> its QUIC-vs-TCP heatmap."""
    return {device.name: build_plt_heatmap(
        f"Fig. 12 — QUIC34 vs TCP on {device.name}",
        [emulated(rate) for rate in rates],
        [single_object_page(kb * 1024) for kb in sizes_kb],
        runs=runs or max(bench_runs() - 1, 3), device=device,
    ) for device in devices}


def test_fig12_mobile_heatmaps(benchmark):
    heatmaps = run_once(benchmark, device_heatmaps)
    text = "\n\n".join(hm.render() for hm in heatmaps.values())
    save_judged("fig12_mobile", text, heatmaps)
