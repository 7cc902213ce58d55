"""Fig. 6 — desktop PLT heatmaps: QUIC 34 vs TCP, no added loss/delay.

Paper shape: QUIC (red) wins in every cell except large numbers of small
objects (Fig. 6b's right columns), where Hybrid Slow Start's early exit
costs it the win.
"""

import pytest

from repro.core.runner import build_plt_heatmap
from repro.http import page, single_object_page
from repro.netem import emulated

from .harness import bench_runs, full_scale, run_once, save_judged

RATES = (5.0, 10.0, 50.0, 100.0)


def _size_pages():
    sizes_kb = (5, 10, 100, 200, 500, 1000, 10_000) if full_scale() \
        else (5, 100, 1000, 10_000)
    return [single_object_page(kb * 1024) for kb in sizes_kb]


def _count_pages():
    counts = (1, 2, 5, 10, 100, 200) if full_scale() else (1, 10, 100, 200)
    return [page(n, 10 * 1024) for n in counts]


@pytest.mark.parametrize("stem, title, pages", [
    ("fig06a_plt_sizes",
     "Fig. 6a — QUIC34 vs TCP, rate x object size (no added loss/delay)", _size_pages),
    ("fig06b_plt_counts",
     "Fig. 6b — QUIC34 vs TCP, rate x object count (10 KB objects)", _count_pages),
])
def test_fig06_plt_heatmap(benchmark, stem, title, pages):
    heatmap = run_once(benchmark, build_plt_heatmap, title,
                       [emulated(rate) for rate in RATES], pages(), runs=bench_runs())
    save_judged(stem, heatmap.render(), heatmap)
