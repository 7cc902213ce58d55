"""Fig. 8 — PLT heatmaps with added loss and delay (a-f).

Paper shapes: QUIC wins under loss (a: better recovery, no HOL) and under
added delay for small/medium objects (b, c: 0-RTT); the many-small-objects
weakness persists under impairments (d-f).
"""

import pytest

from repro.core.runner import build_plt_heatmap
from repro.http import page, single_object_page
from repro.netem import emulated

from .harness import bench_runs, full_scale, run_once, save_judged

RATES = (5.0, 50.0, 100.0)


def _sizes():
    kbs = (5, 100, 1000, 10_000) if not full_scale() \
        else (5, 10, 100, 200, 500, 1000, 10_000)
    return [single_object_page(kb * 1024) for kb in kbs]


def _counts():
    ns = (1, 100, 200) if not full_scale() else (1, 2, 5, 10, 100, 200)
    return [page(n, 10 * 1024) for n in ns]


def _heatmap(title, pages, *, loss_pct=0.0, delay_ms=0.0):
    scenarios = [emulated(rate, loss_pct=loss_pct, extra_delay_ms=delay_ms)
                 for rate in RATES]
    return build_plt_heatmap(title, scenarios, pages, runs=bench_runs())


@pytest.mark.parametrize("stem, title, pages, impairment", [
    ("fig08a_sizes_loss1pct", "Fig. 8a — object sizes, 1% added loss", _sizes,
     {"loss_pct": 1.0}),
    ("fig08b_sizes_delay50ms", "Fig. 8b — object sizes, +50 ms delay", _sizes,
     {"delay_ms": 50.0}),
    ("fig08c_sizes_delay100ms", "Fig. 8c — object sizes, +100 ms delay",
     _sizes, {"delay_ms": 100.0}),
    ("fig08d_counts_loss1pct", "Fig. 8d — object counts, 1% added loss",
     _counts, {"loss_pct": 1.0}),
    ("fig08e_counts_delay50ms", "Fig. 8e — object counts, +50 ms delay",
     _counts, {"delay_ms": 50.0}),
    ("fig08f_counts_delay100ms", "Fig. 8f — object counts, +100 ms delay",
     _counts, {"delay_ms": 100.0}),
])
def test_fig08_loss_and_delay(benchmark, stem, title, pages, impairment):
    heatmap = run_once(benchmark, _heatmap, title, pages(), **impairment)
    save_judged(stem, heatmap.render(), heatmap)
