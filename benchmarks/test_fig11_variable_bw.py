"""Fig. 11 — variable bandwidth: 50-150 Mbps re-drawn every second.

Paper shape: downloading a 210 MB object, QUIC averages ~79 Mbps vs TCP's
~46 Mbps — QUIC's unambiguous ACKs track capacity changes faster.

The default bench scales the object to 30 MB to keep runtime modest;
``REPRO_FULL=1`` restores the paper's 210 MB.
"""

from repro.core.runner import run_bulk_transfer
from repro.core.stats import mean, sample_std
from repro.netem import variable_bandwidth_scenario

from .harness import full_scale, run_once, save_judged

RUNS = 4


def variable_bw_throughputs(runs=RUNS, size_mb=30):
    """Protocol -> throughput (Mbps) of ``runs`` seeded downloads."""
    return {protocol: [run_bulk_transfer(
        variable_bandwidth_scenario(), size_mb * 1024 * 1024, protocol,
        seed=seed, variable_bw=(50.0, 150.0, 1.0)).throughput_mbps
        for seed in range(runs)] for protocol in ("quic", "tcp")}


def test_fig11_variable_bandwidth(benchmark):
    size = 210 if full_scale() else 30
    results = run_once(benchmark, variable_bw_throughputs, size_mb=size)
    lines = [
        f"Fig. 11 — {size} MB download, bandwidth "
        f"fluctuating 50-150 Mbps every 1 s",
        "(paper, 210 MB: QUIC 79 Mbps (sd 31) vs TCP 46 Mbps (sd 12))",
        "",
    ]
    for protocol, tputs in results.items():
        lines.append(f"{protocol:<5} avg throughput "
                     f"{mean(tputs):6.2f} Mbps (sd {sample_std(tputs):5.2f})")
    save_judged("fig11_variable_bw", "\n".join(lines), results)
