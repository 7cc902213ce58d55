"""Table 4 / Fig. 4 — QUIC vs TCP fairness on a 5 Mbps bottleneck.

Paper shape: QUIC takes ~2.71 Mbps vs TCP's 1.62 (QUIC vs 1 TCP); even
against 2 or 4 TCP flows QUIC keeps more than half the bottleneck.
"""

from repro.core.runner import run_fairness
from repro.core.stats import mean, sample_std

from .harness import bench_runs, run_once, save_judged

DURATION = 40.0
MIXES = (("QUIC vs QUIC", 2, 0), ("QUIC vs TCP", 1, 1),
         ("QUIC vs TCPx2", 1, 2), ("QUIC vs TCPx4", 1, 4))


def fairness_table(mixes=MIXES, seeds=None, duration=DURATION):
    """Mix label -> one :class:`FairnessResult` per seed."""
    seeds = seeds or range(max(bench_runs() // 2, 3))
    return {label: [run_fairness(n_quic=n_quic, n_tcp=n_tcp,
                                 duration=duration, seed=seed)
                    for seed in seeds]
            for label, n_quic, n_tcp in mixes}


def test_tab04_fairness(benchmark):
    table = run_once(benchmark, fairness_table)
    lines = [
        "Table 4 — avg throughput (Mbps) on a 5 Mbps link, buffer=30 KB",
        f"(paper: QUIC 2.71 vs TCP 1.62; QUIC >50% even vs TCPx2/x4)", "",
    ]
    for label, runs in table.items():
        share = mean([r.quic_share() for r in runs])
        lines.append(f"{label}  (QUIC share of bytes: {share * 100:.0f}%)")
        for flow in sorted(runs[0].average_mbps):
            vals = [r.average_mbps[flow] for r in runs]
            lines.append(f"    {flow:<8} {mean(vals):5.2f} "
                         f"({sample_std(vals):4.2f})")
    save_judged("tab04_fairness", "\n".join(lines), table)
