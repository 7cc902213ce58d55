"""Table 6 — video QoE per quality level, 100 Mbps + 1% loss.

Paper shape: no meaningful QoE difference at tiny/medium/hd720; at hd2160
QUIC loads a larger fraction of the video in 60 s and spends a much
smaller share of time buffering per played second.
"""

from repro.netem import emulated
from repro.video import QUALITIES, measure_video_qoe

from .harness import bench_runs, run_once, save_judged

SCENARIO = emulated(100.0, loss_pct=1.0)


def _table():
    runs = max(bench_runs() - 1, 3)
    rows = {}
    for quality in QUALITIES:
        for protocol in ("quic", "tcp"):
            rows[(quality, protocol)] = measure_video_qoe(
                quality, protocol, runs=runs, scenario=SCENARIO,
            )
    return rows


def test_tab06_video_qoe(benchmark):
    rows = run_once(benchmark, _table)
    lines = ["Table 6 — YouTube-style QoE, 60 s sessions, 100 Mbps + 1% loss",
             ""]
    for quality in QUALITIES:
        for protocol in ("quic", "tcp"):
            lines.append(rows[(quality, protocol)].row())
        lines.append("")
    save_judged("tab06_video_qoe", "\n".join(lines), rows)
