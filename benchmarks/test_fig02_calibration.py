"""Fig. 2 — calibration: public default vs GAE vs calibrated EC2.

Paper shape: the GAE bar has a large, variable *wait* component; the
uncalibrated public server's *download* takes ~2x the calibrated one.
"""

from repro.core.calibration import calibrate_macw, uncalibrated_vs_calibrated
from repro.netem import emulated

from .harness import bench_runs, run_once, save_judged


def test_fig02_server_configurations(benchmark):
    bars = run_once(
        benchmark, uncalibrated_vs_calibrated,
        scenario=emulated(100.0),
        size_bytes=10 * 1024 * 1024,
        runs=max(bench_runs() // 2, 3),
    )
    lines = ["Fig. 2 — 10 MB download over 100 Mbps, wait vs download time",
             ""]
    lines += [bar.describe() for bar in bars]
    save_judged("fig02_calibration", "\n".join(lines), bars)


def test_fig02_grey_box_macw_search(benchmark):
    result = run_once(
        benchmark, calibrate_macw,
        candidates=(107, 215, 430, 860),
        scenario=emulated(100.0),
        size_bytes=10 * 1024 * 1024,
        runs=3,
    )
    save_judged("fig02_macw_search", result.describe(), result)
