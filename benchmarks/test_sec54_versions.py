"""Sec. 5.4 — historical comparison across QUIC versions 25-37.

Paper shape: with the configuration held constant, versions 25-36 yield
nearly identical performance; QUIC 37 differs only through its larger
default MACW.
"""

from repro.core.stats import mean, sample_std
from repro.core.executor import ProtocolSpec
from repro.core.runner import measure_plts
from repro.http import single_object_page
from repro.netem import emulated
from repro.quic import quic_config

from .harness import bench_runs, run_once, save_result

VERSIONS = (25, 28, 30, 32, 34, 36)
SCENARIO = emulated(10.0)
PAGE = single_object_page(1024 * 1024)


def _version_sweep():
    runs = max(bench_runs() - 2, 3)
    results = {}
    for version in VERSIONS:
        cfg = quic_config(version, macw_packets=430)
        results[version] = measure_plts(SCENARIO, PAGE,
                                        ProtocolSpec.quic(cfg), runs=runs)
    cfg37 = quic_config(37)  # default MACW 2000
    results[37] = measure_plts(SCENARIO, PAGE, ProtocolSpec.quic(cfg37),
                               runs=runs)
    return results


def test_sec54_version_stability(benchmark):
    results = run_once(benchmark, _version_sweep)
    lines = ["Sec. 5.4 — PLT by QUIC version, same configuration "
             "(1 MB over 10 Mbps)", ""]
    for version, plts in sorted(results.items()):
        lines.append(f"QUIC {version:>2}: {mean(plts):.4f}s "
                     f"(sd {sample_std(plts):.4f})")
    save_result("sec54_versions", "\n".join(lines))

    fixed_config = [mean(results[v]) for v in VERSIONS]
    spread = (max(fixed_config) - min(fixed_config)) / min(fixed_config)
    assert spread < 0.02  # "nearly identical results"
    # At 10 Mbps the MACW never binds, so 37 matches as well.
    assert abs(mean(results[37]) - mean(results[34])) / mean(results[34]) < 0.05


def test_sec54_state_machine_stability(benchmark):
    """The longitudinal FSM check: versions 25-36 produce *identical*
    inferred state machines under the same configuration (Sec. 5.4)."""
    from repro.core import infer
    from repro.core.diffing import version_stability_report, diff_models
    from repro.core.runner import run_page_load

    def sweep():
        models = {}
        for version in (25, 30, 34, 36):
            traces = []
            for scenario, workload in (
                (emulated(10.0), single_object_page(1024 * 1024)),
                (emulated(50.0, loss_pct=1.0), single_object_page(1024 * 1024)),
            ):
                cfg = quic_config(version, macw_packets=430)
                out = run_page_load(scenario, workload,
                                    ProtocolSpec.quic(cfg), seed=1, trace=True)
                traces.append(out.server_trace)
            models[version] = infer(traces)
        return models

    models = run_once(benchmark, sweep)
    report = version_stability_report(models, baseline=25)
    save_result("sec54_fsm_stability", report)
    for version in (30, 34, 36):
        diff = diff_models(models[25], models[version])
        assert diff.is_empty, f"QUIC {version} diverged: {diff.render()}"
