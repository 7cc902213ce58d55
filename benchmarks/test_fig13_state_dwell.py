"""Fig. 13 — state transition diagrams with dwell times: MotoG vs desktop.

Paper shape: at 50 Mbps with no added loss/delay the QUIC server spends
58% of its time ApplicationLimited when serving a MotoG, vs 7% for a
desktop client — the userspace packet-consumption bottleneck.
"""

from repro.core import compare_dwell, infer
from repro.core.runner import run_page_load
from repro.devices import MOTOG
from repro.http import single_object_page
from repro.netem import emulated

from .harness import run_once, save_judged

SCENARIO = emulated(50.0)
PAGE = single_object_page(10 * 1024 * 1024)


def dwell_runs():
    """Traced 10 MB QUIC loads at 50 Mbps: desktop, MotoG, their dwell."""
    desktop = run_page_load(SCENARIO, PAGE, "quic", seed=1, trace=True)
    motog = run_page_load(SCENARIO, PAGE, "quic", seed=1, trace=True,
                          device=MOTOG)
    return desktop, motog, compare_dwell(
        desktop.server_trace, motog.server_trace, "desktop", "motog")


def test_fig13_dwell_comparison(benchmark):
    desktop, motog, comparison = run_once(benchmark, dwell_runs)
    desktop_model = infer([desktop.server_trace])
    motog_model = infer([motog.server_trace])
    text = "\n\n".join([
        "Fig. 13 — QUIC server state dwell, 50 Mbps, no added loss/delay",
        "(paper: ApplicationLimited 7% on desktop vs 58% on MotoG)",
        comparison.render(),
        "--- desktop state machine ---",
        desktop_model.to_dot("desktop"),
        "--- motog state machine ---",
        motog_model.to_dot("motog"),
    ])
    save_judged("fig13_state_dwell", text, (desktop, motog, comparison))
