#!/usr/bin/env python3
"""Infer a protocol state machine from execution traces (paper Sec. 4.2).

Reproduces the paper's signature methodology: instrument the QUIC sender,
run it through a set of network environments, and infer the congestion-
control state machine (Fig. 3a) from the traces — including transition
probabilities, per-state dwell times, and Synoptic-style temporal
invariants.  Also prints the BBR machine (Fig. 3b) to show the approach
ports to other congestion controllers, and writes Graphviz DOT files you
can render with ``dot -Tpng``.

Run:  python examples/state_machine_inference.py
"""

from pathlib import Path

from repro.core import ProtocolSpec, infer
from repro.core.runner import run_page_load
from repro.devices import MOTOG
from repro.http import page, single_object_page
from repro.netem import emulated
from repro.quic import quic_config

OUT_DIR = Path(__file__).parent / "output"

#: Environments chosen to exercise every Table 3 state.
ENVIRONMENTS = [
    ("clean 10 Mbps", emulated(10.0), single_object_page(1024 * 1024), {}),
    ("lossy 100 Mbps", emulated(100.0, loss_pct=1.0),
     single_object_page(2 * 1024 * 1024), {}),
    ("multiplexed", emulated(5.0), page(10, 50 * 1024), {}),
    ("mobile client", emulated(50.0), single_object_page(10 * 1024 * 1024),
     {"device": MOTOG}),
    ("high bandwidth", emulated(100.0), single_object_page(10 * 1024 * 1024),
     {}),
]


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)

    print("collecting execution traces across environments...")
    traces = []
    for name, scenario, web_page, extra in ENVIRONMENTS:
        out = run_page_load(scenario, web_page, "quic", seed=1, trace=True,
                            **extra)
        visited = sorted(set(out.server_trace.state_sequence()))
        print(f"  {name:<15} PLT {out.plt:6.3f}s  states: {', '.join(visited)}")
        traces.append(out.server_trace)

    print("\n=== inferred QUIC Cubic state machine (Fig. 3a) ===")
    model = infer(traces)
    print(model.summary())

    invariants = model.mine_invariants([t.state_sequence() for t in traces])
    print(f"\nmined {len(invariants)} temporal invariants; e.g.:")
    for inv in invariants[:8]:
        print(f"  {inv}")

    dot_path = OUT_DIR / "quic_cubic_fsm.dot"
    dot_path.write_text(model.to_dot("QUIC Cubic congestion control"))
    print(f"\nDOT diagram written to {dot_path}")

    print("\n=== the same pipeline applied to BBR (Fig. 3b) ===")
    cfg = quic_config(34).with_(use_bbr=True)
    bbr_traces = []
    for seed in range(3):
        out = run_page_load(emulated(20.0), single_object_page(5 * 1024 * 1024),
                            ProtocolSpec("quic", cfg), seed=seed, trace=True)
        bbr_traces.append(out.server_trace)
    bbr_model = infer(bbr_traces)
    print(bbr_model.summary())
    (OUT_DIR / "quic_bbr_fsm.dot").write_text(bbr_model.to_dot("QUIC BBR"))
    print(f"DOT diagram written to {OUT_DIR / 'quic_bbr_fsm.dot'}")


if __name__ == "__main__":
    main()
