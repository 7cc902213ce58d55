"""Fig. 3 — inferred state machines for QUIC's Cubic (a) and BBR (b).

Paper shape: the Cubic machine contains the standard states (Init,
SlowStart, CongestionAvoidance, ApplicationLimited) plus the QUIC-specific
ones (CongestionAvoidanceMaxed, TailLossProbe, Recovery/proportional rate
reduction); BBR shows Startup/Drain/ProbeBW/ProbeRTT.
"""

from repro.core import infer
from repro.core.executor import ProtocolSpec
from repro.core.runner import run_page_load
from repro.devices import MOTOG
from repro.http import page, single_object_page
from repro.netem import emulated
from repro.quic import quic_config

from .harness import run_once, save_judged

#: A scenario mix chosen to visit every Table 3 state.
SCENARIOS = [
    (emulated(10.0), single_object_page(1024 * 1024), {}),
    (emulated(100.0, loss_pct=1.0), single_object_page(2 * 1024 * 1024), {}),
    (emulated(5.0), page(10, 50 * 1024), {}),
    (emulated(50.0), single_object_page(10 * 1024 * 1024), {"device": MOTOG}),
    (emulated(100.0), single_object_page(10 * 1024 * 1024), {}),
]


def _collect_cubic_traces():
    traces = []
    for scenario, web_page, extra in SCENARIOS:
        for seed in range(2):
            out = run_page_load(scenario, web_page, "quic", seed=seed,
                                trace=True, **extra)
            traces.append(out.server_trace)
    traces.append(_tail_loss_trace())
    return traces


def _tail_loss_trace():
    """A run whose final packets die on the wire, so the inferred machine
    includes the TailLossProbe / RetransmissionTimeout states too."""
    from repro.core.instrumentation import Trace
    from repro.netem import Simulator, build_path
    from repro.quic import open_quic_pair, quic_config

    sim = Simulator()
    scenario = emulated(10.0).with_(queue_bytes=10_000_000)
    path = build_path(sim, scenario, seed=3)
    trace = Trace("tail-loss", enabled=True)
    cfg = quic_config(34, macw_packets=20)  # wire-paced sender
    client, server = open_quic_pair(
        sim, path.client, path.server, cfg,
        request_handler=lambda m: m["size"], seed=3, server_trace=trace,
    )
    size = 200_000
    done = {}
    client.connect()
    client.request({"size": size}, lambda s, m, t: done.update({1: t}))

    def arm():
        stream = server.send_streams.get(1)
        if stream is not None and stream.bytes_sent >= size - 3 * 1350:
            path.bottleneck_down.drop_next(3)
            return
        sim.post(0.002, arm)

    sim.post(0.002, arm)
    assert sim.run_until(lambda: 1 in done, timeout=30.0)
    trace.close(sim.now)
    return trace


def test_fig03a_cubic_state_machine(benchmark):
    traces = run_once(benchmark, _collect_cubic_traces)
    model = infer(traces)
    invariants = model.mine_invariants([t.state_sequence() for t in traces])
    text = model.summary() + "\n\n" + model.to_dot("QUIC Cubic (Fig. 3a)")
    text += "\n\nmined invariants (first 20):\n" + "\n".join(
        str(inv) for inv in invariants[:20])
    save_judged("fig03a_cubic_state_machine", text, model)

def _collect_bbr_traces():
    traces = []
    cfg = quic_config(34).with_(use_bbr=True)
    for seed in range(3):
        out = run_page_load(emulated(20.0), single_object_page(5 * 1024 * 1024),
                            ProtocolSpec.quic(cfg), seed=seed, trace=True)
        traces.append(out.server_trace)
    return traces


def test_fig03b_bbr_state_machine(benchmark):
    traces = run_once(benchmark, _collect_bbr_traces)
    model = infer(traces)
    text = model.summary() + "\n\n" + model.to_dot("QUIC BBR (Fig. 3b)")
    save_judged("fig03b_bbr_state_machine", text, model)
