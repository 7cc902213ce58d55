"""Fig. 5 — congestion-window timelines on the shared 5 Mbps bottleneck.

Paper shape: competing over the same link, QUIC sustains a larger
congestion window than TCP and grows it back faster after losses.
"""

from repro.core.instrumentation import Trace
from repro.core.stats import mean
from repro.netem import Simulator, build_bottleneck, fairness_bottleneck
from repro.quic import open_quic_pair, quic_config
from repro.tcp import open_tcp_pair, tcp_config

from .harness import run_once, save_judged

DURATION = 30.0


def _competing_cwnd_series():
    sim = Simulator()
    net, clients, servers, _link = build_bottleneck(
        sim, fairness_bottleneck(), 2, seed=1
    )
    qtrace = Trace("quic", enabled=True, cwnd_min_interval=0.1)
    ttrace = Trace("tcp", enabled=True, cwnd_min_interval=0.1)
    handler = lambda m: m["size"]  # noqa: E731
    qc, _qs = open_quic_pair(sim, clients[0], servers[0], quic_config(34),
                             request_handler=handler, server_trace=qtrace,
                             seed=1, flow_id="quic")
    tc, _ts = open_tcp_pair(sim, clients[1], servers[1], tcp_config(),
                            request_handler=handler, server_trace=ttrace,
                            seed=2, flow_id="tcp")
    blob = 100_000_000
    qc.connect()
    qc.request({"size": blob}, lambda *a: None)
    tc.connect(lambda now: tc.request({"size": blob}, lambda *a: None))
    sim.run(until=DURATION)
    return qtrace.series("cwnd"), ttrace.series("cwnd")


def _render(series, label, bucket=2.0):
    from collections import defaultdict

    rows = defaultdict(list)
    for t, cwnd in series:
        rows[int(t / bucket)].append(cwnd / 1350)
    out = [label]
    for b in sorted(rows):
        vals = rows[b]
        bar = "#" * max(int(mean(vals)), 1)
        out.append(f"  t={b * bucket:5.1f}s cwnd={mean(vals):6.1f} pkts {bar}")
    return "\n".join(out)


def test_fig05_cwnd_timeline(benchmark):
    quic_series, tcp_series = run_once(benchmark, _competing_cwnd_series)
    text = "\n\n".join([
        "Fig. 5 — cwnd over time, QUIC vs TCP sharing a 5 Mbps bottleneck",
        _render(quic_series, "QUIC cwnd"),
        _render(tcp_series, "TCP cwnd"),
    ])
    save_judged("fig05_cwnd_timeline", text, (quic_series, tcp_series))
