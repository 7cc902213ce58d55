"""Extension experiments beyond the paper's figures.

* BBR vs Cubic: the paper could not evaluate BBR fairly ("not yet
  performing as well as Cubic in our deployment tests" — Sec. 5.4);
  with both implemented here the comparison is one function call.
* Trace-driven cellular bandwidth (mahimahi-style, as used by Das [20]):
  QUIC vs TCP over a synthetic LTE capacity trace with outages.
"""

from repro.core.stats import mean
from repro.core.executor import ProtocolSpec
from repro.http import single_object_page
from repro.netem import (
    Simulator,
    TraceDrivenLink,
    build_path,
    emulated,
    lte_like_trace,
)
from repro.quic import open_quic_pair, quic_config
from repro.tcp import open_tcp_pair, tcp_config

from ..harness import run_once, save_result


def test_extension_bbr_vs_cubic(benchmark):
    """BBR v1 vs Cubic for QUIC bulk transfers, clean and lossy."""

    def run():
        from repro.core.runner import run_bulk_transfer

        out = {}
        for loss in (0.0, 1.0):
            for use_bbr in (False, True):
                cfg = quic_config(34).with_(use_bbr=use_bbr)
                result = run_bulk_transfer(
                    emulated(50.0, loss_pct=loss), 10 * 1024 * 1024,
                    ProtocolSpec.quic(cfg), seed=1)
                out[(loss, "bbr" if use_bbr else "cubic")] = result
        return out

    out = run_once(benchmark, run)
    lines = ["BBR v1 vs Cubic — 10 MB over 50 Mbps", ""]
    for (loss, cc), result in sorted(out.items()):
        lines.append(f"loss={loss:3.1f}% {cc:<6} {result.elapsed:7.3f}s  "
                     f"{result.throughput_mbps:6.2f} Mbps")
    save_result("extension_bbr_vs_cubic", "\n".join(lines))

    # Both complete; under random loss BBR (loss-agnostic) holds rate
    # better than Cubic, matching its design goal.
    assert out[(1.0, "bbr")].elapsed < out[(1.0, "cubic")].elapsed * 1.5
    # The paper-era observation: clean-path Cubic is competitive.
    assert out[(0.0, "cubic")].elapsed < out[(0.0, "bbr")].elapsed * 1.5


def _trace_transfer(protocol, seed):
    sim = Simulator()
    path = build_path(sim, emulated(100.0), seed=seed)
    trace = lte_like_trace(mean_mbps=8.0, duration=120.0, seed=seed)
    driver = TraceDrivenLink(sim, [path.bottleneck_down, path.bottleneck_up],
                             trace)
    driver.start()
    handler = lambda m: m["size"]  # noqa: E731
    size = 3 * 1024 * 1024
    done = {}
    if protocol == "quic":
        client, _server = open_quic_pair(
            sim, path.client, path.server, quic_config(34),
            request_handler=handler, seed=seed)
        client.connect()
        client.request({"size": size}, lambda s, m, t: done.update({1: t}))
    else:
        client, _server = open_tcp_pair(
            sim, path.client, path.server, tcp_config(),
            request_handler=handler, seed=seed)
        client.connect(lambda now: client.request(
            {"size": size}, lambda m, meta, t: done.update({1: t})))
    assert sim.run_until(lambda: 1 in done, timeout=300.0)
    driver.stop()
    return done[1]


def test_extension_trace_driven_lte(benchmark):
    """QUIC vs TCP over a mahimahi-style synthetic LTE trace."""

    def run():
        results = {"quic": [], "tcp": []}
        for protocol in results:
            for seed in range(3):
                results[protocol].append(_trace_transfer(protocol, seed))
        return results

    results = run_once(benchmark, run)
    q, t = mean(results["quic"]), mean(results["tcp"])
    save_result("extension_trace_lte",
                f"3 MB over synthetic LTE trace (8 Mbps mean, outages): "
                f"QUIC {q:.2f}s, TCP {t:.2f}s")
    # QUIC's faster ramp + handshake advantage carries over to traces.
    assert q < t


def test_extension_aqm_fairness(benchmark):
    """What-if: the Table 4 bottleneck runs CoDel instead of droptail.

    AQM bounds the standing queue's sojourn time instead of tail-dropping
    a 30 KB buffer.  Measured effect: QUIC's share softens slightly
    (~75% -> ~73%) — the unfairness is mostly in the window-growth
    dynamics, not the drop discipline.
    """

    def run():
        from repro.core.monitors import FlowThroughputMonitor
        from repro.netem import CoDel, Simulator, build_bottleneck
        from repro.netem import fairness_bottleneck

        shares = {}
        for aqm in (False, True):
            sim = Simulator()
            scn = fairness_bottleneck()
            net, clients, servers, down = build_bottleneck(sim, scn, 2, seed=1)
            if aqm:
                codel = CoDel(target=0.010, interval=0.1)
                codel.on_drop = down._count_drop
                down._queue = codel
            monitor = FlowThroughputMonitor(down, interval=0.5)
            handler = lambda m: m["size"]  # noqa: E731
            qc, _ = open_quic_pair(sim, clients[0], servers[0],
                                   quic_config(34), request_handler=handler,
                                   seed=1, flow_id="quic")
            tc, _ = open_tcp_pair(sim, clients[1], servers[1], tcp_config(),
                                  request_handler=handler, seed=2,
                                  flow_id="tcp")
            blob = 100_000_000
            qc.connect()
            qc.request({"size": blob}, lambda *a: None)
            tc.connect(lambda now: tc.request({"size": blob},
                                              lambda *a: None))
            sim.run(until=40.0)
            q = monitor.average_mbps("quic", 40.0)
            t = monitor.average_mbps("tcp", 40.0)
            shares["codel" if aqm else "droptail"] = (q, t, q / (q + t))
        return shares

    shares = run_once(benchmark, run)
    lines = ["QUIC-vs-TCP fairness, droptail vs CoDel bottleneck (5 Mbps):"]
    for name, (q, t, share) in shares.items():
        lines.append(f"  {name:<9} QUIC {q:4.2f} Mbps, TCP {t:4.2f} Mbps "
                     f"(QUIC share {share * 100:.0f}%)")
    save_result("extension_aqm_fairness", "\n".join(lines))
    # Both flows make progress under both disciplines.
    for name, (q, t, share) in shares.items():
        assert q > 0.3 and t > 0.3


def test_extension_real_page_corpus(benchmark):
    """Das-style corpus comparison (Table 1's prior-work row).

    Loads a synthetic real-page corpus over both protocols at 10 Mbps
    and reports the win fraction — the aggregate, conflated view the
    paper argues must be complemented by controlled grids.
    """

    def run():
        from repro.core.runner import run_page_load
        from repro.http import corpus_statistics, synthetic_corpus

        corpus = synthetic_corpus(12, seed=7)
        wins = 0
        rows = []
        for page_ in corpus:
            quic = run_page_load(emulated(10.0), page_, "quic", seed=1).plt
            tcp = run_page_load(emulated(10.0), page_, "tcp", seed=1).plt
            wins += quic < tcp
            rows.append((page_.name, page_.object_count,
                         page_.total_bytes // 1024, quic, tcp))
        return corpus_statistics(corpus), wins, rows

    stats, wins, rows = run_once(benchmark, run)
    lines = [f"synthetic real-page corpus over 10 Mbps "
             f"(median {stats['median_objects']} objects, "
             f"median {stats['median_total_kb']} KB):", ""]
    for name, count, kb, quic, tcp in rows:
        lines.append(f"  {name:<14} {count:>3} objs {kb:>6} KB   "
                     f"QUIC {quic:7.3f}s  TCP {tcp:7.3f}s")
    lines.append("")
    lines.append(f"QUIC wins {wins}/{len(rows)} pages")
    save_result("extension_real_pages", "\n".join(lines))
    assert wins >= len(rows) * 0.7  # QUIC wins the bulk of realistic pages


def test_extension_abr_over_fluctuating_bandwidth(benchmark):
    """ABR x transport (extension): over Fig. 11's fluctuating link, the
    transport with steadier goodput sustains the higher average quality
    with fewer downward switches."""

    def run():
        from repro.core.executor import ProtocolSpec
        from repro.netem import BandwidthSchedule, Simulator, build_path, mbps
        from repro.video import AbrVideoPlayer

        out = {}
        for protocol in ("quic", "tcp"):
            sim = Simulator()
            scn = emulated(100.0).with_(queue_bytes=100_000)
            path = build_path(sim, scn, seed=4)
            sched = BandwidthSchedule(
                sim, [path.bottleneck_down, path.bottleneck_up],
                mbps(5.0), mbps(50.0), period=1.0)
            sched.start()
            client, _ = ProtocolSpec.of(protocol).open_pair(
                sim, path.client, path.server,
                request_handler=lambda m: m["size"], seed=4)
            player = AbrVideoPlayer(sim, client)
            player.start()
            sim.run(until=60.0)
            metrics = player.finalize()
            out[protocol] = (player.mean_level(), player.switches_down,
                             metrics.rebuffer_count)
        return out

    out = run_once(benchmark, run)
    lines = ["ABR over 5-50 Mbps fluctuating link, 60 s sessions:"]
    for protocol, (level, downs, rebufs) in out.items():
        lines.append(f"  {protocol:<5} mean ladder rung {level:4.2f}, "
                     f"down-switches {downs}, rebuffers {rebufs}")
    save_result("extension_abr", "\n".join(lines))
    assert out["quic"][0] >= out["tcp"][0] - 0.3  # >= quality, roughly
