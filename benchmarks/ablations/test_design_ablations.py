"""Ablations of the design choices DESIGN.md calls out.

Each test turns one QUIC/TCP mechanism off (or swaps it) and verifies the
direction of its effect, isolating the contribution of the features the
paper credits for QUIC's behaviour.
"""

from dataclasses import replace

from repro.core.runner import (
    compare_quic_variants,
    measure_plts,
    run_bulk_transfer,
    run_fairness,
    run_page_load,
)
from repro.core.stats import mean
from repro.core.executor import ProtocolSpec
from repro.http import page, single_object_page
from repro.netem import emulated, fairness_bottleneck, reordering_scenario
from repro.quic import quic_config
from repro.tcp import tcp_config

from ..harness import bench_runs, run_once, save_result


def test_ablation_hybrid_slow_start(benchmark):
    """HSS off: many-small-objects pages speed up (the Sec. 5.2 root
    cause), at the price of slow-start overshoot elsewhere."""

    def run():
        scenario = emulated(50.0)
        web_page = page(200, 10 * 1024)
        on_cfg = quic_config(34)
        off_cfg = on_cfg.with_(cc=replace(on_cfg.cc, hybrid_slow_start=False))
        on = measure_plts(scenario, web_page, ProtocolSpec.quic(on_cfg),
                          runs=4)
        off = measure_plts(scenario, web_page, ProtocolSpec.quic(off_cfg),
                           runs=4)
        return mean(on), mean(off)

    with_hss, without_hss = run_once(benchmark, run)
    save_result("ablation_hss",
                f"200x10KB @50Mbps PLT: HSS on {with_hss:.3f}s, "
                f"HSS off {without_hss:.3f}s")
    assert without_hss < with_hss


def test_ablation_pacing(benchmark):
    """Pacing off: slow-start bursts overflow the droptail queue, causing
    more loss events on a small-buffer path."""

    def run():
        # A short transfer into a shallow queue: the initial flight's
        # burstiness is the whole story (the regime pacing targets).
        scenario = emulated(10.0).with_(queue_bytes=15_000)
        results = {}
        for pacing in (True, False):
            cfg = quic_config(34)
            if not pacing:
                cfg = cfg.with_(cc=replace(cfg.cc, pacing_gain_slow_start=None,
                                           pacing_gain_ca=None))
            out = run_bulk_transfer(scenario, 150_000,
                                    ProtocolSpec.quic(cfg), seed=3)
            results[pacing] = out
        return results

    results = run_once(benchmark, run)
    save_result("ablation_pacing",
                f"150 KB @10Mbps/15KB queue: paced losses "
                f"{results[True].losses} (PLT {results[True].elapsed:.3f}s), "
                f"unpaced losses {results[False].losses} "
                f"(PLT {results[False].elapsed:.3f}s)")
    assert results[False].losses > results[True].losses
    assert results[True].elapsed <= results[False].elapsed


def test_ablation_tlp(benchmark):
    """TLP off: losing the *last* packets of a flow costs a full RTO
    (>= 200 ms) instead of ~2 SRTT — exactly the tail losses TLP exists
    for (paper Sec. 2.1)."""

    def run():
        from repro.netem import Simulator, build_path
        from repro.quic import open_quic_pair

        size = 200_000
        times = {}
        for tlp in (True, False):
            # A small MACW keeps the sender wire-paced (bytes_sent tracks
            # the wire), so the injected drop hits the true tail; the deep
            # queue removes incidental losses.
            cfg = quic_config(34, macw_packets=20).with_(tlp_enabled=tlp)
            sim = Simulator()
            scenario = emulated(10.0).with_(queue_bytes=10_000_000)
            path = build_path(sim, scenario, seed=3)
            client, server = open_quic_pair(
                sim, path.client, path.server, cfg,
                request_handler=lambda m: m["size"], seed=3,
            )
            done = {}
            client.connect()
            client.request({"size": size}, lambda s, m, t: done.update({1: t}))

            def arm_tail_drop():
                # Once the server has nearly finished sending, kill the
                # last packets on the wire: a pure tail loss.
                stream = server.send_streams.get(1)
                if stream is not None and stream.bytes_sent >= size - 3 * 1350:
                    path.bottleneck_down.drop_next(3)
                    return
                sim.post(0.002, arm_tail_drop)

            sim.post(0.002, arm_tail_drop)
            assert sim.run_until(lambda: 1 in done, timeout=30.0)
            times[tlp] = done[1]
        return times

    times = run_once(benchmark, run)
    save_result("ablation_tlp",
                f"tail-loss repair: with TLP {times[True]:.3f}s, "
                f"RTO only {times[False]:.3f}s")
    assert times[True] < times[False]


def test_ablation_n_connection_emulation(benchmark):
    """N=2 emulation makes QUIC measurably more aggressive than N=1,
    but even N=1 stays unfair (Sec. 5.1: 'N had little impact')."""

    def run():
        shares = {}
        for n in (1, 2):
            cfg = quic_config(34)
            cfg = cfg.with_(cc=replace(cfg.cc, num_emulated_connections=n))
            result = run_fairness(n_quic=1, n_tcp=1, duration=30.0, seed=1,
                                  quic=cfg)
            shares[n] = result.quic_share()
        return shares

    shares = run_once(benchmark, run)
    save_result("ablation_n_emulation",
                f"QUIC share vs one TCP: N=1 {shares[1] * 100:.0f}%, "
                f"N=2 {shares[2] * 100:.0f}%")
    assert shares[1] > 0.5  # unfair even with N=1 (the paper's point)
    assert shares[2] >= shares[1] - 0.05


def test_ablation_tcp_dsack(benchmark):
    """DSACK adaptation is what saves TCP under reordering."""

    def run():
        scenario = reordering_scenario()
        out = {}
        for dsack in (True, False):
            cfg = tcp_config(dsack=dsack)
            out[dsack] = run_bulk_transfer(scenario, 5_000_000,
                                           ProtocolSpec.tcp(cfg), seed=1)
        return out

    out = run_once(benchmark, run)
    save_result(
        "ablation_tcp_dsack",
        f"5 MB reordered path: DSACK on {out[True].elapsed:.2f}s "
        f"({out[True].false_losses} spurious detected), "
        f"off {out[False].elapsed:.2f}s "
        f"({out[False].losses} retransmits, spurious invisible)")
    assert out[True].elapsed <= out[False].elapsed
    # Without DSACK the spurious retransmits still happen — the sender
    # just cannot *see* them, so it keeps retransmitting needlessly.
    assert out[False].losses >= out[True].losses


def test_ablation_prr(benchmark):
    """PRR vs instant-halving recovery under random loss."""

    def run():
        scenario = emulated(50.0, loss_pct=1.0)
        results = {}
        for prr in (True, False):
            cfg = quic_config(34)
            cfg = cfg.with_(cc=replace(cfg.cc, prr=prr))
            results[prr] = mean(measure_plts(
                scenario, single_object_page(2_000_000),
                ProtocolSpec.quic(cfg), runs=4))
        return results

    results = run_once(benchmark, run)
    save_result("ablation_prr",
                f"2 MB @50Mbps+1%loss: PRR {results[True]:.3f}s, "
                f"halving {results[False]:.3f}s")
    # Both must complete sanely; PRR should not be (much) worse.
    assert results[True] < results[False] * 1.25


def test_ablation_chromium52_bug(benchmark):
    """The ssthresh bug forces an early slow-start exit and a slow ramp."""

    def run():
        scenario = emulated(100.0)
        web_page = single_object_page(10 * 1024 * 1024)
        fixed = run_page_load(
            scenario, web_page,
            ProtocolSpec.quic(quic_config(34, calibrated=True)), seed=1).plt
        buggy = run_page_load(
            scenario, web_page,
            ProtocolSpec.quic(quic_config(34, calibrated=False)), seed=1).plt
        return fixed, buggy

    fixed, buggy = run_once(benchmark, run)
    save_result("ablation_chromium52_bug",
                f"10 MB @100Mbps: calibrated {fixed:.3f}s, "
                f"public/buggy {buggy:.3f}s")
    assert buggy > fixed * 1.4


def test_ablation_fec(benchmark):
    """FEC (removed from QUIC in early 2016): reproduces Carlucci et
    al.'s finding — the bandwidth tax makes performance worse, with or
    without loss, which is why Google removed it."""

    def run():
        out = {}
        for loss in (0.0, 1.0):
            for fec in (False, True):
                cfg = quic_config(34).with_(fec_enabled=fec)
                result = run_bulk_transfer(
                    emulated(20.0, loss_pct=loss), 2_000_000,
                    ProtocolSpec.quic(cfg), seed=3)
                out[(loss, fec)] = result.elapsed
        return out

    out = run_once(benchmark, run)
    save_result(
        "ablation_fec",
        "\n".join(
            f"loss={loss:3.1f}% fec={str(fec):<5} elapsed {elapsed:.3f}s"
            for (loss, fec), elapsed in sorted(out.items())
        ),
    )
    assert out[(0.0, True)] > out[(0.0, False)]   # pure overhead, no loss
    assert out[(1.0, True)] > out[(1.0, False)] * 0.9  # no win under loss
