"""Tests for the thousand-flow fast path (``repro.core.manyflow``).

Covers the batching contract (batched delivery is bit-identical to
per-packet scheduling), end-to-end completion, AQM fairness ordering,
the executor/store integration, the config codec, and conservation and
column types checked during a run.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.manyflow import (
    DEFAULT_BATCH_QUANTUM,
    ManyflowConfig,
    ManyflowEngine,
    build_flows,
    manyflow_requests,
    manyflow_scenario,
)
from repro.core.report import build_store_report
from repro.store import ShardStore, request_from_dict, request_to_dict
from repro.sweep import run_requests
from repro.transport.flowtable import STATE_ACTIVE, STATE_DONE


def small_config(**overrides):
    base = dict(flows=40, duration=120.0)
    base.update(overrides)
    return ManyflowConfig(**base)


def run_metrics(config, seed=0, batch_quantum=DEFAULT_BATCH_QUANTUM):
    engine = ManyflowEngine(manyflow_scenario(), config, seed=seed,
                            batch_quantum=batch_quantum)
    return engine.run()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ManyflowConfig(flows=0)
        with pytest.raises(ValueError):
            ManyflowConfig(tcp_share=1.5)
        with pytest.raises(ValueError):
            ManyflowConfig(aqm="wred")

    def test_label_names_flows_and_aqm(self):
        assert ManyflowConfig(flows=64, aqm="fq_codel").label == \
            "manyflow-64f-fq_codel"

    def test_with_overrides(self):
        cfg = small_config().with_(aqm="codel")
        assert cfg.aqm == "codel"
        assert cfg.flows == 40


class TestBuildFlows:
    def test_deterministic_per_seed(self):
        cfg = small_config()
        assert build_flows(cfg, 7) == build_flows(cfg, 7)
        assert build_flows(cfg, 7) != build_flows(cfg, 8)

    def test_protocol_mix_is_exact(self):
        _arrivals, _sizes, protos = build_flows(small_config(), 0)
        # Bresenham striping: a 50 % share of 40 flows is exactly 20.
        assert sum(protos) == 20

    def test_arrivals_sorted_sizes_positive(self):
        arrivals, sizes, _protos = build_flows(small_config(), 3)
        assert list(arrivals) == sorted(arrivals)
        assert all(s >= 1400 for s in sizes)


class TestEngine:
    def test_all_flows_complete(self):
        metrics = run_metrics(small_config())
        assert metrics["flows_completed"] == 40
        assert metrics["plt_p50"] > 0

    def test_batched_identical_to_per_packet(self):
        """The tentpole contract: batch_quantum only changes how many
        heap wakeups the run costs, never any simulated outcome."""
        cfg = small_config(flows=60)
        batched = run_metrics(cfg, seed=1)
        per_packet = run_metrics(cfg, seed=1, batch_quantum=0.0)
        assert batched["heap_events"] < per_packet["heap_events"]
        for key in batched:
            if key == "heap_events":
                continue
            assert batched[key] == per_packet[key], key

    def test_fq_codel_improves_fairness_over_droptail(self):
        droptail = run_metrics(small_config(flows=80, arrival_rate=400.0))
        fq = run_metrics(small_config(flows=80, arrival_rate=400.0,
                                      aqm="fq_codel"))
        assert fq["jain_index"] > droptail["jain_index"]

    def test_engine_rejects_jitter(self):
        scenario = manyflow_scenario()
        scenario = scenario.with_(jitter=0.005)
        with pytest.raises(ValueError):
            ManyflowEngine(scenario, small_config())

    def test_run_is_once_only(self):
        engine = ManyflowEngine(manyflow_scenario(), small_config())
        engine.run()
        with pytest.raises(RuntimeError):
            engine.run()


class TestExecutorIntegration:
    def test_requests_and_store_round_trip(self, tmp_path):
        cfg = small_config()
        requests = manyflow_requests(cfg, seeds=(0, 1))
        store = ShardStore(tmp_path / "store")
        records = run_requests(requests, store=store)
        assert len(records) == 2
        assert all(r.complete for r in records)
        assert all("jain_index" in r.metrics for r in records)
        # Second pass is served from the store.
        again = run_requests(requests, store=store)
        assert all(r.cached for r in again)
        assert [r.plt for r in again] == [r.plt for r in records]

    def test_store_report_renders_fairness_table(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        run_requests(manyflow_requests(small_config()), store=store)
        report = build_store_report(store)
        assert "Fairness (Jain index" in report
        assert "manyflow-40f-droptail" in report

    def test_request_codec_round_trips_manyflow(self):
        request = manyflow_requests(small_config(aqm="codel"))[0]
        decoded = request_from_dict(request_to_dict(request))
        assert decoded.manyflow == request.manyflow
        assert request_to_dict(decoded) == request_to_dict(request)

    def test_request_codec_round_trips_cc_kernel(self):
        # ManyflowConfig.cc is a plain kernel-name string; the codec's
        # nested-CC-config special case must not touch it.
        request = manyflow_requests(small_config(cc="bbr"))[0]
        decoded = request_from_dict(request_to_dict(request))
        assert decoded.manyflow.cc == "bbr"
        assert decoded == request

    def test_plain_request_still_decodes(self):
        request = manyflow_requests(small_config())[0]
        raw = request_to_dict(request)
        raw.pop("manyflow")
        assert request_from_dict(raw).manyflow is None


#: ``FlowTable``'s scalar columns by element type.
FLOAT_COLUMNS = ("arrival", "cwnd", "ssthresh", "srtt", "rttvar", "min_rtt",
                 "last_progress", "finish")
INT_COLUMNS = ("size_bytes", "total_pkts", "next_idx", "inflight",
               "acked_pkts", "snd_una", "recover_idx", "state", "proto",
               "rx_next", "rx_highest", "rx_received", "rx_scan",
               "retx_sent", "lost_pkts")


def check_conservation(engine):
    """Per-flow and link accounting that must hold between any two items."""
    table = engine.table
    for column in FLOAT_COLUMNS:
        assert all(type(v) is float for v in getattr(table, column)), column
    for column in INT_COLUMNS:
        # ``type(v) is int`` also rules out ``bool``.
        assert all(type(v) is int for v in getattr(table, column)), column
    for flow in range(engine.config.flows):
        state = table.state[flow]
        if state == STATE_DONE:
            assert table.acked_pkts[flow] == table.total_pkts[flow], flow
        elif state == STATE_ACTIVE:
            acked = table.acked[flow]
            assert table.inflight[flow] == sum(table.pending[flow]), flow
            assert table.acked_pkts[flow] == sum(acked), flow
            una = table.snd_una[flow]
            assert all(acked[:una]), flow
            assert una == table.total_pkts[flow] or not acked[una], flow
    down = engine.down
    assert down.tx_completions == down.launched_packets + down.loss_drops
    assert down.launched_packets == (engine.delivered_packets
                                     + len(down.deliveries))


class CheckedEngine(ManyflowEngine):
    """The engine with :func:`check_conservation` after every tick."""

    ticks = 0

    def _tick(self):
        super()._tick()
        self.ticks += 1
        check_conservation(self)


CCS = ("reno", "cubic", "bbr")
AQMS = ("droptail", "codel", "fq_codel")


def every_cc_and_aqm(test):
    """One explicit example per cc x aqm cell (40 flows, loss on every
    other one) on top of whatever hypothesis draws."""
    for index, (cc, aqm) in enumerate((cc, aqm) for cc in CCS for aqm in AQMS):
        test = example(cc=cc, aqm=aqm, loss=0.01 * (index % 2), flows=40,
                       seed=index)(test)
    return test


class TestConservation:
    @settings(max_examples=16, deadline=None, derandomize=True)
    @every_cc_and_aqm
    @given(cc=st.sampled_from(CCS), aqm=st.sampled_from(AQMS),
           loss=st.sampled_from([0.0, 0.01]), flows=st.integers(2, 40),
           seed=st.integers(0, 2**16))
    def test_accounting_holds_at_every_tick_in_both_modes(
            self, cc, aqm, loss, flows, seed):
        """Checked after every tick and at the end, per-packet and
        batched: 9 explicit + 16 drawn examples.  Arrivals are bunched
        (400 flows/s) so the queue overflows and flows time out."""
        config = small_config(flows=flows, cc=cc, aqm=aqm, arrival_rate=400.0)
        scenario = manyflow_scenario(loss_rate=loss)
        metrics = {}
        for quantum in (0.0, DEFAULT_BATCH_QUANTUM):
            engine = CheckedEngine(scenario, config, seed=seed,
                                   batch_quantum=quantum)
            metrics[quantum] = engine.run()
            assert engine.ticks > 0
            check_conservation(engine)
        batched, per_packet = metrics[DEFAULT_BATCH_QUANTUM], metrics[0.0]
        batched.pop("heap_events")
        per_packet.pop("heap_events")  # the only thing batching may move
        assert batched == per_packet
