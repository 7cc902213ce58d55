"""Rows are the store's currency: one verdict, one spelling, every reader.

The store's JSONL row used to be re-implemented by every module that
touched it, and the copies had drifted: a line ``ShardStore`` served as
a live row was a torn line to ``fsck`` and the other way round, so a
repaired store and its checker never converged.  This suite pins the
single definition (``repro.store.rows``) from the outside:

* **one validity table** — six hand-written lines, each pushed through
  ``ShardStore``, ``fsck`` / ``fsck --repair``, ``store sync`` and the
  server's ``POST /records``, one verdict per line per reader, ending in
  convergence after ``--repair`` (a ``PUT /records/<key>``, a route no
  client sends, is refused whatever its body);
* **byte goldens** — the four line forms (shard, export, wire response,
  upload body) as literals captured on the commit *before* the codec
  was unified, and the shard line and checksum of a QUIC and a TCP
  request carrying an explicit config, captured before the configs
  were frozen; a decoded upload row, a compacted shard and the digest
  of a 1 008-row sweep, captured before the one-walk row encoder;
* **one label derivation**, the frozen ``StoreBackend`` surface the
  benchmark harness subclasses, and rows written as the bytes they
  arrived with.
"""

import hashlib
import inspect
import json
import sys
import time
import urllib.error
import urllib.request
import warnings
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.executor import ProtocolSpec, RunFailure, RunRecord
from repro.core.experiment import (
    ExperimentSpec,
    ScenarioSpec,
    WorkloadSpec,
    experiment_requests,
)
from repro.core.report import build_store_report
from repro.fabric import RemoteStore, StoreServer
from repro.faults import FaultyStore
from repro.quic.config import quic_config
from repro.store import (
    ShardStore,
    SqliteStore,
    StoreBackend,
    fingerprint_for,
    fsck,
    merge_into,
    record_to_dict,
    row_check,
    run_key,
)
from repro.store.rows import encode_row
from repro.tcp.config import tcp_config

from . import test_store as fixtures
from .test_store import req

ROOT = Path(__file__).resolve().parent.parent


def _record(request, plt=1.0):
    return RunRecord(request=request, plt=plt, complete=True,
                     metrics={"plt": plt})


def _genuine(seed):
    """``(key, fingerprint, record-dict)`` under the real content address."""
    request = req(seed=seed)
    fingerprint = fingerprint_for(request)
    return (run_key(request, fingerprint=fingerprint), fingerprint,
            record_to_dict(_record(request, plt=seed / 8.0)))


def _json_line(**fields):
    return json.dumps(fields, sort_keys=True)


# ----------------------------------------------------------------------
# one validity table, every reader
# ----------------------------------------------------------------------
KEY, FINGERPRINT, RECORD = _genuine(7)

#: name -> (line, key it claims, then one verdict per reader):
#:   shard  — "live" / "torn" / "blank" to ``ShardStore``;
#:   fsck   — "torn" / "checksum" / "legacy" / "blank";
#:   import — "accepted" / "rejected" / "blank" to ``merge_into`` (the
#:            ``repro store sync`` of a JSONL export);
#:   wire   — the status of ``POST /records``.
TABLE = {
    "record-not-object": (
        _json_line(key=KEY, created=1.0, fingerprint=FINGERPRINT, record=7,
                   check="0" * 16),
        KEY, "torn", "torn", "rejected", 400),
    "no-created": (
        _json_line(key=KEY, fingerprint=FINGERPRINT, record=RECORD,
                   check=row_check(KEY, RECORD)),
        KEY, "torn", "torn", "accepted", 200),
    "truncated-json": (
        '{"key": "' + KEY + '", "created": 1.0, "rec',
        KEY, "torn", "torn", "rejected", 400),
    "wrong-check": (
        _json_line(key=KEY, created=1.0, fingerprint=FINGERPRINT,
                   record=RECORD, check="0" * 16),
        KEY, "live", "checksum", "accepted", 200),
    "legacy-no-check": (
        _json_line(key=KEY, created=1.0, fingerprint=FINGERPRINT,
                   record=RECORD),
        KEY, "live", "legacy", "accepted", 200),
    "blank": ("   ", KEY, "blank", "blank", "blank", 200),
}
CASES = sorted(TABLE)


def _seeded(path, extra_line=None):
    """A shard directory holding two good rows (plus one raw line)."""
    store = ShardStore(path)
    for seed in (1, 2):
        key, fingerprint, _ = _genuine(seed)
        store.put(key, _record(req(seed=seed), plt=seed / 8.0),
                  fingerprint=fingerprint, created=float(seed))
    if extra_line is not None:
        with open(store._data_path(store.shard_of(KEY)), "a") as handle:
            handle.write(extra_line + "\n")
    store.close()
    return ShardStore(path)  # a fresh reader: nothing cached, nothing warned


class TestOneVerdictPerLine:
    @pytest.mark.parametrize("case", CASES)
    def test_shard_store(self, case, tmp_path):
        line, key, verdict, *_ = TABLE[case]
        store = _seeded(tmp_path / "s", line)
        if verdict == "torn":
            with pytest.warns(RuntimeWarning, match="torn line"):
                assert len(store) == 2
            assert key not in store
            assert store.get(key) is None  # written off: never raises
            assert store.row(key) is None
            assert sum(store.torn_lines.values()) == 1
            with warnings.catch_warnings():  # warned once per shard
                warnings.simplefilter("error")
                store._cache.clear()
                assert len(store) == 2
                assert store.stats()["torn_lines"] == 1
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert len(store) == (3 if verdict == "live" else 2)
                assert (key in store) == (verdict == "live")
                if verdict == "live":
                    assert store.get(key).request == req(seed=7)
                assert store.stats()["torn_lines"] == 0
            assert store.torn_lines == {}

    @pytest.mark.parametrize("case", CASES)
    def test_fsck_and_convergence_after_repair(self, case, tmp_path):
        line, key, _shard, verdict, *_ = TABLE[case]
        kept = verdict in ("legacy", "blank")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            store = _seeded(tmp_path / "s", line)
            report = fsck(store)
            assert report.torn_lines == (1 if verdict == "torn" else 0)
            assert [issue.key for issue in report.checksum_failures] == (
                [key] if verdict == "checksum" else [])
            assert report.unchecked == (1 if verdict == "legacy" else 0)
            assert report.rows == (3 if verdict == "legacy" else 2)
            assert report.clean == kept
            repaired = fsck(store, repair=True)
            assert repaired.quarantined == (0 if kept else 1)
        # Convergence: the store and its checker agree the debris is gone.
        fresh = ShardStore(tmp_path / "s")
        assert fresh.stats()["torn_lines"] == 0
        assert fresh.torn_lines == {}
        after = fsck(fresh)
        assert after.clean and after.rows == (3 if verdict == "legacy" else 2)
        control = _seeded(tmp_path / "control", line if kept else None)
        assert (build_store_report(fresh).replace(fresh.path, "STORE")
                == build_store_report(control).replace(control.path, "STORE"))

    @pytest.mark.parametrize("backend", ["shards"])
    @pytest.mark.parametrize("case", CASES)
    def test_import_jsonl(self, case, backend, tmp_path):
        line, key, _shard, _fsck, verdict, _wire = TABLE[case]
        good_key, good_fingerprint, good_record = _genuine(1)
        dump = tmp_path / "dump.jsonl"
        dump.write_text(_json_line(key=good_key, created=1.0,
                                   fingerprint=good_fingerprint,
                                   record=good_record) + "\n" + line + "\n")
        dst = ShardStore(tmp_path / "dst")
        if verdict == "rejected":
            with pytest.raises(ValueError):
                merge_into(dst, dump)
            assert key not in dst
            return
        before = time.time()
        assert merge_into(dst, dump) == (
            (2 if verdict == "accepted" else 1), 0)
        assert (key in dst) == (verdict == "accepted")
        if case == "no-created":  # the writer stamps what the line lacks
            assert dst.row(key)[1] >= before
        assert fsck(dst).clean  # whatever came in was re-checksummed

    @pytest.mark.parametrize("verb", ["POST", "PUT"])
    @pytest.mark.parametrize("case", CASES)
    def test_wire_upload(self, case, verb, tmp_path):
        line, key, *_, status = TABLE[case]
        if verb == "PUT":
            status = 501  # no such route: rows go up by POST /records only
        with StoreServer(ShardStore(tmp_path / "central"), port=0) as server:
            url = server.url + ("/records" if verb == "POST"
                                else f"/records/{key}")
            request = urllib.request.Request(
                url, data=(line + "\n").encode(), method=verb)
            if status >= 400:
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(request)
                assert err.value.code == status
                if status == 400:
                    assert "malformed" in json.loads(
                        err.value.read())["error"]
                assert len(server.store) == 0
            else:
                reply = json.loads(urllib.request.urlopen(request).read())
                landed = 0 if case == "blank" else 1
                assert reply == {"imported": landed}
                assert len(server.store) == landed
                assert fsck(server.store).clean

    def test_undecodable_record_is_a_400_not_a_write(self, tmp_path):
        # Outside input is still decoded once before it may land.
        broken = dict(RECORD, request={"nonsense": True})
        line = _json_line(key=KEY, created=1.0, fingerprint=FINGERPRINT,
                          record=broken)
        with StoreServer(ShardStore(tmp_path / "central"), port=0) as server:
            request = urllib.request.Request(
                server.url + "/records", data=line.encode(), method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            assert err.value.code == 400
            assert len(server.store) == 0
        dump = tmp_path / "dump.jsonl"
        dump.write_text(line + "\n")
        with pytest.raises(ValueError, match="does not decode"):
            merge_into(ShardStore(tmp_path / "dst"), dump)
        with pytest.raises(SystemExit, match="^error: .*does not decode"):
            main(["store", "--store", str(tmp_path / "dst"), "sync",
                  str(dump)])
        assert len(ShardStore(tmp_path / "dst")) == 0

    def test_torn_counter_line_means_the_same_to_both(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        store.bump_counter("hits", 3)
        ledger = tmp_path / "s" / "counters.jsonl"
        # Valid JSON, but not a counter line: the store used to raise
        # KeyError on it where fsck counted it torn.
        ledger.write_text(ledger.read_text() + '{"unrelated": 1}\n')
        assert store.counters() == {"hits": 3}
        assert fsck(store).counter_torn == 1
        assert fsck(store, repair=True).counter_torn == 0
        assert store.counters() == {"hits": 3} and fsck(store).clean


# ----------------------------------------------------------------------
# byte goldens (captured on the commit before the one codec)
# ----------------------------------------------------------------------
GOLDEN_KEY = "370377f91861dca0f1f4fcafe3b3c97109d095eaac7b2117b7fd38188e3783b7"
GOLDEN_SHARD_LINE = (
    '{"check": "1eba8f0a62749649", "created": 1234.5, "fingerprin'
    't": "pinned", "key": "370377f91861dca0f1f4fcafe3b3c97109d095'
    'eaac7b2117b7fd38188e3783b7", "record": {"attempts": 1, "comp'
    'lete": true, "failure": null, "metrics": {"bytes": 20000.0, '
    '"plt": 1.25}, "plt": 1.25, "request": {"cwnd_interval": 0.0,'
    ' "device": {"crypto_setup_cost": 0.001, "name": "desktop", "'
    'noise": 0.002, "quic_consume_cost": 0.0, "quic_packet_cost":'
    ' 0.0, "tcp_packet_cost": 0.0}, "manyflow": null, "page": {"n'
    'ame": "1x19.5312KB", "objects": [[0, 20000]]}, "protocol": {'
    '"config": null, "name": "quic"}, "proxied": false, "scenario'
    '": {"extra_delay": 0.0, "jitter": 0.0, "loss_rate": 0.0, "na'
    'me": "10Mbps+0ms+0%loss", "queue_bytes": null, "rate_mbps": '
    '10.0, "reorder_extra": 0.0, "reorder_prob": 0.0, "rtt": 0.03'
    '6, "rtt_run_variation": 0.02}, "seed": 3, "timeout": 900.0, '
    '"trace": false}, "wall_time": 0.5}}\n'
)
GOLDEN_EXPORT_LINE = (
    '{"created": 1234.5, "fingerprint": "pinned", "key": "370377f'
    '91861dca0f1f4fcafe3b3c97109d095eaac7b2117b7fd38188e3783b7", '
    '"record": {"attempts": 1, "complete": true, "failure": null,'
    ' "metrics": {"bytes": 20000.0, "plt": 1.25}, "plt": 1.25, "r'
    'equest": {"cwnd_interval": 0.0, "device": {"crypto_setup_cos'
    't": 0.001, "name": "desktop", "noise": 0.002, "quic_consume_'
    'cost": 0.0, "quic_packet_cost": 0.0, "tcp_packet_cost": 0.0}'
    ', "manyflow": null, "page": {"name": "1x19.5312KB", "objects'
    '": [[0, 20000]]}, "protocol": {"config": null, "name": "quic'
    '"}, "proxied": false, "scenario": {"extra_delay": 0.0, "jitt'
    'er": 0.0, "loss_rate": 0.0, "name": "10Mbps+0ms+0%loss", "qu'
    'eue_bytes": null, "rate_mbps": 10.0, "reorder_extra": 0.0, "'
    'reorder_prob": 0.0, "rtt": 0.036, "rtt_run_variation": 0.02}'
    ', "seed": 3, "timeout": 900.0, "trace": false}, "wall_time":'
    ' 0.5}}\n'
)

GOLDEN_GRID_DIGEST = (
    "0e80e0bc78e6594448d6442fe40a023c9cda80f3ee7f526af6ca2111e202f15b")


def _golden_record():
    return RunRecord(request=req(seed=3), plt=1.25, complete=True,
                     metrics={"plt": 1.25, "bytes": 20000.0}, wall_time=0.5,
                     attempts=1)


class TestByteGoldens:
    """A fixed ``(key, created, fingerprint, record)`` spells the same
    bytes it always did, in all four line forms."""

    @pytest.fixture
    def store(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        assert run_key(req(seed=3), fingerprint="pinned") == GOLDEN_KEY
        store.put(GOLDEN_KEY, _golden_record(), fingerprint="pinned",
                  created=1234.5)
        return store

    def test_shard_line(self, store):
        shard = store._data_path(store.shard_of(GOLDEN_KEY))
        assert shard.read_text() == GOLDEN_SHARD_LINE

    def test_put_many_and_upload_rows_write_the_same_line(self, tmp_path):
        # A decoded record (as a file or the wire hands it back) carries
        # no memoised parts, so it takes the other encoding path.
        decoded = json.loads(json.dumps(record_to_dict(_golden_record())))
        for name, write in (
                ("many", lambda s: s.put_many(
                    [(GOLDEN_KEY, _golden_record(), "pinned")],
                    created=1234.5)),
                ("rows", lambda s: s.upload_rows(
                    [(GOLDEN_KEY, 1234.5, "pinned",
                      record_to_dict(_golden_record()))])),
                ("decoded", lambda s: s.upload_rows(
                    [(GOLDEN_KEY, 1234.5, "pinned", decoded)]))):
            store = ShardStore(tmp_path / name)
            assert write(store) == 1
            shard = store._data_path(store.shard_of(GOLDEN_KEY))
            assert shard.read_text() == GOLDEN_SHARD_LINE

    def test_a_compacted_shard_is_the_golden_line(self, tmp_path):
        store = ShardStore(tmp_path / "c", compact_ratio=0.0,
                           compact_min_lines=1)
        shard = store._data_path(store.shard_of(GOLDEN_KEY))
        shard.write_text(GOLDEN_SHARD_LINE * 2)  # one live, one dead line
        assert store.get(GOLDEN_KEY).plt == 1.25  # the read compacts
        assert store.compactions == 1
        assert shard.read_text() == GOLDEN_SHARD_LINE

    def test_a_grid_of_rows_spells_the_golden_digest(self):
        """Every line of a 1 008-run sweep, spliced from its cells' shared
        parts, hashed whole (lines written before the one-walk encoder)."""
        spec = ExperimentSpec(
            name="golden", runs=42, quic_version=34, scenarios=[
                ScenarioSpec(rate_mbps=10.0),
                ScenarioSpec(rate_mbps=50.0, loss_pct=1.0),
                ScenarioSpec(rate_mbps=None, delay_ms=50.0, jitter_ms=10.0)],
            workloads=[WorkloadSpec(1, 10.0), WorkloadSpec(5, 100.0),
                       WorkloadSpec(20, 2.5), WorkloadSpec(1, 1000.0)])
        digest = hashlib.sha256()
        index = 0
        for _cell, requests in experiment_requests(spec):
            for request in requests:
                plt = request.seed / 7.0 + index * 1e-3
                failed = request.seed % 13 == 0
                record = RunRecord(
                    request=request, plt=None if failed else plt,
                    complete=not failed, wall_time=index / 64.0,
                    attempts=1 + failed, metrics={
                        "plt": plt, "objects": float(request.seed % 5),
                        "note": "é\x00\"," if failed else ""},
                    failure=RunFailure("timeout", f"seed {request.seed}")
                    if failed else None)
                key = run_key(request, fingerprint="pinned")
                digest.update(encode_row(
                    key, 1_700_000_000.0 + index * 0.25, "pinned",
                    record_to_dict(record), check=True).encode())
                index += 1
        assert index == 1008
        assert digest.hexdigest() == GOLDEN_GRID_DIGEST

    def test_a_golden_ledger_reads_back_and_verifies(self, tmp_path):
        store = ShardStore(tmp_path / "old")
        store._data_path(store.shard_of(GOLDEN_KEY)).write_text(
            GOLDEN_SHARD_LINE)
        assert store.get(GOLDEN_KEY).plt == 1.25
        assert store.row(GOLDEN_KEY)[:3] == (GOLDEN_KEY, 1234.5, "pinned")
        report = fsck(store)
        assert report.clean and report.verified == report.rows == 1

    def test_export_line(self, store, tmp_path):
        assert store.export_jsonl(tmp_path / "dump.jsonl") == 1
        assert (tmp_path / "dump.jsonl").read_text() == GOLDEN_EXPORT_LINE

    def test_wire_response_and_upload_body_lines(self, store):
        wire = GOLDEN_EXPORT_LINE.encode()
        with StoreServer(store, port=0) as server:
            fetch = urllib.request.Request(
                server.url + "/fetch", method="POST",
                data=json.dumps({"keys": [GOLDEN_KEY]}).encode())
            for target in (server.url + "/records",
                           server.url + "/records/" + GOLDEN_KEY, fetch):
                assert urllib.request.urlopen(target).read() == wire
            remote = RemoteStore(server.url)
            sent = []
            real = remote._request

            def spy(method, path, body=None, **kwargs):
                sent.append((method, path, body))
                return real(method, path, body, **kwargs)

            remote._request = spy
            row = (GOLDEN_KEY, 1234.5, "pinned",
                   record_to_dict(_golden_record()))
            assert remote.upload_rows([row]) == 1
            assert sent[-1] == ("POST", "/records", wire)
            # A single put travels as the very same one-line upload.
            remote.put(GOLDEN_KEY, _golden_record(), fingerprint="pinned",
                       created=1234.5)
            assert sent[-1] == ("POST", "/records", wire)


# ----------------------------------------------------------------------
# config-carrying row goldens (captured while configs were mutable)
# ----------------------------------------------------------------------
GOLDEN_QUIC_NACK50_LINE = (
    '{"check": "ee02bc3b41db772f", "created": 1234.5, "fingerprint"'
    ': "pinned", "key": "c72cde12d0937912146c22c86fc5f34957c1561539'
    '72677ef5132cb733656f69", "record": {"attempts": 1, "complete":'
    ' true, "failure": null, "metrics": {"bytes": 20000.0, "plt": 1'
    '.25}, "plt": 1.25, "request": {"cwnd_interval": 0.0, "device":'
    ' {"crypto_setup_cost": 0.001, "name": "desktop", "noise": 0.00'
    '2, "quic_consume_cost": 0.0, "quic_packet_cost": 0.0, "tcp_pac'
    'ket_cost": 0.0}, "manyflow": null, "page": {"name": "1x19.5312'
    'KB", "objects": [[0, 20000]]}, "protocol": {"config": {"ack_de'
    'lay_timer": 0.025, "ack_every_n": 2, "adaptive_nack_threshold"'
    ': false, "cc": {"beta": 0.7, "buggy_initial_ssthresh_packets":'
    ' 100, "cubic_c": 0.4, "fast_convergence": true, "hss_threshold'
    '_divisor": 8.0, "hybrid_slow_start": true, "initial_cwnd_packe'
    'ts": 32, "max_cwnd_packets": 430, "min_cwnd_packets": 2, "mss"'
    ': 1350, "num_emulated_connections": 2, "pacing_gain_ca": 1.25,'
    ' "pacing_gain_slow_start": 2.0, "prr": true, "ssthresh_from_re'
    'ceiver_buffer": true}, "chlo_bytes": 1024, "conn_flow_window":'
    ' 1536000, "conn_flow_window_cap": 25165824, "fec_enabled": fal'
    'se, "fec_group_size": 5, "inchoate_chlo_bytes": 512, "max_ack_'
    'blocks": 32, "max_streams_per_connection": 100, "max_tail_loss'
    '_probes": 2, "min_rto": 0.2, "mss": 1350, "nack_threshold": 50'
    ', "nack_threshold_cap": 100, "rej_bytes": 2200, "shlo_bytes": '
    '1100, "stream_flow_window": 1024000, "stream_flow_window_cap":'
    ' 6291456, "time_based_loss": false, "tlp_enabled": true, "use_'
    'bbr": false, "version": 34, "zero_rtt": true}, "name": "quic"}'
    ', "proxied": false, "scenario": {"extra_delay": 0.0, "jitter":'
    ' 0.0, "loss_rate": 0.0, "name": "10Mbps+0ms+0%loss", "queue_by'
    'tes": null, "rate_mbps": 10.0, "reorder_extra": 0.0, "reorder_'
    'prob": 0.0, "rtt": 0.036, "rtt_run_variation": 0.02}, "seed": '
    '3, "timeout": 900.0, "trace": false}, "wall_time": 0.5}}\n'
)
GOLDEN_TCP_DUPTHRESH10_LINE = (
    '{"check": "e02d0f353278053b", "created": 1234.5, "fingerprint"'
    ': "pinned", "key": "f985a367dffa048e1716ec510599cefe2b3a2028ed'
    '3d201ddeed8f6445811e7a", "record": {"attempts": 1, "complete":'
    ' true, "failure": null, "metrics": {"bytes": 20000.0, "plt": 1'
    '.25}, "plt": 1.25, "request": {"cwnd_interval": 0.0, "device":'
    ' {"crypto_setup_cost": 0.001, "name": "desktop", "noise": 0.00'
    '2, "quic_consume_cost": 0.0, "quic_packet_cost": 0.0, "tcp_pac'
    'ket_cost": 0.0}, "manyflow": null, "page": {"name": "1x19.5312'
    'KB", "objects": [[0, 20000]]}, "protocol": {"config": {"ack_ev'
    'ery_n": 2, "cc": {"beta": 0.7, "buggy_initial_ssthresh_packets'
    '": 100, "cubic_c": 0.4, "fast_convergence": true, "hss_thresho'
    'ld_divisor": 4.0, "hybrid_slow_start": true, "initial_cwnd_pac'
    'kets": 10, "max_cwnd_packets": null, "min_cwnd_packets": 2, "m'
    'ss": 1350, "num_emulated_connections": 1, "pacing_gain_ca": nu'
    'll, "pacing_gain_slow_start": null, "prr": true, "ssthresh_fro'
    'm_receiver_buffer": true}, "client_finished_bytes": 300, "clie'
    'nt_hello_bytes": 350, "delayed_ack_timeout": 0.04, "dsack": tr'
    'ue, "dupthresh": 10, "dupthresh_cap": 100, "max_sack_blocks": '
    '3, "max_tail_loss_probes": 2, "min_rto": 0.2, "mss": 1350, "re'
    'ceive_buffer": 6291456, "scheduler": "roundrobin", "server_fin'
    'ished_bytes": 300, "server_hello_bytes": 3600, "tlp_enabled": '
    'false, "tls_rtts": 2}, "name": "tcp"}, "proxied": false, "scen'
    'ario": {"extra_delay": 0.0, "jitter": 0.0, "loss_rate": 0.0, "'
    'name": "10Mbps+0ms+0%loss", "queue_bytes": null, "rate_mbps": '
    '10.0, "reorder_extra": 0.0, "reorder_prob": 0.0, "rtt": 0.036,'
    ' "rtt_run_variation": 0.02}, "seed": 3, "timeout": 900.0, "tra'
    'ce": false}, "wall_time": 0.5}}\n'
)
CONFIG_ROW_GOLDENS = {
    "quic-v34-nack50": (
        lambda: ProtocolSpec("quic", quic_config(34).with_(nack_threshold=50)),
        "ee02bc3b41db772f", GOLDEN_QUIC_NACK50_LINE),
    "tcp-dupthresh10": (
        lambda: ProtocolSpec("tcp", tcp_config(dupthresh=10)),
        "e02d0f353278053b", GOLDEN_TCP_DUPTHRESH10_LINE),
}


class TestConfigRowGoldens:
    """A request carrying an explicit config spells the same shard line
    and checksum, on the memo's first sight of its protocol part and on
    a hit."""

    @pytest.mark.parametrize("name", sorted(CONFIG_ROW_GOLDENS))
    def test_shard_line_and_check(self, name, tmp_path):
        build, check, line = CONFIG_ROW_GOLDENS[name]
        record = RunRecord(request=req(seed=3, protocol=build()), plt=1.25,
                           complete=True,
                           metrics={"plt": 1.25, "bytes": 20000.0},
                           wall_time=0.5, attempts=1)
        key = run_key(record.request, fingerprint="pinned")
        assert json.loads(line)["key"] == key
        for attempt in ("first", "memo-hit"):
            store = ShardStore(tmp_path / attempt)
            store.put(key, record, fingerprint="pinned", created=1234.5)
            assert store._data_path(store.shard_of(key)).read_text() == line
            assert row_check(key, record_to_dict(record)) == check


# ----------------------------------------------------------------------
# one label derivation
# ----------------------------------------------------------------------
def _request_fixtures():
    """Every request fixture of tests/test_store.py."""
    requests = [build() for build, _key in fixtures.GOLDEN_KEYS.values()]
    requests += [fixtures._manyflow_req(cc, aqm) for cc, aqm in (
        ("reno", "droptail"), ("cubic", "codel"), ("bbr", "fq_codel"))]
    requests += [req(), fixtures.fresh_req(seed=2), req(seed=9, proxied=True)]
    return requests


class TestLabels:
    def test_label_of_equals_request_label(self):
        from repro.store.rows import label_of

        for request in _request_fixtures():
            assert (label_of(record_to_dict(_record(request)))
                    == request.label)
        assert label_of({"request": {"page": {"name": "orphan"}}}) == ""

    def test_store_ls_is_unchanged_on_all_three_backends(self, tmp_path,
                                                         capsys):
        # A shard directory, a legacy sqlite file once synced into one,
        # and a served store list the same rows.
        unique = {run_key(request, fingerprint="pinned"): request
                  for request in _request_fixtures()}
        expected = []
        for index, (key, request) in enumerate(unique.items()):
            created = 1_000_000.0 + index
            for store in (ShardStore(tmp_path / "shards"),
                          SqliteStore(tmp_path / "s.sqlite")):
                store.put(key, _record(request), fingerprint="pinned",
                          created=created)
                store.close()
            stamp = time.strftime("%Y-%m-%d %H:%M:%S",
                                  time.localtime(created))
            expected.append(f"{key[:16]}  {stamp}  {request.label}")
        migrated = tmp_path / "migrated"
        assert main(["store", "--store", str(migrated), "sync",
                     str(tmp_path / "s.sqlite")]) == 0
        capsys.readouterr()
        with StoreServer(ShardStore(tmp_path / "shards"), port=0) as server:
            for location in (tmp_path / "shards", migrated, server.url):
                assert main(["store", "--store", str(location), "ls"]) == 0
                listed = capsys.readouterr().out.splitlines()
                assert listed[:-1] == expected, location
                assert listed[-1].startswith(f"{len(unique)} stored run(s)")


# ----------------------------------------------------------------------
# the frozen surface, and rows as the write currency
# ----------------------------------------------------------------------
#: What ``benchmarks/e2e/tracing.TracedStore`` implements.  The harness
#: is byte-frozen in product PRs, so one more abstract method here breaks
#: every benchmark run — fail in tier-1, in seconds, instead.
PINNED_ABSTRACT = {
    "__contains__", "__len__", "bump_counter", "close", "counters", "delete",
    "fingerprints", "gc", "get", "items", "keys", "put", "rows"}


def _traced_store():
    """The harness's wrapper class (``benchmarks`` is not on the test path)."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from benchmarks.e2e.tracing import TracedStore

    return TracedStore


class TestFrozenSurface:
    def test_abstract_surface_is_the_pinned_thirteen(self):
        assert set(StoreBackend.__abstractmethods__) == PINNED_ABSTRACT

    def test_wrappers_still_instantiate(self):
        for wrapper in (_traced_store(), FaultyStore):
            assert not inspect.isabstract(wrapper), wrapper
            # ...and inherit the row-level defaults rather than shadow
            # them: an uploaded row must pass through their own put().
            assert wrapper.upload_rows is StoreBackend.upload_rows
            assert wrapper.missing is StoreBackend.missing

    def test_every_backend_overrides_the_point_lookup(self):
        # RunCache.lookup_with_key probes with row(): the inherited
        # default is a whole-store items() scan per key (RemoteStore
        # shipped with it: one GET /records per lookup).
        def concrete(cls):
            for sub in cls.__subclasses__():
                if not inspect.isabstract(sub):
                    yield sub
                yield from concrete(sub)

        shipped = {sub for sub in concrete(StoreBackend)
                   if sub.__module__.startswith("repro.")}
        assert shipped == {ShardStore, RemoteStore, FaultyStore}
        for backend in shipped | {_traced_store()}:
            assert backend.row is not StoreBackend.row, backend

    def test_default_upload_rows_feeds_each_row_through_put(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec("store", "os_error", op="put", after=2)])
        store = FaultyStore(ShardStore(tmp_path / "s"), plan)
        rows = [(_genuine(seed)[0], float(seed), _genuine(seed)[1],
                 _genuine(seed)[2]) for seed in range(4)]
        with pytest.raises(OSError, match="injected"):
            store.upload_rows(rows)  # the third put trips the plan
        assert len(store) == 2
        assert store.missing(row[0] for row in rows) == [
            row[0] for row in rows[2:]]


class TestRowsAreTheWriteCurrency:
    def test_sync_keeps_the_source_record_bytes(self, tmp_path):
        # A legacy-shaped record (no "manyflow" field, as rows written
        # before it existed) used to come out of a sync re-encoded.
        src = ShardStore(tmp_path / "src")
        legacy = json.loads(json.dumps(RECORD))
        del legacy["request"]["manyflow"]
        src.upload_rows([(KEY, 5.0, FINGERPRINT, legacy)]
                        + [(_genuine(seed)[0], float(seed),
                            _genuine(seed)[1], _genuine(seed)[2])
                           for seed in (1, 2)])
        dst = ShardStore(tmp_path / "dst")
        assert merge_into(dst, tmp_path / "src") == (3, 0)
        assert merge_into(dst, tmp_path / "src") == (0, 3)

        def record_bytes(store):
            return {json.loads(line)["key"]: line[line.index('"record"'):]
                    for shard in store._shards() for line in
                    store._data_path(shard).read_text().splitlines()}

        assert record_bytes(dst) == record_bytes(src)
        assert "manyflow" not in dst.row(KEY)[3]["request"]
        assert fsck(dst).verified == 3

    def test_put_many_encodes_row_by_row(self, tmp_path, monkeypatch):
        # store_replay pre-fills 9 600 rows through put_many: each record
        # becomes its dict only as it is encoded.  The dicts are then
        # kept — they become the parse cache's rows, at less memory than
        # the re-parse they replace — but never built ahead as a batch.
        from repro.store import shards

        converted = []
        alive_at_encode = []

        def counting_to_dict(record):
            converted.append(record)
            return record_to_dict(record)

        def spying_encode(*row, **kwargs):
            alive_at_encode.append(len(converted))
            return real_encode(*row, **kwargs)

        real_encode = shards.encode_row
        monkeypatch.setattr("repro.store.backend.record_to_dict",
                            counting_to_dict)
        monkeypatch.setattr(shards, "encode_row", spying_encode)
        store = ShardStore(tmp_path / "s")
        entries = [(_genuine(seed)[0], _record(req(seed=seed)),
                    _genuine(seed)[1]) for seed in range(6)]
        assert store.put_many(entries) == 6
        assert alive_at_encode == [1, 2, 3, 4, 5, 6]
        assert len(store) == 6
