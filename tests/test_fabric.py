"""Tests for the distributed sweep fabric (repro.fabric).

Covers the HTTP wire protocol, the RemoteStore backend contract (via
open_store/merge_into), executor integration against a
served store, the work-sharing coordinator — including the acceptance
criteria: a 2-worker sweep byte-identical to a single-process run, a
kill-worker-at-50%/respawn sweep still byte-identical, and overlapping
concurrent uploads with no lost/torn/duplicated records — plus the
friendly connection-refused / schema-mismatch errors.
"""

import json
import multiprocessing
import os
import signal
import socket
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro.fabric.server as server_module
from repro.core.executor import ProtocolSpec, RunRecord, RunRequest
from repro.core.report import build_store_report
from repro.fabric import (
    FabricConnectionError,
    FabricWorkerError,
    RemoteStore,
    SchemaMismatchError,
    StoreServer,
    iter_fabric_runs,
    run_fabric_sweep,
)
from repro.http import single_object_page
from repro.netem import emulated
from repro.store import (
    KEY_SCHEMA_VERSION,
    RunCache,
    ShardStore,
    SqliteStore,
    fingerprint_for,
    is_store_url,
    merge_into,
    open_store,
    run_key,
)
from repro.store.backend import _kind_at
from repro.sweep import iter_runs

SCN = emulated(10.0)
PAGE = single_object_page(20_000)
SMOKE_SPEC = Path(__file__).parent.parent / "examples" / "specs" / "smoke.json"


def req(seed=0, **overrides):
    kwargs = dict(scenario=SCN, page=PAGE, protocol=ProtocolSpec.quic(),
                  seed=seed)
    kwargs.update(overrides)
    return RunRequest(**kwargs)


def _instant_run(request):
    return RunRecord(request=request, plt=float(request.seed) / 10.0 + 0.1,
                     complete=True)


def _slow_run(request):
    time.sleep(0.02)
    return _instant_run(request)


@pytest.fixture
def server(tmp_path):
    with StoreServer(ShardStore(tmp_path / "central"), port=0) as srv:
        yield srv


@pytest.fixture
def remote(server):
    return RemoteStore(server.url)


def _seed_rows(n, run=_instant_run):
    rows = []
    for seed in range(n):
        request = req(seed=seed)
        fingerprint = fingerprint_for(request)
        key = run_key(request, fingerprint=fingerprint)
        record = run(request)
        rows.append((key, request, fingerprint, record))
    return rows


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------
class TestWireProtocol:
    def test_healthz_reports_schema_version(self, remote):
        info = remote.healthz()
        assert info["ok"] is True
        assert info["key_schema_version"] == KEY_SCHEMA_VERSION
        assert info["kind"] == "shards"
        assert info["runs"] == 0

    def test_put_get_roundtrip_and_404(self, remote):
        key, request, fingerprint, record = _seed_rows(1)[0]
        assert remote.get(key) is None
        remote.put(key, record, fingerprint=fingerprint)
        stored = remote.get(key)
        assert stored is not None
        assert stored.plt == record.plt
        assert stored.request.seed == request.seed
        assert key in remote
        assert "0" * 64 not in remote
        assert len(remote) == 1

    def test_missing_is_batched_set_difference(self, remote):
        rows = _seed_rows(4)
        for key, _request, fingerprint, record in rows[:2]:
            remote.put(key, record, fingerprint=fingerprint)
        keys = [key for key, *_ in rows]
        assert set(remote.missing(keys)) == set(keys[2:])
        assert remote.missing(keys[:2]) == []

    def test_bulk_upload_fetch_preserve_created(self, remote):
        rows = _seed_rows(3)
        from repro.store import record_to_dict

        uploaded = remote.upload_rows(
            [(key, 1000.0 + i, fingerprint, record_to_dict(record))
             for i, (key, _req, fingerprint, record) in enumerate(rows)])
        assert uploaded == 3
        fetched = remote.fetch([key for key, *_ in rows])
        assert {row[0]: row[1] for row in fetched} == {
            rows[i][0]: 1000.0 + i for i in range(3)}

    @pytest.mark.parametrize("location", ["central"])
    def test_fetch_looks_rows_up_by_key(self, tmp_path, location):
        # POST /fetch answers with one point lookup per wanted key — no
        # whole-store items() scan per batch — and the rows found go out
        # in the order the scan gave them: oldest first, ties by key.
        from repro.store import record_to_dict
        from repro.store.rows import encode_row

        store = open_store(tmp_path / location)
        rows = [(key, float(1000 - 7 * (index % 3)), fingerprint,
                 record_to_dict(record))
                for index, (key, _req, fingerprint, record)
                in enumerate(_seed_rows(6))]
        rows.append(("not-hex-" + rows[0][0], 500.0, "fp", rows[0][3]))
        store.upload_rows(rows)
        present = [row[0] for row in rows]
        wanted = (present[::-2] + ["0" * 64, present[3], 7, "nope"]
                  + present[1:3])
        expected = "".join(encode_row(*row) for row in store.items()
                           if row[0] in set(wanted)).encode()
        assert expected.count(b"\n") == 6
        with StoreServer(store, port=0) as srv:
            scans = []
            real_items = srv.store.items
            srv.store.items = lambda: scans.append(1) or real_items()
            request = urllib.request.Request(
                srv.url + "/fetch", method="POST",
                data=json.dumps({"keys": wanted}).encode())
            assert urllib.request.urlopen(request).read() == expected
            assert scans == []

    def test_stats_counters_delete_gc(self, remote):
        key, _request, fingerprint, record = _seed_rows(1)[0]
        remote.put(key, record, fingerprint=fingerprint, created=100.0)
        remote.bump_counter("hits", 3)
        assert remote.counters()["hits"] == 3
        assert remote.fingerprints() == {fingerprint: 1}
        assert remote.keys() == [key]
        assert remote.gc(60.0, now=1000.0, dry_run=True) == 1
        assert len(remote) == 1  # dry run dropped nothing
        assert remote.delete(key) is True
        assert remote.delete(key) is False
        assert len(remote) == 0

    def test_items_rows_stream_the_sync_dialect(self, remote):
        key, request, fingerprint, record = _seed_rows(1)[0]
        remote.put(key, record, fingerprint=fingerprint, created=42.0)
        items = list(remote.items())
        assert items[0][0] == key and items[0][1] == 42.0
        assert items[0][2] == fingerprint
        rows = list(remote.rows())
        assert rows[0][0] == key and request.page.name in rows[0][3]

    def test_unknown_paths_and_malformed_bodies(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/nope")
        assert err.value.code == 404
        request = urllib.request.Request(
            server.url + "/missing", data=b"not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400

    def test_sqlite_backed_server(self, tmp_path):
        # No server is backed by sqlite any more: a legacy file (or a
        # new .sqlite path) is refused with the sync hint, untouched.
        from repro.cli import main

        legacy = tmp_path / "central.sqlite"
        SqliteStore(legacy).close()
        before = legacy.read_bytes()
        for location in (legacy, tmp_path / "new.sqlite"):
            with pytest.raises(ValueError, match=f"sync {location}"):
                StoreServer(location, port=0)
        with pytest.raises(SystemExit, match=f"sync {legacy}"):
            main(["serve", "--store", str(legacy), "--port", "0"])
        assert legacy.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["central.sqlite"]


# ----------------------------------------------------------------------
# streamed bulk downloads
# ----------------------------------------------------------------------
def _wire_rows(n):
    from repro.store import record_to_dict

    return [(key, 1000.0 + index, fingerprint, record_to_dict(record))
            for index, (key, _req, fingerprint, record)
            in enumerate(_seed_rows(n))]


class TestStreamedDownloads:
    def test_bulk_bodies_are_chunked_and_dechunk_to_the_listing(
            self, tmp_path):
        from repro.store.rows import encode_row

        store = ShardStore(tmp_path / "central")
        store.upload_rows(_wire_rows(200))
        listing = "".join(encode_row(*row) for row in store.items()).encode()
        assert len(listing) > 2 * server_module._CHUNK
        keys = [row[0] for row in store.items()]
        with StoreServer(store, port=0) as srv:
            for request in (
                    urllib.request.Request(srv.url + "/records"),
                    urllib.request.Request(
                        srv.url + "/fetch", method="POST",
                        data=json.dumps({"keys": keys}).encode())):
                with urllib.request.urlopen(request) as reply:
                    assert reply.headers["Transfer-Encoding"] == "chunked"
                    assert reply.headers["Content-Length"] is None
                    assert reply.read() == listing

    def test_report_over_served_store_holds_less_than_the_listing(
            self, tmp_path):
        # build_store_report streams the store: over RemoteStore the
        # coordinating process (server thread and client both traced
        # here) must stay under the size of the listing itself — the
        # buffered wire held it ~7 times over.
        import tracemalloc

        from repro.store.rows import encode_row

        store = ShardStore(tmp_path / "central")
        store.upload_rows(_wire_rows(2000))
        listing = sum(len(encode_row(*row)) for row in store.items())
        with StoreServer(store, port=0) as srv:
            remote = RemoteStore(srv.url)
            build_store_report(remote)  # warms the served parse cache
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                report = build_store_report(remote)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            url = srv.url
        assert report.replace(url, "STORE") == build_store_report(
            store).replace(str(store.path), "STORE")
        assert peak < listing, (peak, listing)

    def test_warm_sweep_fetches_one_batch_at_a_time(self, server,
                                                    monkeypatch):
        import repro.store.backend as backend

        requests = [req(seed=s) for s in range(11)]
        list(iter_runs(requests, run_fn=_instant_run,
                       store=RunCache(RemoteStore(server.url))))
        monkeypatch.setattr(backend, "BATCH_SIZE", 4)
        yielded = []
        fetches = []
        real_fetch = RemoteStore.fetch

        def fetch(self, keys):
            keys = list(keys)
            fetches.append((len(keys), len(yielded)))
            return real_fetch(self, keys)

        monkeypatch.setattr(RemoteStore, "fetch", fetch)
        for stream in (
                lambda: iter_runs(requests, jobs=2, run_fn=_instant_run,
                                  store=server.url, force_pool=True),
                lambda: iter_fabric_runs(requests, server.url, workers=2,
                                         run_fn=_instant_run)):
            yielded.clear()
            fetches.clear()
            for event in stream():
                yielded.append((event.kind, event.index))
            # Sweep order, every one a hit; each batch fetched only once
            # the one before it was handed on.
            assert yielded == [("hit", index) for index in range(11)]
            assert fetches == [(4, 0), (4, 4), (3, 8)]

    def test_stalled_listing_reader_blocks_no_other_client(self, tmp_path):
        # An 8 MiB listing outgrows both socket buffers, so the server's
        # write to a reader that stopped after the status line blocks.
        # It blocks outside the store lock: every other call still runs.
        store = ShardStore(tmp_path / "central")
        (key, created, fingerprint, record), = _wire_rows(1)
        pad = "x" * 65536
        store.upload_rows([(f"{index:064x}", created + index, fingerprint,
                            dict(record, pad=pad)) for index in range(128)])
        with StoreServer(store, port=0) as srv:
            stalled = socket.socket()
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            try:
                stalled.connect((srv.host, srv.port))
                stalled.sendall(b"GET /records HTTP/1.1\r\nHost: x\r\n"
                                b"Connection: close\r\n\r\n")
                assert stalled.recv(17) == b"HTTP/1.1 200 OK\r\n"
                other = RemoteStore(srv.url, retries=0, timeout=5)
                assert other.healthz()["runs"] == 128
                assert other.missing([key]) == [key]
                assert other.upload_rows(_wire_rows(2)) == 2
            finally:
                stalled.close()


# ----------------------------------------------------------------------
# backend integration: open_store / merge_into
# ----------------------------------------------------------------------
class TestBackendIntegration:
    def test_open_store_recognises_urls(self, server):
        store = open_store(server.url)
        assert isinstance(store, RemoteStore)
        assert store.kind == "http" and store.path == server.url
        assert is_store_url(server.url)
        assert not is_store_url("/tmp/store.sqlite")
        assert _kind_at(server.url) == ("http", True)

    def test_resolve_store_pings_on_must_exist(self, server):
        assert open_store(server.url, must_exist=True).kind == "http"
        dead = "http://127.0.0.1:9"
        with pytest.raises(FabricConnectionError, match="repro serve"):
            open_store(dead, must_exist=True)

    def test_merge_into_remote_uses_batched_path(self, tmp_path, server,
                                                 remote):
        local = ShardStore(tmp_path / "local")
        cache = RunCache(local)
        list(iter_runs([req(seed=s) for s in range(6)],
                       run_fn=_instant_run, store=cache))
        assert merge_into(remote, local) == (6, 0)
        assert merge_into(remote, local) == (0, 6)  # idempotent
        assert set(remote.keys()) == set(local.keys())

    def test_merge_from_remote_into_local(self, tmp_path, remote):
        for key, _request, fingerprint, record in _seed_rows(4):
            remote.put(key, record, fingerprint=fingerprint)
        local = ShardStore(tmp_path / "pulled")
        assert merge_into(local, remote.path) == (4, 0)
        assert set(local.keys()) == set(remote.keys())


# ----------------------------------------------------------------------
# executor against a served store
# ----------------------------------------------------------------------
class TestExecutorOverRemote:
    def test_serial_sweep_misses_then_hits(self, remote):
        requests = [req(seed=s) for s in range(5)]
        cold = list(iter_runs(requests, run_fn=_instant_run,
                              store=RunCache(remote)))
        assert all(e.stored for e in cold if e.terminal)
        warm_cache = RunCache(RemoteStore(remote.path))
        warm = list(iter_runs(requests, run_fn=_instant_run,
                              store=warm_cache))
        assert [e.kind for e in warm] == ["hit"] * 5
        assert warm_cache.session_stats[0] == 5

    def test_pool_workers_write_back_over_http(self, remote):
        # pool workers reopen the RemoteStore by URL and write their
        # records to it directly.
        requests = [req(seed=s) for s in range(12)]
        cache = RunCache(remote)
        events = list(iter_runs(requests, jobs=2, run_fn=_instant_run,
                                store=cache, force_pool=True))
        terminal = [e for e in events if e.terminal]
        assert sorted(e.index for e in terminal) == list(range(12))
        assert all(e.stored for e in terminal)
        assert all(e.record is None for e in events)
        assert len(remote) == 12

    @pytest.mark.parametrize("entry", ["iter_runs", "iter_fabric_runs"])
    def test_round_trips_are_per_window_not_per_lookup(self, server,
                                                       monkeypatch, entry):
        # The sweeping process makes one POST /fetch per lookup window
        # and a counter flush per COUNTER_FLUSH_EVERY bumps, cold or
        # warm: never one round trip per request.  (Worker processes'
        # uploads are theirs, not counted here.)
        from repro.store.backend import BATCH_SIZE
        from repro.store.cache import COUNTER_FLUSH_EVERY

        parent = os.getpid()
        calls = []
        real_exchange = RemoteStore._exchange

        def exchange(self, method, path, *args, **kwargs):
            if os.getpid() == parent:
                calls.append((method, path))
            return real_exchange(self, method, path, *args, **kwargs)

        monkeypatch.setattr(RemoteStore, "_exchange", exchange)
        n = 1200
        requests = [req(seed=s) for s in range(n)]
        budget = (-(-n // BATCH_SIZE) + -(-n // COUNTER_FLUSH_EVERY)
                  + 2)  # + the handshake and one spare flush
        for expected in ("complete", "hit"):
            calls.clear()
            if entry == "iter_runs":
                stream = iter_runs(requests, jobs=2, run_fn=_instant_run,
                                   store=server.url, force_pool=True)
            else:
                stream = iter_fabric_runs(requests, server.url, workers=2,
                                          run_fn=_instant_run)
            kinds = {e.kind for e in stream if e.terminal}
            assert kinds == {expected}
            assert len(calls) <= budget, (expected, len(calls), calls[:8])


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------
#: Budget for the kill/resume tests: a forked worker can inherit a lock
#: the StoreServer thread held at fork time and wedge before its first
#: event; the worker group's watchdog then respawns it instead of hanging
#: the suite.
_WEDGED_WORKER_TIMEOUT = 10.0


class TestCoordinator:
    def _grid(self, n=40):
        return [req(seed=s, protocol=ProtocolSpec.of(p))
                for s in range(n // 2) for p in ("quic", "tcp")]

    def _control_report(self, tmp_path, requests):
        control = RunCache(ShardStore(tmp_path / "control"))
        list(iter_runs(requests, run_fn=_instant_run, store=control))
        return build_store_report(control.store).replace(
            str(control.store.path), "STORE")

    def test_two_worker_sweep_byte_identical_report(self, tmp_path, server):
        requests = self._grid()
        expected = self._control_report(tmp_path, requests)
        events = list(iter_fabric_runs(requests, server.url, workers=2,
                                       sync_every=4, run_fn=_instant_run))
        terminal = [e for e in events if e.terminal]
        assert sorted(e.index for e in terminal) == list(
            range(len(requests)))
        assert len(terminal) == len(requests)
        # no row lost in transit: the server answers for every key
        keys = [run_key(r, fingerprint=fingerprint_for(r)) for r in requests]
        assert RemoteStore(server.url).missing(keys) == []
        fabric = build_store_report(server.store).replace(
            str(server.store.path), "STORE")
        assert fabric == expected

    def test_sweep_bumps_the_served_store_counters(self, server):
        # Lookups and writes go through the sweep's RunCache, so the
        # served store's lifetime counters see a fabric sweep.
        requests = self._grid(24)
        run_fabric_sweep(requests, server.url, workers=2,
                         run_fn=_instant_run)
        counters = RemoteStore(server.url).counters()
        assert counters.get("hits", 0) == 0
        assert counters["misses"] == counters["writes"] == len(requests)
        run_fabric_sweep(requests, server.url, workers=2,
                         run_fn=_instant_run)
        assert RemoteStore(server.url).counters() == {
            "hits": len(requests), "misses": len(requests),
            "writes": len(requests)}

    def test_rerun_is_all_hits(self, tmp_path, server):
        requests = self._grid(12)
        run_fabric_sweep(requests, server.url, workers=2,
                         run_fn=_instant_run)
        summary = run_fabric_sweep(requests, server.url, workers=2,
                                   run_fn=_instant_run)
        assert summary == {"requests": 12, "hits": 12, "completed": 0,
                           "failed": 0}

    def test_hung_run_ends_as_one_timeout_and_is_never_rerun(self, tmp_path,
                                                             server):
        # Seed 0 always hangs, out of reach of any in-run alarm.  The
        # watchdog kills its worker and ends it as one timeout, without
        # spending a restart (max_restarts=0) or running it again, and
        # every other cell completes.
        markers = tmp_path / "markers"
        markers.mkdir()

        def _seed0_hangs(request):  # fork start method: closures are fine
            (markers / f"{request.seed}-{os.getpid()}-"
                       f"{time.monotonic_ns()}").touch()
            if request.seed == 0:
                signal.signal(signal.SIGALRM, signal.SIG_IGN)
                time.sleep(30)
            return _instant_run(request)

        requests = [req(seed=s) for s in range(4)]
        start = time.perf_counter()
        events = list(iter_fabric_runs(requests, server.url, workers=2,
                                       sync_every=1, max_restarts=0,
                                       wall_timeout=1.0,
                                       run_fn=_seed0_hangs))
        assert time.perf_counter() - start < 20.0
        terminal = [e for e in events if e.terminal]
        assert sorted(e.seed for e in terminal) == [0, 1, 2, 3]
        by_seed = {e.seed: e for e in terminal}
        hung = by_seed.pop(0)
        assert (hung.kind, hung.failure_kind, hung.stored) == (
            "timeout", "timeout", False)
        assert hung.failure_message == "run exceeded its 1s wall-clock budget"
        assert all(e.kind == "complete" and e.ok and e.stored
                   for e in by_seed.values())
        assert sorted(int(path.name.split("-")[0])
                      for path in markers.iterdir()) == [0, 1, 2, 3]
        assert RemoteStore(server.url).missing([hung.key]) == [hung.key]

    def test_sync_every_below_one_is_refused_before_any_work(self):
        # refused before the (unreachable) server is contacted
        for sync_every in (0, -1):
            with pytest.raises(ValueError, match="sync_every"):
                iter_fabric_runs([req()], "http://127.0.0.1:9",
                                 sync_every=sync_every)

    def test_killed_worker_resumes_byte_identical(self, tmp_path, server):
        requests = self._grid(60)
        expected = self._control_report(tmp_path, requests)

        pids = {}
        spawns = []

        def on_start(worker_id, pid):
            pids[worker_id] = pid
            spawns.append(worker_id)

        terminal_count = 0
        killed = False
        stream = iter_fabric_runs(requests, server.url, workers=2,
                                  sync_every=4, run_fn=_slow_run,
                                  on_worker_start=on_start,
                                  wall_timeout=_WEDGED_WORKER_TIMEOUT)
        seen = []
        for event in stream:
            if event.terminal:
                terminal_count += 1
                seen.append(event.index)
            if not killed and terminal_count >= len(requests) // 2:
                os.kill(pids[0], signal.SIGKILL)
                killed = True
        assert killed
        assert len(spawns) > 2  # worker 0 was respawned
        assert sorted(seen) == list(range(len(requests)))
        assert len(seen) == len(requests)  # no duplicated terminals
        fabric = build_store_report(server.store).replace(
            str(server.store.path), "STORE")
        assert fabric == expected

    def test_coordinator_kill_then_full_rerun_resumes(self, tmp_path,
                                                      server):
        # killing the *coordinator* (generator close) loses nothing
        # either: a rerun's /missing probe shrinks to the absent cells.
        requests = self._grid(40)
        expected = self._control_report(tmp_path, requests)
        stream = iter_fabric_runs(requests, server.url, workers=2,
                                  sync_every=2, run_fn=_slow_run,
                                  wall_timeout=_WEDGED_WORKER_TIMEOUT)
        landed = 0
        for event in stream:
            if event.terminal:
                landed += 1
            if landed >= 10:
                break
        stream.close()
        summary = run_fabric_sweep(requests, server.url, workers=2,
                                   run_fn=_instant_run,
                                   wall_timeout=_WEDGED_WORKER_TIMEOUT)
        assert summary["hits"] >= 1  # the pre-kill uploads were kept
        assert summary["requests"] == len(requests)
        fabric = build_store_report(server.store).replace(
            str(server.store.path), "STORE")
        assert fabric == expected

    def test_closed_or_failed_sweep_leaves_no_directory(
            self, tmp_path, server, monkeypatch):
        # A worker keeps no store, so neither a stream closed half-way
        # nor a sweep whose worker raised leaves a directory behind.
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        stream = iter_fabric_runs(self._grid(20), server.url, workers=2,
                                  sync_every=2, run_fn=_slow_run,
                                  wall_timeout=_WEDGED_WORKER_TIMEOUT)
        next(event for event in stream if event.terminal)
        stream.close()
        assert list(scratch.iterdir()) == []

        def _boom(request):  # fork start method: closures are fine
            raise SystemExit(3)

        with pytest.raises(FabricWorkerError):
            list(iter_fabric_runs([req(seed=s) for s in range(40, 44)],
                                  server.url, workers=2, run_fn=_boom,
                                  max_restarts=0))
        assert list(scratch.iterdir()) == []

    def test_stored_terminal_event_is_already_on_the_server(self, server):
        # stored=True means "the row is in the sweep's store" on the
        # fabric path too: the consumer never sees it before the upload.
        # A failed run is never stored, and its key stays missing.
        def _fail_odd(request):  # fork start method: closures are fine
            if request.seed % 2:
                raise RuntimeError("odd seed")
            return _slow_run(request)

        remote = RemoteStore(server.url)
        ended = []
        for event in iter_fabric_runs(self._grid(24), server.url,
                                      workers=2, sync_every=3,
                                      run_fn=_fail_odd,
                                      wall_timeout=_WEDGED_WORKER_TIMEOUT):
            if event.terminal:
                on_server = remote.missing([event.key]) == []
                assert on_server == event.stored == (event.kind == "complete")
                ended.append(event.index)
        assert sorted(ended) == list(range(24))

    def test_killed_worker_reruns_at_most_sync_every(self, tmp_path,
                                                     server):
        # A killed worker's runs whose rows were not uploaded have no
        # terminal event yet: the respawn re-runs them — at most
        # sync_every per kill — and the fixed seeds make the rows equal.
        sync_every = 4
        requests = self._grid(48)
        expected = self._control_report(tmp_path, requests)
        markers = tmp_path / "markers"
        markers.mkdir()

        def _counted_run(request):  # fork start method: closures are fine
            (markers / f"{request.protocol.name}-{request.seed}-"
                       f"{os.getpid()}-{time.monotonic_ns()}").touch()
            return _slow_run(request)

        pids = {}
        spawns = []

        def on_start(worker_id, pid):
            pids[worker_id] = pid
            spawns.append(worker_id)

        remote = RemoteStore(server.url)
        seen = []
        for event in iter_fabric_runs(requests, server.url, workers=2,
                                      sync_every=sync_every,
                                      run_fn=_counted_run,
                                      on_worker_start=on_start,
                                      wall_timeout=_WEDGED_WORKER_TIMEOUT):
            if not event.terminal:
                continue
            assert remote.missing([event.key]) == []
            seen.append(event.index)
            if len(seen) == len(requests) // 2:
                os.kill(pids[0], signal.SIGKILL)
        kills = len(spawns) - 2
        assert kills >= 1
        assert sorted(seen) == list(range(len(requests)))
        reruns = len(list(markers.iterdir())) - len(requests)
        assert 0 <= reruns <= sync_every * kills
        fabric = build_store_report(server.store).replace(
            str(server.store.path), "STORE")
        assert fabric == expected

    def test_worker_exception_raises_fabric_error(self, server):
        def _boom(request):  # fork start method: closures are fine
            raise SystemExit(3)

        with pytest.raises(FabricWorkerError, match="worker"):
            list(iter_fabric_runs([req(seed=s) for s in range(4)],
                                  server.url, workers=1, run_fn=_boom,
                                  max_restarts=0))

    def test_unreachable_server_fails_before_spawning(self):
        with pytest.raises(FabricConnectionError, match="repro serve"):
            list(iter_fabric_runs([req()], "http://127.0.0.1:9",
                                  workers=2, run_fn=_instant_run))

    def test_empty_request_list(self, server):
        assert list(iter_fabric_runs([], server.url)) == []


# ----------------------------------------------------------------------
# concurrent remote access
# ----------------------------------------------------------------------
def _upload_range(url, start, stop, out):
    from repro.store import record_to_dict

    remote = RemoteStore(url)
    rows = []
    for seed in range(start, stop):
        request = req(seed=seed)
        fingerprint = fingerprint_for(request)
        key = run_key(request, fingerprint=fingerprint)
        rows.append((key, None, fingerprint,
                     record_to_dict(_instant_run(request))))
    out.put(remote.upload_rows(rows))


class TestConcurrentRemoteAccess:
    def test_overlapping_uploads_no_lost_torn_duplicated(self, remote):
        """Two processes bulk-upload overlapping key ranges; the server
        ends with exactly the union, every row intact."""
        ctx = multiprocessing.get_context()
        out = ctx.Queue()
        writers = [ctx.Process(target=_upload_range,
                               args=(remote.path, 0, 30, out)),
                   ctx.Process(target=_upload_range,
                               args=(remote.path, 20, 50, out))]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        assert out.get(timeout=5) == 30
        assert out.get(timeout=5) == 30
        # union of [0,30) and [20,50): exactly 50 keys, none torn
        assert len(remote) == 50
        seeds = set()
        for key in remote.keys():
            record = remote.get(key)
            assert record is not None and record.complete
            assert record.plt == pytest.approx(
                record.request.seed / 10.0 + 0.1)
            seeds.add(record.request.seed)
        assert seeds == set(range(50))


# ----------------------------------------------------------------------
# friendly errors
# ----------------------------------------------------------------------
class TestFriendlyErrors:
    def test_connection_refused_names_repro_serve(self):
        dead = RemoteStore("http://127.0.0.1:9", retries=0)
        with pytest.raises(FabricConnectionError) as err:
            dead.healthz()
        message = str(err.value)
        assert "repro serve" in message
        assert "127.0.0.1:9" in message

    def test_schema_mismatch_refuses_before_data_moves(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(server_module, "KEY_SCHEMA_VERSION", 99)
        with StoreServer(ShardStore(tmp_path / "old"), port=0) as srv:
            remote = RemoteStore(srv.url)
            with pytest.raises(SchemaMismatchError) as err:
                remote.missing(["0" * 64])
            message = str(err.value)
            assert "v99" in message
            assert f"v{KEY_SCHEMA_VERSION}" in message
            assert len(srv.store) == 0
            # the raw handshake itself stays readable for diagnostics
            assert remote.healthz()["key_schema_version"] == 99
            # ...and uploads are refused too
            key, _request, fingerprint, record = _seed_rows(1)[0]
            with pytest.raises(SchemaMismatchError):
                remote.put(key, record, fingerprint=fingerprint)
            assert len(srv.store) == 0

    def test_cli_reports_fabric_errors_actionably(self, capsys):
        from repro.cli import main

        code = main(["report", "--from-store", "http://127.0.0.1:9"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "repro serve" in err

    def test_cli_serve_rejects_url_store(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="local"):
            main(["serve", "--store", "http://127.0.0.1:9"])


# ----------------------------------------------------------------------
# CLI end-to-end (report --from-store over HTTP)
# ----------------------------------------------------------------------
class TestCliOverRemote:
    def test_report_from_store_url(self, tmp_path, server, capsys):
        from repro.cli import main

        requests = [req(seed=s) for s in range(4)]
        run_fabric_sweep(requests, server.url, workers=2,
                         run_fn=_instant_run)
        assert main(["report", "--from-store", server.url]) == 0
        out = capsys.readouterr().out
        assert "Reproduction report" in out
        assert server.url in out

    def test_spec_caches_through_a_served_store(self, server, capsys):
        # --cache URL on a pool: each worker reopens the served store by
        # its URL and writes there directly.
        from repro.cli import main

        argv = ["spec", "--file", str(SMOKE_SPEC), "--cache", server.url,
                "--jobs", "2"]
        assert main(argv) == 0
        assert "0/16 hits" in capsys.readouterr().out
        assert len(server.store) == 16
        assert main(argv) == 0
        assert "16/16 hits" in capsys.readouterr().out
        assert len(server.store) == 16

    def test_store_stats_over_url(self, server, remote, capsys):
        from repro.cli import main

        key, _request, fingerprint, record = _seed_rows(1)[0]
        remote.put(key, record, fingerprint=fingerprint)
        assert main(["store", "--store", server.url, "stats"]) == 0
        out = capsys.readouterr().out
        assert "[http]" in out and "1 stored" in out
