"""Tests for deterministic fault injection and integrity hardening.

Covers the repro.faults surfaces (FaultPlan/FaultSpec semantics,
FaultyStore torn writes / transient errors / latency), the store
integrity layer (per-row checksums, torn-line accounting, fsck
detect/repair/quarantine on both backends, counter-ledger
reconciliation), and the fabric's graceful degradation (5xx retry,
dropped/truncated/stalled replies, a dead server's loud write path,
the hung-worker watchdog, and plan-scheduled worker kills) — plus the acceptance criteria: a SIGKILL during shard
auto-compaction loses nothing, and the ``repro serve`` /
``repro store fsck`` CLI paths behave.
"""

import json
import multiprocessing
import os
import signal
import socket
import threading
import time
import warnings

import pytest

from repro.core.executor import ProtocolSpec, RunRecord, RunRequest
from repro.core.report import build_store_report
from repro.fabric import (
    FabricConnectionError,
    RemoteStore,
    StoreServer,
    iter_fabric_runs,
)
from repro.faults import SURFACE_KINDS, FaultPlan, FaultSpec, FaultyStore
from repro.http import single_object_page
from repro.netem import emulated
from repro.store import (
    ShardStore,
    SqliteStore,
    fingerprint_for,
    fsck,
    row_check,
    run_key,
)
from repro.store.fsck import QUARANTINE_NAME

SCN = emulated(10.0)
PAGE = single_object_page(20_000)


def req(seed=0, **overrides):
    kwargs = dict(scenario=SCN, page=PAGE, protocol=ProtocolSpec.quic(),
                  seed=seed)
    kwargs.update(overrides)
    return RunRequest(**kwargs)


def _instant_run(request):
    return RunRecord(request=request, plt=float(request.seed) / 10.0 + 0.1,
                     complete=True)


def _keyed(seed=0):
    """A request with its genuine content address (fsck-verifiable)."""
    request = req(seed=seed)
    return request, run_key(request, fingerprint=fingerprint_for(request))


def _store_with_rows(store, n=4):
    for seed in range(n):
        request, key = _keyed(seed)
        store.put(key, _instant_run(request),
                  fingerprint=fingerprint_for(request))
    return store


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan semantics
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_unknown_surface_rejected(self):
        with pytest.raises(ValueError, match="unknown fault surface"):
            FaultSpec("disk", "torn_write")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="no fault kind"):
            FaultSpec("http", "torn_write")

    def test_negative_after_rejected(self):
        with pytest.raises(ValueError, match="after"):
            FaultSpec("store", "latency", after=-1)

    def test_every_advertised_kind_constructs(self):
        for surface, kinds in SURFACE_KINDS.items():
            for kind in kinds:
                FaultSpec(surface, kind)


class TestFaultPlan:
    def test_fires_on_the_nth_surface_operation(self):
        plan = FaultPlan([FaultSpec("store", "os_error", after=2)])
        assert plan.take("store", "put") is None
        assert plan.take("store", "get") is None
        event = plan.take("store", "put")
        assert event is not None and event.spec.kind == "os_error"
        assert event.op == "put"

    def test_op_filter_counts_only_matching_operations(self):
        plan = FaultPlan([FaultSpec("store", "os_error", op="put", after=1)])
        assert plan.take("store", "get") is None   # filtered out
        assert plan.take("store", "put") is None   # put count 0 < 1
        assert plan.take("store", "get") is None
        assert plan.take("store", "put") is not None  # put count 1

    def test_each_spec_fires_exactly_once(self):
        plan = FaultPlan([FaultSpec("store", "os_error")])
        assert plan.take("store") is not None
        assert all(plan.take("store") is None for _ in range(5))
        assert plan.pending() == 0

    def test_at_most_one_fault_per_operation_shadowed_fires_later(self):
        plan = FaultPlan([FaultSpec("store", "os_error", after=0),
                          FaultSpec("store", "os_error", after=0)])
        first = plan.take("store")
        second = plan.take("store")
        assert first is not None and second is not None
        assert first.sequence == 0 and second.sequence == 1
        assert plan.pending() == 0

    def test_surfaces_count_independently(self):
        plan = FaultPlan([FaultSpec("http", "error_500", after=1)])
        for _ in range(5):
            assert plan.take("store", "put") is None
        assert plan.take("http", "/records") is None
        assert plan.take("http", "/records") is not None

    def test_seeded_plans_are_replayable(self):
        a = FaultPlan.seeded(7, count=8)
        b = FaultPlan.seeded(7, count=8)
        assert a.schedule() == b.schedule()
        assert a.schedule() != FaultPlan.seeded(8, count=8).schedule()

    def test_identically_driven_plans_fire_identically(self):
        ops = [("store", "put"), ("http", "/records"), ("store", "get"),
               ("worker", "0"), ("http", "/fetch")] * 8
        a = FaultPlan.seeded(3, count=6, horizon=20)
        b = FaultPlan.seeded(3, count=6, horizon=20)
        for surface, op in ops:
            a.take(surface, op)
            b.take(surface, op)
        assert a.fired() == b.fired()
        assert len(a.fired()) > 0


# ----------------------------------------------------------------------
# FaultyStore: the store surface
# ----------------------------------------------------------------------
class TestFaultyStore:
    def test_latency_sleeps_then_succeeds(self, tmp_path):
        plan = FaultPlan([FaultSpec("store", "latency", param=0.05)])
        store = FaultyStore(ShardStore(tmp_path / "s"), plan)
        request, key = _keyed()
        start = time.monotonic()
        store.put(key, _instant_run(request),
                  fingerprint=fingerprint_for(request))
        assert time.monotonic() - start >= 0.05
        assert store.get(key) is not None

    def test_os_error_raises_without_touching_the_store(self, tmp_path):
        plan = FaultPlan([FaultSpec("store", "os_error", op="put")])
        store = FaultyStore(ShardStore(tmp_path / "s"), plan)
        request, key = _keyed()
        with pytest.raises(OSError, match="injected"):
            store.put(key, _instant_run(request),
                  fingerprint=fingerprint_for(request))
        assert store.get(key) is None
        assert fsck(store.inner).clean  # no debris either
        store.put(key, _instant_run(request),
                  fingerprint=fingerprint_for(request))  # one-shot: retry lands
        assert store.get(key) is not None

    def test_torn_write_leaves_crash_debris_and_raises(self, tmp_path):
        plan = FaultPlan([FaultSpec("store", "torn_write", op="put")])
        inner = ShardStore(tmp_path / "s")
        store = FaultyStore(inner, plan)
        request, key = _keyed()
        with pytest.raises(OSError, match="torn"):
            store.put(key, _instant_run(request),
                  fingerprint=fingerprint_for(request))
        shard_text = inner._data_path(inner.shard_of(key)).read_text()
        assert shard_text and not shard_text.endswith("\n")  # a torn tail
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert store.get(key) is None
            store.put(key, _instant_run(request),
                  fingerprint=fingerprint_for(request))  # the idempotent retry
            assert store.get(key) is not None      # ...converges
            report = fsck(inner, repair=True)
            assert report.quarantined == 1
            assert fsck(inner).clean
        assert store.get(key) is not None  # repair kept the good row

    def test_put_many_torn_write_fails_whole_batch(self, tmp_path):
        plan = FaultPlan([FaultSpec("store", "torn_write", op="put_many")])
        inner = ShardStore(tmp_path / "s")
        store = FaultyStore(inner, plan)
        entries = []
        for seed in range(3):
            request, key = _keyed(seed)
            entries.append((key, _instant_run(request),
                            fingerprint_for(request)))
        with pytest.raises(OSError, match="torn"):
            store.put_many(entries)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert store.put_many(entries) == 3
            assert all(store.get(key) is not None for key, _r, _f in entries)


# ----------------------------------------------------------------------
# torn-tail healing + torn-line accounting (ShardStore)
# ----------------------------------------------------------------------
class TestTornLines:
    def _torn_store(self, tmp_path):
        store = _store_with_rows(ShardStore(tmp_path / "s"), n=3)
        shard = store._shards()[0]
        path = store._data_path(shard)
        path.write_text(path.read_text() + '{"key": "half-a-li')
        store._cache.clear()
        return store, shard

    def test_append_after_torn_tail_heals_the_ledger(self, tmp_path):
        store, shard = self._torn_store(tmp_path)
        # A new row landing in the torn shard must NOT glue onto the
        # fragment: the fragment stays skipped, the new row stays live.
        seed = 99
        while True:
            request, key = _keyed(seed=seed)
            if store.shard_of(key) == shard:
                break
            seed += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            store.put(key, _instant_run(request),
                      fingerprint=fingerprint_for(request))
            assert store.get(key) is not None
            assert len(store) == 4  # 3 seeded + the healed append
        text = store._data_path(shard).read_text()
        assert text.endswith("\n")

    def test_torn_lines_warn_once_per_shard_and_count(self, tmp_path):
        store, shard = self._torn_store(tmp_path)
        with pytest.warns(RuntimeWarning, match="torn line"):
            store.keys()
        assert store.torn_lines == {shard: 1}
        with warnings.catch_warnings():  # second parse: no second warning
            warnings.simplefilter("error", RuntimeWarning)
            store._cache.clear()
            store.keys()

    def test_stats_surface_torn_lines(self, tmp_path):
        store, shard = self._torn_store(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            stats = store.stats()
        assert stats["torn_lines"] == 1
        assert stats["torn_by_shard"] == {shard: 1}
        assert stats["live_rows"] == 3

    def test_fsck_repair_clears_the_torn_count(self, tmp_path):
        store, shard = self._torn_store(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = fsck(store, repair=True)
            assert report.quarantined == 1
            assert fsck(store).clean
        assert store.torn_lines == {}


# ----------------------------------------------------------------------
# checksums on disk
# ----------------------------------------------------------------------
class TestChecksums:
    def test_shard_lines_carry_a_verifiable_check(self, tmp_path):
        store = _store_with_rows(ShardStore(tmp_path / "s"), n=2)
        for shard in store._shards():
            for line in store._data_path(shard).read_text().splitlines():
                raw = json.loads(line)
                assert raw["check"] == row_check(raw["key"], raw["record"])

    def test_sqlite_rows_carry_a_verifiable_checksum(self, tmp_path):
        store = _store_with_rows(SqliteStore(tmp_path / "s.sqlite"), n=2)
        for key, record_json, checksum in store._db.execute(
                "SELECT key, record, checksum FROM runs"):
            assert checksum == row_check(key, json.loads(record_json))

    def test_row_check_is_order_insensitive_but_content_sensitive(self):
        record = {"plt": 1.0, "complete": True}
        assert (row_check("k", record)
                == row_check("k", {"complete": True, "plt": 1.0}))
        assert row_check("k", record) != row_check("k", {"plt": 1.1,
                                                         "complete": True})
        assert row_check("k", record) != row_check("j", record)


# ----------------------------------------------------------------------
# fsck: detect, repair, quarantine
# ----------------------------------------------------------------------
def _flip_one_row(lines):
    """Silently corrupt the first row's payload, keeping it parseable."""
    raw = json.loads(lines[0])
    raw["record"]["plt"] = 424242.0
    lines[0] = json.dumps(raw, sort_keys=True)
    return raw["key"], lines


class TestFsckShards:
    def test_pristine_store_is_clean(self, tmp_path):
        store = _store_with_rows(ShardStore(tmp_path / "s"))
        report = fsck(store)
        assert report.clean
        assert report.rows == 4 and report.verified == 4
        assert report.backend == "shards"

    def test_detects_and_quarantines_silent_corruption(self, tmp_path):
        store = _store_with_rows(ShardStore(tmp_path / "s"))
        shard = store._shards()[0]
        path = store._data_path(shard)
        bad_key, lines = _flip_one_row(path.read_text().splitlines())
        path.write_text("\n".join(lines) + "\n")
        store._cache.clear()

        report = fsck(store)
        assert not report.clean
        assert [i.key for i in report.checksum_failures] == [bad_key]
        assert report.quarantined == 0  # detect-only pass moves nothing

        repaired = fsck(store, repair=True)
        assert repaired.quarantined == 1
        sidecar = tmp_path / "s" / QUARANTINE_NAME
        assert sidecar.exists()
        entry = json.loads(sidecar.read_text().splitlines()[0])
        assert entry["reason"] == "checksum" and entry["shard"] == shard
        assert store.counters()["quarantined"] == 1
        assert fsck(store).clean
        assert store.get(bad_key) is None  # set aside, not silently kept

    def test_key_mismatch_is_advisory_and_never_quarantined(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        request, _key = _keyed()
        store.put("aaaa1111", _instant_run(request))  # synthetic key
        report = fsck(store, repair=True)
        assert [i.kind for i in report.key_mismatches] == ["key_mismatch"]
        assert report.quarantined == 0
        assert store.get("aaaa1111") is not None  # the row survives repair

    def test_counter_ledger_reconciled(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        store.bump_counter("hits", 3)
        ledger = tmp_path / "s" / "counters.jsonl"
        ledger.write_text(ledger.read_text() + "{torn counter li\n")
        report = fsck(store)
        assert report.counter_torn == 1
        repaired = fsck(store, repair=True)
        assert repaired.counter_torn == 0  # reconciled
        assert store.counters()["hits"] == 3  # totals preserved
        assert fsck(store).clean


class TestLegacySync:
    """fsck has no sqlite half: a legacy file's rows are held to their
    stored checksums on the one way out of it, ``repro store sync``."""

    @pytest.mark.parametrize("damage", ["edited", "truncated"])
    def test_sync_refuses_a_corrupt_legacy_row(self, tmp_path, damage):
        from repro.cli import main

        store = _store_with_rows(SqliteStore(tmp_path / "s.sqlite"))
        bad_key, text = store._db.execute(
            "SELECT key, record FROM runs ORDER BY created, key"
        ).fetchall()[-1]
        record = json.loads(text)
        record["plt"] = 424242.0
        text = json.dumps(record)
        if damage == "truncated":
            text = text[:len(text) // 2]
        store._db.execute("UPDATE runs SET record = ? WHERE key = ?",
                          (text, bad_key))
        store._db.commit()

        dst = tmp_path / "migrated"
        with pytest.raises(SystemExit, match=(
                f"^error: .*the row of key '{bad_key}' is not JSON or fails "
                f"its stored checksum")):
            main(["store", "--store", str(dst), "sync", store.path])
        assert bad_key not in ShardStore(dst)  # not laundered
        store._db.execute("DELETE FROM runs WHERE key = ?",
                          (bad_key,))  # the remedy the message names
        store._db.commit()
        assert main(["store", "--store", str(dst), "sync", store.path]) == 0
        assert len(ShardStore(dst)) == store._db.execute(
            "SELECT COUNT(*) FROM runs").fetchone()[0]
        assert fsck(ShardStore(dst)).clean


class TestFsckRemote:
    """``fsck`` over the wire: the server checks the files it owns."""

    def test_flipped_row_is_detected_quarantined_then_clean(self, tmp_path,
                                                           capsys):
        from repro.cli import main

        store = _store_with_rows(ShardStore(tmp_path / "s"))
        path = store._data_path(store._shards()[0])
        bad_key, lines = _flip_one_row(path.read_text().splitlines())
        path.write_text("\n".join(lines) + "\n")
        local = fsck(ShardStore(tmp_path / "s"))
        with StoreServer(ShardStore(tmp_path / "s"), port=0) as server:
            report = fsck(RemoteStore(server.url))
            # The same report a local fsck of the served files gives.
            assert report == local
            assert [i.key for i in report.checksum_failures] == [bad_key]
            assert report.quarantined == 0
            assert main(["store", "--store", server.url, "fsck"]) == 1
            assert f"checksum: {bad_key[:16]}" in capsys.readouterr().out
            assert main(["store", "--store", server.url, "fsck",
                         "--repair"]) == 0
            out = capsys.readouterr().out
            assert "1 row(s) quarantined to" in out
            assert (tmp_path / "s" / QUARANTINE_NAME).exists()
            again = fsck(RemoteStore(server.url))
            assert again.clean and again.rows == 3 and again.verified == 3
            assert main(["store", "--store", server.url, "fsck"]) == 0
            assert "— clean" in capsys.readouterr().out
            assert bad_key not in RemoteStore(server.url)


# ----------------------------------------------------------------------
# acceptance: SIGKILL during auto-compaction loses nothing
# ----------------------------------------------------------------------
def _churn_keys(count=6):
    """Genuine content-addressed keys that all land in one shard."""
    picked = []
    seed = 0
    first_shard = None
    while len(picked) < count:
        request = req(seed=seed)
        key = run_key(request, fingerprint=fingerprint_for(request))
        shard = ShardStore.shard_of(key)
        if first_shard is None:
            first_shard = shard
        if shard == first_shard:
            picked.append((key, request))
        seed += 1
    return picked


def _compaction_churn(path, keyed):
    """Overwrite a small key set forever, forcing frequent compactions."""
    store = ShardStore(path, compact_ratio=0.3, compact_min_lines=24)
    i = 0
    while True:
        key, request = keyed[i % len(keyed)]
        store.put(key, _instant_run(request),
                  fingerprint=fingerprint_for(request))
        store.bump_counter("churn")
        if i % 8 == 0:
            store._cache.clear()
            store.keys()  # the read path is what triggers auto-compaction
        i += 1


class TestKillDuringCompaction:
    def test_sigkill_mid_compaction_loses_nothing(self, tmp_path):
        keyed = _churn_keys()
        path = str(tmp_path / "churn")
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_compaction_churn, args=(path, keyed),
                            daemon=True)
        child.start()
        deadline = time.monotonic() + 10.0
        store_dir = tmp_path / "churn"
        # Wait until compaction has provably run at least once.
        while time.monotonic() < deadline:
            counters = store_dir / "counters.jsonl"
            if counters.exists() and "compactions" in counters.read_text():
                break
            time.sleep(0.02)
        time.sleep(0.1)  # let it keep churning, then murder it mid-flight
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=5.0)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            store = ShardStore(path)
            # No lost rows, no duplicates: every key exactly once, every
            # record decodable.
            assert sorted(store.keys()) == sorted(k for k, _ in keyed)
            assert len(store) == len(keyed)
            for key, request in keyed:
                record = store.get(key)
                assert record is not None and record.complete
            # The kill may have torn an append or a counter line; fsck
            # --repair quarantines the debris and reconciles the ledger.
            fsck(store, repair=True)
            verify = fsck(store)
        assert verify.clean
        assert verify.rows == len(keyed)
        counters = store.counters()  # the ledger still sums
        assert counters.get("churn", 0) >= 1


# ----------------------------------------------------------------------
# fabric degradation: retry, faulted server, circuit breaker
# ----------------------------------------------------------------------
class TestHttpFaultSurface:
    def _put_one(self, remote, seed=0):
        request, key = _keyed(seed)
        remote.put(key, _instant_run(request),
                   fingerprint=fingerprint_for(request))
        return key

    def test_scheduled_500_is_retried_transparently(self, tmp_path):
        plan = FaultPlan([FaultSpec("http", "error_500")])
        with StoreServer(ShardStore(tmp_path / "s"), port=0,
                         fault_plan=plan) as server:
            remote = RemoteStore(server.url, backoff=0.01)
            key = self._put_one(remote)
            assert remote.get(key) is not None
        assert plan.pending() == 0

    def test_dropped_and_truncated_replies_are_transient(self, tmp_path):
        plan = FaultPlan([FaultSpec("http", "drop"),
                          FaultSpec("http", "truncate")])
        with StoreServer(ShardStore(tmp_path / "s"), port=0,
                         fault_plan=plan) as server:
            remote = RemoteStore(server.url, backoff=0.01)
            self._put_one(remote, seed=0)
            self._put_one(remote, seed=1)
            assert len(remote) == 2
        assert plan.pending() == 0

    def test_stream_cut_before_its_first_row_is_retried(self, tmp_path):
        # One row: half of the only chunk holds no whole line, so the cut
        # reaches the client before any row and the download is replayed.
        store = _store_with_rows(ShardStore(tmp_path / "s"), 1)
        expected = list(store.items())
        plan = FaultPlan([FaultSpec("http", "truncate", op="/records")])
        with StoreServer(store, port=0, fault_plan=plan) as server:
            remote = RemoteStore(server.url, backoff=0.01)
            assert list(remote.items()) == expected
        assert plan.pending() == 0

    def test_stream_cut_after_rows_were_handed_on_raises(self, tmp_path):
        # 100 rows outgrow one ~64 KB chunk: half of the first chunk is
        # dozens of whole rows, which items() hands on before the cut.
        store = _store_with_rows(ShardStore(tmp_path / "s"), 100)
        plan = FaultPlan([FaultSpec("http", "truncate", op="/records")])
        with StoreServer(store, port=0, fault_plan=plan) as server:
            remote = RemoteStore(server.url, backoff=0.01)
            handed_on = []
            with pytest.raises(FabricConnectionError, match="incomplete"):
                for row in remote.items():
                    handed_on.append(row)
            assert 0 < len(handed_on) < 100
            assert handed_on == list(store.items())[:len(handed_on)]
            # The fault is spent: the next listing is whole.
            assert len(list(remote.items())) == 100
        assert plan.pending() == 0

    def test_store_failing_mid_listing_never_ends_it_short(self, tmp_path):
        # The served store dies after 90 rows.  The listing is read
        # whole before the status line goes out, so the server answers
        # 500 and the client, its retries spent, raises with no row
        # handed on instead of returning 90 rows as the store.
        class DyingStore(ShardStore):
            def items(self):
                for count, row in enumerate(super().items()):
                    if count == 90:
                        raise OSError("disk gone")
                    yield row

        store = _store_with_rows(DyingStore(tmp_path / "s"), 100)
        with StoreServer(store, port=0) as server:
            remote = RemoteStore(server.url, backoff=0.01)
            handed_on = []
            with pytest.raises(FabricConnectionError, match="HTTP 500"):
                for row in remote.items():
                    handed_on.append(row)
        assert handed_on == []

    def test_cut_fetch_batch_is_retried_whole(self, tmp_path):
        # fetch() hands a batch on only once its body is complete, so a
        # cut after dozens of decoded rows is still a plain retry.
        store = _store_with_rows(ShardStore(tmp_path / "s"), 100)
        keys = [row[0] for row in store.items()]
        plan = FaultPlan([FaultSpec("http", "truncate", op="/fetch")])
        with StoreServer(store, port=0, fault_plan=plan) as server:
            remote = RemoteStore(server.url, backoff=0.01)
            assert remote.fetch(keys) == list(store.items())
        assert plan.pending() == 0

    def test_stall_delays_but_succeeds(self, tmp_path):
        plan = FaultPlan([FaultSpec("http", "stall", param=0.1)])
        with StoreServer(ShardStore(tmp_path / "s"), port=0,
                         fault_plan=plan) as server:
            remote = RemoteStore(server.url)
            start = time.monotonic()
            self._put_one(remote)
            assert time.monotonic() - start >= 0.1
        assert plan.pending() == 0

    def test_persistent_500s_exhaust_retries_loudly(self, tmp_path):
        plan = FaultPlan([FaultSpec("http", "error_500") for _ in range(6)])
        with StoreServer(ShardStore(tmp_path / "s"), port=0,
                         fault_plan=plan) as server:
            remote = RemoteStore(server.url, retries=1, backoff=0.01)
            with pytest.raises(FabricConnectionError, match="HTTP 500"):
                self._put_one(remote)

    def test_healthz_is_exempt_from_faults(self, tmp_path):
        plan = FaultPlan([FaultSpec("http", "error_500", after=0)])
        with StoreServer(ShardStore(tmp_path / "s"), port=0,
                         fault_plan=plan) as server:
            remote = RemoteStore(server.url, retries=0)
            assert "key_schema_version" in remote.healthz()
            assert plan.pending() == 1  # the handshake consumed no fault


class TestStalledStoreLock:
    """One slow store call holds the server-wide lock; every other
    request — ``/healthz`` too, which reads ``runs`` under the lock —
    queues behind it, and none fails."""

    STALL = 1.0

    def test_other_clients_complete_once_the_lock_is_released(self, tmp_path):
        rows = sorted(_store_with_rows(ShardStore(tmp_path / "src"), 8).items())
        held, uploaded = rows[:4], rows[4:]
        inner = ShardStore(tmp_path / "s")
        inner.upload_rows(held)
        plan = FaultPlan([FaultSpec("store", "latency", op="put",
                                    param=self.STALL)])
        with StoreServer(FaultyStore(inner, plan), port=0) as server:
            # retries=0: a call that fails raises instead of hiding in a
            # replay, and a replayed upload cannot double-append a row.
            writer = RemoteStore(server.url, retries=0)
            reader = RemoteStore(server.url, retries=0)
            reader.healthz()
            results = {}

            def upload():
                results["imported"] = writer.upload_rows(uploaded)

            uploading = threading.Thread(target=upload)
            uploading.start()
            deadline = time.monotonic() + 10.0
            while not plan.fired():  # the first put is now asleep
                assert time.monotonic() < deadline, "the stall never began"
                time.sleep(0.005)
            stalled_at = time.monotonic()
            keys = [row[0] for row in rows]
            calls = {"missing": lambda: reader.missing(keys),
                     "fetch": lambda: reader.fetch(keys),
                     "healthz": reader.healthz}
            finished = {}

            def call(name):
                results[name] = calls[name]()
                finished[name] = time.monotonic()

            readers = [threading.Thread(target=call, args=(name,))
                       for name in calls]
            for each in readers:
                each.start()
            for each in [uploading] + readers:
                each.join(timeout=30.0)
                assert not each.is_alive()
        # Each read queued behind the stall, then saw the post-upload store.
        assert sorted(finished) == sorted(calls)
        assert all(at - stalled_at >= self.STALL / 2
                   for at in finished.values()), finished
        assert results["missing"] == []
        assert sorted(row[0] for row in results["fetch"]) == sorted(keys)
        assert results["healthz"]["ok"] and results["healthz"]["runs"] == 8
        assert results["imported"] == 4
        assert plan.pending() == 0
        # Every row stored exactly once: one ledger line per key, and clean.
        lines = [json.loads(line)["key"]
                 for path in sorted((tmp_path / "s").glob("*.jsonl"))
                 if path.name != "counters.jsonl"
                 for line in path.read_text().splitlines()]
        assert sorted(lines) == sorted(keys)
        report = fsck(ShardStore(tmp_path / "s"))
        assert report.clean, report


class TestBackoffJitter:
    def test_jitter_is_deterministic_per_process_and_url(self):
        a = RemoteStore("http://127.0.0.1:9")
        b = RemoteStore("http://127.0.0.1:9")
        c = RemoteStore("http://127.0.0.1:10")
        seq_a = [a._jitter.random() for _ in range(3)]
        seq_b = [b._jitter.random() for _ in range(3)]
        seq_c = [c._jitter.random() for _ in range(3)]
        assert seq_a == seq_b      # replayable within one process
        assert seq_a != seq_c      # decorrelated across endpoints


class TestCircuitBreaker:
    def test_without_spill_path_failures_stay_loud(self):
        remote = RemoteStore("http://127.0.0.1:9", retries=0)
        with pytest.raises(FabricConnectionError, match="repro serve"):
            remote.upload_rows([("k", None, "", {"x": 1})])

    def test_the_breaker_settings_are_gone(self):
        # Failed uploads wait in a fabric worker's local shard store,
        # not in a client-side spill; the client takes no such setting.
        for setting in ("spill_path", "breaker_threshold",
                        "breaker_cooldown", "check_schema"):
            with pytest.raises(TypeError):
                RemoteStore("http://127.0.0.1:9", **{setting: None})


# ----------------------------------------------------------------------
# coordinator: watchdog + scheduled worker kills
# ----------------------------------------------------------------------
class TestCoordinatorDegradation:
    def _grid(self, n):
        return [req(seed=s, protocol=ProtocolSpec.of(p))
                for s in range(n // 2) for p in ("quic", "tcp")]

    def _control_report(self, tmp_path, requests):
        control = ShardStore(tmp_path / "control")
        for request in requests:
            key = run_key(request, fingerprint=fingerprint_for(request))
            control.put(key, _instant_run(request),
                        fingerprint=fingerprint_for(request))
        return build_store_report(control).replace(str(control.path),
                                                   "STORE")

    def test_hung_worker_is_killed_and_respawned(self, tmp_path):
        flag = tmp_path / "hung-once"

        def _hang_once(request):
            if not flag.exists():  # fork start method: closures are fine
                flag.write_text("x")
                time.sleep(60)
            return _instant_run(request)

        requests = self._grid(6)
        with StoreServer(ShardStore(tmp_path / "central"), port=0) as server:
            events = list(iter_fabric_runs(
                requests, server.url, workers=1, sync_every=1,
                run_fn=_hang_once, workdir=str(tmp_path / "wd"),
                progress_timeout=1.0))
            terminal = [e for e in events if e.terminal]
            assert sorted(e.index for e in terminal) == list(
                range(len(requests)))
            fabric = build_store_report(server.store).replace(
                str(server.store.path), "STORE")
        assert flag.exists()  # the first spawn genuinely hung
        assert fabric == self._control_report(tmp_path, requests)

    def test_plan_scheduled_kill_still_byte_identical(self, tmp_path):
        plan = FaultPlan([FaultSpec("worker", "kill", op="0", after=3)])
        requests = self._grid(20)
        expected = self._control_report(tmp_path, requests)
        with StoreServer(ShardStore(tmp_path / "central"), port=0) as server:
            events = list(iter_fabric_runs(
                requests, server.url, workers=2, sync_every=2,
                run_fn=_instant_run, workdir=str(tmp_path / "wd"),
                fault_plan=plan))
            terminal = [e for e in events if e.terminal]
            assert sorted(e.index for e in terminal) == list(
                range(len(requests)))
            assert len(terminal) == len(requests)  # no duplicates
            fabric = build_store_report(server.store).replace(
                str(server.store.path), "STORE")
        fired = plan.fired()
        assert [f["kind"] for f in fired] == ["kill"]
        assert fabric == expected


# ----------------------------------------------------------------------
# CLI: fsck exit codes + friendly serve errors
# ----------------------------------------------------------------------
class TestCli:
    def test_fsck_exit_codes_detect_then_repair(self, tmp_path, capsys):
        from repro.cli import main

        store = _store_with_rows(ShardStore(tmp_path / "s"))
        shard = store._shards()[0]
        path = store._data_path(shard)
        _bad_key, lines = _flip_one_row(path.read_text().splitlines())
        path.write_text("\n".join(lines) + "\n")
        store.close()

        assert main(["store", "--store", str(tmp_path / "s"), "fsck"]) == 1
        out = capsys.readouterr().out
        assert "checksum failure" in out and "--repair" in out

        assert main(["store", "--store", str(tmp_path / "s"), "fsck",
                     "--repair"]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out

        assert main(["store", "--store", str(tmp_path / "s"), "fsck"]) == 0

    def test_stats_surface_quarantined_and_torn(self, tmp_path, capsys):
        from repro.cli import main

        store = _store_with_rows(ShardStore(tmp_path / "s"))
        shard = store._shards()[0]
        path = store._data_path(shard)
        path.write_text(path.read_text() + '{"torn')
        store.close()

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["store", "--store", str(tmp_path / "s"),
                         "stats"]) == 0
        out = capsys.readouterr().out
        assert "torn" in out

    def test_serve_port_in_use_is_one_friendly_line(self, tmp_path):
        from repro.cli import main

        ShardStore(tmp_path / "s").close()
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--store", str(tmp_path / "s"),
                      "--port", str(port)])
            message = str(exc.value)
            assert message.startswith("error:")
            assert "pick a different --port" in message
        finally:
            blocker.close()
