"""The write path: a process never re-reads what it just wrote.

``ShardStore`` folds its own appends into its parse cache instead of
dropping the shard and re-parsing it on the next read.  The contracts
held here:

* **the writer's view is a fresh reader's view** — after every write
  path in ``src/repro`` (``put``, ``put_many``, ``POST /records``,
  ``merge_into`` of a store or a JSONL export, a fabric worker's
  upload),
  and under any interleaving of two instances with torn tails, deletes,
  ``gc`` and auto-compaction: same rows in the same order, same torn-line counts,
  and a compaction exactly when a fresh reader would compact;
* **a sweep and its report scan no ledger line**, nor does a fabric
  sweep's served store, which its workers upload to;
* **the cache signature is the file, not its size and mtime** — a
  same-size rewrite with the old mtime restored is still seen;
* **a put is lock, append, unlock** through descriptors held open until
  ``close()``: a forked child and a second thread still wait for the
  lock, another process's rewrite is followed to the new file, another
  writer's torn tail is healed, and ``close()`` gives back every
  descriptor.
"""

import contextlib
import copy
import functools
import gc
import os
import select
import shutil
import signal
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core.executor import ProtocolSpec, RunRecord, RunRequest
from repro.core.report import build_store_report
from repro.fabric import RemoteStore, StoreServer, iter_fabric_runs
from repro.http import single_object_page
from repro.netem import emulated
from repro.store import (
    RunCache,
    ShardStore,
    fsck,
    merge_into,
    record_to_dict,
    run_key,
)
from repro.store import rows as store_rows
from repro.store import shards as store_shards
from repro.sweep import iter_runs

from .test_store import req
from .test_warm_path import _near_free


def _record(seed, plt=1.0):
    return RunRecord(request=req(seed=seed), plt=plt, complete=True,
                     metrics={"plt": plt})


def _row(key, created, plt, seed=0):
    return (key, created, "fp", record_to_dict(_record(seed, plt)))


def _requests(seeds):
    pages = [single_object_page(size) for size in (10_000, 50_000)]
    return [RunRequest(scenario=emulated(rate), page=page, protocol=protocol,
                       seed=seed)
            for rate in (10.0, 50.0) for page in pages
            for protocol in (ProtocolSpec.quic(), ProtocolSpec.tcp())
            for seed in range(seeds)]


class _LineCounter:
    """Counts the ledger lines :func:`repro.store.rows.scan_ledger` parses."""

    def __init__(self):
        self.lines = 0
        self._real = store_rows.scan_ledger

    def __call__(self, text):
        for verdict in self._real(text):
            self.lines += 1
            yield verdict


@pytest.fixture
def scanned(monkeypatch):
    counter = _LineCounter()
    monkeypatch.setattr(store_rows, "scan_ledger", counter)
    monkeypatch.setattr(store_shards, "scan_ledger", counter)
    return counter


def _assert_fresh_view(store, scanned):
    """``store`` parsed no line for what it wrote, and its rows and torn
    counts are what a brand-new reader of its directory finds."""
    mine = list(store.items())
    assert scanned.lines == 0
    fresh = ShardStore(store.path)
    assert mine == list(fresh.items())
    assert store.torn_lines == fresh.torn_lines
    scanned.lines = 0  # that was the fresh reader's parse


# ----------------------------------------------------------------------
# the cache signature is the file
# ----------------------------------------------------------------------
class TestSignature:
    def test_same_size_rewrite_with_the_old_mtime_is_seen(self, tmp_path):
        path = tmp_path / "s"
        writer = ShardStore(path, compact_ratio=None)
        writer.upload_rows([_row("a1", 1.0, 1.0), _row("a2", 2.0, 1.0)])
        shard = path / "a.jsonl"
        reader = ShardStore(path)
        assert reader.get("a1").plt == 1.0  # parsed and cached
        before = os.stat(shard)

        # Another instance rewrites the shard: a1 gets a new plt of the
        # same length, a scratch row is appended and deleted, and the
        # compaction leaves a file of exactly the old size...
        other = ShardStore(path, compact_ratio=None)
        other.upload_rows([_row("a1", 1.0, 2.0), _row("a3", 3.0, 1.0)])
        assert other.delete("a3")
        after = os.stat(shard)
        assert after.st_size == before.st_size
        # ...whose mtime is then put back, so size and mtime both match.
        os.utime(shard, ns=(after.st_atime_ns, before.st_mtime_ns))
        assert os.stat(shard).st_mtime_ns == before.st_mtime_ns

        # An (mtime, size) signature would serve the stale 1.0 here.
        assert reader.get("a1").plt == 2.0


# ----------------------------------------------------------------------
# fold == parse, for every write path
# ----------------------------------------------------------------------
def _warm(store, rows):
    """Give ``store`` a parsed cache entry for shards written by someone
    else, so a fold has a cached entry to land on, not only new files."""
    ShardStore(store.path).upload_rows(rows)
    list(store.items())


def _first_rows():
    return [_row(f"{shard}{n}", float(n), 1.0, seed=n)
            for shard in "ab" for n in range(4)] + [_row("zz", 0.5, 1.0)]


def _second_rows():
    # Overwrites, a new key in a cached shard, a fresh shard, misc.
    return [_row("a1", 9.0, 7.0), _row("b2", None, 3.0, seed=5),
            _row("a9", 2.5, 1.0), _row("c0", 1.5, 2.0), _row("zz", 4.0, 6.0)]


def _as_records(rows):
    return [(key, _record(seed=n, plt=raw["plt"]), fingerprint)
            for n, (key, _created, fingerprint, raw) in enumerate(rows)]


class TestFoldEqualsParse:
    def test_put(self, tmp_path, scanned):
        store = ShardStore(tmp_path / "s")
        _warm(store, _first_rows())
        scanned.lines = 0
        for key, created, fingerprint, raw in _second_rows():
            store.put(key, _record(0, raw["plt"]), fingerprint=fingerprint,
                      created=created)
        _assert_fresh_view(store, scanned)

    def test_put_many(self, tmp_path, scanned):
        store = ShardStore(tmp_path / "s")
        _warm(store, _first_rows())
        scanned.lines = 0
        store.put_many(_as_records(_second_rows()), created=7.0)
        store.put_many(_as_records(_second_rows()[:2]))
        _assert_fresh_view(store, scanned)

    def test_post_records_on_a_live_server(self, tmp_path, scanned):
        served = ShardStore(tmp_path / "served")
        _warm(served, _first_rows())
        scanned.lines = 0
        with StoreServer(served, port=0) as server:
            remote = RemoteStore(server.url)
            remote.upload_rows(_second_rows())
            remote.upload_rows(_second_rows()[1:3])
            _assert_fresh_view(served, scanned)

    def test_import_jsonl(self, tmp_path, scanned):
        source = ShardStore(tmp_path / "source")
        source.upload_rows(_second_rows())
        export = tmp_path / "rows.jsonl"
        source.export_jsonl(export)
        store = ShardStore(tmp_path / "s")
        _warm(store, _first_rows())
        scanned.lines = 0
        # a JSONL export comes in through sync: present keys are skipped
        assert merge_into(store, export) == (2, 3)
        _assert_fresh_view(store, scanned)

    def test_merge_into(self, tmp_path, scanned):
        source = ShardStore(tmp_path / "source")
        source.upload_rows(_second_rows())
        list(source.items())
        store = ShardStore(tmp_path / "s")
        _warm(store, _first_rows())
        scanned.lines = 0
        # a1, b2 and zz are already present: merge skips them.
        assert merge_into(store, source) == (2, 3)
        _assert_fresh_view(store, scanned)

    def test_fabric_worker_sync(self, tmp_path, scanned):
        # A fabric worker's batches arrive as RemoteStore.upload_rows.
        served = ShardStore(tmp_path / "served")
        _warm(served, _first_rows())
        scanned.lines = 0
        with StoreServer(served, port=0) as server:
            remote = RemoteStore(server.url)
            assert remote.upload_rows(_second_rows()) == 5
            assert remote.upload_rows([_row("a7", 8.0, 2.0)]) == 1
            _assert_fresh_view(served, scanned)

    def test_a_row_no_reader_accepts_is_not_folded(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        store.put("a1", _record(0))
        store.upload_rows([_row("a2", "yesterday", 1.0)])  # not a number
        with pytest.warns(RuntimeWarning, match="torn line"):
            assert store.keys() == ["a1"]
        assert store.torn_lines == {"a": 1}


class TestCompactionParity:
    def test_a_writer_compacts_its_own_overwrites_like_a_fresh_reader(
            self, tmp_path):
        # tests/test_store.py's compaction tests read with a second
        # instance; here the writer piles the overwrites on and reads
        # them back itself, with every line folded, none parsed.
        store = ShardStore(tmp_path / "s", compact_min_lines=8)
        for plt in range(16):
            store.put("a1", _record(0, float(plt)))
        shard = tmp_path / "s" / "a.jsonl"
        assert len(shard.read_text().splitlines()) == 16
        assert store.compactions == 0  # writes never compact
        shutil.copytree(tmp_path / "s", tmp_path / "twin")
        fresh = ShardStore(tmp_path / "twin", compact_min_lines=8)

        assert store.get("a1").plt == fresh.get("a1").plt == 15.0
        assert len(shard.read_text().splitlines()) == 1
        assert store.compactions == fresh.compactions == 1
        assert store.counters()["compactions"] == 1
        assert shard.read_bytes() == (tmp_path / "twin" / "a.jsonl").read_bytes()
        assert store.get("a1").plt == 15.0
        assert store.compactions == 1


# ----------------------------------------------------------------------
# the census: nothing written is read back off disk
# ----------------------------------------------------------------------
class TestLineCensus:
    def test_sweep_and_report_scan_no_line(self, tmp_path, scanned):
        requests = _requests(seeds=30)
        assert len(requests) == 240
        store = ShardStore(tmp_path / "s")
        kinds = [event.kind for event in iter_runs(
            requests, run_fn=_near_free, store=RunCache(store))]
        assert kinds.count("complete") == len(requests)
        text = build_store_report(store)
        assert f"{len(requests)} cached run(s) across 8 cell(s)" in text
        # A store that dropped its cache after each append re-parsed
        # all 240 rows here, for the report.
        assert scanned.lines == 0

    def test_worker_sync_loop_scans_no_line(self, tmp_path, scanned):
        requests = _requests(seeds=30)
        served = ShardStore(tmp_path / "served")
        with StoreServer(served, port=0) as server:
            remote = RemoteStore(server.url)
            kinds = [event.kind for event in iter_fabric_runs(
                requests, server.url, workers=2, sync_every=64,
                run_fn=_near_free) if event.terminal]
            assert kinds == ["complete"] * len(requests)
            assert remote.missing([run_key(request)
                                   for request in requests]) == []
            text = build_store_report(remote)
            assert f"{len(requests)} cached run(s)" in text
        # The served store parsed no line — where dropping the cache
        # after each append re-parsed it for the last /missing probe
        # and for the report.
        assert scanned.lines == 0
        assert len(served) == len(requests)


# ----------------------------------------------------------------------
# two instances, any interleaving: the writer sees what a fresh reader sees
# ----------------------------------------------------------------------
_KEYS = ("a1", "a2", "a3", "b1", "b2", "zz", "zy")
_PROBES = ("a-probe", "b-probe", "z-probe")  # one key per shard
_TORN = '{"key": "a9", "created": 1.0, "rec'


def _shard_bytes(path):
    return {name: (Path(path) / name).read_bytes()
            for name in sorted(os.listdir(path))
            if name.endswith(".jsonl")
            and name not in ("counters.jsonl", "quarantine.jsonl")}


def _read(store):
    """Every shard through ``row`` (vanished ones too), then ``items``."""
    for probe in _PROBES:
        store.row(probe)
    return list(store.items())


def _view(store):
    """``(rows, torn lines)`` that ``store`` would read now, taken from a
    copy of it — its own cache dict, auto-compaction off — so checking
    touches neither the store nor the disk.  Reading the store itself
    would refresh a stale cache before its next append could fold onto
    it, hiding exactly the interleavings under test."""
    clone = copy.copy(store)
    clone._cache = dict(store._cache)
    clone.torn_lines = dict(store.torn_lines)
    clone._torn_warned = set(store._torn_warned)
    clone.compact_ratio = None
    return _read(clone), clone.torn_lines


class TwoWriters(RuleBasedStateMachine):
    base: str = ""

    def __init__(self):
        super().__init__()
        self.path = tempfile.mkdtemp(dir=self.base)
        self.stores = [ShardStore(self.path, compact_min_lines=8)
                       for _ in range(2)]

    def teardown(self):
        shutil.rmtree(self.path, ignore_errors=True)

    writer = st.integers(0, 1)
    created = st.sampled_from([None, 1.0, 2.0, 3.0])
    plt = st.sampled_from([0.25, 1.0, 2.0, 1e-05])

    @rule(who=writer, key=st.sampled_from(_KEYS), created=created, plt=plt)
    def put(self, who, key, created, plt):
        self.stores[who].put(key, _record(0, plt), fingerprint="fp",
                             created=created)

    @rule(who=writer, batch=st.lists(st.tuples(
        st.sampled_from(_KEYS), created, plt), min_size=1, max_size=6))
    def upload(self, who, batch):
        self.stores[who].upload_rows(
            [_row(key, created, plt) for key, created, plt in batch])

    @rule(shard=st.sampled_from(["a", "b", "misc"]))
    def torn_tail(self, shard):
        with open(Path(self.path) / f"{shard}.jsonl", "a") as handle:
            handle.write(_TORN)

    @rule(who=writer, key=st.sampled_from(_KEYS))
    def delete(self, who, key):
        self.stores[who].delete(key)

    @rule(who=writer, horizon=st.sampled_from([1.5, 2.5, 3.5]))
    def gc(self, who, horizon):
        self.stores[who].gc(0.0, now=horizon)

    @rule(who=writer)
    def read(self, who):
        # The fresh reader reads a copy taken first, so each side makes
        # its own auto-compaction decision from the same bytes.
        store = self.stores[who]
        twin = tempfile.mkdtemp(dir=self.base)
        try:
            shutil.copytree(self.path, twin, dirs_exist_ok=True)
            compactions = store.compactions
            mine = _read(store)
            fresh = ShardStore(twin, compact_min_lines=8)
            assert _read(fresh) == mine
            assert store.compactions - compactions == fresh.compactions
            assert _shard_bytes(self.path) == _shard_bytes(twin)
        finally:
            shutil.rmtree(twin, ignore_errors=True)

    @invariant()
    def each_writer_sees_what_a_fresh_reader_sees(self):
        fresh = ShardStore(self.path, compact_ratio=None)
        expected = (_read(fresh), fresh.torn_lines)
        for store in self.stores:
            assert _view(store) == expected


def test_two_writers_see_what_a_fresh_reader_sees(tmp_path):
    TwoWriters.base = str(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # torn-line notices
        run_state_machine_as_test(TwoWriters, settings=settings(
            max_examples=60, stateful_step_count=30, derandomize=True,
            deadline=None, suppress_health_check=list(HealthCheck)))


# ----------------------------------------------------------------------
# held descriptors: a put is lock, append, unlock
# ----------------------------------------------------------------------
def _lines(store, shard="a"):
    return (Path(store.path) / f"{shard}.jsonl").read_text().splitlines()


@functools.lru_cache(maxsize=None)
def _shard_a(count):
    """``count`` seeds whose real run keys (fingerprint ``fp``) land in
    shard ``a``, with those keys — rows ``fsck`` verifies clean."""
    found = []
    seed = 0
    while len(found) < count:
        key = run_key(req(seed=seed), fingerprint="fp")
        if key.startswith("a"):
            found.append((key, seed))
        seed += 1
    return tuple(found)


#: How many shard-``a`` rows :func:`_put_a` can put: derived once, since
#: every prefix of the list is the list a smaller count derives.
_PUT_ROWS = 400


def _put_a(store, index, created=None):
    """Put the ``index``-th shard-``a`` row; returns its key."""
    key, seed = _shard_a(_PUT_ROWS)[index]
    store.put(key, _record(seed), fingerprint="fp", created=created)
    return key


def _is_blocked(done, seconds=0.3):
    """True when ``done`` (an ``Event`` or a pipe's read end) stays
    unset/unreadable for ``seconds``: the other side is waiting on a lock."""
    if isinstance(done, threading.Event):
        return not done.wait(seconds)
    return not select.select([done], [], [], seconds)[0]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestForkedChild:
    def test_child_locks_through_its_own_description(self, tmp_path):
        # The parent holds its descriptors (it has put into shard a)
        # and its lock on a when it forks.  A child that flocked through
        # the inherited descriptor would share the parent's lock and
        # append at once; its own blocks until the parent unlocks.
        store = ShardStore(tmp_path / "s")
        keys = [_put_a(store, 0)]
        read_end, write_end = os.pipe()
        with store._locked("a"):
            pid = os.fork()
            if pid == 0:  # pragma: no cover - the child's side
                code = 1
                try:
                    os.close(read_end)
                    _put_a(store, 1)
                    os.write(write_end, b"x")
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            try:
                blocked = _is_blocked(read_end)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
        landed = False
        try:
            assert blocked
            landed = not _is_blocked(read_end, 30.0)  # unlocked: it lands
        finally:
            os.close(read_end)
            if not landed:
                os.kill(pid, signal.SIGKILL)  # wedged: fail, don't hang
            status = os.waitpid(pid, 0)[1]
        assert landed
        assert os.waitstatus_to_exitcode(status) == 0
        keys += [_put_a(store, 2), _shard_a(2)[1][0]]

        fresh = ShardStore(store.path)
        assert sorted(fresh.keys()) == sorted(keys)
        assert sorted(store.keys()) == sorted(keys)
        assert fsck(fresh).clean


class TestThreads:
    def test_two_threads_never_interleave_an_append(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        start = threading.Barrier(2)
        per_thread = 200

        _shard_a(2 * per_thread)

        def writer(first):
            start.wait()
            for index in range(first, 2 * per_thread, 2):
                _put_a(store, index)

        threads = [threading.Thread(target=writer, args=(first,))
                   for first in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(_lines(store)) == 2 * per_thread
        fresh = ShardStore(store.path)
        assert len(fresh) == 2 * per_thread
        assert fresh.torn_lines == {}
        assert fsck(fresh).clean

    def test_a_thread_waits_for_the_lock_another_holds(self, tmp_path):
        # Both threads flock through the one held descriptor, which does
        # not exclude them; the instance's in-process lock must.
        store = ShardStore(tmp_path / "s")
        store.put("a1", _record(1))
        done = threading.Event()

        def put():
            store.put("a2", _record(2))
            done.set()

        thread = threading.Thread(target=put)
        with store._locked("a"):
            thread.start()
            assert _is_blocked(done)
        thread.join()
        assert done.is_set()
        assert sorted(ShardStore(store.path).keys()) == ["a1", "a2"]


def _delete(other, path):
    assert other.delete(_shard_a(1)[0][0])


def _gc(other, path):
    assert other.gc(0.0, now=5.0) == 1  # drops the row created at 1.0


def _fsck_repair(other, path):
    with open(Path(path) / "a.jsonl", "a") as handle:
        handle.write(_TORN)
    assert fsck(other, repair=True).quarantined == 1


def _auto_compact(other, path):
    for created in range(8):
        key = _put_a(other, 3, created=20.0 + created)
    assert other.get(key) is not None  # this read compacts
    assert other.compactions == 1


class TestReplacedUnderneath:
    @pytest.mark.parametrize("replace", [
        _delete, _gc, _fsck_repair, _auto_compact],
        ids=["delete", "gc", "fsck-repair", "auto-compaction"])
    def test_the_next_put_lands_in_the_new_file(self, tmp_path, replace):
        path = tmp_path / "s"
        store = ShardStore(path, compact_ratio=None)
        _put_a(store, 0, created=1.0)
        first = _put_a(store, 1, created=10.0)
        inode = os.stat(path / "a.jsonl").st_ino

        replace(ShardStore(path, compact_min_lines=8), path)
        assert os.stat(path / "a.jsonl").st_ino != inode
        second = _put_a(store, 2, created=11.0)

        fresh = ShardStore(path)
        assert second in fresh
        assert first in fresh
        assert sorted(store.keys()) == sorted(fresh.keys())
        assert fsck(fresh).clean

    def test_a_deleted_ledger_is_created_again(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        store.put("a1", _record(1))
        os.unlink(tmp_path / "s" / "a.jsonl")
        store.put("a2", _record(2))
        assert ShardStore(store.path).keys() == ["a2"]


class TestTornTail:
    def test_another_writers_torn_tail_is_healed_first(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        store.put("a1", _record(1))
        with open(tmp_path / "s" / "a.jsonl", "a") as handle:
            handle.write(_TORN)  # a crashed writer's partial line
        store.put("a2", _record(2))

        assert _lines(store)[1] == _TORN  # alone on its line
        fresh = ShardStore(store.path)
        with pytest.warns(RuntimeWarning, match="torn line"):
            assert sorted(fresh.keys()) == ["a1", "a2"]
        assert fresh.torn_lines == {"a": 1}

    def test_another_writers_whole_line_is_not_split(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        store.put("a1", _record(1))
        ShardStore(store.path).put("a2", _record(2))
        store.put("a3", _record(3))
        assert len(_lines(store)) == 3
        assert ShardStore(store.path).keys() == ["a1", "a2", "a3"]


def _fd_targets():
    targets = []
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):  # the listing's own fd is gone
            targets.append(os.readlink(f"/proc/self/fd/{fd}"))
    return targets


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
class TestClose:
    def test_close_returns_every_descriptor(self, tmp_path):
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        store = ShardStore(tmp_path / "s", compact_min_lines=4)
        store.upload_rows([_row(f"{shard}{n}", float(n), 1.0)
                           for shard in "abz" for n in range(3)])
        for plt in range(6):
            store.put("c1", _record(0, float(plt)))
        store.get("c1")  # compacts: a rewrite and a counter bump
        assert store.delete("a1")
        assert len(os.listdir("/proc/self/fd")) > before
        # The rewrites dropped their shards' descriptors with the old files.
        assert not [target for target in _fd_targets()
                    if target.startswith(store.path)
                    and target.endswith(" (deleted)")]
        store.close()
        assert len(os.listdir("/proc/self/fd")) == before

        store.put("a9", _record(9))  # a closed store reopens on demand
        assert "a9" in ShardStore(store.path)
        store.close()
        assert len(os.listdir("/proc/self/fd")) == before


class TestCompactionSignature:
    def test_an_append_during_the_compactions_counter_bump_is_seen(
            self, tmp_path):
        # The compacting instance must take the rewritten shard's
        # signature before it unlocks: one taken after its counter bump
        # would already cover another writer's row its entries lack.
        path = tmp_path / "s"
        store = ShardStore(path, compact_min_lines=4)
        other = ShardStore(path, compact_ratio=None)
        for plt in range(5):
            store.put("a1", _record(0, float(plt)))
        real_bump = store.bump_counter

        def bump_while_another_appends(name, delta=1):
            other.put("a2", _record(2))
            real_bump(name, delta)

        store.bump_counter = bump_while_another_appends
        assert store.get("a1").plt == 4.0  # compacts
        assert store.compactions == 1
        assert ShardStore(path).row("a2") is not None
        assert store.row("a2") is not None
