"""Tests for the streaming execution API (iter_runs + RunEvents).

Covers the event-stream contract, worker-direct store write-back across
a real 4-process pool, parent-pipe payload bounds, one attempt per
run, and mid-sweep report parity (kill / live-render /
resume / byte-identical final report).
"""

import os
import pickle

import pytest

import repro.sweep as sweep_module
from repro.core.aggregate import store_aggregator
from repro.core.executor import ProtocolSpec, RunFailure, RunRecord, RunRequest
from repro.core.report import build_store_report
from repro.fabric import StoreServer, iter_fabric_runs
from repro.http import single_object_page
from repro.netem import emulated
from repro.store import RunCache, ShardStore
from repro.sweep import (
    EVENT_KINDS,
    EVENT_WIRE_BOUND,
    TERMINAL_EVENTS,
    RunEvent,
    collect,
    iter_runs,
    run_requests,
)

SCN = emulated(10.0)
PAGE = single_object_page(20_000)


def req(seed=0, **overrides):
    kwargs = dict(scenario=SCN, page=PAGE, protocol=ProtocolSpec.quic(),
                  seed=seed)
    kwargs.update(overrides)
    return RunRequest(**kwargs)


# ----------------------------------------------------------------------
# injectable run functions (module-level: must be picklable for jobs > 1)
# ----------------------------------------------------------------------
def _instant_run(request):
    return RunRecord(request=request, plt=float(request.seed) / 10.0 + 0.1,
                     complete=True)


def _pid_run(request):
    return RunRecord(request=request, plt=1.0, complete=True,
                     metrics={"pid": os.getpid()})


def _failing_run(request):
    return RunRecord(request=request, plt=None, complete=False,
                     failure=RunFailure("error", "boom " * 200))


def _flaky_once_run(request):
    marker = os.environ["REPRO_TEST_EVENT_MARKER"] + f".{request.seed}"
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("transient failure")
    return RunRecord(request=request, plt=1.0, complete=True)


def _mixed_run(request):
    """Every outcome an event can carry, by seed: a sample, a structured
    ``incomplete``, a raised exception with a long message."""
    if request.seed % 4 == 3:
        raise RuntimeError("boom " * 100)
    if request.seed % 4 == 2:
        return RunRecord(request=request, plt=None, complete=False,
                         failure=RunFailure("incomplete", "still loading"))
    return _instant_run(request)


#: ``RunEvent``'s public shape: field names, in order, and defaults.
EVENT_FIELDS = ("kind", "index", "scenario", "page", "protocol", "seed",
                "key", "plt", "ok", "wall_time", "failure_kind",
                "failure_message", "cached", "stored", "record")
EVENT_DEFAULTS = {"key": None, "plt": None, "ok": False, "wall_time": 0.0,
                  "failure_kind": None, "failure_message": None,
                  "cached": False, "stored": False, "record": None}


class TestRunEventShape:
    def test_fields_order_and_defaults(self):
        assert RunEvent._fields == EVENT_FIELDS
        assert RunEvent._field_defaults == EVENT_DEFAULTS
        event = RunEvent("hit", 4, "s", "p", "quic", 7)
        assert event._asdict() == {"kind": "hit", "index": 4, "scenario": "s",
                                   "page": "p", "protocol": "quic",
                                   "seed": 7, **EVENT_DEFAULTS}

    def test_replace_changes_only_the_named_field(self):
        event = next(e for e in iter_runs([req(seed=3)], run_fn=_instant_run)
                     if e.terminal)
        moved = event._replace(index=11)
        assert moved.index == 11 and event.index == 0
        assert ({k: v for k, v in moved._asdict().items() if k != "index"}
                == {k: v for k, v in event._asdict().items() if k != "index"})
        assert type(moved) is RunEvent and moved.terminal

    def test_pickle_round_trips_within_the_wire_bound(self):
        events = list(iter_runs([req(seed=s) for s in range(4)],
                                run_fn=_mixed_run))
        clipped = [e for e in events if e.kind == "error"]
        assert clipped and len(clipped[0].failure_message) == 300
        for event in events:
            wire = pickle.dumps(event)
            assert pickle.loads(wire) == event
            assert type(pickle.loads(wire)) is RunEvent
            assert len(wire) <= EVENT_WIRE_BOUND

    def test_serial_pool_and_fabric_end_alike(self, tmp_path):
        """The same 8 requests end in equal terminal events, ``wall_time``
        excepted, run serially, by a 2-worker pool, and by the fabric."""
        requests = [req(seed=s) for s in range(8)]

        def terminal(events):
            ended = sorted((e for e in events if e.terminal),
                           key=lambda e: e.index)
            assert [e.index for e in ended] == list(range(8))
            return [e._replace(wall_time=0.0) for e in ended]

        serial = terminal(iter_runs(
            requests, run_fn=_mixed_run,
            store=RunCache(ShardStore(tmp_path / "serial"))))
        pooled = terminal(iter_runs(
            requests, jobs=2, run_fn=_mixed_run, force_pool=True,
            store=RunCache(ShardStore(tmp_path / "pooled"))))
        with StoreServer(ShardStore(tmp_path / "central"), port=0) as server:
            fabric = terminal(iter_fabric_runs(
                requests, server.url, workers=2, run_fn=_mixed_run,
                workdir=str(tmp_path / "work")))
        assert [e.kind for e in serial] == ["complete", "complete",
                                            "complete", "error"] * 2
        assert pooled == serial
        assert fabric == serial


class TestEventStreamContract:
    def test_one_terminal_event_per_request(self):
        requests = [req(seed=s) for s in range(6)]
        events = list(iter_runs(requests, run_fn=_instant_run))
        terminal = [e for e in events if e.terminal]
        assert sorted(e.index for e in terminal) == list(range(6))
        assert len(terminal) == len(requests)
        for event in events:
            assert event.kind in EVENT_KINDS
            assert (event.kind in TERMINAL_EVENTS) == event.terminal

    def test_miss_start_precedes_terminal(self):
        events = list(iter_runs([req(seed=s) for s in range(4)],
                                run_fn=_instant_run))
        started = set()
        for event in events:
            if event.kind == "miss-start":
                started.add(event.index)
            elif event.terminal:
                assert event.index in started
        assert started == set(range(4))

    def test_require_matches_record_semantics(self):
        ok = [e for e in iter_runs([req()], run_fn=_instant_run)
              if e.terminal][0]
        assert ok.ok and ok.require() == pytest.approx(0.1)
        bad = [e for e in iter_runs([req()], run_fn=_failing_run)
               if e.terminal][0]
        assert not bad.ok
        with pytest.raises(RuntimeError, match="failed"):
            bad.require()

    def test_failure_messages_are_clipped(self):
        bad = [e for e in iter_runs([req()], run_fn=_failing_run)
               if e.terminal][0]
        assert bad.failure_kind == "error"
        assert len(bad.failure_message) <= 300

    def test_events_carry_no_records_by_default(self):
        for event in iter_runs([req(seed=s) for s in range(3)],
                               run_fn=_instant_run):
            assert event.record is None

    def test_keep_records_attaches_terminal_records(self):
        events = list(iter_runs([req(seed=s) for s in range(3)],
                                run_fn=_instant_run, keep_records=True))
        for event in events:
            if event.terminal:
                assert event.record is not None
                assert event.record.request.seed == event.index
            else:
                assert event.record is None

    def test_hits_stream_first_in_request_order(self, tmp_path):
        cache = RunCache(tmp_path / "store")
        list(iter_runs([req(seed=s) for s in (1, 3)], run_fn=_instant_run,
                       store=cache))
        events = list(iter_runs([req(seed=s) for s in range(4)],
                                run_fn=_instant_run, store=cache))
        hits = [e for e in events if e.kind == "hit"]
        assert [e.index for e in hits] == [1, 3]
        assert all(e.cached and e.stored for e in hits)
        assert events[:2] == hits  # hits before any miss activity

    def test_events_are_frozen_and_labelled(self):
        event = next(iter(iter_runs([req()], run_fn=_instant_run)))
        for name in (*EVENT_FIELDS, "extra"):
            with pytest.raises(AttributeError):
                setattr(event, name, None)
        assert "quic" in event.label and SCN.name in event.label


class TestRetryAccounting:
    def test_an_error_is_final_and_a_rerun_executes_it(self, tmp_path,
                                                       monkeypatch):
        # One attempt per run: a raised exception is the run's terminal
        # error event, never written back, so rerunning the sweep (once
        # whatever made it fail is gone) executes it again.
        monkeypatch.setenv("REPRO_TEST_EVENT_MARKER",
                           str(tmp_path / "marker"))
        cache = RunCache(tmp_path / "store")
        requests = [req(seed=s) for s in range(3)]
        events = list(iter_runs(requests, run_fn=_flaky_once_run,
                                store=cache))
        assert [e.kind for e in events] == ["miss-start", "error"] * 3
        assert all("transient failure" in e.failure_message
                   for e in events if e.terminal)
        assert cache.session_stats == (0, 3, 0)
        rerun = list(iter_runs(requests, run_fn=_flaky_once_run,
                               store=cache))
        assert [e.kind for e in rerun if e.terminal] == ["complete"] * 3
        assert cache.session_stats == (0, 6, 3)

    def test_no_retry_events_without_retries(self):
        events = list(iter_runs([req(), req(seed=1)], run_fn=_instant_run))
        assert not [e for e in events if e.kind == "retry"]
        assert "retry" not in EVENT_KINDS
        assert "attempts" not in RunEvent._fields


class TestWorkerDirectWriteBack:
    def test_four_process_pool_writes_store_directly(self, tmp_path,
                                                     monkeypatch):
        """jobs=4 pool: records land in the store from the workers; the
        parent pipe carries only payload-free, size-bounded events."""
        # look at the events as the parent reads them off the worker
        # pipes, not only at the stream it yields
        crossed = []
        group = sweep_module._worker_group

        def spy(*args, **kwargs):
            for event in group(*args, **kwargs):
                crossed.append(event)
                yield event

        monkeypatch.setattr(sweep_module, "_worker_group", spy)
        cache = RunCache(ShardStore(tmp_path / "shards"))
        requests = [req(seed=s) for s in range(40)]
        events = list(iter_runs(requests, jobs=4, run_fn=_instant_run,
                                store=cache, force_pool=True))
        terminal = [e for e in events if e.terminal]
        assert sorted(e.index for e in terminal) == list(range(40))
        assert sorted(e.index for e in crossed if e.terminal) == list(
            range(40))
        # no payloads crossed the parent pipe...
        assert all(e.record is None for e in events + crossed)
        for event in events + crossed:
            assert len(pickle.dumps(event)) <= EVENT_WIRE_BOUND
        # ...yet every record is in the store, written by the workers.
        assert all(e.stored for e in terminal)
        assert len(cache.store) == 40
        assert cache.writes == 40
        assert cache.store.counters()["writes"] == 40
        # no torn/lost records: every row decodes back to its seed
        seeds = set()
        for key in cache.store.keys():
            record = cache.store.get(key)
            assert record is not None
            seeds.add(record.request.seed)
        assert seeds == set(range(40))

    def test_pool_reopens_a_shard_directory_named_like_sqlite(self,
                                                              tmp_path):
        # Workers reopen the store by its path alone: what exists there
        # (a shard directory) wins over its .sqlite suffix.
        path = tmp_path / "pool.sqlite"
        cache = RunCache(ShardStore(path))
        requests = [req(seed=s) for s in range(12)]
        events = list(iter_runs(requests, jobs=2, run_fn=_pid_run,
                                store=cache, force_pool=True))
        assert all(e.stored for e in events if e.terminal)
        assert path.is_dir() and len(cache.store) == 12
        assert sorted(os.listdir(tmp_path)) == ["pool.sqlite"]
        pids = {cache.store.get(key).metrics["pid"]
                for key in cache.store.keys()}
        assert os.getpid() not in pids  # every row came from a worker
        rerun = list(iter_runs(requests, jobs=2, run_fn=_pid_run,
                               store=RunCache(path), force_pool=True))
        assert [e.kind for e in rerun] == ["hit"] * 12

    def test_pool_and_serial_stores_are_identical(self, tmp_path):
        serial = RunCache(ShardStore(tmp_path / "serial"))
        pooled = RunCache(ShardStore(tmp_path / "pooled"))
        # keep_records: records also ride the pipe; workers still write
        roundtrip = RunCache(ShardStore(tmp_path / "roundtrip"))
        requests = [req(seed=s) for s in range(10)]
        list(iter_runs(requests, run_fn=_instant_run, store=serial))
        list(iter_runs(requests, jobs=4, run_fn=_instant_run, store=pooled,
                       force_pool=True))
        run_requests(requests, jobs=4, run_fn=_instant_run, store=roundtrip,
                     force_pool=True)
        for cache in (pooled, roundtrip):
            assert set(cache.store.keys()) == set(serial.store.keys())
            assert (store_aggregator(cache.store).render()
                    == store_aggregator(serial.store).render())


class TestMidSweepReportParity:
    def _requests(self):
        return [req(seed=s, protocol=ProtocolSpec.of(p))
                for s in range(100) for p in ("quic", "tcp")]

    def test_kill_render_resume_is_byte_identical(self, tmp_path):
        requests = self._requests()

        # uninterrupted control sweep into its own store
        control = RunCache(ShardStore(tmp_path / "control"))
        list(iter_runs(requests, run_fn=_instant_run, store=control))
        expected = build_store_report(control.store).replace(
            str(control.store.path), "STORE")

        # interrupted sweep: kill the generator at ~50%
        cache = RunCache(ShardStore(tmp_path / "interrupted"))
        stream = iter_runs(requests, run_fn=_instant_run, store=cache)
        landed = 0
        for event in stream:
            if event.terminal:
                landed += 1
            if landed >= 100:
                break
        stream.close()
        assert 0 < len(cache.store) < len(requests)

        # a live report renders cleanly mid-sweep and says so
        live = build_store_report(cache.store, live=True)
        assert "Live view" in live
        assert "## Store summary" in live

        # resume: only the missing runs execute, the rest are hits
        resumed = RunCache(cache.store)
        events = list(iter_runs(requests, run_fn=_instant_run,
                                store=resumed))
        hits, misses, _ = resumed.session_stats
        assert hits == landed and hits + misses == len(requests)
        assert len([e for e in events if e.terminal]) == len(requests)

        final = build_store_report(cache.store).replace(
            str(cache.store.path), "STORE")
        assert final == expected
        assert "Live view" not in final

    def test_live_report_labels_partial_cells(self, tmp_path):
        cache = RunCache(ShardStore(tmp_path / "partial"))
        # 3 runs of quic, 1 run of tcp: the tcp cell is partial
        list(iter_runs([req(seed=s) for s in range(3)], run_fn=_instant_run,
                       store=cache))
        list(iter_runs([req(protocol=ProtocolSpec.of("tcp"))],
                       run_fn=_instant_run, store=cache))
        text = build_store_report(cache.store, live=True)
        assert "Live view" in text
        assert "1/3 run(s)" in text

    def test_live_report_on_complete_grid(self, tmp_path):
        cache = RunCache(ShardStore(tmp_path / "full"))
        list(iter_runs([req(seed=s) for s in range(3)], run_fn=_instant_run,
                       store=cache))
        text = build_store_report(cache.store, live=True)
        assert "looks complete" in text


class TestRunRequestsCompatibility:
    def test_wrapper_returns_records_in_request_order(self):
        records = run_requests([req(seed=s) for s in range(5)],
                               run_fn=_instant_run)
        assert [r.request.seed for r in records] == list(range(5))

    def test_no_warning_without_progress(self, recwarn):
        run_requests([req()], run_fn=_instant_run)
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]

    @pytest.mark.parametrize("force_pool", [False, True])
    def test_progress_path_reconciles_error_events(self, tmp_path,
                                                   monkeypatch, force_pool):
        """Regression guard: the record-materialising wrapper
        (``keep_records=True``) must account failures identically to the
        event stream — one attempt, no write-back — on both the serial
        and the pool code path.  (Named for the ``progress=`` callback
        it first guarded; that keyword is gone, the accounting contract
        is not.)"""
        monkeypatch.setenv("REPRO_TEST_EVENT_MARKER",
                           str(tmp_path / f"marker-{force_pool}"))
        cache = RunCache(tmp_path / "store")
        records = run_requests([req(seed=s) for s in range(3)],
                               run_fn=_flaky_once_run,
                               jobs=2 if force_pool else 1,
                               force_pool=force_pool, store=cache)
        assert len(records) == 3
        assert all(r.failure.kind == "error" and r.attempts == 1
                   for r in records)
        assert cache.session_stats == (0, 3, 0)


class TestValidation:
    def test_rejects_bad_retries(self):
        with pytest.raises(ValueError):
            list(iter_runs([req()], retries=-1))

    def test_rejects_bad_chunk_size(self):
        # removed with the chunked pool: workers take round-robin shares
        with pytest.raises(TypeError, match="chunk_size"):
            iter_runs([req(), req(seed=1)], jobs=2, chunk_size=1)
        with pytest.raises(TypeError, match="chunk_size"):
            run_requests([req()], chunk_size=1)
        with pytest.raises(TypeError, match="chunk_size"):
            collect([("a", [req()])], chunk_size=1)

    def test_negative_wall_timeout_is_refused_before_any_run(self):
        ran = []

        def run(request):
            ran.append(request.seed)
            return _instant_run(request)

        for budget in (-1, -0.5, float("nan")):
            with pytest.raises(ValueError, match="wall_timeout="):
                iter_runs([req()], wall_timeout=budget, run_fn=run)
            with pytest.raises(ValueError, match="wall_timeout="):
                # refused before the (unreachable) server is contacted
                list(iter_fabric_runs([req()], "http://127.0.0.1:9",
                                      wall_timeout=budget))
        assert ran == []

    def test_unarmable_wall_timeout_is_refused_before_any_run(self):
        ran = []

        def run(request):
            ran.append(request.seed)
            return _instant_run(request)

        for budget in (1e10, 1e12, sweep_module.MAX_WALL_TIMEOUT + 1):
            with pytest.raises(ValueError, match=f"wall_timeout={budget!r}"):
                iter_runs([req()], wall_timeout=budget, run_fn=run)
            with pytest.raises(ValueError, match=f"wall_timeout={budget!r}"):
                list(iter_fabric_runs([req()], "http://127.0.0.1:9",
                                      wall_timeout=budget))
        assert ran == []

    def test_no_budget_enters_no_deadline(self, monkeypatch):
        entered = []
        deadline = sweep_module._wall_clock_deadline

        def spy(seconds):
            entered.append(seconds)
            return deadline(seconds)

        monkeypatch.setattr(sweep_module, "_wall_clock_deadline", spy)
        for budget in (None, 0, 0.0, float("inf")):
            events = list(iter_runs([req()], wall_timeout=budget,
                                    run_fn=_instant_run))
            assert [e.kind for e in events] == ["miss-start", "complete"]
        assert entered == []
        for budget in (5, sweep_module.MAX_WALL_TIMEOUT):
            events = list(iter_runs([req()], wall_timeout=budget,
                                    run_fn=_instant_run))
            assert events[-1].ok
        assert entered == [5, sweep_module.MAX_WALL_TIMEOUT]

    def test_empty_request_list(self):
        assert list(iter_runs([])) == []
