"""The warm path: a hit costs a lookup, the report folds rows.

Two contracts, each held against the path it replaced:

* **a hit is the stored outcome on the caller's request** — on every
  backend ``lookup_with_key(request)`` returns a record whose
  ``request`` *is* the object asked about and which equals the fully
  decoded ``store.get(key)``; a warm sweep plus its report never calls
  ``request_from_dict``; a served store answers a probe with exactly one
  ``GET /records/<key>``;
* **the fold equals the full decode** — ``build_store_report`` over the
  row dicts is byte-identical to the reference fold kept here
  (``record_from_dict`` every row, then the per-record aggregation the
  report used to run), and a mis-shaped row is counted, reported and
  touches no table.
"""

import json

import pytest

from repro.core import aggregate, report
from repro.core.aggregate import (
    CellAccumulator,
    DwellAccumulator,
    FairnessAccumulator,
    StreamAggregator,
    store_aggregator,
)
from repro.core.executor import (
    ProtocolSpec,
    RunFailure,
    RunRecord,
    RunRequest,
    iter_runs,
)
from repro.core.manyflow import (
    ManyflowConfig,
    manyflow_requests,
    manyflow_scenario,
)
from repro.core.report import build_store_report
from repro.fabric import RemoteStore, StoreServer, iter_fabric_runs
from repro.fabric.server import StoreRequestHandler
from repro.faults import FaultPlan, FaultyStore
from repro.http import single_object_page
from repro.netem import emulated
from repro.store import (
    RunCache,
    ShardStore,
    SqliteStore,
    record_from_dict,
    record_to_dict,
    run_key,
)
from repro.store import keys as store_keys
from repro.store.rows import encode_row

from .test_store import req

DWELL = {"dwell:SlowStart": 0.25, "dwell:CongestionAvoidance": 0.625,
         "dwell:Recovery": 0.125}


def _outcomes(request):
    """A successful, an ``"incomplete"`` and a metrics-heavy traced
    record for one request (what a store may legitimately hold)."""
    return {
        "ok": RunRecord(request=request, plt=0.75, complete=True,
                        metrics={"plt": 0.75}, wall_time=0.01),
        "incomplete": RunRecord(
            request=request, plt=None, complete=False, metrics={},
            attempts=2,
            failure=RunFailure("incomplete", "hit the simulated-time cap")),
        "traced": RunRecord(
            request=request, plt=1.5, complete=True, wall_time=0.2,
            metrics={"plt": 1.5, "retransmissions": 3.0, **DWELL,
                     **{f"cwnd_p{q}": float(q) for q in range(40)}}),
    }


# ----------------------------------------------------------------------
# a hit is the stored outcome on the caller's request
# ----------------------------------------------------------------------
@pytest.fixture(params=["shards", "sqlite", "remote", "faulty"])
def any_store(request, tmp_path):
    if request.param == "shards":
        yield ShardStore(tmp_path / "s")
    elif request.param == "sqlite":
        yield SqliteStore(tmp_path / "s.sqlite")
    elif request.param == "faulty":
        yield FaultyStore(ShardStore(tmp_path / "s"), FaultPlan([]))
    else:
        with StoreServer(ShardStore(tmp_path / "served"), port=0) as server:
            yield RemoteStore(server.url)


class TestHitKeepsItsRequest:
    @pytest.mark.parametrize("outcome", ["ok", "incomplete", "traced"])
    def test_hit_is_the_stored_outcome_on_the_callers_request(
            self, any_store, outcome):
        request = req(seed=3, trace=outcome == "traced")
        stored = _outcomes(request)[outcome]
        cache = RunCache(any_store)
        key = run_key(request)
        any_store.put(key, stored, fingerprint=cache.fingerprint_of(request))

        asked = req(seed=3, trace=outcome == "traced")  # an equal, new object
        found_key, _fingerprint, hit = cache.lookup_with_key(asked)
        assert found_key == key
        assert hit.request is asked
        assert hit.cached is True
        # Dataclass equality: the independently decoded request equals
        # the caller's, and the outcome half is the stored one.
        decoded = any_store.get(key)
        assert decoded.request is not asked
        decoded.cached = True
        assert hit == decoded
        assert (hit.plt, hit.complete, hit.metrics, hit.attempts,
                hit.failure) == (stored.plt, stored.complete, stored.metrics,
                                 stored.attempts, stored.failure)
        assert cache.session_stats == (1, 0, 0)

    def test_miss_is_still_none_and_counted(self, any_store):
        cache = RunCache(any_store)
        assert cache.lookup_with_key(req(seed=9))[2] is None
        assert cache.session_stats == (0, 1, 0)

    def test_record_from_dict_decodes_the_request_only_when_not_given(self):
        raw = record_to_dict(_outcomes(req(seed=1))["ok"])
        mine = req(seed=1)
        assert record_from_dict(raw, request=mine).request is mine
        assert record_from_dict(raw).request == mine
        del raw["request"]  # a supplied request makes the stored one unread
        assert record_from_dict(raw, request=mine).plt == 0.75
        with pytest.raises(KeyError):
            record_from_dict(raw)


def _near_free(request):
    plt = 0.5 + request.seed / 1000.0
    return RunRecord(request=request, plt=plt, complete=True,
                     metrics={"plt": plt})


class TestWarmSweepNeverRebuildsARequest:
    def test_all_hit_sweep_and_report_make_zero_request_decodes(
            self, tmp_path, monkeypatch):
        pages = [single_object_page(size) for size in (10_000, 50_000)]
        requests = [RunRequest(scenario=emulated(rate), page=page,
                               protocol=protocol, seed=seed)
                    for rate in (10.0, 50.0) for page in pages
                    for protocol in (ProtocolSpec.quic(), ProtocolSpec.tcp())
                    for seed in range(30)]
        assert len(requests) >= 200
        store = ShardStore(tmp_path / "s")
        kinds = [event.kind for event in iter_runs(
            requests, run_fn=_near_free, store=RunCache(store))]
        assert kinds.count("complete") == len(requests)

        calls = []
        real = store_keys.request_from_dict

        def counting(raw):
            calls.append(1)
            return real(raw)

        monkeypatch.setattr(store_keys, "request_from_dict", counting)
        warm = RunCache(store)
        events = list(iter_runs(requests, run_fn=_near_free, store=warm,
                                keep_records=True))
        assert [event.kind for event in events] == ["hit"] * len(requests)
        text = build_store_report(store)
        assert f"{len(requests)} cached run(s) across 8 cell(s)" in text
        assert len(calls) == 0  # the parent commit makes 2 * len(requests)
        assert all(event.record.request is request
                   for event, request in zip(events, requests))
        store.get(run_key(requests[0]))
        assert len(calls) == 1  # ...and the counter does see a full decode

    def test_warm_fabric_sweep_makes_zero_request_decodes(self, tmp_path,
                                                          monkeypatch):
        requests = [req(seed=seed) for seed in range(24)]
        store = ShardStore(tmp_path / "served")
        list(iter_runs(requests, run_fn=_near_free, store=RunCache(store)))
        with StoreServer(store, port=0) as server:
            expected = list(iter_runs(requests, run_fn=_near_free,
                                      store=RunCache(RemoteStore(server.url))))
            calls = []
            real = store_keys.request_from_dict

            def counting(raw):
                calls.append(1)
                return real(raw)

            monkeypatch.setattr(store_keys, "request_from_dict", counting)
            events = list(iter_fabric_runs(requests, server.url, workers=2,
                                           run_fn=_near_free))
        assert len(calls) == 0  # the parent commit makes one per request
        assert [event.kind for event in events] == ["hit"] * len(requests)
        assert events == expected


# ----------------------------------------------------------------------
# point lookups stay point lookups
# ----------------------------------------------------------------------
@pytest.fixture
def served(tmp_path, monkeypatch):
    """``(client, GET paths the server handled)`` of a served 40-row store."""
    store = ShardStore(tmp_path / "served")
    store.put_many([(run_key(req(seed=seed)), _near_free(req(seed=seed)), "")
                    for seed in range(40)])
    paths = []
    real = StoreRequestHandler.do_GET

    def logging_get(handler):
        paths.append(handler.path)
        real(handler)

    monkeypatch.setattr(StoreRequestHandler, "do_GET", logging_get)
    with StoreServer(store, port=0) as server:
        # No schema handshake: its GET /healthz is not part of a lookup.
        yield RemoteStore(server.url, check_schema=False), paths


class TestPointLookupsStayPointLookups:
    def test_row_is_one_get_of_that_key(self, served):
        remote, paths = served
        present, absent = run_key(req(seed=5)), run_key(req(seed=99))
        row = remote.row(present)
        assert row[0] == present and row[3]["plt"] == _near_free(
            req(seed=5)).plt
        assert paths == [f"/records/{present}"]
        del paths[:]
        assert remote.row(absent) is None  # 404 -> None
        assert paths == [f"/records/{absent}"]

    def test_cache_probe_is_one_get_of_that_key(self, served):
        remote, paths = served
        cache = RunCache(remote)
        hit_request, miss_request = req(seed=7), req(seed=77)
        key, _fingerprint, hit = cache.lookup_with_key(hit_request)
        assert hit.request is hit_request and hit.plt == 0.507
        assert paths == [f"/records/{key}"]
        del paths[:]
        key, _fingerprint, miss = cache.lookup_with_key(miss_request)
        assert miss is None
        assert paths == [f"/records/{key}"]


# ----------------------------------------------------------------------
# the fold equals the full decode
# ----------------------------------------------------------------------
def _reference_aggregator(store):
    """The path the row fold replaced, kept as the oracle: rebuild every
    row into a ``RunRecord`` and aggregate per record."""
    out = StreamAggregator()
    for _key, _created, _fingerprint, raw in store.items():
        record = record_from_dict(raw)
        request = record.request
        names = (request.scenario.name, request.page.name,
                 request.protocol.name)
        cell = out.cells.setdefault(names, CellAccumulator(*names))
        cell.runs += 1
        if record.ok and record.plt is not None:
            cell.plts.append(record.plt)
        config = request.manyflow
        if config is not None and "jain_index" in record.metrics:
            fair = out.fairness.setdefault(
                (names[0], config.label), FairnessAccumulator(
                    scenario=names[0], config=config.label, aqm=config.aqm,
                    flows=config.flows))
            fair.runs += 1
            fair.completed += int(record.metrics.get("flows_completed", 0))
            fair.jains.append(record.metrics["jain_index"])
            if "quic_share" in record.metrics:
                fair.quic_shares.append(record.metrics["quic_share"])
            if record.metrics.get("plt_quic_p50"):
                fair.plt_quic.append(record.metrics["plt_quic_p50"])
            if record.metrics.get("plt_tcp_p50"):
                fair.plt_tcp.append(record.metrics["plt_tcp_p50"])
        out.model_fit.add_record(record)
        if any(name.startswith("dwell:") for name in record.metrics):
            dwell = out.dwell.setdefault(
                (names[0], names[2]),
                DwellAccumulator(scenario=names[0], protocol=names[2]))
            dwell.runs += 1
            for name, value in record.metrics.items():
                if name.startswith("dwell:"):
                    state = name[len("dwell:"):]
                    dwell.fractions[state] = (
                        dwell.fractions.get(state, 0.0) + value)
    return out


def _mixed_records():
    """Every kind of row the report has a table for."""
    records = []
    pages = [single_object_page(size) for size in (10_000, 200_000)]
    for rate in (5.0, 100.0):
        for page in pages:
            for protocol in (ProtocolSpec.quic(), ProtocolSpec.tcp()):
                for seed in range(3):
                    request = RunRequest(
                        scenario=emulated(rate, loss_pct=1.0), page=page,
                        protocol=protocol, seed=seed)
                    records.append(RunRecord(
                        request=request, complete=True,
                        plt=0.1 + seed / 7.0 + rate / 1000.0,
                        metrics={"plt": 0.1 + seed / 7.0}))
    # Traced rows: order-sensitive float sums of awkward fractions.
    for seed in range(5):
        for protocol in (ProtocolSpec.quic(), ProtocolSpec.tcp()):
            request = RunRequest(scenario=emulated(5.0, loss_pct=1.0),
                                 page=pages[0], protocol=protocol, seed=seed,
                                 trace=True)
            records.append(RunRecord(
                request=request, plt=0.3 + seed / 3.0, complete=True,
                metrics={"plt": 0.3, "dwell:SlowStart": 0.1 + seed / 3.0,
                         "dwell:Recovery": 0.7 / (seed + 1),
                         "dwell:ApplicationLimited": 1e-3 * seed}))
    # Incomplete and failed rows: counted in runs, never in ok.
    for seed, failure in ((7, RunFailure("incomplete", "time cap")),
                          (8, RunFailure("error", "boom")), (9, None)):
        request = RunRequest(scenario=emulated(5.0, loss_pct=1.0),
                             page=pages[1], protocol=ProtocolSpec.quic(),
                             seed=seed)
        records.append(RunRecord(request=request, plt=None, complete=False,
                                 metrics={}, failure=failure))
    # Manyflow rows: homogeneous mixes feed the model-fit table, the
    # mixed one only the fairness table.
    scenario = manyflow_scenario(rate_mbps=50.0, rtt=0.040, loss_rate=0.01)
    for cc, tcp_share in (("reno", 0.0), ("reno", 1.0), ("cubic", 0.5)):
        config = ManyflowConfig(flows=8, tcp_share=tcp_share, cc=cc,
                                aqm="codel")
        for request in manyflow_requests(config, scenario, seeds=(0, 1, 2)):
            bump = request.seed / 9.0
            records.append(RunRecord(
                request=request, plt=2.0 + bump, complete=True,
                metrics={"jain_index": 0.8 + bump / 10, "flows": 8.0,
                         "flows_completed": 8.0 - request.seed,
                         "quic_share": 0.4 + bump, "rate_p50": 2.5e5 + bump,
                         "plt_quic_p50": 1.1 + bump, "plt_tcp_p50": 0.0}))
    return records


def _fill(store, records):
    """Insert with ``created`` stamps that run against insertion order."""
    for index, record in enumerate(records):
        store.put(run_key(record.request), record, fingerprint="pinned",
                  created=1_000_000.0 - 13.0 * ((index * 7) % len(records)))


class TestFoldEqualsFullDecode:
    @pytest.mark.parametrize("backend", ["shards", "sqlite"])
    def test_report_is_byte_identical_to_the_record_fold(
            self, tmp_path, monkeypatch, backend):
        store = (ShardStore(tmp_path / "s") if backend == "shards"
                 else SqliteStore(tmp_path / "s.sqlite"))
        records = _mixed_records()
        _fill(store, records)
        folded = build_store_report(store)
        folded_live = build_store_report(store, live=True)
        monkeypatch.setattr(report, "store_aggregator", _reference_aggregator)
        assert folded == build_store_report(store)
        assert folded_live == build_store_report(store, live=True)
        # The mixed store really does exercise every table.
        for heading in ("## Store summary", "## Fairness", "## Model fit",
                        "## Inferred CC states"):
            assert heading in folded
        assert "skipped" not in folded
        aggregator = store_aggregator(store)
        assert aggregator.skipped == 0
        assert aggregator.total_runs == len(records)
        failed = aggregator.cells[(records[0].request.scenario.name,
                                   single_object_page(200_000).name, "quic")]
        assert (failed.runs, failed.ok) == (6, 3)
        assert len(aggregator.model_fit.cells()) == 2
        assert len(aggregator.fairness) == 2  # the reno mixes share a label


def _misshapen_rows():
    """``name -> record dict`` of rows no table may count."""
    good = record_to_dict(_outcomes(req(seed=1))["traced"])
    manyflow = record_to_dict(RunRecord(
        request=manyflow_requests(ManyflowConfig(flows=8), seeds=(0,))[0],
        plt=1.0, complete=True, metrics={"jain_index": 0.9}))

    def variant(base, edit):
        raw = json.loads(json.dumps(base))
        edit(raw)
        return raw

    return {
        "no request": variant(good, lambda raw: raw.pop("request")),
        "request is a list": variant(
            good, lambda raw: raw.update(request=[raw["request"]])),
        "page name is not a string": variant(
            good, lambda raw: raw["request"]["page"].update(name=7)),
        "metrics is a list": variant(
            good, lambda raw: raw.update(metrics=[["plt", 1.0]])),
        "manyflow config has an unknown field": variant(
            manyflow,
            lambda raw: raw["request"]["manyflow"].update(since_removed=1)),
    }


class TestMisshapenRowsAreCountedNotDropped:
    def test_each_is_skipped_and_touches_no_table(self):
        for name, raw in _misshapen_rows().items():
            aggregator = StreamAggregator()
            aggregator.add_row(record_to_dict(_outcomes(req(seed=1))["traced"]))
            (dwell,) = aggregator.dwell.values()
            before = (aggregator.total_runs, dict(aggregator.cells),
                      dict(aggregator.dwell), dict(aggregator.fairness),
                      bool(aggregator.model_fit), dwell.runs,
                      dict(dwell.fractions))
            aggregator.add_row(raw)
            assert aggregator.skipped == 1, name
            assert before == (
                aggregator.total_runs, aggregator.cells, aggregator.dwell,
                aggregator.fairness, bool(aggregator.model_fit), dwell.runs,
                dwell.fractions), name

    def test_report_says_how_many_and_only_then(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        _fill(store, _mixed_records())
        clean = build_store_report(store)
        bad = _misshapen_rows()
        for index, raw in enumerate(bad.values()):
            key = f"{index:x}" * 64  # written straight into a shard file
            with open(store._data_path(store.shard_of(key)), "a") as handle:
                handle.write(encode_row(key, 5.0 + index, "", raw, check=True))
        aggregator = store_aggregator(store)
        assert aggregator.skipped == len(bad)
        assert aggregator.total_runs == len(_mixed_records())
        dirty = build_store_report(store)
        notice = f"{len(bad)} row(s) skipped: not decodable as a run record"
        assert dirty.count(notice) == 1
        assert dirty.replace(notice + "\n", "") == clean

    def test_a_store_of_only_bad_rows_reports_them_too(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        store.upload_rows([("ab" * 32, 1.0, "", {"plt": 1.0})])
        text = build_store_report(store)
        assert "no decodable records" in text
        assert "1 row(s) skipped: not decodable as a run record" in text

    def test_iter_records_narrows_what_it_swallows(self, tmp_path,
                                                   monkeypatch):
        store = ShardStore(tmp_path / "s")
        store.put(run_key(req(seed=1)), _outcomes(req(seed=1))["ok"])
        store.upload_rows([("cd" * 32, 1.0, "", {"plt": 1.0})])
        assert [r.plt for r in aggregate.iter_records(store)] == [0.75]

        def broken(raw):
            raise RuntimeError("a bug, not a bad row")

        monkeypatch.setattr(store_keys, "record_from_dict", broken)
        with pytest.raises(RuntimeError):
            list(aggregate.iter_records(store))
