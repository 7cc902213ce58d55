"""Tests for the run definition (repro.core.executor) and the sweep engine
(repro.sweep)."""

import dataclasses
import os
import pickle
import signal
import tempfile
import threading
import time

import pytest

from repro.core.executor import (
    ProtocolSpec,
    RunFailure,
    RunRecord,
    RunRequest,
    execute_request,
)
from repro.core.experiment import (
    ExperimentSpec,
    ScenarioSpec,
    WorkloadSpec,
    experiment_requests,
    run_experiment,
)
from repro.core.manyflow import ManyflowConfig, manyflow_requests
from repro.core.report import build_store_report
from repro.core.runner import (
    compare_page_load,
    measure_plts,
    run_bulk_transfer,
    run_fairness,
    run_page_load,
)
from repro.faults import FaultPlan, FaultyStore
from repro.http import single_object_page
from repro.netem import Simulator, build_proxy_path, emulated
from repro.netem.profiles import CELLULAR_PROFILES, Scenario
from repro.proxy import SplitConnectionProxy, install_proxy
from repro.quic import quic_config
from repro.store import ShardStore
from repro.sweep import iter_runs, resolve_jobs, run_requests
from repro.tcp import tcp_config
from repro.video import play_video_once

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
    return RunRecord(request=request, plt=float(request.seed), complete=True)


def _sleepy_run(request):
    time.sleep(10.0)
    return RunRecord(request=request, plt=1.0, complete=True)


def _alarm_dodging_run(request):
    # a hang no in-run signal can end: SIGALRM is ignored, then it sleeps
    signal.signal(signal.SIGALRM, signal.SIG_IGN)
    time.sleep(2.0)
    return RunRecord(request=request, plt=1.0, complete=True)


def _flaky_marker_run(request):
    marker = os.environ["REPRO_TEST_FLAKY_MARKER"] + f".{request.seed}"
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("transient failure")
    return RunRecord(request=request, plt=3.0, complete=True)


def _marking_run(request):
    """``_instant_run`` that leaves one ``<seed>.<pid>.*`` marker file per
    call, and SIGKILLs its own process the first time it is handed the
    seed ``$REPRO_TEST_KILL_SEED`` names (noting the victim's pid)."""
    calls = os.environ["REPRO_TEST_CALL_DIR"]
    os.close(tempfile.mkstemp(dir=calls,
                              prefix=f"{request.seed}.{os.getpid()}.")[0])
    kill_marker = os.path.join(os.path.dirname(calls), "victim")
    if (str(request.seed) == os.environ.get("REPRO_TEST_KILL_SEED")
            and not os.path.exists(kill_marker)):
        with open(kill_marker, "w") as handle:
            handle.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return _instant_run(request)


def _calls_by_seed(calls):
    """``{seed: [pid, ...]}`` of every ``_marking_run`` call."""
    by_seed = {}
    for name in os.listdir(calls):
        seed, pid = name.split(".")[:2]
        by_seed.setdefault(int(seed), []).append(int(pid))
    return by_seed


class TestProtocolSpec:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            ProtocolSpec("sctp")

    def test_rejects_mismatched_config(self):
        with pytest.raises(TypeError):
            ProtocolSpec("quic", tcp_config())
        with pytest.raises(TypeError):
            ProtocolSpec("tcp", quic_config(34))

    def test_constructors(self):
        assert ProtocolSpec.quic(version=37).config.version == 37
        assert ProtocolSpec.tcp().resolved_config() == tcp_config()
        assert ProtocolSpec.of("quic").name == "quic"
        spec = ProtocolSpec.quic()
        assert ProtocolSpec.of(spec) is spec

    def test_default_config_resolved_lazily(self):
        spec = ProtocolSpec.quic()
        assert spec.config is None
        assert spec.resolved_config().version == 34


class TestRunRequest:
    def test_pickles_round_trip(self):
        request = req(seed=3, protocol=ProtocolSpec.quic(version=36),
                      trace=True)
        assert pickle.loads(pickle.dumps(request)) == request

    def test_execute_in_process(self):
        record = req(seed=1).execute()
        assert record.ok
        assert record.plt > 0
        assert record.metrics["bytes"] == PAGE.total_bytes

    def test_trace_metrics_included(self):
        record = req(seed=1, trace=True).execute()
        assert any(key.startswith("dwell:") for key in record.metrics)

    def test_incomplete_run_is_structured_failure(self):
        # A timeout in *simulated* time must surface as a failure record,
        # not an exception.
        record = execute_request(req(seed=1, timeout=0.001))
        assert not record.ok
        assert record.failure.kind == "incomplete"
        with pytest.raises(RuntimeError):
            record.require()


def _reachable_dataclasses(obj):
    """Every dataclass instance reachable from ``obj`` through fields
    and containers."""
    found, stack = [], [obj]
    while stack:
        node = stack.pop()
        if dataclasses.is_dataclass(node):
            found.append(node)
            stack.extend(getattr(node, field.name)
                         for field in dataclasses.fields(node))
        elif isinstance(node, (list, tuple, set, frozenset)):
            stack.extend(node)
        elif isinstance(node, dict):
            stack.extend(node.values())
    return found


def _grid_request(protocol):
    """The first request of ``protocol``'s cell, as a spec sweep builds
    it."""
    spec = ExperimentSpec(name="frozen", scenarios=[ScenarioSpec(10.0)],
                          workloads=[WorkloadSpec(2, 10.0)], runs=1)
    return next(requests[0] for key, requests in experiment_requests(spec)
                if key[2] == protocol)


#: name -> (request builder, dataclasses the walk must reach).
REQUEST_TREES = {
    "page-load": (lambda: _grid_request("quic"),
                  {"QuicConfig", "CubicConfig", "WebPage", "Scenario"}),
    "proxied-tcp": (lambda: _grid_request("tcp").with_(
        protocol=ProtocolSpec("tcp", tcp_config()), proxied=True),
        {"TcpConfig", "CubicConfig", "DeviceProfile"}),
    "manyflow": (lambda: manyflow_requests(ManyflowConfig(flows=50))[0],
                 {"ManyflowConfig", "ProtocolSpec"}),
}


class TestRequestTreeIsFrozen:
    """Every object a request reaches is a value: the store's key memo
    trusts an entry it made once, and a request hashes."""

    @pytest.mark.parametrize("name", sorted(REQUEST_TREES))
    def test_every_reachable_dataclass_is_frozen(self, name):
        build, expected = REQUEST_TREES[name]
        request = build()
        nodes = _reachable_dataclasses(request)
        assert expected <= {type(node).__name__ for node in nodes}
        assert sorted({type(node).__name__ for node in nodes
                       if not type(node).__dataclass_params__.frozen}) == []
        assert hash(request) == hash(pickle.loads(pickle.dumps(request)))


class TestScenarioSpecRoundTrip:
    def test_to_spec_from_spec_identity(self):
        for scenario in [SCN, CELLULAR_PROFILES["verizon-3g"].scenario()]:
            rebuilt = Scenario.from_spec(scenario.to_spec())
            assert rebuilt == scenario

    def test_from_spec_rejects_unknown_fields(self):
        spec = SCN.to_spec()
        spec["bandwdith"] = 10.0  # typo'd field
        with pytest.raises(ValueError, match="bandwdith"):
            Scenario.from_spec(spec)


class TestSerialParallelParity:
    def test_run_requests_parallel_matches_serial(self):
        requests = [req(seed=s) for s in range(4)]
        serial = run_requests(requests, jobs=1)
        parallel = run_requests(requests, jobs=2)
        assert [r.plt for r in serial] == [r.plt for r in parallel]
        assert all(r.ok for r in parallel)

    def test_order_is_request_order_not_completion_order(self):
        requests = [req(seed=s) for s in range(8)]
        records = run_requests(requests, jobs=4, run_fn=_instant_run)
        assert [r.request.seed for r in records] == list(range(8))

    def test_measure_plts_parallel_matches_serial(self):
        serial = measure_plts(SCN, PAGE, ProtocolSpec.quic(), runs=4, jobs=1)
        parallel = measure_plts(SCN, PAGE, ProtocolSpec.quic(), runs=4, jobs=4)
        assert serial == parallel

    def test_run_experiment_json_identical_across_worker_counts(self):
        spec = ExperimentSpec(
            "parity",
            scenarios=[ScenarioSpec(10.0), ScenarioSpec(50.0)],
            workloads=[WorkloadSpec(1, 20)],
            runs=2,
        )
        assert (run_experiment(spec, jobs=1).to_json()
                == run_experiment(spec, jobs=4).to_json())


class TestPoolWorkers:
    @pytest.fixture
    def calls(self, tmp_path, monkeypatch):
        directory = tmp_path / "calls"
        directory.mkdir()
        monkeypatch.setenv("REPRO_TEST_CALL_DIR", str(directory))
        return directory

    def test_wrapped_store_runs_each_miss_once(self, tmp_path, calls):
        # Workers cannot reopen a wrapper by (path, kind): its misses run
        # in-process, once each (the chunked pool ran every one twice).
        store = FaultyStore(ShardStore(tmp_path / "s"), FaultPlan([]))
        events = list(iter_runs([req(seed=s) for s in range(16)], jobs=2,
                                force_pool=True, run_fn=_marking_run,
                                store=store))
        assert sum(map(len, _calls_by_seed(calls).values())) == 16
        assert sorted(e.index for e in events if e.terminal) == list(
            range(16))
        assert len(store) == 16

    def test_killed_worker_is_respawned_not_serialised(self, tmp_path,
                                                        calls, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KILL_SEED", "10")
        requests = [req(seed=s) for s in range(45)]
        serial = ShardStore(tmp_path / "serial")
        list(iter_runs(requests, run_fn=_instant_run, store=serial))
        pooled = ShardStore(tmp_path / "pooled")
        events = list(iter_runs(requests, jobs=2, force_pool=True,
                                run_fn=_marking_run, store=pooled))
        assert sorted(e.index for e in events if e.terminal) == list(
            range(45))

        by_seed = _calls_by_seed(calls)
        victim = int((tmp_path / "victim").read_text())
        # Only the victim's in-flight run executed twice...
        assert sorted(by_seed) == list(range(45))
        assert {seed: len(pids) for seed, pids in by_seed.items()
                if len(pids) > 1} == {10: 2}
        # ...the second time in a respawned worker, which also ran the
        # rest of the victim's share: two workers and one respawn ran
        # everything, this process nothing (the chunked pool ran 35 of
        # these 45 here).
        ran = {}
        for seed, pids in by_seed.items():
            for pid in pids:
                ran.setdefault(pid, []).append(seed)
        (respawned,) = set(by_seed[10]) - {victim}
        assert len(ran) == 3 and os.getpid() not in ran
        assert len(ran[respawned]) > 1

        def rows(store):
            # bar the stamps no two sweeps share: created and wall_time
            return sorted(
                (key, fingerprint, {**record, "wall_time": None})
                for key, _created, fingerprint, record in store.items())

        assert rows(pooled) == rows(serial)
        assert (build_store_report(pooled).replace(pooled.path, "STORE")
                == build_store_report(serial).replace(serial.path, "STORE"))


class TestTimeout:
    def test_parallel_timeout_yields_failure_not_hang(self):
        start = time.perf_counter()
        records = run_requests([req()], jobs=2, wall_timeout=0.3,
                               run_fn=_sleepy_run)
        elapsed = time.perf_counter() - start
        assert elapsed < 8.0  # nowhere near the 10 s sleep
        assert records[0].failure is not None
        assert records[0].failure.kind == "timeout"

    def test_serial_timeout_yields_failure(self):
        records = run_requests([req()], jobs=1, wall_timeout=0.2,
                               run_fn=_sleepy_run)
        assert records[0].failure.kind == "timeout"

    def test_timeouts_are_not_retried(self):
        records = run_requests([req()], jobs=1, wall_timeout=0.2,
                               run_fn=_sleepy_run)
        assert records[0].attempts == 1

    def test_a_run_that_ignores_sigalrm_still_times_out(self):
        # The parent enforces the budget by killing the silent worker, so
        # nothing the run does to its own signals can dodge it.
        start = time.perf_counter()
        records = run_requests([req()], wall_timeout=0.3,
                               run_fn=_alarm_dodging_run)
        assert time.perf_counter() - start < 2.0
        assert records[0].failure.kind == "timeout"
        assert records[0].failure.message == (
            "run exceeded its 0.3s wall-clock budget")
        assert records[0].attempts == 1

    def test_wall_timeout_off_the_main_thread_is_enforced(self):
        outcome = {}

        def sweep():
            outcome["records"] = run_requests([req()], wall_timeout=0.3,
                                              run_fn=_sleepy_run)

        start = time.perf_counter()
        thread = threading.Thread(target=sweep)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert time.perf_counter() - start < 8.0  # nowhere near 10 s
        assert outcome["records"][0].failure.kind == "timeout"

    def test_a_slow_consumer_is_not_taken_for_a_hung_worker(self):
        # Events sent while the caller was busy wait in the worker's pipe:
        # that worker was not silent, so nothing is killed or timed out.
        kinds = []
        for event in iter_runs([req(seed=s) for s in range(4)], jobs=2,
                               force_pool=True, wall_timeout=0.2,
                               run_fn=_instant_run):
            kinds.append(event.kind)
            time.sleep(0.4)
        assert sorted(kinds) == ["complete"] * 4 + ["miss-start"] * 4

    @pytest.mark.parametrize("where", ["serial-env", "windows", "wrapper"])
    def test_a_budget_no_worker_can_enforce_is_refused_before_any_run(
            self, where, tmp_path, monkeypatch):
        # Only a worker process can be stopped: where the misses would
        # run in this process, a budget is refused before any run.
        ran = []

        def run(request):
            ran.append(request.seed)
            return _instant_run(request)

        store = None
        if where == "serial-env":
            monkeypatch.setenv("REPRO_EXECUTOR_SERIAL", "1")
        elif where == "windows":
            monkeypatch.setattr("sys.platform", "win32")
        else:  # a store workers cannot reopen by its path
            store = FaultyStore(ShardStore(tmp_path / "s"), FaultPlan([]))
        requests = [req(seed=s) for s in range(8)]
        with pytest.raises(ValueError, match="wall_timeout=5"):
            list(iter_runs(requests, jobs=2, wall_timeout=5, run_fn=run,
                           store=store))
        assert ran == []
        # without a budget the same sweep runs in-process
        events = list(iter_runs(requests, jobs=2, run_fn=run, store=store))
        assert sorted(ran) == list(range(8))
        assert all(e.ok for e in events if e.terminal)


class TestRetry:
    """Run retries are removed: a fixed-seed run that raised would raise
    again, so its error record is final after one attempt."""

    def test_transient_failure_is_not_retried_serial(self):
        calls = {"n": 0}

        def flaky(request):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return RunRecord(request=request, plt=2.0, complete=True)

        record = run_requests([req()], jobs=1, run_fn=flaky)[0]
        assert calls["n"] == 1
        assert record.failure.kind == "error"
        assert "transient" in record.failure.message
        assert record.attempts == 1

    def test_transient_failure_is_not_retried_parallel(self, tmp_path,
                                                       monkeypatch):
        marker = tmp_path / "flaky-marker"
        monkeypatch.setenv("REPRO_TEST_FLAKY_MARKER", str(marker))
        records = run_requests([req(seed=s) for s in range(2)], jobs=2,
                               force_pool=True, run_fn=_flaky_marker_run)
        assert [r.failure.kind for r in records] == ["error", "error"]
        assert [r.attempts for r in records] == [1, 1]
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "flaky-marker.0", "flaky-marker.1"]

    def test_retries_keyword_accepts_only_zero(self):
        events = list(iter_runs([req()], retries=0, run_fn=_instant_run))
        assert [event.kind for event in events] == ["miss-start", "complete"]
        for retries in (1, 3, -1):
            with pytest.raises(ValueError, match="retries were removed"):
                iter_runs([req()], retries=retries, run_fn=_instant_run)
        with pytest.raises(TypeError, match="retries"):
            run_requests([req()], retries=0, run_fn=_instant_run)

    def test_one_bad_run_does_not_poison_the_batch(self):
        def broken_seed_one(request):
            if request.seed == 1:
                raise RuntimeError("boom")
            return RunRecord(request=request, plt=1.0, complete=True)

        records = run_requests([req(seed=s) for s in range(3)], jobs=1,
                               run_fn=broken_seed_one)
        assert [r.ok for r in records] == [True, False, True]


class TestKnobs:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_serial_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_SERIAL", "1")
        # Closures are unpicklable, so this only works if the env var
        # really forces the in-process path despite jobs=4.
        seen = []

        def local_fn(request):
            seen.append(request.seed)
            return RunRecord(request=request, plt=1.0, complete=True)

        records = run_requests([req(seed=s) for s in range(3)], jobs=4,
                               run_fn=local_fn)
        assert seen == [0, 1, 2]
        assert all(r.ok for r in records)

    def test_progress_kwarg_is_a_type_error(self):
        # removed: iterate iter_runs(...) and consume its events instead
        with pytest.raises(TypeError, match="progress"):
            run_requests([req()], run_fn=_instant_run,
                         progress=lambda record: None)

    def test_empty_request_list(self):
        assert run_requests([], jobs=4) == []

    def test_invalid_chunk_size(self):
        # removed with the chunked pool: a TypeError, not a silent no-op
        with pytest.raises(TypeError, match="chunk_size"):
            run_requests([req(), req(seed=1)], jobs=2, chunk_size=0)


class TestDeprecationShims:
    def test_quic_cfg_kwarg_is_a_type_error(self):
        for call in (
                lambda: measure_plts(SCN, PAGE, "quic", runs=1,
                                     quic_cfg=quic_config(34)),
                lambda: run_page_load(SCN, PAGE, "quic",
                                      quic_cfg=quic_config(34)),
                lambda: run_bulk_transfer(SCN, 10_000, "tcp",
                                          tcp_cfg=tcp_config()),
                lambda: compare_page_load(SCN, PAGE, runs=1,
                                          quic_kwargs={"seed": 1})):
            with pytest.raises(TypeError):
                call()

    def test_per_stack_cfg_kwargs_are_type_errors(self):
        # removed: the proxy, video and fairness drivers take one
        # ProtocolSpec (or quic=/tcp= per side) instead
        sim = Simulator()
        path = build_proxy_path(sim, SCN, seed=1)
        for call in (
                lambda: SplitConnectionProxy(sim, path, "quic",
                                             lambda meta: 100,
                                             quic_cfg=quic_config(34)),
                lambda: install_proxy(sim, path, "tcp", lambda meta: 100,
                                      tcp_cfg=tcp_config()),
                lambda: play_video_once(SCN, "tiny", "quic",
                                        quic_cfg=quic_config(34)),
                lambda: run_fairness(duration=1.0, quic_cfg=quic_config(34))):
            with pytest.raises(TypeError, match="_cfg"):
                call()

    def test_protocolspec_plus_cfg_kwarg_is_an_error(self):
        with pytest.raises(TypeError):
            measure_plts(SCN, PAGE, ProtocolSpec.quic(), runs=1,
                         quic_cfg=quic_config(34))
