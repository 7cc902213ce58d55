"""The sweep engine: run many requests, stream their events, fold them.

Every run is a pure function of ``(configuration, seed)``
(:mod:`repro.core.executor` defines the request, the record and the
default run function), so a sweep is embarrassingly parallel.  This
module is the plumbing around those runs and lies outside the run key
(:data:`repro.store.keys.UNKEYED`): an edit here leaves every cached run
reusable.

:func:`iter_runs` streams typed :class:`RunEvent`\\ s (``hit`` /
``miss-start`` / ``complete`` / ``timeout`` / ``error``) from one
per-miss path with a per-run wall-clock deadline, run in-process or by
``jobs`` forked workers (the worker group the fabric shares).  A run is
attempted once: a fixed-seed run that raised would raise again.  With a
results store attached, each worker writes its records straight into
the store before the payload-free event crosses the pipe, so a
10⁵-cell sweep costs the parent O(cells) small events, not pickled
records.  :func:`collect` is the one fold over that stream, which every
batch driver (``measure_plts``, the heatmap, ``run_experiment``,
:func:`run_requests`) builds requests for; each run re-seeds from its
request alone, so a pooled sweep is bit-identical to a serial one.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from functools import partial
from multiprocessing import connection as mp_connection
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .core import executor
from .core.executor import RunFailure, RunFn, RunRecord, RunRequest

#: Environment knob forcing in-process serial execution everywhere.
SERIAL_ENV_VAR = "REPRO_EXECUTOR_SERIAL"
#: Below this many requests the pool's fork/IPC overhead exceeds any
#: speedup, so the engine runs them in-process instead.
MIN_PARALLEL = 4


# ----------------------------------------------------------------------
# the event stream
# ----------------------------------------------------------------------
#: Every kind a :class:`RunEvent` can carry, in rough lifecycle order.
EVENT_KINDS = ("hit", "miss-start", "complete", "timeout", "error")
#: Kinds that end a request's lifecycle (exactly one per request).
TERMINAL_EVENTS = frozenset({"hit", "complete", "timeout", "error"})
#: Upper bound on one pickled streaming event (asserted in tests): the
#: parent-pipe cost of a cell is a few hundred bytes, not a record.
EVENT_WIRE_BOUND = 1024
#: Failure messages are clipped to keep events under the wire bound.
_FAILURE_MESSAGE_LIMIT = 300


def _clipped(message: Optional[str]) -> Optional[str]:
    if message is None or len(message) <= _FAILURE_MESSAGE_LIMIT:
        return message
    return message[:_FAILURE_MESSAGE_LIMIT - 3] + "..."


@dataclass(frozen=True)
class RunEvent:
    """One step of a streamed execution (see :func:`iter_runs`).

    Events identify their run by coordinates — ``(scenario, page,
    protocol, seed)`` names plus the request ``index`` — and carry only
    strings and numbers, never a request or record object, so they stay
    tiny on the parent pipe (``EVENT_WIRE_BOUND`` bytes pickled).

    Kinds:

    - ``"hit"`` — served from the results store, no execution (terminal).
    - ``"miss-start"`` — execution of this request began.
    - ``"complete"`` — the run finished (terminal).  ``ok`` distinguishes
      a measured sample from a structured ``"incomplete"`` outcome.
    - ``"timeout"`` / ``"error"`` — the run failed with that failure kind
      (terminal); ``failure_message`` says how.

    ``stored`` marks terminal events whose record is in the results
    store (a hit, or the write-back of whichever process ran it).
    ``record`` is populated only on the ``keep_records`` compatibility
    path used by :func:`run_requests`; on the streaming path it is
    always ``None``.
    """

    kind: str
    index: int
    scenario: str
    page: str
    protocol: str
    seed: int
    key: Optional[str] = None
    plt: Optional[float] = None
    ok: bool = False
    wall_time: float = 0.0
    failure_kind: Optional[str] = None
    failure_message: Optional[str] = None
    cached: bool = False
    stored: bool = False
    record: Optional[RunRecord] = None

    @property
    def terminal(self) -> bool:
        """Whether this event ends its request's lifecycle."""
        return self.kind in TERMINAL_EVENTS

    @property
    def label(self) -> str:
        return (f"{self.protocol} {self.page} @ {self.scenario} "
                f"seed={self.seed}")

    def require(self) -> float:
        """The measured PLT, or a loud error mirroring ``RunRecord.require``."""
        if self.ok and self.plt is not None:
            return self.plt
        if self.failure_kind is not None:
            reason = f"[{self.failure_kind}] {self.failure_message}"
        else:
            reason = "did not complete"
        raise RuntimeError(
            f"{self.protocol} load of {self.page} in {self.scenario} "
            f"(seed {self.seed}) failed: {reason}"
        )


def _event(kind: str, index: int, request: RunRequest,
           key: Optional[str]) -> RunEvent:
    return RunEvent(kind=kind, index=index, scenario=request.scenario.name,
                    page=request.page.name, protocol=request.protocol.name,
                    seed=request.seed, key=key)


def _terminal_kind(record: RunRecord) -> str:
    """The event kind a final record maps to.

    ``"incomplete"`` is a structured, deterministic (and cacheable)
    outcome of a finished run, so it surfaces as ``"complete"`` with
    ``ok=False`` rather than as its own kind.
    """
    if record.failure is not None and record.failure.kind in ("timeout",
                                                              "error"):
        return record.failure.kind
    return "complete"


def _terminal_event(kind: str, index: int, request: RunRequest,
                    key: Optional[str], record: RunRecord, *,
                    stored: bool = False,
                    attach: Optional[RunRecord] = None) -> RunEvent:
    failure = record.failure
    return RunEvent(
        kind=kind, index=index, scenario=request.scenario.name,
        page=request.page.name, protocol=request.protocol.name,
        seed=request.seed, key=key, plt=record.plt, ok=record.ok,
        wall_time=record.wall_time,
        failure_kind=failure.kind if failure is not None else None,
        failure_message=_clipped(failure.message) if failure is not None
        else None,
        cached=record.cached, stored=stored, record=attach)


# ----------------------------------------------------------------------
# wall-clock timeout enforcement
# ----------------------------------------------------------------------
class WallClockTimeout(Exception):
    """Raised inside a run when its wall-clock budget expires."""


@contextlib.contextmanager
def _wall_clock_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`WallClockTimeout` in the current frame after ``seconds``.

    Uses ``SIGALRM``, which :func:`iter_runs` checks this thread can arm
    (:func:`_alarm_usable`) before any run starts.  It is the one guard
    against a run that hangs in wall-clock time at a fixed simulated
    time, which the request's simulated-time cap cannot see.
    """
    if seconds is None or seconds <= 0:
        yield
        return

    def _on_alarm(signum: int, frame: Any) -> None:
        raise WallClockTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _alarm_usable() -> bool:
    """Whether this thread can arm ``SIGALRM``: only a POSIX process's
    main thread can."""
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


def _guarded_run(run_fn: RunFn, request: RunRequest,
                 wall_timeout: Optional[float]) -> RunRecord:
    """The one attempt at a run: exceptions and timeouts become failure
    records."""
    start = time.perf_counter()
    try:
        with _wall_clock_deadline(wall_timeout):
            record = run_fn(request)
        if not isinstance(record, RunRecord):
            raise TypeError(
                f"run function returned {type(record).__name__}, "
                f"expected RunRecord")
    except WallClockTimeout:
        record = RunRecord(request=request, failure=RunFailure(
            "timeout",
            f"run exceeded its {wall_timeout:g}s wall-clock budget"))
    except Exception as exc:  # noqa: BLE001 - converted to structured failure
        record = RunRecord(request=request, failure=RunFailure(
            "error", f"{type(exc).__name__}: {exc}"))
    record.wall_time = time.perf_counter() - start
    return record


#: A parent-precomputed unit of work: ``(index, request, key, fingerprint)``.
#: ``key``/``fingerprint`` are ``None`` when no store is attached.
TaggedRequest = Tuple[int, RunRequest, Optional[str], Optional[str]]


def _stream_one(run: RunFn, tagged: TaggedRequest, cache: Optional[Any],
                wall_timeout: Optional[float],
                keep_records: bool) -> Iterator[RunEvent]:
    """Execute one miss — in-process or in a worker — and offer its
    record to the store before its terminal event leaves."""
    index, request, key, _fingerprint = tagged
    yield _event("miss-start", index, request, key)
    record = _guarded_run(run, request, wall_timeout)
    stored = cache.offer(record) if cache is not None else False
    yield _terminal_event(_terminal_kind(record), index, request, key, record,
                          stored=stored,
                          attach=record if keep_records else None)


# ----------------------------------------------------------------------
# the worker group
# ----------------------------------------------------------------------
def _group_worker(body: Callable[[int, List[Any]], Iterator[RunEvent]],
                  worker_id: int, share: List[Any], pipe: Any) -> None:
    """One worker process: stream ``body(worker_id, share)``'s events
    down ``pipe``."""
    try:
        for event in body(worker_id, share):
            pipe.send(("event", event))
        pipe.send(("done",))
    except BaseException:  # noqa: BLE001 - report, then die
        try:
            pipe.send(("failed", traceback.format_exc()))
        except OSError:
            pass  # the parent is gone: nobody left to tell
        raise


def _worker_group(body: Callable[[int, List[Any]], Iterator[RunEvent]],
                  shares: List[List[Any]], *, name: str, error: type,
                  max_restarts: int,
                  on_worker_start: Optional[Callable[[int, int], None]] = None,
                  progress_timeout: Optional[float] = None,
                  fault_plan: Optional[Any] = None) -> Iterator[RunEvent]:
    """Run ``body`` over each share in a process of its own; merge events.

    The one worker fan-out, shared by :func:`iter_runs`' pool and the
    fabric coordinator.  Every item of a share is a tuple whose first
    field is its request index; exactly one terminal event per index is
    passed on.  A worker whose pipe ends before it reported ``done`` —
    killed, OOM'd — is respawned with the items of its share that have
    no terminal event yet, ``max_restarts`` times in all; past that, or
    when a worker reports an exception, ``error`` is raised naming the
    ``name``d worker.  ``progress_timeout`` is the hung-worker watchdog:
    a worker silent for that long is SIGKILLed and respawned the same
    way.  With a ``fault_plan`` every event from worker *N* is one
    ``take("worker", str(N))`` and a scheduled ``kill`` SIGKILLs it.
    ``on_worker_start(worker_id, pid)`` sees every (re)spawn.
    """
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else None)
    ended: set = set()  # indices whose terminal event was passed on
    finished: set = set()  # workers that reported done
    processes: Dict[int, Any] = {}
    # One event pipe per worker *process*, never a shared queue: a queue's
    # writers serialise on one cross-process lock, and a worker SIGKILLed
    # while it holds that lock would mute every other worker (and every
    # respawn) for good.  A killed worker can only tear its own pipe,
    # which then reads as end-of-file — which is how its death is seen.
    readers: Dict[Any, int] = {}
    heard: Dict[int, float] = {}
    restarts = 0

    def spawn(worker_id: int) -> None:
        remaining = [item for item in shares[worker_id]
                     if item[0] not in ended]
        reader, writer = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_group_worker, args=(body, worker_id, remaining, writer),
            name=f"repro-{name.replace(' ', '-')}-{worker_id}", daemon=True)
        process.start()
        # The worker now holds the only write end, so its exit is an
        # end-of-file here (and no later fork inherits this end).
        writer.close()
        processes[worker_id] = process
        readers[reader] = worker_id
        heard[worker_id] = time.monotonic()
        if on_worker_start is not None:
            on_worker_start(worker_id, process.pid)

    try:
        for worker_id in range(len(shares)):
            spawn(worker_id)
        while readers:
            silent = [heard[worker_id] for worker_id in processes
                      if worker_id not in finished]
            timeout = (None if progress_timeout is None or not silent else
                       max(0.0, min(silent) + progress_timeout
                           - time.monotonic()))
            for reader in mp_connection.wait(list(readers), timeout):
                worker_id = readers[reader]
                try:
                    message = reader.recv()
                except (EOFError, OSError):
                    # Exited, or killed mid-message: everything it sent
                    # whole has been read.  Unless it was done, respawn.
                    del readers[reader]
                    reader.close()
                    processes.pop(worker_id).join()
                    if worker_id in finished:
                        continue
                    restarts += 1
                    if restarts > max_restarts:
                        raise error(f"{name} {worker_id} died and the "
                                    f"restart budget ({max_restarts}) is "
                                    f"spent")
                    spawn(worker_id)
                    continue
                heard[worker_id] = time.monotonic()
                if message[0] == "done":
                    finished.add(worker_id)
                    continue
                if message[0] == "failed":
                    raise error(f"{name} {worker_id} failed:\n{message[1]}")
                event = message[1]
                if fault_plan is not None:
                    fault = fault_plan.take("worker", str(worker_id))
                    if fault is not None and fault.spec.kind == "kill":
                        processes[worker_id].kill()  # scheduled chaos
                if event.terminal:
                    if event.index in ended:
                        continue  # a respawn replayed it
                    ended.add(event.index)
                yield event
            if progress_timeout is None:
                continue
            now = time.monotonic()
            for worker_id, process in processes.items():
                if (worker_id not in finished
                        and now - heard[worker_id] >= progress_timeout):
                    # Alive but mute past the deadline: kill it, and its
                    # pipe's end-of-file respawns it.
                    process.kill()
                    heard[worker_id] = now
    finally:
        for process in processes.values():
            process.terminate()
        for process in processes.values():
            process.join(timeout=5.0)
        for reader in readers:
            reader.close()


class _PoolLost(RuntimeError):
    """The pool lost a worker beyond its restart budget, or one raised."""


def _pool_worker(run: RunFn,
                 store_spec: Optional[Tuple[str, Optional[str]]],
                 wall_timeout: Optional[float],
                 keep_records: bool, _worker_id: int,
                 share: List[TaggedRequest]) -> Iterator[RunEvent]:
    """A pool worker's body: the serial path over its share of the misses,
    writing through a :class:`~repro.store.RunCache` on the sweep's store
    (``(path, pinned fingerprint)``), reopened once by its path."""
    cache = None
    if store_spec is not None:
        from .store.cache import RunCache  # lazy: a storeless sweep skips it

        path, fingerprint = store_spec
        cache = RunCache(path, fingerprint=fingerprint)
    try:
        for tagged in share:
            yield from _stream_one(run, tagged, cache, wall_timeout,
                                   keep_records)
    finally:
        if cache is not None:
            cache.end_sweep()
            cache.store.close()


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
def usable_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine; containers and ``taskset``
    often allow far fewer.  Scheduling more workers than usable CPUs
    just adds context-switch overhead (a 1-CPU box shows a *slowdown*),
    so the engine clamps to the affinity mask where the platform
    exposes one.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument: ``None``/``0`` mean "all usable cores"."""
    if jobs is None or jobs == 0:
        return usable_cpu_count()
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = all cores)")
    return jobs


def _force_serial() -> bool:
    return sys.platform == "win32" or bool(os.environ.get(SERIAL_ENV_VAR))


def iter_runs(
    requests: Sequence[RunRequest],
    *,
    jobs: Optional[int] = 1,
    wall_timeout: Optional[float] = None,
    retries: int = 0,
    run_fn: Optional[RunFn] = None,
    store: Optional[Any] = None,
    keep_records: bool = False,
    force_pool: bool = False,
) -> Iterator[RunEvent]:
    """Execute ``requests``, streaming typed :class:`RunEvent`\\ s.

    This is the primary execution API.  Exactly one *terminal* event
    (``hit``/``complete``/``timeout``/``error``) is emitted per request,
    carrying the request's ``index`` so callers can slot samples back
    into request order; ``miss-start`` events interleave as execution
    proceeds.  Each request is attempted once.  Nothing is materialised: a sweep
    is O(1) memory here, bounded only by what the caller accumulates.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` runs serially in-process, ``None``/``0``
        uses every usable core.  The count is clamped to the CPUs the
        process may run on (affinity mask), and batches smaller than
        ``MIN_PARALLEL`` run in-process — a pool that cannot win is
        never started.  Serial mode is also forced on Windows or when
        ``REPRO_EXECUTOR_SERIAL`` is set (the coverage/debug escape
        hatch).  Each worker runs its round-robin share of the misses
        (heaviest first); one that dies is respawned with the part of
        its share that has no terminal event yet, and whatever the
        workers leave unfinished runs in-process.
    wall_timeout:
        Per-run wall-clock budget in seconds; an overrun yields a
        ``"timeout"`` :class:`RunFailure` instead of hanging the pool.
        It is enforced with ``SIGALRM``, which only the main thread can
        arm, so a budget asked for from any other thread (or where
        ``SIGALRM`` does not exist) raises ``ValueError`` before any run
        starts.
    retries:
        Only ``0`` is accepted; anything else raises ``ValueError``.
        Run retries are removed: a fixed-seed run that raised raises
        again.
    run_fn:
        The per-request run function (default: the real simulator).
        Must be picklable (module-level) where ``fork`` is unavailable.
    store:
        A results store — a :class:`repro.store.RunCache`, any
        :class:`repro.store.StoreBackend` (sqlite file or sharded JSONL
        directory), or a path or fabric URL to one, opened by
        :func:`repro.store.open_store`.  Requests whose content
        address is already stored are served as ``hit`` events (no
        execution); misses execute and are written back *as they
        complete* — each row before its terminal event leaves — so an
        interrupted sweep is resumable: the rerun only executes the
        missing requests.  Pool workers reopen the store and write
        their records **directly**; only the payload-free events reach
        the parent.  A store workers cannot reopen by its path
        (``:memory:``, or a wrapper whose ``kind`` no path opens to)
        runs its misses in-process.
    keep_records:
        Attach the full :class:`RunRecord` to each terminal event.  This
        is the compatibility mode :func:`run_requests` uses; leave it
        off to keep record payloads out of the parent process entirely.
    force_pool:
        Start the worker processes even where the auto-serial heuristics
        (CPU-affinity clamp, ``MIN_PARALLEL``) would decline them — for
        I/O-bound run functions and multi-writer store tests on small
        machines.  ``REPRO_EXECUTOR_SERIAL`` and Windows still force
        serial.
    """
    if retries != 0:
        raise ValueError(
            f"retries={retries!r}: run retries were removed — a run is "
            f"attempted once, since a fixed-seed run that raised raises "
            f"again; drop the argument")
    if (wall_timeout is not None and wall_timeout > 0
            and not _alarm_usable()):
        raise ValueError(
            f"wall_timeout={wall_timeout!r} cannot be enforced here: its "
            f"SIGALRM deadline can be armed only on the main thread of a "
            f"POSIX process; call iter_runs from the main thread, or pass "
            f"wall_timeout=None")
    n_jobs = resolve_jobs(jobs)
    return _iter_runs(list(requests), n_jobs, wall_timeout, run_fn, store,
                      keep_records, force_pool)


def _iter_runs(requests: List[RunRequest], n_jobs: int,
               wall_timeout: Optional[float], run_fn: Optional[RunFn],
               store: Optional[Any], keep_records: bool,
               force_pool: bool) -> Iterator[RunEvent]:
    """The generator behind :func:`iter_runs` (knobs validated there)."""
    # Looked up per call, so a patched repro.core.executor.execute_request
    # is the default run function everywhere.
    run = run_fn if run_fn is not None else executor.execute_request
    if not requests:
        return
    cache = None
    if store is not None:
        from .store.cache import RunCache  # lazy: a storeless sweep skips it

        cache = RunCache.of(store)
    try:
        yield from _stream_runs(run, requests, n_jobs, wall_timeout, cache,
                                keep_records, force_pool)
    finally:
        # Completed, failed or closed half-way: the store's persistent
        # counters catch up with the session's either way.
        if cache is not None:
            cache.end_sweep()


def _stream_runs(run: RunFn, requests: List[RunRequest], n_jobs: int,
                 wall_timeout: Optional[float], cache: Optional[Any],
                 keep_records: bool, force_pool: bool) -> Iterator[RunEvent]:
    """Lookup phase, then the misses — in worker processes, then
    in-process for whatever the workers did not finish."""
    misses: List[TaggedRequest] = []
    for index, request in enumerate(requests):
        if cache is None:
            misses.append((index, request, None, None))
            continue
        key, fingerprint, hit = cache.lookup_with_key(request)
        if hit is None:
            misses.append((index, request, key, fingerprint))
        else:
            yield _terminal_event("hit", index, request, key, hit,
                                  stored=True,
                                  attach=hit if keep_records else None)
    if cache is not None:
        cache.flush()
    if not misses:
        return
    # Cache-aware scheduling: execute the heaviest misses first (object
    # count, then bytes, as the expected-cost proxy) so a long run never
    # lands last on an otherwise-drained pool.  The sort is stable and
    # events carry their request index, so callers see no difference.
    misses.sort(key=lambda tagged: (tagged[1].page.object_count,
                                    tagged[1].page.total_bytes),
                reverse=True)
    if not force_pool:
        n_jobs = min(n_jobs, usable_cpu_count())
    n_jobs = min(n_jobs, len(misses))
    store_spec = None
    if cache is not None:
        from .store.backend import BACKENDS  # lazy, as above

        if cache.store.kind not in BACKENDS or cache.store.path == ":memory:":
            n_jobs = 1  # workers could not reopen it: write it from here
        store_spec = (cache.store.path, cache.fingerprint)
    done: set = set()
    if (n_jobs > 1 and not _force_serial()
            and (force_pool or len(misses) >= MIN_PARALLEL)):
        body = partial(_pool_worker, run, store_spec, wall_timeout,
                       keep_records)
        try:
            for event in _worker_group(
                    body, [misses[worker::n_jobs] for worker in range(n_jobs)],
                    name="pool worker", error=_PoolLost,
                    max_restarts=2 * n_jobs):
                if event.terminal:
                    done.add(event.index)
                    if cache is not None and event.stored:
                        cache.writes += 1  # a worker wrote it: count it here
                yield event
        except (_PoolLost, OSError):
            pass  # the rest completes in-process below
    # In-process: every miss, or what the workers left behind.  A miss a
    # worker started but never finished gets a second miss-start —
    # announcing the rerun — but still exactly one terminal event.
    for tagged in misses:
        if tagged[0] not in done:
            yield from _stream_one(run, tagged, cache, wall_timeout,
                                   keep_records)


def collect(
    cells: Sequence[Tuple[Any, Sequence[RunRequest]]],
    *,
    value: Callable[[RunEvent], Any] = RunEvent.require,
    on_cell: Optional[Callable[[Any, List[Any]], None]] = None,
    **iter_runs_kwargs: Any,
) -> Dict[Any, List[Any]]:
    """The sweep fold: run every cell's requests, slot the results back.

    ``cells`` is a list of ``(key, requests)`` pairs — the shape
    :func:`repro.core.experiment.experiment_requests` returns.  All
    requests run as one :func:`iter_runs` batch (``iter_runs_kwargs``
    are forwarded unchanged) and each terminal event's ``value(event)``
    — by default the measured PLT, raising on a failed run — lands at
    ``result[key][position]``.  Keys come back in the order given and
    values in request order, whatever order runs complete in, so a
    pooled sweep's result is identical to a serial one's.
    ``on_cell(key, values)`` fires once per cell, when its last run
    lands (completion order under parallelism).

    Two cells under one key would silently share samples, so a
    duplicate key raises ``ValueError`` before anything executes.
    """
    result: Dict[Any, List[Any]] = {}
    flat: List[RunRequest] = []
    slots: List[Tuple[Any, int]] = []
    duplicates: List[Any] = []
    for key, requests in cells:
        if key in result:
            duplicates.append(key)
            continue
        before = len(flat)
        flat.extend(requests)
        result[key] = [None] * (len(flat) - before)
        slots.extend((key, position) for position in range(len(result[key])))
    if duplicates:
        raise ValueError(
            f"duplicate sweep cell(s) {', '.join(map(repr, duplicates))}: "
            f"cells that share a key would share samples — give each "
            f"scenario and workload a distinct label")
    remaining = {key: len(values) for key, values in result.items()}
    for event in iter_runs(flat, **iter_runs_kwargs):
        if not event.terminal:
            continue
        key, position = slots[event.index]
        result[key][position] = value(event)
        remaining[key] -= 1
        if on_cell is not None and remaining[key] == 0:
            on_cell(key, result[key])
    return result


def run_requests(
    requests: Sequence[RunRequest],
    *,
    jobs: Optional[int] = 1,
    wall_timeout: Optional[float] = None,
    run_fn: Optional[RunFn] = None,
    store: Optional[Any] = None,
    force_pool: bool = False,
) -> List[RunRecord]:
    """Execute ``requests`` and return records in *request order*.

    :func:`collect` over one cell, keeping the full records (so the
    whole batch is held in memory — prefer :func:`iter_runs` for large
    sweeps).  All knobs are forwarded unchanged; see :func:`iter_runs`
    for their semantics.
    """
    return collect([(None, requests)], value=lambda event: event.record,
                   jobs=jobs, wall_timeout=wall_timeout, run_fn=run_fn,
                   store=store, keep_records=True,
                   force_pool=force_pool)[None]

