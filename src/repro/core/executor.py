"""Parallel experiment execution engine.

The paper's methodology is a large matrix of *independent* seeded
simulations — "at least 10" rounds per (scenario x workload x protocol)
cell — and every run is a pure function of ``(configuration, seed)``.
That makes the matrix embarrassingly parallel: this module fans the runs
out across CPU cores.

The unit of work is a :class:`RunRequest`: a frozen, picklable
description of one run (scenario, page workload, :class:`ProtocolSpec`,
device, seed, trace options).  Executing one yields a :class:`RunRecord`
carrying the metrics, wall-clock timing and — instead of an exception
that would poison a whole batch — a structured :class:`RunFailure`.

:func:`iter_runs` is the engine: one per-miss path with per-run
wall-clock timeout enforcement and bounded retry-on-failure, run
in-process or by ``jobs`` forked workers (the fabric's worker group),
surfaced to the caller as a *stream* of typed :class:`RunEvent`\\ s
(``hit`` / ``miss-start`` / ``retry`` / ``complete`` / ``timeout`` /
``error``).  When a results store is attached, each worker writes its
full :class:`RunRecord`\\ s straight into the store (the sharded
backend's per-shard locks make multi-writer append safe) before the
lightweight event — key, status, summary stats, never a record payload
— crosses the pipe back to the parent.  A 10⁵-cell sweep therefore
costs the parent O(cells) small events, not O(cells) pickled records,
and its memory stays bounded by whatever the caller accumulates.

:func:`collect` is the one fold over that stream: it takes the sweep
as ``(cell key, requests)`` pairs and slots every result back under
its cell in request order.  Every batch driver — ``measure_plts``, the
comparisons, the heatmap, ``run_experiment`` and :func:`run_requests`
(the classic request-ordered ``List[RunRecord]``) — is a request
builder around it.  Each run re-seeds from its request alone, so a
parallel execution is bit-identical to a serial one.  ``jobs=1`` is a
true in-process serial mode — the escape hatch for Windows, coverage
tooling, and debugging — and the engine degrades to it automatically if
the workers cannot be used.
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
from dataclasses import dataclass, field, replace
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
    Union,
)

from ..devices import DESKTOP, DeviceProfile
from ..http.objects import WebPage
from ..netem.profiles import Scenario
from .manyflow import ManyflowConfig
from ..quic.config import QuicConfig, quic_config
from ..tcp.config import TcpConfig, tcp_config

#: Simulated-time cap per run (mirrors ``runner.DEFAULT_TIMEOUT``).
DEFAULT_SIM_TIMEOUT = 900.0
#: Environment knob forcing in-process serial execution everywhere.
SERIAL_ENV_VAR = "REPRO_EXECUTOR_SERIAL"
#: Below this many requests the pool's fork/IPC overhead exceeds any
#: speedup, so the engine runs them in-process instead.
MIN_PARALLEL = 4

PROTOCOL_NAMES = ("quic", "tcp")


# ----------------------------------------------------------------------
# request / result types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol plus its configuration, as one picklable value.

    The name selects the stack, ``config`` carries its tunables
    (``None`` means the paper's defaults, resolved lazily so the pickle
    stays small).
    """

    name: str
    config: Optional[Union[QuicConfig, TcpConfig]] = None

    def __post_init__(self) -> None:
        if self.name not in PROTOCOL_NAMES:
            raise ValueError(
                f"unknown protocol {self.name!r} (expected one of "
                f"{', '.join(PROTOCOL_NAMES)})"
            )
        if self.config is not None:
            expected = QuicConfig if self.name == "quic" else TcpConfig
            if not isinstance(self.config, expected):
                raise TypeError(
                    f"{self.name} ProtocolSpec needs a {expected.__name__}, "
                    f"got {type(self.config).__name__}"
                )

    # -- constructors ------------------------------------------------------
    @classmethod
    def quic(cls, config: Optional[QuicConfig] = None, *,
             version: Optional[int] = None) -> "ProtocolSpec":
        """A QUIC spec; ``version`` builds the version-keyed config."""
        if version is not None:
            if config is not None:
                raise TypeError("pass either config or version, not both")
            config = quic_config(version)
        return cls("quic", config)

    @classmethod
    def tcp(cls, config: Optional[TcpConfig] = None) -> "ProtocolSpec":
        return cls("tcp", config)

    @classmethod
    def of(cls, protocol: Union[str, "ProtocolSpec"],
           config: Optional[Union[QuicConfig, TcpConfig]] = None
           ) -> "ProtocolSpec":
        """Coerce a protocol name or an existing spec into a spec."""
        if isinstance(protocol, ProtocolSpec):
            if config is not None:
                raise TypeError(
                    "pass the configuration inside the ProtocolSpec, not "
                    "alongside it")
            return protocol
        return cls(protocol, config)

    # -- accessors ---------------------------------------------------------
    def resolved_config(self) -> Union[QuicConfig, TcpConfig]:
        """The configuration, with the paper's defaults filled in."""
        if self.config is not None:
            return self.config
        return quic_config(34) if self.name == "quic" else tcp_config()

    @property
    def label(self) -> str:
        if self.config is None:
            return self.name
        if isinstance(self.config, QuicConfig):
            return self.config.label()
        return "tcp(custom)"


@dataclass(frozen=True)
class RunRequest:
    """One seeded run, serialisable to a worker process and back.

    Everything needed to reconstruct the run lives here as plain frozen
    data: the :class:`~repro.netem.profiles.Scenario` (itself a data-only
    spec — see ``Scenario.to_spec``/``from_spec``), the page workload,
    the :class:`ProtocolSpec`, the device model, the seed, and the trace
    options.  ``timeout`` caps *simulated* time (the in-sim watchdog);
    wall-clock budgets are enforced by the executor.
    """

    scenario: Scenario
    page: WebPage
    protocol: ProtocolSpec
    seed: int = 0
    device: DeviceProfile = DESKTOP
    trace: bool = False
    cwnd_interval: float = 0.0
    proxied: bool = False
    timeout: float = DEFAULT_SIM_TIMEOUT
    #: When set, this request is a many-flow aggregate run: the engine in
    #: :mod:`repro.core.manyflow` executes it instead of a page load, and
    #: ``page``/``protocol`` serve only as cell-addressing labels.
    manyflow: Optional[ManyflowConfig] = None

    @property
    def label(self) -> str:
        return (f"{self.protocol.name} {self.page.name} @ "
                f"{self.scenario.name} seed={self.seed}")

    def with_(self, **changes: Any) -> "RunRequest":
        return replace(self, **changes)

    def execute(self) -> "RunRecord":
        """Run in-process (no pool) and return the record."""
        return execute_request(self)


@dataclass(frozen=True)
class RunFailure:
    """Structured description of why a run produced no sample.

    ``kind`` is one of ``"timeout"`` (wall-clock budget exceeded),
    ``"incomplete"`` (the simulation hit its simulated-time cap), or
    ``"error"`` (an exception — the only kind the executor retries).
    """

    kind: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass
class RunRecord:
    """What one executed :class:`RunRequest` produced."""

    request: RunRequest
    plt: Optional[float] = None
    complete: bool = False
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds the (final) attempt took.
    wall_time: float = 0.0
    #: Total attempts made, including the successful one.
    attempts: int = 1
    failure: Optional[RunFailure] = None
    #: True when this record was served from a results store rather than
    #: executed (see :mod:`repro.store`); never persisted.
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None and self.complete

    def require(self) -> float:
        """The PLT sample, or a RuntimeError mirroring the serial API."""
        if self.ok and self.plt is not None:
            return self.plt
        reason = str(self.failure) if self.failure else "did not complete"
        raise RuntimeError(
            f"{self.request.protocol.name} load of {self.request.page.name} "
            f"in {self.request.scenario.name} (seed {self.request.seed}) "
            f"failed: {reason}"
        )


#: A run function: maps a request to a record (may raise).  Injectable so
#: tests can exercise timeout/retry handling without real simulations.
RunFn = Callable[[RunRequest], RunRecord]

# ----------------------------------------------------------------------
# the event stream
# ----------------------------------------------------------------------
#: Every kind a :class:`RunEvent` can carry, in rough lifecycle order.
EVENT_KINDS = ("hit", "miss-start", "retry", "complete", "timeout", "error")
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
    - ``"retry"`` — one failed attempt that will be retried; ``attempts``
      counts attempts so far and ``failure_kind``/``failure_message``
      describe what went wrong.  One event per failed attempt, so store
      counters reconcile exactly with the events observed.
    - ``"complete"`` — the run finished (terminal).  ``ok`` distinguishes
      a measured sample from a structured ``"incomplete"`` outcome.
    - ``"timeout"`` / ``"error"`` — the run's final attempt failed with
      that failure kind (terminal).

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
    attempts: int = 1
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


def _retry_event(index: int, request: RunRequest, key: Optional[str],
                 attempt: RunRecord) -> RunEvent:
    failure = attempt.failure
    return RunEvent(
        kind="retry", index=index, scenario=request.scenario.name,
        page=request.page.name, protocol=request.protocol.name,
        seed=request.seed, key=key, attempts=attempt.attempts,
        wall_time=attempt.wall_time,
        failure_kind=failure.kind if failure is not None else None,
        failure_message=_clipped(failure.message) if failure is not None
        else None)


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
        attempts=record.attempts, wall_time=record.wall_time,
        failure_kind=failure.kind if failure is not None else None,
        failure_message=_clipped(failure.message) if failure is not None
        else None,
        cached=record.cached, stored=stored, record=attach)


def execute_request(request: RunRequest) -> RunRecord:
    """Execute one request with the real simulator (the default RunFn)."""
    if request.manyflow is not None:
        from .manyflow import execute_manyflow
        return execute_manyflow(request)

    from .runner import run_page_load  # runner sits above this module

    output = run_page_load(
        request.scenario, request.page, request.protocol,
        seed=request.seed, device=request.device, trace=request.trace,
        cwnd_interval=request.cwnd_interval, proxied=request.proxied,
        timeout=request.timeout,
    )
    result = output.result
    metrics: Dict[str, float] = {
        "bytes": float(request.page.total_bytes),
        "objects": float(request.page.object_count),
    }
    if request.trace:
        for state, fraction in output.server_trace.dwell_fractions().items():
            metrics[f"dwell:{state}"] = fraction
    if not result.complete:
        return RunRecord(
            request=request, plt=None, complete=False, metrics=metrics,
            failure=RunFailure(
                "incomplete",
                f"page load still running after {request.timeout:g}s of "
                f"simulated time"),
        )
    metrics["plt"] = result.plt
    return RunRecord(request=request, plt=result.plt, complete=True,
                     metrics=metrics)


# ----------------------------------------------------------------------
# wall-clock timeout enforcement
# ----------------------------------------------------------------------
class WallClockTimeout(Exception):
    """Raised inside a run when its wall-clock budget expires."""


@contextlib.contextmanager
def _wall_clock_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`WallClockTimeout` in the current frame after ``seconds``.

    Uses ``SIGALRM``; on platforms without it (Windows) or off the main
    thread the budget is simply not enforced — the simulated-time cap in
    the request still bounds the run.
    """
    usable = (
        seconds is not None and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
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


def _guarded_run(run_fn: RunFn, request: RunRequest,
                 wall_timeout: Optional[float]) -> RunRecord:
    """One attempt: exceptions and timeouts become failure records."""
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


def _run_with_retries(run_fn: RunFn, request: RunRequest,
                      wall_timeout: Optional[float], retries: int,
                      on_retry: Optional[Callable[[RunRecord], None]] = None
                      ) -> RunRecord:
    """Attempt a run up to ``1 + retries`` times.

    Only ``"error"`` failures are retried: timeouts and simulated-time
    exhaustion are deterministic in this simulator, so repeating them
    would only burn the pool's time.  ``on_retry`` sees the failed
    record of every attempt that *will* be retried — the final attempt,
    successful or exhausted, is the return value instead.
    """
    attempt = 0
    while True:
        attempt += 1
        record = _guarded_run(run_fn, request, wall_timeout)
        record.attempts = attempt
        if record.failure is None or record.failure.kind != "error":
            return record
        if attempt > retries:
            return record
        if on_retry is not None:
            on_retry(record)


#: A parent-precomputed unit of work: ``(index, request, key, fingerprint)``.
#: ``key``/``fingerprint`` are ``None`` when no store is attached.
TaggedRequest = Tuple[int, RunRequest, Optional[str], Optional[str]]


def _stream_one(run: RunFn, tagged: TaggedRequest, cache: Optional[Any],
                wall_timeout: Optional[float], retries: int,
                keep_records: bool) -> Iterator[RunEvent]:
    """Execute one miss — in-process or in a worker — and offer its
    record to the store before its terminal event leaves."""
    index, request, key, _fingerprint = tagged
    yield _event("miss-start", index, request, key)
    retried: List[RunRecord] = []
    record = _run_with_retries(run, request, wall_timeout, retries,
                               on_retry=retried.append)
    for failed in retried:
        if cache is not None:
            cache.retries += 1
        yield _retry_event(index, request, key, failed)
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
                 store_spec: Optional[Tuple[str, str, Optional[str]]],
                 wall_timeout: Optional[float], retries: int,
                 keep_records: bool, _worker_id: int,
                 share: List[TaggedRequest]) -> Iterator[RunEvent]:
    """A pool worker's body: the serial path over its share of the misses,
    writing through a :class:`~repro.store.RunCache` on the sweep's store
    (``(path, kind, pinned fingerprint)``), reopened once."""
    cache = None
    if store_spec is not None:
        from ..store.cache import RunCache  # lazy: store imports this module

        path, kind, fingerprint = store_spec
        cache = RunCache(path, backend=kind, fingerprint=fingerprint)
    try:
        for tagged in share:
            yield from _stream_one(run, tagged, cache, wall_timeout, retries,
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
    so the executor clamps to the affinity mask where the platform
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
    retries: int = 1,
    run_fn: Optional[RunFn] = None,
    store: Optional[Any] = None,
    keep_records: bool = False,
    force_pool: bool = False,
) -> Iterator[RunEvent]:
    """Execute ``requests``, streaming typed :class:`RunEvent`\\ s.

    This is the primary execution API.  Exactly one *terminal* event
    (``hit``/``complete``/``timeout``/``error``) is emitted per request,
    carrying the request's ``index`` so callers can slot samples back
    into request order; ``miss-start`` and per-attempt ``retry`` events
    interleave as execution proceeds.  Nothing is materialised: a sweep
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
    retries:
        How many times an ``"error"`` failure is retried (bounded;
        deterministic timeout/incomplete failures are never retried).
        Every retried attempt surfaces as a ``retry`` event.
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
        the parent.  A store workers cannot reopen by ``(path, kind)``
        (``:memory:``, or a wrapper whose ``kind`` :func:`repro.store.
        open_store` does not know) runs its misses in-process.
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
    if retries < 0:
        raise ValueError("retries must be >= 0")
    n_jobs = resolve_jobs(jobs)
    return _iter_runs(list(requests), n_jobs, wall_timeout, retries,
                      run_fn, store, keep_records, force_pool)


def _iter_runs(requests: List[RunRequest], n_jobs: int,
               wall_timeout: Optional[float], retries: int,
               run_fn: Optional[RunFn], store: Optional[Any],
               keep_records: bool, force_pool: bool) -> Iterator[RunEvent]:
    """The generator behind :func:`iter_runs` (knobs validated there)."""
    run = run_fn if run_fn is not None else execute_request
    if not requests:
        return
    cache = None
    if store is not None:
        from ..store.cache import RunCache  # lazy: store imports this module

        cache = RunCache.of(store)
    try:
        yield from _stream_runs(run, requests, n_jobs, wall_timeout, retries,
                                cache, keep_records, force_pool)
    finally:
        # Completed, failed or closed half-way: the store's persistent
        # counters catch up with the session's either way.
        if cache is not None:
            cache.end_sweep()


def _stream_runs(run: RunFn, requests: List[RunRequest], n_jobs: int,
                 wall_timeout: Optional[float], retries: int,
                 cache: Optional[Any], keep_records: bool,
                 force_pool: bool) -> Iterator[RunEvent]:
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
        from ..store.backend import BACKENDS  # lazy, as above

        if cache.store.kind not in BACKENDS or cache.store.path == ":memory:":
            n_jobs = 1  # workers could not reopen it: write it from here
        store_spec = (cache.store.path, cache.store.kind, cache.fingerprint)
    done: set = set()
    if (n_jobs > 1 and not _force_serial()
            and (force_pool or len(misses) >= MIN_PARALLEL)):
        body = partial(_pool_worker, run, store_spec, wall_timeout, retries,
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
                elif event.kind == "retry" and cache is not None:
                    cache.retries += 1
                yield event
        except (_PoolLost, OSError):
            pass  # the rest completes in-process below
    # In-process: every miss, or what the workers left behind.  A miss a
    # worker started but never finished gets a second miss-start —
    # announcing the rerun — but still exactly one terminal event.
    for tagged in misses:
        if tagged[0] not in done:
            yield from _stream_one(run, tagged, cache, wall_timeout, retries,
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
    retries: int = 1,
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
                   jobs=jobs, wall_timeout=wall_timeout, retries=retries,
                   run_fn=run_fn, store=store, keep_records=True,
                   force_pool=force_pool)[None]
