"""The work-sharing coordinator: one sweep, N processes, one store.

:func:`iter_fabric_runs` turns a sweep's ``RunRequest`` list into a
distributed, resumable job queue over a fabric store server:

1. every request is content-addressed (:func:`~repro.store.keys.run_key`
   over the canonical request plus the code fingerprint);
2. **one** batched ``POST /missing`` call maps the whole key list to the
   miss-list — everything else is served as ``hit`` events, in sweep
   order, from bulk ``POST /fetch`` calls one ``BATCH_SIZE`` batch at a
   time (the coordinator never holds more than one batch of rows);
3. the misses, heaviest first, are sharded round-robin across N worker
   processes — the sweep engine's own worker group, the one
   ``iter_runs(jobs=N)`` uses.  A worker keeps no store: it runs each
   request of its share, holds the finished run's row and terminal
   event in memory, and every ``sync_every`` results makes one bulk
   upload to the server (with the client's retry/backoff underneath; a
   batch a down server refused stays held and goes with the next one);
4. only once a batch's rows are on the server do its terminal events
   leave the worker, so — as on the pool path — ``stored=True`` means
   the row is in the sweep's store.  The workers' typed
   :class:`~repro.sweep.RunEvent` streams are re-indexed to sweep
   order, merged, and yielded to the caller — exactly one terminal
   event per request, same contract as ``iter_runs``.

Crash safety falls out of content addressing and fixed seeds.  A
killed worker's runs whose rows were not uploaded have no terminal
event yet, so its respawn runs them again — at most ``sync_every`` per
kill, producing the identical rows.  Killing the whole coordinator
loses at most one held batch per worker: a rerun's ``/missing`` probe
shrinks to the absent cells and runs those.  Nothing is double-counted,
and no run leaves anything on the worker's disk.

``repro worker`` is the CLI front-end::

    repro worker --file grid.json --url http://lab-server:8737 --workers 8
"""

from __future__ import annotations

import time
from functools import partial
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

from ..core import executor
from ..core.executor import RunFn, RunRequest
from ..store.cache import RunCache
from ..store.keys import (
    fingerprint_for,
    record_from_dict,
    record_to_dict,
    run_key,
)
from ..store.rows import Row
from ..sweep import (
    RunEvent,
    _event,
    _guarded_run,
    _heaviest_first,
    _terminal_event,
    _terminal_kind,
    _wall_budget,
    _worker_group,
)
from .client import BATCH_SIZE, FabricConnectionError, RemoteStore

#: Completed results a worker accumulates before bulk-uploading.
DEFAULT_SYNC_EVERY = 32
#: Attempts a worker makes to flush its final batch before giving up
#: (each attempt already carries the client's own transport retries).
_FLUSH_ATTEMPTS = 4


class FabricWorkerError(RuntimeError):
    """A fabric worker failed unrecoverably (or too many were lost)."""


#: One unit of work, keyed once by the coordinator:
#: ``(sweep index, request, key, fingerprint)``.
_Assigned = Tuple[int, RunRequest, str, str]


def _served_hits(remote: RemoteStore, tagged: Sequence[_Assigned]
                 ) -> Iterator[RunEvent]:
    """A ``hit`` event per item, in the order given, from one
    ``POST /fetch`` per :data:`BATCH_SIZE` keys: at most one batch of
    fetched rows is held at a time.  A key the server does not hold is
    a lost result."""
    for start in range(0, len(tagged), BATCH_SIZE):
        batch = tagged[start:start + BATCH_SIZE]
        rows = {row[0]: row[3]
                for row in remote.fetch([item[2] for item in batch])}
        for index, request, key, _fingerprint in batch:
            if key not in rows:
                raise FabricWorkerError(
                    f"no terminal event and no stored record for request "
                    f"{index} ({request.label}) on the server; the sweep "
                    f"is incomplete")
            record = record_from_dict(rows[key], request=request)
            record.cached = True
            yield _terminal_event("hit", index, request, key, record,
                                  stored=True)


def _worker_events(url: str, sync_every: int,
                   wall_timeout: Optional[float], run_fn: Optional[RunFn],
                   worker_id: int, assignment: Sequence[_Assigned]
                   ) -> Iterator[RunEvent]:
    """One fabric worker's body: run a share, upload, then release.

    Each finished run's row (when :meth:`RunCache.cacheable`) and its
    terminal event are held in memory; every ``sync_every`` results one
    upload sends the held rows, and only then do their terminal events
    leave.  An upload that cannot reach the server keeps its batch held
    for the next one; only the *final* flush escalates to a failure,
    because exiting with rows off the server would stall the sweep
    until a respawn re-ran them.
    """
    run = run_fn if run_fn is not None else executor.execute_request
    remote = RemoteStore(url)
    rows: List[Row] = []
    held: List[RunEvent] = []
    for done, (index, request, key, fingerprint) in enumerate(assignment, 1):
        yield _event("miss-start", index, request, key)
        record = _guarded_run(run, request, wall_timeout)
        stored = RunCache.cacheable(record)
        if stored:
            rows.append((key, None, fingerprint, record_to_dict(record)))
        held.append(_terminal_event(_terminal_kind(record), index, request,
                                    key, record, stored=stored))
        if done % sync_every == 0:
            try:
                remote.upload_rows(rows)
            except FabricConnectionError:
                continue  # held: the next upload takes this batch along
            yield from held
            rows, held = [], []
    for attempt in range(_FLUSH_ATTEMPTS):
        try:
            remote.upload_rows(rows)
            break
        except FabricConnectionError:
            if attempt == _FLUSH_ATTEMPTS - 1:
                raise
            time.sleep(0.5 * (2 ** attempt))
    yield from held


def iter_fabric_runs(
    requests: Sequence[RunRequest],
    url: str,
    *,
    workers: int = 2,
    sync_every: int = DEFAULT_SYNC_EVERY,
    wall_timeout: Optional[float] = None,
    run_fn: Optional[RunFn] = None,
    workdir: Optional[str] = None,
    max_restarts: Optional[int] = None,
    on_worker_start: Optional[Callable[[int, int], None]] = None,
    progress_timeout: Optional[float] = None,
    fault_plan: Optional[Any] = None,
) -> Iterator[RunEvent]:
    """Execute a sweep against a fabric server, streaming merged events.

    The distributed analogue of :func:`~repro.sweep.iter_runs`:
    same typed event stream, same exactly-one-terminal-per-request
    contract, but the misses execute in ``workers`` separate processes
    and the results land in the server's store.

    Parameters
    ----------
    url:
        The fabric server (``repro serve``).  Reachability and
        ``KEY_SCHEMA_VERSION`` agreement are checked up front — a
        mismatched or absent server fails loudly before any work starts.
    workers:
        Worker processes to shard the miss-list across (round-robin).
    sync_every:
        Completed results a worker holds before bulk-uploading them and
        releasing their terminal events.  Smaller = fewer runs a killed
        worker's respawn re-runs (at most ``sync_every``) and earlier
        terminal events; larger = fewer round trips.
    wall_timeout:
        Per-run wall-clock budget, as :func:`~repro.sweep.iter_runs`
        takes it (``None`` / ``0`` / ``inf``: no deadline; negative or
        above ``MAX_WALL_TIMEOUT``: ``ValueError`` before any work
        starts).
    run_fn:
        Per-request run function (default: the real simulator).  Must
        be importable in a child process.
    workdir:
        Accepted and ignored: a worker keeps no store, so there is no
        directory to put one in.  ``benchmarks/e2e/child.py`` still
        passes it; it goes with ROADMAP item 3(g).
    max_restarts:
        Respawn budget for killed workers (default ``2 * workers``);
        exceeding it raises :class:`FabricWorkerError`.
    on_worker_start:
        ``callback(worker_id, pid)`` after every (re)spawn — the hook
        the kill/resume tests use to aim their signals.
    progress_timeout:
        Hung-worker watchdog: a live worker that has produced no event
        for this many seconds is SIGKILLed and respawned (within the
        same ``max_restarts`` budget) — a stuck run function or a
        deadlocked child no longer stalls the whole sweep.  None (the
        default) disables the watchdog; per-*run* timeouts are
        ``wall_timeout``'s job, this deadline is per *worker process*.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` supplying the
        ``worker`` fault surface: every event from worker *N* counts
        one ``take("worker", str(N))`` operation, and a scheduled
        ``kill`` SIGKILLs that worker mid-sweep (the respawn, which
        re-runs whatever was not uploaded, then has to earn its keep —
        chaos testing).
    """
    requests = list(requests)
    wall_timeout = _wall_budget(wall_timeout)
    if not requests:
        return
    if workers < 1:
        raise ValueError("workers must be >= 1")
    remote = RemoteStore(url)
    remote.healthz()  # fail fast if unreachable
    tagged: List[_Assigned] = []
    for index, request in enumerate(requests):
        fingerprint = fingerprint_for(request)
        tagged.append((index, request,
                       run_key(request, fingerprint=fingerprint),
                       fingerprint))
    missing = set(remote.missing([item[2] for item in tagged]))
    yield from _served_hits(remote, [item for item in tagged
                                     if item[2] not in missing])
    misses = [item for item in tagged if item[2] in missing]
    if not misses:
        return

    _heaviest_first(misses)
    workers = min(workers, len(misses))
    terminal_seen: set = set()
    for event in _worker_group(
            partial(_worker_events, url, sync_every, wall_timeout, run_fn),
            [misses[worker::workers] for worker in range(workers)],
            name="fabric worker", error=FabricWorkerError,
            max_restarts=2 * workers if max_restarts is None
            else max_restarts,
            on_worker_start=on_worker_start,
            progress_timeout=progress_timeout, fault_plan=fault_plan):
        if event.terminal:
            terminal_seen.add(event.index)
        yield event

    # Every worker reported done, yet a request may have no terminal
    # event.  Its row may still have been uploaded — serve it as a hit;
    # anything truly absent is a real loss.
    yield from _served_hits(remote, [item for item in misses
                                     if item[0] not in terminal_seen])


def run_fabric_sweep(
    requests: Sequence[RunRequest],
    url: str,
    **kwargs: Any,
) -> Dict[str, int]:
    """Run a sweep to completion against a fabric server; count outcomes.

    Convenience wrapper over :func:`iter_fabric_runs` for callers that
    only want the summary: ``{"requests", "hits", "completed",
    "failed"}``.
    """
    counts = {"requests": 0, "hits": 0, "completed": 0, "failed": 0}
    for event in iter_fabric_runs(requests, url, **kwargs):
        if not event.terminal:
            continue
        counts["requests"] += 1
        if event.kind == "hit":
            counts["hits"] += 1
        elif event.kind == "complete" and event.ok:
            counts["completed"] += 1
        elif event.kind == "complete":
            counts["completed"] += 1
            counts["failed"] += 1
        else:
            counts["failed"] += 1
    return counts
