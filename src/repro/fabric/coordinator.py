"""The work-sharing coordinator: one sweep, N processes, one store.

:func:`iter_fabric_runs` turns a sweep's ``RunRequest`` list into a
distributed, resumable job queue over a fabric store server:

1. every request is content-addressed (:func:`~repro.store.keys.run_key`
   over the canonical request plus the code fingerprint);
2. **one** batched ``POST /missing`` call maps the whole key list to the
   miss-list — everything else is served as ``hit`` events, in sweep
   order, from bulk ``POST /fetch`` calls one ``BATCH_SIZE`` batch at a
   time (the coordinator never holds more than one batch of rows);
3. the misses are sharded round-robin across N worker processes — the
   sweep engine's own worker group, the one ``iter_runs(jobs=N)`` uses —
   each executing through the ordinary
   :func:`~repro.sweep.iter_runs` into a *private local shard
   store* and bulk-uploading completed rows to the server every
   ``sync_every`` results (with the client's retry/backoff underneath;
   a down server just defers the batch to the next sync);
4. the workers' typed :class:`~repro.sweep.RunEvent` streams are
   re-indexed to sweep order, merged, and yielded to the caller —
   exactly one terminal event per request, same contract as
   ``iter_runs``.

Crash safety falls out of content addressing.  A worker's local shard
store is its write-ahead log: a killed worker is respawned over the
*same* local directory with its unfinished assignment, so anything it
executed-but-had-not-uploaded replays as instant local hits and still
reaches the server; anything it never ran simply runs.  Killing the
whole coordinator loses nothing either — a rerun's ``/missing`` probe
shrinks to the absent cells.  Nothing is ever lost, re-measured, or
double-counted.

``repro worker`` is the CLI front-end::

    repro worker --file grid.json --url http://lab-server:8737 --workers 8
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import replace
from functools import partial
from pathlib import Path
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

from ..core.executor import RunFn, RunRequest
from ..store.keys import fingerprint_for, record_from_dict, run_key
from ..sweep import RunEvent, _terminal_event, _worker_group, iter_runs
from .client import BATCH_SIZE, FabricConnectionError, RemoteStore

#: Completed results a worker accumulates before bulk-uploading.
DEFAULT_SYNC_EVERY = 32
#: Attempts a worker makes to flush its final batch before giving up
#: (each attempt already carries the client's own transport retries).
_FLUSH_ATTEMPTS = 4


class FabricWorkerError(RuntimeError):
    """A fabric worker failed unrecoverably (or too many were lost)."""


#: One sharded unit of work: ``(sweep index, request)``.
_Assigned = Tuple[int, RunRequest]


def _served_hits(remote: RemoteStore,
                 tagged: Sequence[Tuple[int, RunRequest, str]]
                 ) -> Iterator[RunEvent]:
    """A ``hit`` event per ``(index, request, key)``, in the order given,
    from one ``POST /fetch`` per :data:`BATCH_SIZE` keys: at most one
    batch of fetched rows is held at a time.  A key the server does not
    hold is a lost result."""
    for start in range(0, len(tagged), BATCH_SIZE):
        batch = tagged[start:start + BATCH_SIZE]
        rows = {row[0]: row[3]
                for row in remote.fetch([key for _, _, key in batch])}
        for index, request, key in batch:
            if key not in rows:
                raise FabricWorkerError(
                    f"no terminal event and no stored record for request "
                    f"{index} ({request.label}) on the server; the sweep "
                    f"is incomplete")
            record = record_from_dict(rows[key], request=request)
            record.cached = True
            yield _terminal_event("hit", index, request, key, record,
                                  stored=True)


def _sync_new_rows(local: Any, remote: RemoteStore,
                   uploaded: set) -> int:
    """Upload every local row the server hasn't been sent yet."""
    rows = [row for row in local.items() if row[0] not in uploaded]
    if not rows:
        return 0
    count = remote.upload_rows(rows)
    uploaded.update(row[0] for row in rows)
    return count


def _worker_events(url: str, base: Path, sync_every: int,
                   wall_timeout: Optional[float], run_fn: Optional[RunFn],
                   worker_id: int, assignment: Sequence[_Assigned]
                   ) -> Iterator[RunEvent]:
    """One fabric worker's body: execute a shard, sync, stream events.

    The local shard store doubles as the write-ahead log — rows land
    there first (via the executor's ordinary store write-back) and are
    bulk-uploaded in batches.  A sync that cannot reach the server is
    simply deferred; only the *final* flush escalates to a failure,
    because exiting with unsent rows would stall the sweep until a
    respawn replays them.
    """
    from ..store.shards import ShardStore

    remote = RemoteStore(url)
    uploaded: set = set()
    local = ShardStore(base / f"worker-{worker_id}")
    try:
        requests = [request for _, request in assignment]
        indices = [index for index, _ in assignment]
        since_sync = 0
        for event in iter_runs(requests, jobs=1, wall_timeout=wall_timeout,
                               run_fn=run_fn, store=local):
            yield replace(event, index=indices[event.index])
            if event.terminal:
                since_sync += 1
                if since_sync >= sync_every:
                    since_sync = 0
                    try:
                        _sync_new_rows(local, remote, uploaded)
                    except FabricConnectionError:
                        pass  # deferred: rows stay local, next sync retries
        for attempt in range(_FLUSH_ATTEMPTS):
            try:
                _sync_new_rows(local, remote, uploaded)
                break
            except FabricConnectionError:
                if attempt == _FLUSH_ATTEMPTS - 1:
                    raise
                time.sleep(0.5 * (2 ** attempt))
    finally:
        local.close()


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
        Completed results a worker batches before bulk-uploading.
        Smaller = less loss-window after a crash (a respawn replays
        unsynced rows from the worker's local store anyway); larger =
        fewer round trips.
    run_fn:
        Per-request run function (default: the real simulator).  Must
        be importable in a child process.
    workdir:
        Directory for the workers' local shard stores
        (``workdir/worker-<i>``).  Defaults to a temporary directory
        cleaned up on success.  Pass an explicit one to keep the local
        write-ahead stores around (or to resume into them).
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
        ``kill`` SIGKILLs that worker mid-sweep (the respawn/replay
        machinery then has to earn its keep — chaos testing).
    """
    requests = list(requests)
    if not requests:
        return
    if workers < 1:
        raise ValueError("workers must be >= 1")
    remote = RemoteStore(url)
    remote.healthz()  # fail fast if unreachable
    tagged: List[Tuple[int, RunRequest, str]] = []
    for index, request in enumerate(requests):
        fingerprint = fingerprint_for(request)
        tagged.append((index, request,
                       run_key(request, fingerprint=fingerprint)))
    missing = set(remote.missing([key for _, _, key in tagged]))
    hits = [(index, request, key) for index, request, key in tagged
            if key not in missing]
    misses = [(index, request, key) for index, request, key in tagged
              if key in missing]
    yield from _served_hits(remote, hits)
    if not misses:
        return

    own_workdir = workdir is None
    base = Path(tempfile.mkdtemp(prefix="repro-fabric-")
                if own_workdir else workdir)
    base.mkdir(parents=True, exist_ok=True)
    workers = min(workers, len(misses))
    assignments: List[List[_Assigned]] = [
        [(index, request) for index, request, _key in misses[worker::workers]]
        for worker in range(workers)]
    terminal_seen: set = set()
    for event in _worker_group(
            partial(_worker_events, url, base, sync_every, wall_timeout,
                    run_fn),
            assignments, name="fabric worker", error=FabricWorkerError,
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
    yield from _served_hits(remote, [
        (index, request, key) for index, request, key in misses
        if index not in terminal_seen])
    if own_workdir:
        shutil.rmtree(base, ignore_errors=True)


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
