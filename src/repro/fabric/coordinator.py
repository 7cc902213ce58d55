"""The fabric's entry point: one sweep, N worker processes, one served store.

:func:`iter_fabric_runs` is a thin call of the sweep engine behind
:func:`~repro.sweep.iter_runs`, with the sweep's store at a fabric
server (``repro serve``): the same windowed lookups (one ``POST
/fetch`` per window), counters, worker group and per-miss body.  The
two entry points differ only in write batch and loss policy: a fabric
worker holds ``sync_every`` results and uploads them in one request
before their terminal events leave it; the workers always start; and a
worker lost past the restart budget raises :class:`FabricWorkerError`.
A ``wall_timeout`` is enforced the same way on both: the worker group
kills a worker silent that long and ends its run in flight as a
``timeout``.

Crash safety falls out of content addressing and fixed seeds.  A
killed worker's runs whose rows were not uploaded have no terminal
event yet, so its respawn runs them again — at most ``sync_every`` per
kill, producing the identical rows.  Killing the whole coordinator
loses at most one held batch per worker: a rerun's lookups find the
rest and run only the absent cells.

``repro worker`` is the CLI front-end::

    repro worker --file grid.json --url http://lab-server:8737 --workers 8
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, Sequence

from ..core.executor import RunFn, RunRequest
from ..sweep import RunEvent, _iter_runs, _wall_budget
from .client import RemoteStore

#: Completed results a worker accumulates before bulk-uploading.
DEFAULT_SYNC_EVERY = 32


class FabricWorkerError(RuntimeError):
    """A fabric worker failed unrecoverably (or too many were lost)."""


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
    fault_plan: Optional[Any] = None,
) -> Iterator[RunEvent]:
    """Execute a sweep against a fabric server, streaming merged events.

    The engine behind :func:`~repro.sweep.iter_runs` over the server's
    store: the same typed event stream, exactly one terminal event per
    request, and the same lookups and counters.  The misses always run
    in ``workers`` separate processes, which upload ``sync_every`` rows
    at a time; a worker lost past ``max_restarts`` raises
    :class:`FabricWorkerError` instead of finishing in-process.

    Parameters
    ----------
    url:
        The fabric server (``repro serve``).  Reachability and
        ``KEY_SCHEMA_VERSION`` agreement are checked up front — a
        mismatched or absent server fails loudly before any work starts.
    workers:
        Worker processes to shard the miss-list across (round-robin).
    sync_every:
        Completed results a worker holds (at least 1) before
        bulk-uploading them and releasing their terminal events.
        Smaller = fewer runs a killed worker's respawn re-runs (at most
        ``sync_every``) and earlier terminal events; larger = fewer
        round trips.
    wall_timeout:
        Per-run wall-clock budget, as :func:`~repro.sweep.iter_runs`
        takes it: a worker silent this long is SIGKILLed, its run in
        flight ends as one ``timeout`` (never re-run, no restart spent),
        and one with no run in flight is a lost worker.  The budget
        covers a run and the upload of its batch.
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
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` supplying the
        ``worker`` fault surface: every event from worker *N* counts
        one ``take("worker", str(N))`` operation, and a scheduled
        ``kill`` SIGKILLs that worker mid-sweep (the respawn, which
        re-runs whatever was not uploaded, then has to earn its keep —
        chaos testing).
    """
    wall_timeout = _wall_budget(wall_timeout)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if sync_every < 1:
        raise ValueError("sync_every must be >= 1")
    return _iter_runs(
        list(requests), workers, wall_timeout, run_fn, RemoteStore(url),
        keep_records=False, force_pool=True, sync_every=sync_every,
        error=FabricWorkerError, max_restarts=max_restarts,
        on_worker_start=on_worker_start, fault_plan=fault_plan)


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
