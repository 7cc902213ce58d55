"""Spans recorded from outside ``repro``: the benchmark's own wrappers.

A span is ``{id, parent, name, start, end, pid}`` (plus a few counts);
times are ``time.perf_counter()`` readings, which on Linux share one
monotonic clock across processes.  The repetition's own process keeps
its spans in memory; run-function spans — which also happen in pool and
fabric workers — are appended to ``spans-<pid>.jsonl`` in a spill
directory and merged by the parent when the repetition ends.

A layer's *self time* is its span minus the child spans recorded on the
same thread of the same process.  Worker and server-thread spans run
concurrently with the main thread, so they are reported as busy time
beside the table, never subtracted from it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple

from repro.core.executor import RunRecord, RunRequest
from repro.store import RunCache, StoreBackend

Span = Dict[str, Any]

#: The root span: first request submitted -> report text in hand.
WALL = "bench.wall"


class Tracer:
    """In-memory span recorder with one parent stack per thread."""

    def __init__(self, spill_dir: Path) -> None:
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **counts: Any) -> Span:
        stack = self._stack()
        span: Span = {
            "id": f"{self.pid}-{next(self._ids)}",
            "parent": stack[-1]["id"] if stack else None,
            "name": name, "start": time.perf_counter(), "end": None,
            "pid": self.pid, **counts,
        }
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """``begin`` / ``end`` as a ``with`` block, for the coarse spans."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def collect(self) -> List[Span]:
        """Every finished span: this process's plus the spilled ones."""
        merged = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                merged.extend(json.loads(line) for line in handle if line.strip())
        merged.sort(key=lambda span: span["start"])
        return merged


#: Open spill files of *this* process, keyed by (pid, directory): a forked
#: worker inherits the dict but never its parent's key.
_SPILL_HANDLES: Dict[Tuple[int, str], IO[str]] = {}
_SPILL_IDS = itertools.count()


def spill_span(spill_dir: str, parent: Optional[str], name: str,
               start: float, end: float, **counts: Any) -> None:
    """Append one span to this process's spill file (line-buffered: pool
    and fabric workers exit without running any hook of ours)."""
    pid = os.getpid()
    handle = _SPILL_HANDLES.get((pid, spill_dir))
    if handle is None:
        handle = open(Path(spill_dir) / f"spans-{pid}.jsonl", "a", buffering=1)
        _SPILL_HANDLES[(pid, spill_dir)] = handle
    handle.write(json.dumps({
        "id": f"{pid}-r{next(_SPILL_IDS)}", "parent": parent, "name": name,
        "start": start, "end": end, "pid": pid, **counts}) + "\n")


def close_spill_files() -> None:
    for handle in _SPILL_HANDLES.values():
        handle.close()
    _SPILL_HANDLES.clear()


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: List[Span], root_pid: int
               ) -> Dict[str, Tuple[float, int]]:
    """``name -> (self seconds, span count)`` over the main thread's tree.

    The tree is what hangs off the ``bench.wall`` root inside
    ``root_pid``; its self-times sum to the root's duration exactly, so
    the root's own self time is the unattributed remainder.
    """
    children: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        if span["pid"] == root_pid:
            children.setdefault(span["parent"], []).append(span)
    roots = [span for span in children.get(None, ()) if span["name"] == WALL]
    if len(roots) != 1:
        raise ValueError(f"expected one {WALL} span, found {len(roots)}")
    totals: Dict[str, Tuple[float, int]] = {}
    pending = roots
    while pending:
        span = pending.pop()
        kids = children.get(span["id"], [])
        own = (span["end"] - span["start"]
               - sum(kid["end"] - kid["start"] for kid in kids))
        seconds, count = totals.get(span["name"], (0.0, 0))
        totals[span["name"]] = (seconds + own, count + 1)
        pending.extend(kids)
    return totals


def busy(spans: List[Span], name: str) -> Tuple[float, int]:
    """Inclusive seconds and count of every span called ``name``, in any
    process or thread."""
    chosen = [span for span in spans if span["name"] == name]
    return sum(s["end"] - s["start"] for s in chosen), len(chosen)


def render_self_table(totals: Dict[str, Tuple[float, int]]) -> str:
    wall = sum(seconds for seconds, _ in totals.values())
    lines = [f"{'layer (main thread)':<28}{'self s':>10}{'share':>9}{'spans':>9}"]
    for name, (seconds, count) in sorted(totals.items(),
                                         key=lambda item: -item[1][0]):
        label = "(unattributed)" if name == WALL else name
        lines.append(f"{label:<28}{seconds:>10.4f}{seconds / wall:>9.1%}"
                     f"{count:>9}")
    lines.append(f"{'= traced wall':<28}{wall:>10.4f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
class TracedStore(StoreBackend):
    """A delegating backend that records a span per store operation.

    ``kind`` and ``path`` mirror the inner store, so pool workers — which
    reopen the store by ``(path, kind)`` — write the real backend
    directly; their appends are therefore *not* in these spans.
    """

    def __init__(self, inner: StoreBackend, tracer: Tracer,
                 layer: str = "store.shards") -> None:
        self.inner = inner
        self.kind = inner.kind
        self.path = inner.path
        self._tracer = tracer
        self._layer = layer

    def _timed(self, op: str, call: Any, *args: Any, rows: int = 1,
               **kwargs: Any) -> Any:
        span = self._tracer.begin(f"{self._layer}.{op}", rows=rows)
        try:
            return call(*args, **kwargs)
        finally:
            self._tracer.end(span)

    def get(self, key: str) -> Optional[RunRecord]:
        return self._timed("get", self.inner.get, key)

    def put(self, key: str, record: RunRecord, *, fingerprint: str = "",
            created: Optional[float] = None) -> None:
        self._timed("put", self.inner.put, key, record,
                    fingerprint=fingerprint, created=created)

    def put_many(self, entries: List[Tuple[str, RunRecord, str]], *,
                 created: Optional[float] = None) -> int:
        return self._timed("put", self.inner.put_many, entries,
                           rows=len(entries), created=created)

    def __contains__(self, key: str) -> bool:
        return self._timed("get", self.inner.__contains__, key)

    def items(self) -> Iterator[Tuple[str, float, str, Dict[str, Any]]]:
        # The inner iterator is lazy; draining it inside the span is the
        # only way to time the scan from outside.
        rows = self._timed("scan", lambda: list(self.inner.items()), rows=0)
        return iter(rows)

    def row(self, key: str) -> Optional[Tuple[str, float, str,
                                              Dict[str, Any]]]:
        return self._timed("get", self.inner.row, key)

    def bump_counter(self, name: str, delta: int = 1) -> None:
        self._timed("counter", self.inner.bump_counter, name, delta, rows=0)

    # -- plain delegation ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.inner)

    def keys(self) -> List[str]:
        return self.inner.keys()

    def rows(self) -> Iterator[Tuple[str, float, str, str]]:
        return self.inner.rows()

    def delete(self, key: str) -> bool:
        return self.inner.delete(key)

    def gc(self, older_than_seconds: float, now: Optional[float] = None,
           *, dry_run: bool = False) -> int:
        return self.inner.gc(older_than_seconds, now, dry_run=dry_run)

    def fingerprints(self) -> Dict[str, int]:
        return self.inner.fingerprints()

    def counters(self) -> Dict[str, int]:
        return self.inner.counters()

    def close(self) -> None:
        self.inner.close()


class TracedCache(RunCache):
    """A :class:`RunCache` whose probes and write-backs are spans."""

    def __init__(self, store: StoreBackend, tracer: Tracer) -> None:
        super().__init__(store)
        self._tracer = tracer

    def lookup_with_key(self, request: RunRequest
                        ) -> Tuple[str, str, Optional[RunRecord]]:
        span = self._tracer.begin("store.cache.lookup")
        try:
            return super().lookup_with_key(request)
        finally:
            self._tracer.end(span)

    def offer(self, record: RunRecord) -> bool:
        span = self._tracer.begin("store.cache.offer")
        try:
            return super().offer(record)
        finally:
            self._tracer.end(span)

    def offer_many(self, records: Any) -> int:
        span = self._tracer.begin("store.cache.offer")
        try:
            return super().offer_many(records)
        finally:
            self._tracer.end(span)
