"""The caching policy: which records are reusable, and the hit/miss ledger.

:class:`RunCache` sits between the executor and a
:class:`~repro.store.backend.StoreBackend` (a shard directory or a served one —
see :func:`~repro.store.backend.open_store`).  It decides what may be
served from the store (anything whose key matches — the key already
encodes configuration, seed *and* the fingerprint of the code the run
executes, so a hit is definitionally fresh) and
what may be written back:

* successful records — always;
* ``"incomplete"`` failures — the simulated-time cap is deterministic,
  so re-running an incomplete cell reproduces the same failure; caching
  it makes resumed sweeps skip known-hopeless cells too;
* ``"timeout"`` / ``"error"`` failures — never.  Wall-clock budgets and
  transient exceptions depend on the host, not the request, so a rerun
  may well succeed.

Cache hits are returned with ``record.cached = True`` and counted in
:attr:`RunCache.hits`; both the per-session counters and the store's
persistent lifetime counters feed ``repro store stats``.

The session counters are exact at every instant.  The *persistent*
ones are coalesced: bumps accumulate in memory and land as one
``bump_counter(name, delta)`` per counter every
:data:`COUNTER_FLUSH_EVERY` bumps, at the end of a sweep's lookup phase
and — via :meth:`RunCache.end_sweep`, which the executor calls in a
``finally`` — when a sweep completes or its event stream is closed.
:meth:`RunCache.lookup` and :meth:`RunCache.describe_session` flush
themselves.  A killed process, or a served store that is down when a
sweep ends, can therefore lose a few unflushed *statistics*, never a
record.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from ..core.executor import RunRecord, RunRequest
from .backend import StoreBackend, TransientStoreError, open_store
from .keys import fingerprint_for, record_from_dict, run_key

#: What the executor's ``store=`` argument accepts.
StoreLike = Union["RunCache", StoreBackend, str, Path]

#: Pending counter bumps that force a flush to the store.
COUNTER_FLUSH_EVERY = 256


class RunCache:
    """A cache-policy wrapper around one :class:`StoreBackend`."""

    def __init__(self, store: Union[StoreBackend, str, Path, None] = None,
                 *, fingerprint: Optional[str] = None) -> None:
        self.store = open_store(store)
        #: A pinned fingerprint overriding the current code's — for
        #: tests and cross-machine stores that pin a release.  None (the
        #: default) derives it per request (:func:`fingerprint_for`).
        self.fingerprint = fingerprint
        #: Session counters (this process, this cache instance).
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Counter deltas not yet landed in the store (see :meth:`flush`).
        self._unflushed: Dict[str, int] = {}
        #: ``id(request) -> (request, key, fingerprint)`` of every request
        #: keyed here and not yet served or offered, so neither its lookup
        #: nor the write-back of that very object hashes it again.  The
        #: strong reference keeps the id from being reused.
        self._keyed: Dict[int, Tuple[RunRequest, str, str]] = {}

    @classmethod
    def of(cls, store: Optional[StoreLike]) -> Optional["RunCache"]:
        """Coerce the executor's ``store=`` argument; None stays None."""
        if store is None or isinstance(store, RunCache):
            return store
        return cls(store)

    # ------------------------------------------------------------------
    def fingerprint_of(self, request: RunRequest) -> str:
        """The code fingerprint entering this request's key."""
        if self.fingerprint is not None:
            return self.fingerprint
        return fingerprint_for(request)

    def prefetch(self, requests: Iterable[RunRequest]) -> None:
        """Key a window of requests once and hand their keys to the
        store's :meth:`~repro.store.backend.StoreBackend.prefetch`, so
        the :meth:`lookup_with_key` of each hashes nothing — and, over a
        served store, makes no round trip of its own."""
        keys = []
        for request in requests:
            fingerprint = self.fingerprint_of(request)
            key = run_key(request, fingerprint=fingerprint)
            self._keyed[id(request)] = (request, key, fingerprint)
            keys.append(key)
        self.store.prefetch(keys)

    def lookup_with_key(self, request: RunRequest
                        ) -> Tuple[str, str, Optional[RunRecord]]:
        """``(key, fingerprint, hit-or-None)`` for one store probe.

        The streaming executor uses this form: a miss keeps its key and
        fingerprint (computed here or by :meth:`prefetch`), so the
        write-back of that very request object recomputes neither.  A
        hit is the stored outcome on the caller's own ``request`` object
        — the key is its content address, so the stored request dict is
        not rebuilt — exactly as a miss's record carries it.
        """
        keyed = self._keyed.get(id(request))
        if keyed is None:
            fingerprint = self.fingerprint_of(request)
            keyed = self._keyed[id(request)] = (
                request, run_key(request, fingerprint=fingerprint),
                fingerprint)
        _, key, fingerprint = keyed
        row = self.store.row(key)
        if row is None:
            self.misses += 1
            self._bump("misses")
            return key, fingerprint, None
        del self._keyed[id(request)]
        record = record_from_dict(row[3], request=request)
        self.hits += 1
        self._bump("hits")
        record.cached = True
        return key, fingerprint, record

    def lookup(self, request: RunRequest) -> Optional[RunRecord]:
        """A fresh hit for ``request``, or None (counted either way).

        The one-shot form: the persistent counters are flushed before
        it returns and no key is held for a later :meth:`offer`.
        """
        hit = self.lookup_with_key(request)[2]
        self._keyed.pop(id(request), None)
        self.flush()
        return hit

    @staticmethod
    def cacheable(record: RunRecord) -> bool:
        if record.cached:
            return False  # already in the store; don't churn timestamps
        return record.failure is None or record.failure.kind == "incomplete"

    def offer(self, record: RunRecord) -> bool:
        """Write a freshly computed record back, if the policy allows."""
        return self.offer_many((record,)) == 1

    def offer_many(self, records: Iterable[RunRecord]) -> int:
        """Write back every record the policy allows, in one backend
        write; returns how many were written."""
        batch = []
        for record in records:
            if self.cacheable(record):
                key, fingerprint = self._address(record.request)
                batch.append((key, record, fingerprint))
        count = len(batch)
        if count:
            self.store.put_many(batch)
            self.writes += count
            self._bump("writes", count)
        return count

    def _address(self, request: RunRequest) -> Tuple[str, str]:
        """``(key, fingerprint)`` for a write-back, which ends the hold
        (a record whose ``request`` is a copy is hashed afresh)."""
        keyed = self._keyed.pop(id(request), None)
        if keyed is None:
            fingerprint = self.fingerprint_of(request)
            return run_key(request, fingerprint=fingerprint), fingerprint
        return keyed[1], keyed[2]

    # ------------------------------------------------------------------
    def _bump(self, name: str, delta: int = 1) -> None:
        self._unflushed[name] = self._unflushed.get(name, 0) + delta
        if sum(self._unflushed.values()) >= COUNTER_FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        """Land the pending counter deltas: one store bump per counter
        (a delta whose bump raised stays pending for the next flush).  A
        :class:`~repro.store.backend.TransientStoreError` is not raised:
        a sweep that holds its rows through an outage must not die of
        its statistics."""
        for name in list(self._unflushed):
            try:
                self.store.bump_counter(name, self._unflushed[name])
            except TransientStoreError:
                return
            del self._unflushed[name]

    def end_sweep(self) -> None:
        """A sweep over this cache finished or was abandoned: flush the
        counters and drop the keys and prefetched rows nobody used (pool
        workers write theirs through caches of their own)."""
        self._keyed.clear()
        self.store.prefetch(())
        self.flush()

    # ------------------------------------------------------------------
    @property
    def session_stats(self) -> Tuple[int, int, int]:
        """(hits, misses, writes) for this cache instance."""
        return self.hits, self.misses, self.writes

    def describe_session(self) -> str:
        self.flush()
        total = self.hits + self.misses
        rate = (100.0 * self.hits / total) if total else 0.0
        return (f"cache: {self.hits}/{total} hits ({rate:.0f}%), "
                f"{self.writes} new results stored in {self.store.path}")
