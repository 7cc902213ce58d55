"""The remote store client: a served store as a ``StoreBackend``.

:class:`RemoteStore` implements the full
:class:`~repro.store.backend.StoreBackend` contract over the fabric
wire protocol (see :mod:`repro.fabric.server`), so everything above the
backend — ``RunCache``, the executor's ``store=`` argument,
``merge_into``, ``repro store``/``repro report --from-store`` — works
unchanged against ``http://host:port``.  :func:`~repro.store.backend.
open_store` recognises URLs, so the usual entry points need no new
spelling::

    store = open_store("http://lab-server:8737")
    run_experiment(spec, jobs=4, store=store)

The contract's batched calls carry the fabric, one round trip per
:data:`~repro.store.backend.BATCH_SIZE` keys or rows:

* :meth:`RemoteStore.prefetch` — a sweep's lookup window in one ``POST
  /fetch``, so the window's :meth:`~RemoteStore.row` lookups make no
  round trip of their own;
* :meth:`RemoteStore.missing` — ``POST /missing`` maps a key list to
  the subset the server lacks (``merge_into``'s probe);
* :meth:`RemoteStore.upload_rows` / :meth:`RemoteStore.fetch` — bulk
  JSONL transfer in the store-sync dialect (:mod:`repro.store.rows`),
  preserving per-row ``created`` stamps (a plain ``put_many``
  restamps).

The bulk downloads — :meth:`RemoteStore.items` and
:meth:`RemoteStore.fetch` — arrive as chunked bodies and are decoded a
line at a time as the chunks come in: ``items()`` hands each row on
before the next is read, so a report over a served store holds one
chunk and one row, not the whole store.

Failure handling is deliberately loud and actionable:

* an unreachable server raises :class:`FabricConnectionError` naming
  the URL and how to start a server there — on the write path too: the
  client keeps no rows back.  It is the store's
  :class:`~repro.store.backend.TransientStoreError`, so the sweep that
  ran the rows holds them until its next write (:mod:`repro.sweep`);
* a server speaking a different ``KEY_SCHEMA_VERSION`` raises
  :class:`SchemaMismatchError` *before* any data moves — content
  addresses from different schema generations must never mix.

Transient transport errors on idempotent calls are retried with
exponential backoff (uploads are content-addressed, so a replay is
harmless) and deterministic-seeded jitter (N workers recovering from
the same server blip must not thunder-herd on the same schedule);
counter bumps are not idempotent and are never retried (a failed one
raises :class:`FabricConnectionError` and stays pending in the
``RunCache`` for its next flush).  Server-side 5xx replies and
truncated/garbled bodies count as transient too — a faulting server is
indistinguishable from a flaky network.  A streamed
download is retried only while none of its rows has been handed on:
one cut after that raises :class:`FabricConnectionError` — the caller
already holds part of the listing, and a silently shorter one would be
a wrong answer, not a slow one.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import time
import urllib.error
import urllib.request
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..core.executor import RunRecord
from ..store.backend import BATCH_SIZE, StoreBackend, TransientStoreError
from ..store.keys import (
    KEY_SCHEMA_VERSION,
    record_from_dict,
    record_to_dict,
)
from ..store.rows import Row, decode_row, decode_rows, encode_row, labelled

#: Most bytes one read of a streamed reply takes off the socket.
_READ_SIZE = 64 * 1024


class FabricError(RuntimeError):
    """Base class for fabric transport failures."""


class FabricConnectionError(FabricError, TransientStoreError):
    """The fabric server could not be reached (or dropped mid-call)."""


class SchemaMismatchError(FabricError):
    """Client and server disagree on ``KEY_SCHEMA_VERSION``."""


def _chunked(items: List[Any], size: int) -> Iterator[List[Any]]:
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _whole(reply: Any) -> Iterator[bytes]:
    """A ``Content-Length`` reply's body in one piece (a short one
    raises ``http.client.IncompleteRead``)."""
    yield reply.read()


def _lines(reply: Any) -> Iterator[bytes]:
    """A chunked reply's lines as its chunks arrive (a body cut before
    its terminating chunk raises ``http.client.IncompleteRead``)."""
    tail = b""
    while True:
        piece = reply.read1(_READ_SIZE)
        if not piece:
            break
        lines = (tail + piece).split(b"\n")
        tail = lines.pop()
        yield from lines
    if tail:
        yield tail


def _batch(reply: Any) -> Iterator[List[Row]]:
    """A chunked reply's rows, decoded a line at a time as its chunks
    arrive and passed on together once the body is complete — a cut
    batch has passed nothing on, so it is retried whole."""
    yield list(decode_rows(_lines(reply)))


class RemoteStore(StoreBackend):
    """A results store served by ``repro serve`` on another process/host."""

    kind = "http"

    def __init__(self, url: str, *, timeout: float = 30.0, retries: int = 2,
                 backoff: float = 0.25) -> None:
        if not url.startswith(("http://", "https://")):
            raise ValueError(
                f"RemoteStore needs an http(s):// URL, got {url!r}")
        self.path = url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._schema_checked = False
        #: The rows of the last :meth:`prefetch` window by key (None: the
        #: server lacked it), each answered once by :meth:`row`.
        self._window: Dict[str, Optional[Row]] = {}
        # Deterministic-seeded jitter: stable within one process (runs
        # replay), decorrelated across workers (no thundering herd).
        self._jitter = random.Random(f"repro-fabric:{os.getpid()}:{self.path}")

    # -- transport ---------------------------------------------------------
    def _request(self, method: str, path: str, body: Optional[bytes] = None,
                 *, retry: bool = True) -> bytes:
        """One HTTP round-trip's whole reply body."""
        return b"".join(self._exchange(method, path, body, _whole,
                                       retry=retry))

    def _exchange(self, method: str, path: str, body: Optional[bytes],
                  read: Callable[[Any], Iterator[Any]], *,
                  retry: bool = True) -> Iterator[Any]:
        """One HTTP round-trip, its reply passed on in the pieces
        ``read`` cuts it into; transport failures become fabric errors.

        A failed attempt is retried only while no piece has been passed
        on; a failure after one raises :class:`FabricConnectionError`.
        """
        attempts = (self.retries + 1) if retry else 1
        last: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                # Exponential backoff with seeded jitter (0.5x-1.5x):
                # workers retrying after one server blip spread out
                # instead of re-colliding in lockstep.
                time.sleep(self.backoff * (2 ** (attempt - 1))
                           * (0.5 + self._jitter.random()))
            request = urllib.request.Request(
                self.path + path, data=body, method=method,
                headers={"Content-Type": "application/json"} if body else {})
            passed = 0
            try:
                with urllib.request.urlopen(request,
                                            timeout=self.timeout) as reply:
                    for piece in read(reply):
                        passed += 1
                        yield piece
                return
            except urllib.error.HTTPError as exc:
                if exc.code >= 500:
                    last = exc  # server-side fault: transient, same as
                    continue    # a lost packet (retried if idempotent)
                # The server answered: not a transport failure.  4xx
                # surface to the caller, which maps 404s to None/False.
                raise
            except (http.client.HTTPException, OSError) as exc:
                # Truncated or garbled reply (IncompleteRead,
                # BadStatusLine, RemoteDisconnected), refused or reset
                # connection: transient — until part of it was passed on.
                if passed:
                    raise FabricConnectionError(
                        f"the fabric store server at {self.path} broke off "
                        f"its reply to {method} {path} after {passed} "
                        f"row(s) had been handed on ({exc!r}); the listing "
                        f"is incomplete, so the call failed instead of "
                        f"ending it short — retry it") from exc
                last = exc
        if isinstance(last, urllib.error.HTTPError):
            raise FabricConnectionError(
                f"the fabric store server at {self.path} keeps failing "
                f"(HTTP {last.code} after {attempts} attempt(s)); check its "
                f"logs, or re-serve the store with 'repro serve'")
        reason = getattr(last, "reason", last)
        raise FabricConnectionError(
            f"cannot reach the fabric store server at {self.path} "
            f"({reason}); start one with "
            f"'repro serve --store PATH --port {_port_of(self.path)}' "
            f"on that host, or check the URL")

    def _json(self, method: str, path: str,
              payload: Optional[Dict[str, Any]] = None, *,
              retry: bool = True) -> Dict[str, Any]:
        body = (json.dumps(payload).encode()
                if payload is not None else None)
        return json.loads(self._request(method, path, body,
                                        retry=retry).decode())

    def _ensure_schema(self) -> None:
        """One-time handshake: refuse to mix key-schema generations."""
        if self._schema_checked:
            return
        info = self.healthz()
        theirs = info.get("key_schema_version")
        if theirs != KEY_SCHEMA_VERSION:
            raise SchemaMismatchError(
                f"the fabric server at {self.path} speaks key schema "
                f"v{theirs} but this client speaks v{KEY_SCHEMA_VERSION}; "
                f"run keys from different schema generations never match, "
                f"so syncing would only exchange dead rows — upgrade the "
                f"older side (or re-serve the store with matching code)")
        self._schema_checked = True

    # -- fabric extras -----------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """The server's liveness/handshake document (no schema gate)."""
        return self._json("GET", "/healthz")

    def missing(self, keys: Iterable[str]) -> List[str]:
        """The subset of ``keys`` the *server* lacks, in one batched call
        per :data:`BATCH_SIZE` keys (``merge_into``'s probe)."""
        self._ensure_schema()
        out: List[str] = []
        for chunk in _chunked(list(keys), BATCH_SIZE):
            out.extend(self._json("POST", "/missing",
                                  {"keys": chunk})["missing"])
        return out

    def fsck(self, *, repair: bool = False) -> Dict[str, Any]:
        """The served store's :class:`~repro.store.fsck.FsckReport`
        fields: ``POST /fsck`` runs the check (and with ``repair`` the
        quarantine) on the server, which owns the files, under its store
        lock.  A repair is not retried: a replay would report the
        already-repaired store."""
        self._ensure_schema()
        return self._json("POST", "/fsck", {"repair": repair},
                          retry=not repair)

    def prefetch(self, keys: Iterable[str]) -> None:
        """One ``POST /fetch`` for a sweep's lookup window: :meth:`row`
        then answers each of ``keys`` once from the reply, with no round
        trip of its own.  An empty window just forgets the last one."""
        window: Dict[str, Optional[Row]] = dict.fromkeys(keys)
        if window:
            window.update((row[0], row) for row in self.fetch(window))
        self._window = window

    def fetch(self, keys: Iterable[str]) -> List[Row]:
        """Bulk download: full rows for the present subset of ``keys``,
        one ``POST /fetch`` per :data:`BATCH_SIZE` keys, each reply
        decoded a line at a time as it arrives (a reply cut short is
        retried whole: nothing of it has reached the caller)."""
        self._ensure_schema()
        rows: List[Row] = []
        for chunk in _chunked(list(keys), BATCH_SIZE):
            body = json.dumps({"keys": chunk}).encode()
            for batch in self._exchange("POST", "/fetch", body, _batch):
                rows.extend(batch)
        return rows

    def upload_rows(self, rows: Iterable[Row]) -> int:
        """Bulk upload rows in the sync dialect, preserving ``created``.

        Content-addressed rows make replays harmless, so transport
        retries (with backoff) are safe here — this is the write path
        fabric workers sync through.
        """
        self._ensure_schema()
        uploaded = 0
        for chunk in _chunked(list(rows), BATCH_SIZE):
            body = "".join(encode_row(*row) for row in chunk).encode()
            reply = json.loads(self._request("POST", "/records",
                                             body).decode())
            uploaded += int(reply.get("imported", len(chunk)))
        return uploaded

    # -- core map operations ----------------------------------------------
    def get(self, key: str) -> Optional[RunRecord]:
        row = self.row(key)
        return None if row is None else record_from_dict(row[3])

    def put(self, key: str, record: RunRecord, *, fingerprint: str = "",
            created: Optional[float] = None) -> None:
        self.upload_rows([(key, created, fingerprint, record_to_dict(record))])

    def __contains__(self, key: str) -> bool:
        return not self.missing([key])

    def __len__(self) -> int:
        self._ensure_schema()
        return int(self._json("GET", "/stats")["runs"])

    def keys(self) -> List[str]:
        self._ensure_schema()
        return list(self._json("GET", "/keys")["keys"])

    def rows(self) -> Iterator[Tuple[str, float, str, str]]:
        return labelled(self.items())

    def items(self) -> Iterator[Row]:
        """Every row, oldest first, each decoded as its line arrives."""
        self._ensure_schema()
        yield from decode_rows(self._exchange("GET", "/records", None, _lines))

    def row(self, key: str) -> Optional[Row]:
        """The answer the last :meth:`prefetch` holds for ``key``, else
        one ``GET /records/<key>`` (404 → None), never a store scan."""
        if key in self._window:
            return self._window.pop(key)
        self._ensure_schema()
        try:
            body = self._request("GET", f"/records/{key}")
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                return None
            raise
        return decode_row(body)[0]

    def delete(self, key: str) -> bool:
        self._ensure_schema()
        try:
            reply = json.loads(
                self._request("DELETE", f"/records/{key}").decode())
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                return False
            raise
        return bool(reply.get("deleted"))

    # -- maintenance -------------------------------------------------------
    def gc(self, older_than_seconds: float, now: Optional[float] = None,
           *, dry_run: bool = False) -> int:
        self._ensure_schema()
        return int(self._json("POST", "/gc", {
            "older_than_seconds": older_than_seconds,
            "now": now, "dry_run": dry_run})["dropped"])

    def fingerprints(self) -> Dict[str, int]:
        self._ensure_schema()
        return dict(self._json("GET", "/stats")["fingerprints"])

    # -- persistent counters ----------------------------------------------
    def bump_counter(self, name: str, delta: int = 1) -> None:
        self._ensure_schema()
        # Not idempotent: a replayed bump double-counts, so no retry.
        self._json("POST", "/counters", {"name": name, "delta": delta},
                   retry=False)

    def counters(self) -> Dict[str, int]:
        self._ensure_schema()
        return {name: int(value) for name, value in
                self._json("GET", "/counters")["counters"].items()}

    def close(self) -> None:
        pass  # connections are per-request; nothing is held open


def _port_of(url: str) -> str:
    from urllib.parse import urlsplit

    return str(urlsplit(url).port or 80)
