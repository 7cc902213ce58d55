"""The HTTP store server: any local store, served to the fabric.

:class:`StoreServer` wraps a :class:`~repro.store.backend.StoreBackend`
in a stdlib :class:`~http.server.ThreadingHTTPServer` — zero third-party
dependencies — speaking the content-addressed key protocol:

==========================  ============================================
``GET  /healthz``           liveness + ``key_schema_version`` handshake
``GET  /stats``             row count, lifetime counters, fingerprints
``GET  /keys``              every stored key
``GET  /counters``          the persistent counter map
``GET  /records``           every row, streamed as JSONL (bulk download)
``GET  /records/<key>``     one row, or 404
``POST /records``           bulk upload: JSONL body -> ``upload_rows``
``POST /missing``           ``{"keys": [...]}`` -> the subset the server
                            *lacks* (the one-round-trip miss-list probe)
``POST /fetch``             ``{"keys": [...]}`` -> the present subset's
                            rows as JSONL (bulk download by key)
``POST /fsck``              ``{"repair": bool}`` -> the served store's
                            ``fsck`` report (``repro store fsck URL``)
``POST /gc``                drop rows older than a horizon
``POST /counters``          bump one persistent counter
``DELETE /records/<key>``   drop one row
==========================  ============================================

Rows travel in the store's portable JSONL dialect — ``{"key":,
"created":, "fingerprint":, "record":}`` — exactly what
``export_jsonl`` writes and ``repro store sync`` reads, so the wire
format is the sync format (:mod:`repro.store.rows` owns it).  An uploaded row is
outside input: it is decoded once — a body or record that does not
decode is a 400 — and then written as the dict it arrived as.  The two
bulk downloads (``GET /records``, ``POST /fetch``) are HTTP/1.1 chunked
bodies written as their rows are encoded, ~64 KB a chunk, so the server
holds one chunk of encoded text at a time, never the whole body; every
other reply carries a ``Content-Length``.  A download cut short — an
encoder failure after the status line went out, or the injected
``truncate`` fault — ends without the terminating zero-length chunk, so
the client sees an incomplete body, never a shorter listing.
Every handler touches the store under one server-wide lock: the
handler threads serialise on the backing store (which keeps a shard
compaction from interleaving a bulk download's read), while the sharded backend's own per-shard flocks
keep *other processes* appending to the same directory safe as ever.
The bulk downloads take their rows under that lock and encode and
write them outside it, so a client that stops reading stalls only
itself.

``repro serve`` is the CLI front-end::

    repro serve --store sweeps/ --port 8737
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterable, List, Optional, Tuple
from urllib.parse import urlsplit

from ..store.backend import StoreBackend, open_store
from ..store.fsck import fsck
from ..store.keys import KEY_SCHEMA_VERSION
from ..store.rows import decode_rows, encode_row, validated

#: Version of the fabric wire protocol itself (paths + payload shapes).
PROTOCOL_VERSION = 1
#: Default TCP port (`"QC"` on a phone keypad was taken; this is free).
DEFAULT_PORT = 8737

_JSON = "application/json"
_JSONL = "application/x-ndjson"
#: Encoded bytes a streamed body gathers before writing one chunk.
_CHUNK = 64 * 1024


class StoreRequestHandler(BaseHTTPRequestHandler):
    """One fabric request; the backing store hangs off ``self.server``."""

    server_version = f"repro-fabric/{PROTOCOL_VERSION}"
    # Chunked transfer coding is HTTP/1.1; every other reply carries a
    # Content-Length, as 1.1 keep-alive needs.
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def _reply(self, status: int, payload: bytes,
               content_type: str = _JSON) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if getattr(self, "_truncate_reply", False):
            # Injected fault: promise the full body, deliver half, hang
            # up — the client sees http.client.IncompleteRead.
            self._truncate_reply = False
            self.close_connection = True
            self.wfile.write(payload[:len(payload) // 2])
            return
        self.wfile.write(payload)

    def _stream(self, lines: Iterable[str]) -> None:
        """Send ``lines`` as a chunked JSONL body, encoding as it goes.

        De-chunked, the body is exactly ``"".join(lines)``.  Callers
        read their rows from the store under the lock before calling
        this, so a store failure still answers 500; a failure once the
        status line is out can only cut the body short.
        """
        self.send_response(200)
        self.send_header("Content-Type", _JSONL)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        pending: List[str] = []
        size = 0
        try:
            for line in lines:
                pending.append(line)
                size += len(line)
                if size >= _CHUNK:
                    if not self._chunk(pending):
                        return
                    pending, size = [], 0
            if pending and not self._chunk(pending):
                return
            self.wfile.write(b"0\r\n\r\n")
        except Exception as exc:
            # The status line is out: whatever failed (the encoder, a
            # client that went away) can only end the body unterminated,
            # which the client reads as incomplete.
            self.close_connection = True
            if not isinstance(exc, OSError):
                self.server.handle_error(self.request, self.client_address)

    def _chunk(self, lines: List[str]) -> bool:
        """Write one chunk; False when an injected ``truncate`` fault
        cut it — the chunk is promised whole, half of it arrives, and
        the connection closes."""
        data = "".join(lines).encode()
        head = b"%x\r\n" % len(data)
        if getattr(self, "_truncate_reply", False):
            self._truncate_reply = False
            self.close_connection = True
            self.wfile.write(head + data[:len(data) // 2])
            return False
        self.wfile.write(head + data + b"\r\n")
        return True

    def _json(self, status: int, payload: Dict[str, Any]) -> None:
        self._reply(status, (json.dumps(payload, sort_keys=True)
                             + "\n").encode())

    def _error(self, status: int, message: str) -> None:
        self._json(status, {"error": message})

    @property
    def store(self) -> StoreBackend:
        return self.server.store  # type: ignore[attr-defined]

    @property
    def lock(self) -> threading.Lock:
        return self.server.store_lock  # type: ignore[attr-defined]

    def _route(self) -> Tuple[str, Optional[str]]:
        """``(collection, key-or-None)`` for the request path."""
        path = urlsplit(self.path).path.rstrip("/")
        parts = [part for part in path.split("/") if part]
        if len(parts) == 1:
            return parts[0], None
        if len(parts) == 2:
            return parts[0], parts[1]
        return path or "/", None

    def _fault_gate(self) -> bool:
        """Consult the server's fault plan before handling a request.

        Returns True when the fault consumed the request (a scheduled
        5xx or a dropped connection); ``stall`` sleeps *before* the
        server-wide lock so only this request stalls, and ``truncate``
        arms :meth:`_reply` (or, for a streamed download, the first
        chunk :meth:`_chunk` writes) to cut the body short.  ``/healthz`` is
        exempt — the liveness/handshake path stays dependable so chaos
        runs can still tell "faulting" from "gone".
        """
        plan = getattr(self.server, "fault_plan", None)
        if plan is None:
            return False
        endpoint = "/" + self._route()[0]
        if endpoint == "/healthz":
            return False
        event = plan.take("http", endpoint)
        if event is None:
            return False
        kind = event.spec.kind
        if kind == "stall":
            time.sleep(event.spec.param or 0.25)
            return False
        if kind == "error_500":
            with contextlib.suppress(OSError):
                self._error(500, "injected fault: scheduled 5xx")
            return True
        if kind == "drop":
            # Vanish mid-request: no status line, no body.
            self.close_connection = True
            with contextlib.suppress(OSError):
                self.connection.shutdown(socket.SHUT_RDWR)
            return True
        if kind == "truncate":
            self._truncate_reply = True
        return False

    # -- verbs -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        if self._fault_gate():
            return
        collection, key = self._route()
        try:
            if collection == "records" and key is None:
                # The listing is read under the lock and encoded and
                # written outside it, as /fetch does: a reader that
                # stops mid-listing stalls only itself.
                with self.lock:
                    rows = list(self.store.items())
                self._stream(encode_row(*row) for row in rows)
                return
            with self.lock:
                if collection == "healthz" and key is None:
                    self._json(200, {
                        "ok": True,
                        "protocol_version": PROTOCOL_VERSION,
                        "key_schema_version": KEY_SCHEMA_VERSION,
                        "kind": self.store.kind,
                        "runs": len(self.store),
                    })
                elif collection == "stats" and key is None:
                    self._json(200, {
                        "kind": self.store.kind,
                        "path": self.store.path,
                        "runs": len(self.store),
                        "counters": self.store.counters(),
                        "fingerprints": self.store.fingerprints(),
                        "key_schema_version": KEY_SCHEMA_VERSION,
                    })
                elif collection == "keys" and key is None:
                    self._json(200, {"keys": self.store.keys()})
                elif collection == "counters" and key is None:
                    self._json(200, {"counters": self.store.counters()})
                elif collection == "records":
                    # row() keeps the created/fingerprint envelope the
                    # sync dialect carries; get() alone would lose it.
                    row = self.store.row(key)
                    if row is None:
                        self._error(404, f"no record for key {key!r}")
                    else:
                        self._reply(200, encode_row(*row).encode(), _JSON)
                else:
                    self._error(404, f"unknown path {self.path!r}")
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except OSError as exc:
            # A failing backing store (disk trouble, injected faults)
            # is the server's problem, reported as such — the client
            # retries idempotent calls on 5xx.
            with contextlib.suppress(OSError):
                self._error(500, f"store failure: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        if self._fault_gate():
            return
        collection, key = self._route()
        body = self._body()
        try:
            if collection == "missing" and key is None:
                keys = json.loads(body.decode())["keys"]
                with self.lock:
                    missing = self.store.missing(keys)
                self._json(200, {"missing": missing})
            elif collection == "fetch" and key is None:
                # One point lookup per distinct key, not a sorted scan of
                # the whole store per batch; the rows found still go out
                # oldest first, as items() would list them.
                wanted = dict.fromkeys(
                    name for name in json.loads(body.decode())["keys"]
                    if isinstance(name, str))
                with self.lock:
                    found = [row for row in map(self.store.row, wanted)
                             if row is not None]
                found.sort(key=lambda row: (row[1], row[0]))
                self._stream(encode_row(*row) for row in found)
            elif collection == "fsck" and key is None:
                repair = bool(json.loads(body.decode())["repair"])
                with self.lock:
                    report = fsck(self.store, repair=repair)
                self._json(200, dataclasses.asdict(report))
            elif collection == "records" and key is None:
                rows = list(validated(decode_rows(body.splitlines())))
                with self.lock:
                    imported = self.store.upload_rows(rows)
                self._json(200, {"imported": imported})
            elif collection == "gc" and key is None:
                spec = json.loads(body.decode())
                with self.lock:
                    dropped = self.store.gc(
                        float(spec["older_than_seconds"]),
                        now=spec.get("now"),
                        dry_run=bool(spec.get("dry_run", False)))
                self._json(200, {"dropped": dropped})
            elif collection == "counters" and key is None:
                spec = json.loads(body.decode())
                with self.lock:
                    self.store.bump_counter(spec["name"],
                                            int(spec.get("delta", 1)))
                self._json(200, {"ok": True})
            else:
                self._error(404, f"unknown path {self.path!r}")
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            self._error(400, f"malformed request body: {exc}")
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except OSError as exc:
            with contextlib.suppress(OSError):
                self._error(500, f"store failure: {exc}")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server contract
        if self._fault_gate():
            return
        collection, key = self._route()
        if collection != "records" or key is None:
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            with self.lock:
                deleted = self.store.delete(key)
            self._json(200 if deleted else 404, {"deleted": deleted})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except OSError as exc:
            with contextlib.suppress(OSError):
                self._error(500, f"store failure: {exc}")


class StoreServer:
    """A fabric server bound to one backing store.

    Blocking use (``repro serve``)::

        StoreServer("sweeps/", port=8737).serve_forever()

    Background use (tests, in-process fabrics)::

        with StoreServer(store, port=0) as server:
            RemoteStore(server.url).put(...)

    ``port=0`` binds an ephemeral port; read it back from :attr:`url`.
    """

    def __init__(self, store: Any, *, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT, verbose: bool = False,
                 fault_plan: Optional[Any] = None) -> None:
        self.store = open_store(store)
        #: Optional :class:`repro.faults.FaultPlan` driving the HTTP
        #: fault hook (chaos testing); None serves faithfully.
        self.fault_plan = fault_plan
        self._httpd = ThreadingHTTPServer((host, port), StoreRequestHandler)
        self._httpd.store = self.store  # type: ignore[attr-defined]
        self._httpd.store_lock = threading.Lock()  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.fault_plan = fault_plan  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self._httpd.server_close()

    def start(self) -> str:
        """Serve on a daemon thread; returns the server URL."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name="repro-fabric-server",
                daemon=True)
            self._thread.start()
        return self.url

    def shutdown(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=10.0)
            self._thread = None
        self._httpd.server_close()
        self.store.close()

    def __enter__(self) -> "StoreServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
