"""The persistent results store: pluggable backends behind one protocol.

A store maps :func:`~repro.store.keys.run_key` content addresses to
completed :class:`~repro.core.executor.RunRecord` rows.  The interface
is :class:`StoreBackend`; two implementations ship:

* :class:`SqliteStore` — one sqlite file.  Atomic, compact, cheap point
  lookups; writes serialise on the sqlite lock, which is fine for a
  single coordinating process.
* :class:`~repro.store.shards.ShardStore` — a directory of append-only
  JSONL shard files bucketed by key prefix.  Many processes append
  concurrently without contending on one writer lock, which is what
  paper-scale sweeps on many-core hosts need.

:func:`open_store` selects a backend by path convention (``.sqlite`` /
``.db`` file vs directory; ``http(s)://`` URLs open the fabric's
:class:`~repro.fabric.client.RemoteStore`), honours ``$REPRO_STORE``
for the default location, and takes an explicit ``backend=`` override.
Everything above the backend — :class:`~repro.store.cache.RunCache`,
the executor's ``store=`` argument, the ``repro store`` CLI group —
works identically against all of them.

A store is deliberately dumb: it never computes keys, never decides
what is cacheable, and never invalidates.  Key semantics live in
:mod:`repro.store.keys`; the caching *policy* lives in
:mod:`repro.store.cache`; how a row is spelled in a file or on the
wire, and what makes one valid, lives in :mod:`repro.store.rows`.
"""

from __future__ import annotations

import abc
import itertools
import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..core.executor import RunRecord
from .keys import record_from_dict, record_to_dict, row_check
from .rows import Row, encode_row, label_of, read_jsonl, validated

#: Environment variable naming the default store location.
STORE_ENV_VAR = "REPRO_STORE"
#: Default on-disk location when none is given (repo/cwd-local).
DEFAULT_STORE_PATH = ".repro-store.sqlite"
#: ``backend=`` values :func:`open_store` understands.
BACKENDS = ("sqlite", "shards", "http")

#: Rows per probe + upload round of :func:`merge_into`.
_SYNC_BATCH = 500

#: First bytes of every sqlite database file (format sniffing).
_SQLITE_MAGIC = b"SQLite format 3\x00"


def default_store_path() -> str:
    """Where ``--cache`` puts the store unless told otherwise."""
    return os.environ.get(STORE_ENV_VAR) or DEFAULT_STORE_PATH


def is_store_url(path: Union[str, Path]) -> bool:
    """Whether a store location names a fabric server rather than a file."""
    return str(path).startswith(("http://", "https://"))


def _kind_at(path: Union[str, Path]) -> Tuple[str, bool]:
    """The path convention, stated once: ``(kind the path holds or would
    get, whether a store exists there)``.  What exists wins over its
    name; a URL "exists" without being probed."""
    if is_store_url(path):
        return "http", True
    if str(path) == ":memory:":
        return "sqlite", False
    target = Path(path)
    if target.is_dir():
        return "shards", True
    if target.is_file():
        return "sqlite", True
    return ("sqlite" if target.suffix in (".sqlite", ".db") else "shards"), False


class StoreBackend(abc.ABC):
    """The contract every results-store backend fulfils.

    Keys are opaque strings (in practice 64-hex run keys); values are
    :class:`RunRecord` rows tagged with a creation time and the code
    fingerprint that produced them.  ``export_jsonl``/``import_jsonl``
    are implemented once here on top of :meth:`items` /
    :meth:`upload_rows`, so every backend speaks the same portable
    JSONL dialect (:mod:`repro.store.rows`).
    """

    #: Human-readable backend name ("sqlite" / "shards").
    kind: str = ""
    #: String form of the on-disk location.
    path: str = ""

    # -- core map operations ----------------------------------------------
    @abc.abstractmethod
    def get(self, key: str) -> Optional[RunRecord]:
        """The stored record for ``key``, or None."""

    @abc.abstractmethod
    def put(self, key: str, record: RunRecord, *, fingerprint: str = "",
            created: Optional[float] = None) -> None:
        """Insert or replace one row."""

    def put_many(self, entries: List[Tuple[str, RunRecord, str]], *,
                 created: Optional[float] = None) -> int:
        """Insert or replace many ``(key, record, fingerprint)`` rows.

        The batch write path (:meth:`RunCache.offer_many
        <repro.store.cache.RunCache.offer_many>`), where per-row locking
        would dominate: the records reach :meth:`upload_rows` — batched
        in the shipped backends (one transaction, or one locked append
        per shard) — as a generator, each converted to its row dict only
        as it is encoded.  ``ShardStore`` keeps those dicts as its parse
        cache's rows.
        """
        return self.upload_rows(
            (key, created, fingerprint, record_to_dict(record))
            for key, record, fingerprint in entries)

    def upload_rows(self, rows: Iterable[Row]) -> int:
        """Insert or replace rows given as dicts; returns how many.

        The write currency: whoever already holds a row dict (an HTTP
        upload, an import, a sync) writes it as it is, ``created`` stamps
        preserved (None = stamp now).  The store takes
        ownership of the dicts (``ShardStore`` keeps them as the rows its
        reads return), so do not mutate one afterwards.  The default
        rebuilds each record and loops :meth:`put`, which keeps every
        row visible to a wrapper that instruments ``put``; the shipped
        backends override it natively.
        """
        count = 0
        for key, created, fingerprint, record in rows:
            self.put(key, record_from_dict(record), fingerprint=fingerprint,
                     created=created)
            count += 1
        return count

    def missing(self, keys: Iterable[str]) -> List[str]:
        """The subset of ``keys`` this store lacks, in the order given."""
        return [key for key in keys if key not in self]

    @abc.abstractmethod
    def __contains__(self, key: str) -> bool: ...

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def keys(self) -> List[str]:
        """Every stored key, oldest row first."""

    @abc.abstractmethod
    def rows(self) -> Iterator[Tuple[str, float, str, str]]:
        """(key, created, fingerprint, label) for every row, oldest first."""

    @abc.abstractmethod
    def items(self) -> Iterator[Row]:
        """(key, created, fingerprint, record-dict), oldest row first."""

    def row(self, key: str) -> Optional[Row]:
        """One full row — ``(key, created, fingerprint, record-dict)``.

        Unlike :meth:`get` this keeps the sync-dialect envelope, which
        is what the fabric server's point lookups serve and what
        :meth:`RunCache.lookup_with_key
        <repro.store.cache.RunCache.lookup_with_key>` probes with — one
        call per request of a sweep.  The default is an O(n) scan of
        :meth:`items`: correct, and a trap on that path, so every
        shipped backend and wrapper overrides it with an indexed read
        (``tests/test_rows.py`` holds them to it).
        """
        for candidate in self.items():
            if candidate[0] == key:
                return candidate
        return None

    @abc.abstractmethod
    def delete(self, key: str) -> bool: ...

    # -- maintenance -------------------------------------------------------
    @abc.abstractmethod
    def gc(self, older_than_seconds: float, now: Optional[float] = None,
           *, dry_run: bool = False) -> int:
        """Drop rows older than the horizon; returns how many went.

        ``dry_run`` only counts what *would* go, touching nothing.
        """

    @abc.abstractmethod
    def fingerprints(self) -> Dict[str, int]:
        """Row count per code fingerprint (stale generations show up here)."""

    # -- persistent counters ----------------------------------------------
    @abc.abstractmethod
    def bump_counter(self, name: str, delta: int = 1) -> None: ...

    @abc.abstractmethod
    def counters(self) -> Dict[str, int]: ...

    @abc.abstractmethod
    def close(self) -> None: ...

    # -- portability (shared) ----------------------------------------------
    def export_jsonl(self, path: Union[str, Path]) -> int:
        """Write every row as one JSON line; returns the row count."""
        count = 0
        with open(path, "w") as handle:
            for row in self.items():
                handle.write(encode_row(*row))
                count += 1
        return count

    def import_jsonl(self, path: Union[str, Path]) -> int:
        """Merge a JSONL export into this store; returns rows imported."""
        return self.upload_rows(validated(read_jsonl(path)))

    # -- plumbing ----------------------------------------------------------
    def __enter__(self) -> "StoreBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    key         TEXT PRIMARY KEY,
    created     REAL NOT NULL,
    fingerprint TEXT NOT NULL,
    label       TEXT NOT NULL,
    record      TEXT NOT NULL,
    checksum    TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS meta (
    name  TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class SqliteStore(StoreBackend):
    """A content-addressed map of run keys to run records in one sqlite file."""

    kind = "sqlite"

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            parent = Path(self.path).resolve().parent
            parent.mkdir(parents=True, exist_ok=True)
        # A generous busy timeout: concurrent writers (benchmarks, a lab
        # of machines syncing into one file) queue instead of erroring.
        # check_same_thread=False lets the fabric server's handler
        # threads share this connection; the server serialises every
        # access under one lock, so the connection is never used
        # concurrently.
        self._db = sqlite3.connect(self.path, timeout=30.0,
                                   check_same_thread=False)
        self._db.executescript(_SCHEMA)
        try:  # stores created before the integrity column existed
            self._db.execute(
                "ALTER TABLE runs ADD COLUMN checksum TEXT NOT NULL "
                "DEFAULT ''")
        except sqlite3.OperationalError:
            pass
        self._db.commit()

    # -- core map operations ----------------------------------------------
    def get(self, key: str) -> Optional[RunRecord]:
        row = self.row(key)
        return None if row is None else record_from_dict(row[3])

    def put(self, key: str, record: RunRecord, *, fingerprint: str = "",
            created: Optional[float] = None) -> None:
        self.upload_rows([(key, created, fingerprint, record_to_dict(record))])

    def upload_rows(self, rows: Iterable[Row]) -> int:
        """One ``executemany`` and one commit for the whole batch."""
        stamp = time.time()
        encoded = [
            (key, stamp if created is None else created, fingerprint,
             label_of(record), json.dumps(record), row_check(key, record))
            for key, created, fingerprint, record in rows]
        self._db.executemany(
            "INSERT OR REPLACE INTO runs (key, created, fingerprint, label, "
            "record, checksum) VALUES (?, ?, ?, ?, ?, ?)", encoded)
        self._db.commit()
        return len(encoded)

    def __contains__(self, key: str) -> bool:
        row = self._db.execute(
            "SELECT 1 FROM runs WHERE key = ?", (key,)).fetchone()
        return row is not None

    def __len__(self) -> int:
        return self._db.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    def keys(self) -> List[str]:
        return [row[0] for row in self._db.execute(
            "SELECT key FROM runs ORDER BY created, key")]

    def rows(self) -> Iterator[Tuple[str, float, str, str]]:
        yield from self._db.execute(
            "SELECT key, created, fingerprint, label FROM runs "
            "ORDER BY created, key")

    def items(self) -> Iterator[Row]:
        for key, created, fingerprint, record in self._db.execute(
                "SELECT key, created, fingerprint, record FROM runs "
                "ORDER BY created, key"):
            yield key, created, fingerprint, json.loads(record)

    def row(self, key: str) -> Optional[Row]:
        raw = self._db.execute(
            "SELECT key, created, fingerprint, record FROM runs "
            "WHERE key = ?", (key,)).fetchone()
        if raw is None:
            return None
        return raw[0], raw[1], raw[2], json.loads(raw[3])

    def delete(self, key: str) -> bool:
        cursor = self._db.execute("DELETE FROM runs WHERE key = ?", (key,))
        self._db.commit()
        return cursor.rowcount > 0

    # -- maintenance -------------------------------------------------------
    def gc(self, older_than_seconds: float, now: Optional[float] = None,
           *, dry_run: bool = False) -> int:
        horizon = (time.time() if now is None else now) - older_than_seconds
        if dry_run:
            return self._db.execute(
                "SELECT COUNT(*) FROM runs WHERE created < ?",
                (horizon,)).fetchone()[0]
        cursor = self._db.execute(
            "DELETE FROM runs WHERE created < ?", (horizon,))
        self._db.commit()
        return cursor.rowcount

    def fingerprints(self) -> Dict[str, int]:
        return dict(self._db.execute(
            "SELECT fingerprint, COUNT(*) FROM runs GROUP BY fingerprint"))

    # -- persistent counters ----------------------------------------------
    def bump_counter(self, name: str, delta: int = 1) -> None:
        self._db.execute(
            "INSERT INTO meta (name, value) VALUES (?, ?) "
            "ON CONFLICT(name) DO UPDATE SET value = CAST(value AS INTEGER) + ?",
            (name, str(delta), delta))
        self._db.commit()

    def counters(self) -> Dict[str, int]:
        return {name: int(value) for name, value in self._db.execute(
            "SELECT name, value FROM meta")}

    def close(self) -> None:
        self._db.close()


class StoreNotFoundError(FileNotFoundError):
    """:func:`open_store` with ``must_exist`` found nothing at the path."""


def open_store(store: Union[StoreBackend, str, Path, None] = None, *,
               backend: Optional[str] = None,
               must_exist: bool = False) -> StoreBackend:
    """Open a results store: the one way in, for the CLI and the library.

    ``store`` may be an existing backend (returned as-is), a path, an
    ``http(s)://`` URL naming a fabric server (``repro serve``), or
    unset — None or ``""`` — which means ``$REPRO_STORE``, else
    :data:`DEFAULT_STORE_PATH`.  The path decides the backend: URLs
    open a :class:`~repro.fabric.client.RemoteStore`, existing files,
    ``:memory:`` and ``.sqlite``/``.db`` suffixes open sqlite, existing
    directories and any other new path open the sharded JSONL store.

    ``backend`` (``"sqlite"``, ``"shards"`` or ``"http"``) forces an
    implementation, and conflicts loudly when the path already holds a
    store of another kind instead of failing deep inside the backend.
    ``must_exist`` raises :class:`StoreNotFoundError` rather than
    creating an empty store, and asks a URL's server for ``/healthz``
    — the read-only paths (reports, ``repro store ls``) want a friendly
    "nothing here yet", not a fresh empty directory.
    """
    if backend is not None and backend not in BACKENDS:
        raise ValueError(f"unknown store backend {backend!r} (expected one "
                         f"of {', '.join(BACKENDS)})")
    if isinstance(store, StoreBackend):
        if backend is not None and backend != store.kind:
            raise ValueError(
                f"store at {store.path} is {store.kind!r}, not {backend!r}")
        return store
    path = str(store) if store else default_store_path()
    kind, exists = _kind_at(path)
    if must_exist and not exists and path != ":memory:":
        raise StoreNotFoundError(f"no results store at {path}")
    if backend is not None and exists and backend != kind:
        raise ValueError(
            f"backend {backend!r} conflicts with the existing {kind} store "
            f"at {path}; drop the flag or point at another path")
    kind = backend or kind
    if kind == "http":
        if not is_store_url(path):
            raise ValueError(
                f"backend 'http' needs an http(s):// URL, got {path!r}")
        from ..fabric.client import RemoteStore  # local: fabric imports this

        remote = RemoteStore(path)
        if must_exist:
            remote.healthz()  # "exists" for a URL means the server answers
        return remote
    if kind == "sqlite":
        return SqliteStore(path)
    from .shards import ShardStore  # local: shards imports this module

    return ShardStore(path)


# ----------------------------------------------------------------------
# cross-store sync
# ----------------------------------------------------------------------
def iter_source(source: Union[StoreBackend, str, Path]) -> Iterator[Row]:
    """Rows of any syncable source: a backend, a store path, a fabric
    server URL, or a JSONL export (sqlite files are sniffed by their
    magic bytes)."""
    if isinstance(source, StoreBackend):
        yield from source.items()
        return
    kind, exists = _kind_at(source)
    if not exists or not str(source):  # "" is no location, not the cwd
        raise FileNotFoundError(f"no store or export at {str(source)!r}")
    if kind == "sqlite":  # any file: sqlite by its magic bytes, else an export
        with open(source, "rb") as handle:
            magic = handle.read(len(_SQLITE_MAGIC))
        if magic != _SQLITE_MAGIC:
            yield from read_jsonl(source)
            return
    with open_store(source, backend=kind) as src:
        yield from src.items()


def merge_into(dst: StoreBackend, source: Union[StoreBackend, str, Path]
               ) -> Tuple[int, int]:
    """Merge ``source`` into ``dst``, skipping keys already present.

    Returns ``(imported, skipped)`` — the lab-wide warm-cache path:
    pull a peer's store (sqlite file, shard directory, fabric server
    URL, or JSONL export) and only the rows you were missing land.

    Rows move in batches: one :meth:`~StoreBackend.missing` probe and
    one :meth:`~StoreBackend.upload_rows` each, so a sync into a remote
    destination costs O(rows / batch) round trips instead of two per
    row.  Every row is proven decodable once (:func:`~repro.store.rows.
    validated`) and then written as the dict it arrived as.
    """
    imported = seen = 0
    rows = validated(iter_source(source))
    while True:
        batch = list(itertools.islice(rows, _SYNC_BATCH))
        if not batch:
            return imported, seen - imported
        absent = set(dst.missing(row[0] for row in batch))
        fresh = [row for row in batch if row[0] in absent]
        if fresh:
            dst.upload_rows(fresh)
        imported += len(fresh)
        seen += len(batch)
