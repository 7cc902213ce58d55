"""The persistent results store: one format behind one protocol.

A store maps :func:`~repro.store.keys.run_key` content addresses to
completed :class:`~repro.core.executor.RunRecord` rows.  The interface
is :class:`StoreBackend`; the one format a location opens or creates is
:class:`~repro.store.shards.ShardStore` — a directory of append-only
JSONL shard files bucketed by key prefix, which many processes append
to concurrently without contending on one writer lock.

:func:`open_store` selects the kind by the location alone (see
:func:`_kind_at`; ``http(s)://`` URLs open the fabric's
:class:`~repro.fabric.client.RemoteStore`) and honours ``$REPRO_STORE``
for the default location.  A sqlite file written by earlier releases
(:mod:`repro.store.legacy`) and a JSONL export are *sources*, not
stores: :func:`merge_into` (``repro store sync``) reads them into a
shard store.  Everything above the backend —
:class:`~repro.store.cache.RunCache`, the executor's ``store=``
argument, the ``repro store`` CLI group — works identically against
every backend.

A store is deliberately dumb: it never computes keys, never decides
what is cacheable, and never invalidates.  Key semantics live in
:mod:`repro.store.keys`; the caching *policy* lives in
:mod:`repro.store.cache`; how a row is spelled in a file or on the
wire, and what makes one valid, lives in :mod:`repro.store.rows`.
"""

from __future__ import annotations

import abc
import itertools
import os
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..core.executor import RunRecord
from .keys import record_from_dict, record_to_dict
from .legacy import legacy_rows
from .rows import Row, encode_row, read_jsonl, validated

#: Environment variable naming the default store location.
STORE_ENV_VAR = "REPRO_STORE"
#: Default on-disk location when none is given (repo/cwd-local).
DEFAULT_STORE_PATH = ".repro-store"
#: Where earlier releases put the default store (one sqlite file).
LEGACY_STORE_PATH = ".repro-store.sqlite"
#: The kinds a store location opens to, so a pool worker can reopen a
#: store from its path (a wrapper such as ``FaultyStore`` has another
#: kind and stays in-process).
BACKENDS = ("shards", "http")

#: Keys or rows per batched store round: a sweep's lookup window
#: (:meth:`StoreBackend.prefetch`), a probe + upload round of
#: :func:`merge_into`, and one bulk request of the fabric client.
BATCH_SIZE = 500

#: First bytes of every sqlite database file (format sniffing).
_SQLITE_MAGIC = b"SQLite format 3\x00"
#: A shard store's directory marker: a directory without it holds no
#: store, and :class:`~repro.store.shards.ShardStore` refuses one whose
#: marker names another format.
MANIFEST_NAME = "store.json"


def default_store_path() -> str:
    """Where ``--cache`` puts the store unless told otherwise."""
    return os.environ.get(STORE_ENV_VAR) or DEFAULT_STORE_PATH


def is_store_url(path: Union[str, Path]) -> bool:
    """Whether a store location names a fabric server rather than a file."""
    return str(path).startswith(("http://", "https://"))


def _kind_at(path: Union[str, Path]) -> Tuple[str, bool]:
    """The path convention, stated once: ``(kind the path holds or would
    get, whether a store exists there)``.

    A URL is a served store (it "exists" without being probed); a
    directory holds a shard store once it has the shard manifest, and a
    new path becomes one.  A file is no store: ``"sqlite"`` when it
    starts with the sqlite magic (a legacy store, which only ``sync``
    reads), else ``"file"`` (an export, a log).  A new ``.sqlite`` /
    ``.db`` path is ``"sqlite"`` too, so it is refused rather than made a
    directory of that name.  Nothing else counts as a store: a read-only
    command on a plain directory or an export must not turn it into one.
    """
    if is_store_url(path):
        return "http", True
    target = Path(path)
    if target.is_dir():
        return "shards", (target / MANIFEST_NAME).is_file()
    if target.is_file():
        with open(target, "rb") as handle:
            legacy = handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC
        return ("sqlite", True) if legacy else ("file", False)
    return ("sqlite" if target.suffix in (".sqlite", ".db") else "shards"), False


class TransientStoreError(RuntimeError):
    """A store call failed for now and may succeed later: a served store
    that is down, or dropped the call.  A sweep keeps the rows such a
    write refused and takes them along with its next write."""


class StoreBackend(abc.ABC):
    """The contract every results-store backend fulfils.

    Keys are opaque strings (in practice 64-hex run keys); values are
    :class:`RunRecord` rows tagged with a creation time and the code
    fingerprint that produced them.  ``export_jsonl`` is implemented
    once here on top of :meth:`items`, so every backend writes the same
    portable JSONL dialect (:mod:`repro.store.rows`), which
    :func:`merge_into` reads back.
    """

    #: Human-readable backend name ("shards", "http", ...).
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

    def prefetch(self, keys: Iterable[str]) -> None:
        """A hint that :meth:`row` is about to be asked for each of
        ``keys``, as a sweep looks up one window of requests at a time.
        A store that pays a round trip per call fetches them in one;
        the default does nothing."""

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

    # -- plumbing ----------------------------------------------------------
    def __enter__(self) -> "StoreBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class StoreNotFoundError(FileNotFoundError):
    """:func:`open_store` with ``must_exist`` found nothing at the path."""


def open_store(store: Union[StoreBackend, str, Path, None] = None, *,
               must_exist: bool = False) -> StoreBackend:
    """Open a results store: the one way in, for the CLI and the library.

    ``store`` may be an existing backend (returned as-is), a path, an
    ``http(s)://`` URL naming a fabric server (``repro serve``), or
    unset — None or ``""`` — which means ``$REPRO_STORE``, else
    :data:`DEFAULT_STORE_PATH`.  The location alone decides the backend
    (:func:`_kind_at`): URLs open a
    :class:`~repro.fabric.client.RemoteStore`, directories and any other
    new path the sharded JSONL store.  A legacy sqlite file, or a new
    ``.sqlite``/``.db`` path, raises ``ValueError`` naming ``repro store
    sync``; any other file (an export, a log) raises ``ValueError`` and
    is left untouched.  Anything else — a number, a
    :class:`~repro.store.legacy.SqliteStore` — raises ``TypeError``
    naming its type, before any directory is made.

    ``must_exist`` raises :class:`StoreNotFoundError` rather than
    creating an empty store, and asks a URL's server for ``/healthz``
    — the read-only paths (reports, ``repro store ls``) want a friendly
    "nothing here yet", not a fresh empty directory.
    """
    if isinstance(store, StoreBackend):
        return store
    if not (store is None or isinstance(store, (str, os.PathLike))):
        raise TypeError(
            f"a results store is a StoreBackend, a path, a URL or None, not "
            f"{type(store).__name__}")
    path = os.fspath(store) if store else default_store_path()
    kind, exists = _kind_at(path)
    # A legacy file is refused outright; a new sqlite path only where a
    # store would be created (a read-only command finds nothing there).
    if kind == "sqlite" and (exists or not must_exist):
        raise ValueError(
            f"{path} names a sqlite store; results stores are shard "
            f"directories now — migrate a legacy one with "
            f"`repro store [--store DIR] sync {path}`")
    if must_exist and not exists:
        message = f"no results store at {path}"
        if path == DEFAULT_STORE_PATH and os.path.isfile(LEGACY_STORE_PATH):
            message += (f" (a legacy {LEGACY_STORE_PATH} is here: `repro "
                        f"store sync {LEGACY_STORE_PATH}` migrates it)")
        raise StoreNotFoundError(message)
    if kind == "http":
        from ..fabric.client import RemoteStore  # local: fabric imports this

        remote = RemoteStore(path)
        if must_exist:
            remote.healthz()  # "exists" for a URL means the server answers
        return remote
    if kind == "file":
        raise ValueError(f"{path} exists but is not a results store")
    from .shards import ShardStore  # local: shards imports this module

    return ShardStore(path)


# ----------------------------------------------------------------------
# cross-store sync
# ----------------------------------------------------------------------
def iter_source(source: Union[StoreBackend, str, Path]) -> Iterator[Row]:
    """Rows of any syncable source: a backend, a store location, a legacy
    sqlite file, or a JSONL export (any other existing file)."""
    if isinstance(source, StoreBackend):
        yield from source.items()
        return
    kind, exists = _kind_at(source)
    if not str(source):  # "" is no location, not the cwd
        exists = False
    if kind == "sqlite" and exists:
        yield from legacy_rows(source)
    elif exists:
        with open_store(source) as src:
            yield from src.items()
    elif kind == "file":
        yield from read_jsonl(source)
    else:
        raise FileNotFoundError(f"no store or export at {str(source)!r}")


def merge_into(dst: StoreBackend, source: Union[StoreBackend, str, Path]
               ) -> Tuple[int, int]:
    """Merge ``source`` into ``dst``, skipping keys already present.

    Returns ``(imported, skipped)`` — the lab-wide warm-cache path and
    the one way rows from outside enter a store: pull a peer's store
    (shard directory or fabric server URL), a JSONL export or a legacy
    sqlite file, and only the rows you were missing land.  Run keys are
    content addresses, so a skipped row is the row that would have been
    written.

    Rows move in batches: one :meth:`~StoreBackend.missing` probe and
    one :meth:`~StoreBackend.upload_rows` each, so a sync into a remote
    destination costs O(rows / batch) round trips instead of two per
    row.  Every row is proven decodable once (:func:`~repro.store.rows.
    validated`) and then written as the dict it arrived as.  A ``dst``
    that is not a :class:`StoreBackend` raises ``TypeError`` naming its
    type before a source row is read.
    """
    if not isinstance(dst, StoreBackend):
        raise TypeError(f"a results store is a StoreBackend, not "
                        f"{type(dst).__name__}")
    imported = seen = 0
    rows = validated(iter_source(source))
    while True:
        batch = list(itertools.islice(rows, BATCH_SIZE))
        if not batch:
            return imported, seen - imported
        absent = set(dst.missing(row[0] for row in batch))
        fresh = [row for row in batch if row[0] in absent]
        if fresh:
            dst.upload_rows(fresh)
        imported += len(fresh)
        seen += len(batch)
