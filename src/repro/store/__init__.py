"""Content-addressed results store and run cache.

Every run in this framework is a pure function of its
:class:`~repro.core.executor.RunRequest` plus the source code it
exercises, so results are perfectly cacheable.  This package provides
the layers:

* :mod:`repro.store.keys` — canonical serialisation, the code
  fingerprints (every module but the layers above the simulation), and
  the :func:`run_key` content address;
* :mod:`repro.store.rows` — the row every other layer moves,
  ``(key, created, fingerprint, record-dict)``: its one JSONL codec and
  validity rule (shard ledgers, exports, the fabric wire), the counters
  ledger and the atomic file replace;
* :mod:`repro.store.backend` — the :class:`StoreBackend` protocol (rows
  in through ``upload_rows``, out through ``items``), :func:`open_store`
  — the one way to open a store, shared by the CLI, :class:`RunCache`,
  the executor's ``store=`` argument and the fabric — and
  :func:`merge_into` cross-store sync, the one way rows from outside
  (another store, a JSONL export, a legacy :class:`SqliteStore` file)
  enter one;
* :mod:`repro.store.shards` — the sharded JSONL :class:`ShardStore`,
  the one store format (concurrent multi-process writers, no single
  writer lock);
* :mod:`repro.store.cache` — the :class:`RunCache` policy layer the
  executor talks to (what is reusable, what is written back, hit/miss
  accounting);
* :mod:`repro.store.fsck` — integrity checking: per-row checksums
  (:func:`row_check`) verified by :func:`fsck`, with ``--repair``
  quarantining corrupt rows to a sidecar (``repro store fsck``).

Typical use::

    from repro.store import open_store
    from repro.core import run_experiment

    store = open_store("results")               # a shard dir, or a fabric URL
    run_experiment(spec, jobs=8, store=store)   # cold: executes, fills
    run_experiment(spec, jobs=8, store=store)   # warm: 100% cache hits

Because completed runs are written back *as they finish*, a killed
sweep resumes for free: the rerun only executes the missing cells.  A
warm store is also directly reportable: ``repro report --from-store``
collates the cached records without re-running anything.
"""

from .backend import (
    BACKENDS,
    DEFAULT_STORE_PATH,
    STORE_ENV_VAR,
    SqliteStore,
    StoreBackend,
    StoreNotFoundError,
    default_store_path,
    is_store_url,
    merge_into,
    open_store,
)
from .cache import RunCache, StoreLike
from .fsck import FsckIssue, FsckReport, fsck
from .keys import (
    KEY_SCHEMA_VERSION,
    canonical,
    canonical_json,
    code_fingerprints,
    fingerprint_for,
    record_from_dict,
    record_to_dict,
    request_from_dict,
    request_to_dict,
    row_check,
    run_key,
)
from .shards import ShardStore

__all__ = [
    "BACKENDS",
    "DEFAULT_STORE_PATH",
    "STORE_ENV_VAR",
    "SqliteStore",
    "ShardStore",
    "StoreBackend",
    "StoreNotFoundError",
    "default_store_path",
    "is_store_url",
    "merge_into",
    "open_store",
    "RunCache",
    "StoreLike",
    "FsckIssue",
    "FsckReport",
    "fsck",
    "row_check",
    "KEY_SCHEMA_VERSION",
    "canonical",
    "canonical_json",
    "code_fingerprints",
    "fingerprint_for",
    "record_from_dict",
    "record_to_dict",
    "request_from_dict",
    "request_to_dict",
    "run_key",
]
