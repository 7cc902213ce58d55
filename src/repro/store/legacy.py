"""The legacy sqlite store format: a source ``repro store sync`` reads.

Earlier releases kept a results store in one sqlite file, one ``runs``
table of ``(key, created, fingerprint, label, record JSON, checksum)``.
No location opens or creates one any more
(:func:`~repro.store.backend.open_store` refuses it, naming ``repro
store sync``); :func:`legacy_rows` reads one, read-only, so
:func:`~repro.store.backend.merge_into` can migrate it into a shard
store.  This is the only module that speaks sqlite.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Iterator, Optional, Union

from ..core.executor import RunRecord
from .keys import record_from_dict, record_to_dict, row_check
from .rows import Row, RowError, label_of

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    key         TEXT PRIMARY KEY,
    created     REAL NOT NULL,
    fingerprint TEXT NOT NULL,
    label       TEXT NOT NULL,
    record      TEXT NOT NULL,
    checksum    TEXT NOT NULL DEFAULT ''
);
"""


class SqliteStore:
    """A writer of the legacy file format, and nothing more.

    It is no :class:`~repro.store.backend.StoreBackend`: no cache,
    sweep, server or sync takes one.  It survives only for the
    benchmark harness's ``store.sqlite.*`` probes, which time its
    :meth:`put` and :meth:`get`, and for tests that build legacy files;
    it goes once the harness drops those probes (ROADMAP item 3(a)).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(path)
        Path(self.path).resolve().parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(self.path, timeout=30.0)
        self._db.executescript(_SCHEMA)

    def put(self, key: str, record: RunRecord, *, fingerprint: str = "",
            created: Optional[float] = None) -> None:
        """Insert or replace one row: one ``executemany``, one commit."""
        row = record_to_dict(record)
        self._db.executemany(
            "INSERT OR REPLACE INTO runs (key, created, fingerprint, label, "
            "record, checksum) VALUES (?, ?, ?, ?, ?, ?)",
            [(key, time.time() if created is None else created, fingerprint,
              label_of(row), json.dumps(row), row_check(key, row))])
        self._db.commit()

    def get(self, key: str) -> Optional[RunRecord]:
        raw = self._db.execute(
            "SELECT record FROM runs WHERE key = ?", (key,)).fetchone()
        return None if raw is None else record_from_dict(json.loads(raw[0]))

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def legacy_rows(path: Union[str, Path]) -> Iterator[Row]:
    """The rows of a legacy sqlite file, oldest first, read without
    writing a byte of it.

    Each row that carries a checksum is held to it (files written before
    the checksum column existed carry none, and need only be JSON): a
    sync re-checksums what it writes, so a row whose bytes changed on
    disk must stop here, not come out clean.
    """
    uri = Path(path).resolve().as_uri() + "?mode=ro"
    db = sqlite3.connect(uri, uri=True, timeout=30.0)
    try:
        columns = {column[1] for column in
                   db.execute("PRAGMA table_info(runs)")}
        if not columns:
            return  # a sqlite file, but no store was ever written to it
        checksum = "checksum" if "checksum" in columns else "''"
        for key, created, fingerprint, text, check in db.execute(
                f"SELECT key, created, fingerprint, record, {checksum} "
                f"FROM runs ORDER BY created, key"):
            try:
                record = json.loads(text)
            except ValueError:
                record = None
            if record is None or (check and check != row_check(key, record)):
                raise RowError(
                    f"{path}: the row of key {key!r} is not JSON or fails "
                    f"its stored checksum (its bytes changed after they "
                    f"were written); delete it from the file and sync again")
            yield key, created, fingerprint, record
    finally:
        db.close()
