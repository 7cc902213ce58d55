"""Store integrity checking: ``repro store fsck [--repair]``.

Every store row carries an integrity checksum
(:func:`~repro.store.keys.row_check`, schema v3) written at append
time.  :func:`fsck` walks a shard store — or asks the server of a
served one to walk its own (``POST /fsck``) — and verifies three
invariants per row:

1. **checksum** — the stored check matches a recomputation over the
   serialized ``(key, record)`` pair.  A mismatch means the bytes on
   disk are not the bytes that were written: bit rot, a torn rewrite, a
   buggy editor.  These rows are *corrupt* and are quarantined by
   ``--repair``.
2. **key derivation** — re-building the request from the stored record
   and hashing it (:func:`~repro.store.keys.run_key` with the row's own
   fingerprint) reproduces the row's key.  A mismatch is *advisory*
   ("key_mismatch"): the row is internally consistent (its checksum
   passed) but was filed under a foreign key — synthetic test rows and
   hand-imported data look like this, so repair keeps them.
3. **ledger hygiene** — torn lines in data shards and the
   counters ledger are counted; ``--repair`` drops the debris (data
   lines go to the quarantine sidecar, counter totals are re-written).
   "Torn" is :func:`~repro.store.rows.scan_ledger`'s verdict, the one
   ``ShardStore`` reads by: a repaired store is clean to both.

``--repair`` moves corrupt rows to a quarantine sidecar,
``quarantine.jsonl`` inside the shard directory — one JSON line per
quarantined row with the raw bytes and the reason, so nothing is
destroyed, only set aside.  (A legacy sqlite file is not checked here:
``repro store sync`` holds each of its rows to its stored checksum on
the way into a shard store.)  The
persistent ``quarantined`` counter is bumped by the number of rows
moved, reconciling the counter ledger with what actually happened.

The chaos gate (``scripts/chaos_sweep.py``) runs :func:`fsck` after a
fault-injected sweep and asserts :attr:`FsckReport.clean` — zero
residual corruption is part of the fabric's correctness contract.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .backend import StoreBackend
from .keys import record_from_dict, request_from_dict, row_check, run_key
from .rows import scan_ledger, sum_counters
from .shards import ShardStore

#: Sidecar name inside a shard directory (excluded from data shards).
QUARANTINE_NAME = "quarantine.jsonl"


@dataclasses.dataclass
class FsckIssue:
    """One problem row: where it lives, what failed, and why."""

    key: str           #: the row's claimed key ("" for torn lines)
    location: str      #: shard name
    kind: str          #: "torn" | "checksum" | "key_mismatch" | "undecodable"
    detail: str = ""


@dataclasses.dataclass
class FsckReport:
    """What an :func:`fsck` pass found (and, with repair, did)."""

    backend: str
    path: str
    rows: int = 0              #: live rows scanned
    verified: int = 0          #: rows passing checksum + key derivation
    unchecked: int = 0         #: legacy rows with no checksum (key-checked only)
    torn_lines: int = 0        #: unparseable data-shard lines
    counter_torn: int = 0      #: unparseable counter-ledger lines
    checksum_failures: List[FsckIssue] = dataclasses.field(
        default_factory=list)
    key_mismatches: List[FsckIssue] = dataclasses.field(default_factory=list)
    repaired: bool = False
    quarantined: int = 0       #: rows moved to the sidecar by repair
    quarantine_path: Optional[str] = None

    @property
    def corruptions(self) -> int:
        """Rows that are damaged (quarantinable): torn + checksum-bad."""
        return self.torn_lines + len(self.checksum_failures)

    @property
    def issues(self) -> int:
        """Everything worth a non-zero exit: corruption + advisories."""
        return (self.corruptions + len(self.key_mismatches)
                + self.counter_torn)

    @property
    def clean(self) -> bool:
        return self.issues == 0

    def summary(self) -> str:
        """One human line, ``fsck``-style."""
        head = (f"{self.backend} store at {self.path}: {self.rows} rows, "
                f"{self.verified} verified")
        if self.unchecked:
            head += f", {self.unchecked} legacy (no checksum)"
        if self.clean and not self.quarantined:
            return head + " — clean"
        parts = []
        if self.torn_lines:
            parts.append(f"{self.torn_lines} torn line(s)")
        if self.checksum_failures:
            parts.append(f"{len(self.checksum_failures)} checksum failure(s)")
        if self.key_mismatches:
            parts.append(f"{len(self.key_mismatches)} key mismatch(es)")
        if self.counter_torn:
            parts.append(f"{self.counter_torn} torn counter line(s)")
        if self.quarantined:
            parts.append(f"{self.quarantined} row(s) quarantined to "
                         f"{self.quarantine_path}")
        return head + " — " + ", ".join(parts) if parts else head


def _check_row(key: str, fingerprint: str, record: Dict[str, Any],
               stored_check: Optional[str], location: str,
               report: FsckReport) -> bool:
    """Verify one decoded row; returns False when it must be quarantined."""
    if stored_check:
        if stored_check != row_check(key, record):
            report.checksum_failures.append(FsckIssue(
                key=key, location=location, kind="checksum",
                detail="stored checksum does not match row bytes"))
            return False
    else:
        report.unchecked += 1
    try:
        derived = run_key(request_from_dict(record["request"]),
                          fingerprint=fingerprint)
        record_from_dict(record)  # the full record must decode too
    except Exception as exc:  # noqa: BLE001 - classify, don't crash fsck
        report.key_mismatches.append(FsckIssue(
            key=key, location=location, kind="undecodable",
            detail=f"{type(exc).__name__}: {exc}"))
        return True  # checksum passed: bytes are as written, keep the row
    if derived != key:
        report.key_mismatches.append(FsckIssue(
            key=key, location=location, kind="key_mismatch",
            detail="re-derived run key differs (foreign or synthetic key)"))
        return True  # advisory: internally consistent, keep it
    if stored_check:
        report.verified += 1
    return True


# ----------------------------------------------------------------------
# shards
# ----------------------------------------------------------------------
def _scan_shard_text(text: str, shard: str, report: FsckReport
                     ) -> Tuple[List[str], List[Tuple[str, str]]]:
    """Split one shard ledger into (kept lines, (bad line, reason))."""
    good: List[str] = []
    bad: List[Tuple[str, str]] = []
    live = set()
    for line, row, check, reason in scan_ledger(text):
        if row is None:
            report.torn_lines += 1
            bad.append((line, f"torn: {reason}"))
        elif _check_row(row[0], row[2], row[3], check, shard, report):
            good.append(line + "\n")
            live.add(row[0])
        else:
            bad.append((line, "checksum"))
    report.rows += len(live)
    return good, bad


def _quarantine(path: Path, entries: List[Dict[str, str]]) -> None:
    """Set rows aside in the sidecar, durably, before the store drops them."""
    with open(path, "a") as handle:
        handle.writelines(json.dumps(entry, sort_keys=True) + "\n"
                          for entry in entries)
        handle.flush()
        os.fsync(handle.fileno())


def _fsck_shards(store: ShardStore, *, repair: bool) -> FsckReport:
    report = FsckReport(backend="shards", path=store.path)
    sidecar = Path(store.path) / QUARANTINE_NAME
    for shard in store._shards():
        path = store._data_path(shard)
        with store._locked(shard):
            try:
                text = path.read_text()
            except FileNotFoundError:
                continue
            good, bad = _scan_shard_text(text, shard, report)
            if repair and bad:
                _quarantine(sidecar, [
                    {"shard": shard, "reason": reason, "line": line}
                    for line, reason in bad])
                report.quarantined += len(bad)
                store._replace(shard, good)
    # counters ledger hygiene
    counters_path = Path(store.path) / "counters.jsonl"
    if counters_path.exists():
        with store._locked("counters"):
            report.counter_torn = sum_counters(counters_path.read_text())[2]
        if repair and report.counter_torn:
            store._compact_counters()  # re-reads under the lock it takes
            report.counter_torn = 0  # reconciled
    if repair:
        report.repaired = True
        if report.quarantined:
            report.quarantine_path = str(sidecar)
            store.bump_counter("quarantined", report.quarantined)
            # repair removed the corruption it found
            report.torn_lines = 0
            report.checksum_failures = []
    return report


def fsck(store: StoreBackend, *, repair: bool = False) -> FsckReport:
    """Verify (and with ``repair`` fix) a store's integrity.

    A served store (:class:`~repro.fabric.client.RemoteStore`) is
    checked by the server that owns its files (``POST /fsck``); the
    report comes back over the wire, field for field.
    """
    if isinstance(store, ShardStore):
        return _fsck_shards(store, repair=repair)
    from ..fabric.client import RemoteStore  # local: fabric imports this

    if isinstance(store, RemoteStore):
        fields = store.fsck(repair=repair)
        for name in ("checksum_failures", "key_mismatches"):
            fields[name] = [FsckIssue(**issue) for issue in fields[name]]
        return FsckReport(**fields)
    raise ValueError(
        f"fsck needs a shard or served store, not {store.kind!r}; "
        f"run it on the store it wraps")
