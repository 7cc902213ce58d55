"""The sharded JSONL store: many writers, no single lock.

A :class:`ShardStore` is a directory of append-only JSONL files, one
per run-key prefix bucket (``0.jsonl`` … ``f.jsonl``, plus ``misc`` for
non-hex keys).  A write appends one line to one shard under a per-shard
lockfile, so N processes sweeping the same grid write concurrently and
only collide when two runs land in the same bucket at the same instant
— and even then they queue for microseconds, not for a database-wide
writer lock.  Structural changes (delete, gc compaction) rewrite the
shard to a temp file and ``os.replace`` it atomically.

Durability/concurrency contract:

* appends happen with the shard's lockfile held and are written
  through before the lock drops, so concurrent writers interleave whole
  lines;
* the lock lives in a *separate* ``<shard>.lock`` file that is never
  renamed.  An instance opens each lockfile and each ledger's append
  descriptor once and holds them until :meth:`ShardStore.close`.  Under
  the lock, an append stats the ledger's path and compares its
  ``(inode, mtime, size)`` with what the instance's own last append
  left: equal, it appends straight; the same inode grown by someone
  else, it first heals a torn tail (a crashed append's partial line);
  another inode, or no file, means another process compacted, deleted,
  gc'd or repaired the shard, and the path is reopened — so an append
  never lands on a dead inode.  The instance's own rewrites drop the
  shard's held descriptor;
* held descriptors belong to the process that opened them: ``flock``
  locks live on the open file description a ``fork`` shares, so a
  forked child opens its own instead of locking (or unlocking) through
  the parent's; and an in-process lock per lockfile keeps two threads
  of one instance from interleaving an append;
* readers take no locks: a torn trailing line (a crash mid-append) is
  skipped — but *counted* per shard (:attr:`ShardStore.torn_lines`,
  surfaced by ``repro store stats`` and warned about once per shard),
  and duplicate keys resolve last-write-wins;
* a parsed shard is cached under its file's ``(inode, mtime, size)``
  signature and re-parsed when that changes — except by this
  instance's own append, which is folded into the cache instead;
* every line carries an integrity checksum (:func:`~repro.store.keys.
  row_check`) verified by ``repro store fsck``, which quarantines
  corrupt rows to a ``quarantine.jsonl`` sidecar;
* counters are their own append-only ``counters.jsonl`` ledger of
  name + delta lines (:func:`~repro.store.rows.counter_line`), summed
  on read and compacted opportunistically;
* data shards compact themselves: when a shard's append ledger carries
  more than ``compact_ratio`` dead lines (overwrites of existing keys —
  the steady state of a long-lived fabric server that keeps absorbing
  re-uploads), the next read rewrites it under the shard lock, so the
  directory's size tracks its *live* rows, not its write history.

On platforms without :mod:`fcntl` (Windows) locking degrades to plain
O_APPEND writes, which POSIX-atomically append whole small lines on
local filesystems — the single-process case stays correct everywhere.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import warnings
import weakref
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None  # type: ignore[assignment]

from ..core.executor import RunRecord
from .backend import MANIFEST_NAME, StoreBackend
from .keys import record_from_dict, record_to_dict
from .rows import (
    Row,
    atomic_write,
    counter_line,
    encode_row,
    labelled,
    scan_ledger,
    sum_counters,
    why_invalid,
)

#: A shard file as one ``stat`` saw it: ``(st_ino, st_mtime_ns,
#: st_size)``.  Every rewrite renames a new file into place (a new
#: inode), so a shard rewritten to the same size within one mtime tick
#: still reads as changed — unless the filesystem hands the old inode
#: number out again within that same tick.
Signature = Tuple[int, int, int]

#: Hex characters a key prefix may bucket to; anything else -> "misc".
_HEX = set("0123456789abcdef")
#: Compact the counters ledger when it grows past this many lines.
_COUNTER_COMPACT_LINES = 4096
#: Default dead-line ratio beyond which a data shard auto-compacts.
DEFAULT_COMPACT_RATIO = 0.5
#: Shards with fewer ledger lines than this never auto-compact (the
#: rewrite would cost more than the dead lines do).
DEFAULT_COMPACT_MIN_LINES = 512
#: ``os.open`` flags of a held lockfile and a held ledger (the ledger is
#: read too: the torn-tail check reads its last byte).
_LOCK_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT
_LEDGER_FLAGS = (os.O_RDWR | os.O_APPEND | os.O_CREAT
                 | getattr(os, "O_BINARY", 0))


class ShardStore(StoreBackend):
    """A directory of key-prefix JSONL shards (see module docstring)."""

    kind = "shards"

    def __init__(self, path: Union[str, Path], *,
                 compact_ratio: Optional[float] = DEFAULT_COMPACT_RATIO,
                 compact_min_lines: int = DEFAULT_COMPACT_MIN_LINES) -> None:
        self.path = str(path)
        #: Auto-compact a shard whose ledger is more than this fraction
        #: dead lines (None disables auto-compaction entirely).
        self.compact_ratio = compact_ratio
        self.compact_min_lines = compact_min_lines
        #: Auto-compactions performed by *this* instance (session
        #: counter; the persistent "compactions" counter is lifetime).
        self.compactions = 0
        #: Torn (unparseable) lines observed per shard by this instance
        #: — the debris of crashed appends.  Readers skip them, but
        #: silence would hide real corruption, so they are counted here,
        #: warned about once per shard, and surfaced by ``repro store
        #: stats``; ``repro store fsck --repair`` removes them.
        self.torn_lines: Dict[str, int] = {}
        self._torn_warned: set = set()
        self._dir = Path(path)
        self._dir.mkdir(parents=True, exist_ok=True)
        #: The directory as a string, resolved once: a lookup stats a
        #: shard file and a put stats a ledger, neither of which may
        #: build a Path per call.
        self._prefix = os.path.join(str(self._dir), "")
        #: Descriptors held open until :meth:`close`, by file name
        #: (``a.lock``, ``a.jsonl``, ``counters.jsonl`` ...), all opened
        #: by process ``_pid``; a forked child opens its own.
        self._held: Dict[str, int] = {}
        #: Ledger -> the :data:`Signature` this instance's last append
        #: through its held descriptor (or the opening) left the file at;
        #: read only while that descriptor is held.
        self._tails: Dict[str, Signature] = {}
        #: Lock name -> the in-process lock taken before its ``flock``.
        self._guards: Dict[str, threading.Lock] = {}
        self._pid = os.getpid()
        weakref.finalize(self, _close_all, self._held)
        manifest = self._dir / MANIFEST_NAME
        if manifest.exists():
            meta = json.loads(manifest.read_text())
            if meta.get("format") != "repro-shards":
                raise ValueError(
                    f"{self.path} exists but is not a repro shard store")
        else:
            atomic_write(manifest, [json.dumps(
                {"format": "repro-shards", "version": 1}) + "\n"])
        #: Per-shard parse cache: name -> (signature, live rows, valid
        #: ledger lines).  This instance's own appends are folded in
        #: (:meth:`_fold`), so it never re-parses what it just wrote.
        self._cache: Dict[str, Tuple[Signature, Dict[str, Row], int]] = {}

    # -- shard plumbing ----------------------------------------------------
    @staticmethod
    def shard_of(key: str) -> str:
        prefix = key[:1].lower()
        return prefix if prefix in _HEX else "misc"

    def _data_file(self, shard: str) -> str:
        return f"{self._prefix}{shard}.jsonl"

    def _data_path(self, shard: str) -> Path:
        return Path(self._data_file(shard))

    @contextlib.contextmanager
    def _locked(self, name: str) -> Iterator[None]:
        """Hold ``<name>.lock`` exclusively: this instance's in-process
        lock for the name, then an ``flock`` on the held lockfile (no
        ``flock`` without fcntl)."""
        if self._pid != os.getpid():
            self._forget_inherited()
        guard = self._guards.get(name)
        if guard is None:
            guard = self._guards.setdefault(name, threading.Lock())
        with guard:
            fd = self._held.get(f"{name}.lock")
            if fd is None:
                fd = self._open(f"{name}.lock", _LOCK_FLAGS)
            if fcntl is None:
                yield
                return
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)

    def _open(self, file: str, flags: int) -> int:
        fd = self._held[file] = os.open(self._prefix + file, flags, 0o666)
        return fd

    def _release(self, file: str) -> None:
        """Close a held descriptor, if there is one."""
        fd = self._held.pop(file, None)
        if fd is not None:
            os.close(fd)

    def _forget_inherited(self) -> None:
        """In a forked child: close the parent's descriptors and drop its
        in-process locks.  Closing a copy never releases the parent's
        ``flock`` (the parent still holds the description); unlocking
        through it would."""
        _close_all(self._held)
        self._guards = {}
        self._pid = os.getpid()

    def _append(self, name: str, text: str) -> Tuple[Signature, Signature]:
        """Append ``text`` to ``<name>.jsonl`` under its lock; returns the
        file's :data:`Signature` just before and just after.

        A writer killed mid-append leaves a partial line with no trailing
        newline; appending straight after it would glue the new row onto
        the debris and destroy *both*.  So unless the file is exactly as
        this instance's last append left it, a missing final newline is
        written first, confining the damage to the torn fragment, which
        the parser skips and ``fsck --repair`` quarantines.  The lock is
        held throughout, so the two signatures bracket exactly this
        append.
        """
        file = f"{name}.jsonl"
        with self._locked(name):
            try:
                before = _signature(os.stat(self._prefix + file))
            except FileNotFoundError:
                before = None
            fd = self._held.get(file)
            tail = self._tails.get(file)
            if fd is None or before is None or before[0] != tail[0]:
                # Not open yet, or replaced or removed by another
                # process since: append to the file at the path now.
                self._release(file)
                fd = self._open(file, _LEDGER_FLAGS)
                before = self._tails[file] = _signature(os.fstat(fd))
                heal = before[2] > 0
            else:
                heal = before != tail
            if heal:
                os.lseek(fd, before[2] - 1, os.SEEK_SET)
                if os.read(fd, 1) != b"\n":
                    os.write(fd, b"\n")
            data = text.encode()
            while data:
                data = data[os.write(fd, data):]
            after = self._tails[file] = _signature(os.fstat(fd))
        return before, after

    def _parse_counted(self, shard: str) -> Tuple[Dict[str, Row], int, int]:
        """Parse a shard's ledger as it is on disk now (nothing when the
        file is gone); count valid and torn lines.

        ``lines - len(entries)`` is the shard's dead weight: overwrites
        of keys that appear again later (last-write-wins), exactly what
        auto-compaction reclaims.  ``torn`` counts the lines
        :func:`~repro.store.rows.scan_ledger` found invalid — crashed
        appends or real corruption — and is noted (:meth:`_note_torn`).
        """
        try:
            text = self._data_path(shard).read_text()
        except FileNotFoundError:
            return {}, 0, 0
        entries: Dict[str, Row] = {}
        lines = torn = 0
        for _text, row, _check, _reason in scan_ledger(text):
            if row is None:
                torn += 1
                continue
            lines += 1
            entries[row[0]] = row
        self._note_torn(shard, torn)
        return entries, lines, torn

    def _note_torn(self, shard: str, torn: int) -> None:
        """Record a parse's torn-line observation (latest parse wins)."""
        if torn == 0:
            self.torn_lines.pop(shard, None)
            return
        self.torn_lines[shard] = torn
        if shard not in self._torn_warned:
            self._torn_warned.add(shard)
            warnings.warn(
                f"shard store {self.path}: {torn} torn line(s) in shard "
                f"{shard!r} (skipped; run 'repro store fsck --repair' to "
                f"quarantine them)", RuntimeWarning, stacklevel=3)

    def _should_compact(self, lines: int, live: int) -> bool:
        if self.compact_ratio is None or lines < self.compact_min_lines:
            return False
        return (lines - live) / lines > self.compact_ratio

    def _load(self, shard: str) -> Dict[str, Row]:
        """One shard's live rows, parsed only when the file's signature
        is not the one the cache holds them at."""
        try:
            stat = os.stat(self._data_file(shard))
        except FileNotFoundError:
            self._cache.pop(shard, None)
            self.torn_lines.pop(shard, None)
            return {}
        signature = _signature(stat)
        cached = self._cache.get(shard)
        if cached is None or cached[0] != signature:
            entries, lines, _torn = self._parse_counted(shard)
            cached = self._cache[shard] = (signature, entries, lines)
        # Folded appends count as ledger lines too, so the read that a
        # re-parse would have compacted on still compacts.
        if self._should_compact(cached[2], len(cached[1])):
            return self._auto_compact(shard)
        return cached[1]

    def _auto_compact(self, shard: str) -> Dict[str, Row]:
        """Rewrite a dead-heavy shard in place; returns its live entries."""
        with self._locked(shard):
            # Re-read under the lock: another process may have appended
            # (or already compacted) since the triggering read.
            entries = self._parse_counted(shard)[0]
            self._rewrite(shard, entries)
            # The signature of the file just written, before the lock
            # lets another writer append to it.
            try:
                stat = os.stat(self._data_file(shard))
                self._cache[shard] = (_signature(stat), entries, len(entries))
            except FileNotFoundError:
                pass  # every entry was dead; _rewrite removed the file
        self.compactions += 1
        self.bump_counter("compactions")
        return entries

    def _fold(self, shard: str, before: Signature, after: Signature,
              rows: List[Row]) -> None:
        """Bring the cache up to date with an append of ``rows`` that
        took the shard file from signature ``before`` to ``after``.

        Exact when the cache held the file as it was just before the
        append, or the file held nothing (absent and empty are the same
        ledger): the rows are then exactly what a re-parse would add,
        last write wins.  Otherwise another writer got in between, and
        the entry is dropped for the next read to re-parse — as it is
        when a row is one a reader would count torn.
        """
        cached = self._cache.pop(shard, None)
        if before[2] == 0:
            entries: Dict[str, Row] = {}
            lines = 0
            self.torn_lines.pop(shard, None)
        elif cached is not None and cached[0] == before:
            entries, lines = cached[1], cached[2]
        else:
            return
        for row in rows:
            if why_invalid(*row, ledger=True) is not None:
                return
            entries[row[0]] = row
        self._cache[shard] = (after, entries, lines + len(rows))

    def _shards(self) -> List[str]:
        return sorted(
            path.stem for path in self._dir.glob("*.jsonl")
            if path.stem not in ("counters", "quarantine"))

    def _rewrite(self, shard: str, entries: Dict[str, Row]) -> None:
        """Compaction: the live rows, oldest first (caller holds the lock)."""
        self._replace(shard, [
            encode_row(*row, check=True) for row in sorted(
                entries.values(), key=lambda row: (row[1], row[0]))])

    def _replace(self, shard: str, lines: List[str]) -> None:
        """Swap a shard's ledger for ``lines`` atomically, or remove an
        emptied shard's file (caller holds the lock).  Whatever debris
        the old ledger carried is gone with it, and so is the descriptor
        this instance held on it."""
        path = self._data_file(shard)
        self._release(f"{shard}.jsonl")
        self._cache.pop(shard, None)
        self.torn_lines.pop(shard, None)
        if lines:
            atomic_write(path, lines)
        else:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)

    # -- core map operations ----------------------------------------------
    def get(self, key: str) -> Optional[RunRecord]:
        row = self.row(key)
        return None if row is None else record_from_dict(row[3])

    def put(self, key: str, record: RunRecord, *, fingerprint: str = "",
            created: Optional[float] = None) -> None:
        self.upload_rows([(key, created, fingerprint, record_to_dict(record))])

    def upload_rows(self, rows: Iterable[Row]) -> int:
        """Batched append: group by shard, one lock + write per shard.

        A batch — an import, a sync, a fabric upload — lands with at
        most one lock acquisition per touched shard instead of one per
        row.  Each row is encoded as it is drawn, and its dict is
        *kept*: the rows appended are folded into this instance's parse
        cache (:meth:`_fold`), which would otherwise re-parse every line
        of them on the next read — a second, larger copy of the same
        dicts.  The store therefore takes ownership of the row dicts it
        is given; do not mutate one afterwards.
        """
        stamp = time.time()
        by_shard: Dict[str, Tuple[List[str], List[Row]]] = {}
        count = 0
        for key, created, fingerprint, record in rows:
            created = stamp if created is None else created
            lines, kept = by_shard.setdefault(self.shard_of(key), ([], []))
            lines.append(encode_row(key, created, fingerprint, record,
                                    check=True))
            kept.append((key, created, fingerprint, record))
            count += 1
        for shard in sorted(by_shard):
            lines, kept = by_shard[shard]
            before, after = self._append(shard, "".join(lines))
            self._fold(shard, before, after, kept)
        return count

    def __contains__(self, key: str) -> bool:
        return key in self._load(self.shard_of(key))

    def __len__(self) -> int:
        return sum(len(self._load(shard)) for shard in self._shards())

    def items(self) -> Iterator[Row]:
        merged: List[Row] = []
        for shard in self._shards():
            merged.extend(self._load(shard).values())
        merged.sort(key=lambda row: (row[1], row[0]))
        yield from merged

    def keys(self) -> List[str]:
        return [row[0] for row in self.items()]

    def rows(self) -> Iterator[Tuple[str, float, str, str]]:
        return labelled(self.items())

    def row(self, key: str) -> Optional[Row]:
        return self._load(self.shard_of(key)).get(key)

    def delete(self, key: str) -> bool:
        shard = self.shard_of(key)
        with self._locked(shard):
            entries = self._parse_counted(shard)[0]
            if key not in entries:
                return False
            del entries[key]
            self._rewrite(shard, entries)
        return True

    # -- maintenance -------------------------------------------------------
    def gc(self, older_than_seconds: float, now: Optional[float] = None,
           *, dry_run: bool = False) -> int:
        horizon = (time.time() if now is None else now) - older_than_seconds
        dropped = 0
        for shard in self._shards():
            with self._locked(shard):
                entries = self._parse_counted(shard)[0]
                doomed = [key for key, row in entries.items()
                          if row[1] < horizon]
                dropped += len(doomed)
                if dry_run or not doomed:
                    continue
                for key in doomed:
                    del entries[key]
                self._rewrite(shard, entries)
        return dropped

    def fingerprints(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for _key, _created, fingerprint, _record in self.items():
            counts[fingerprint] = counts.get(fingerprint, 0) + 1
        return counts

    # -- persistent counters ----------------------------------------------
    def bump_counter(self, name: str, delta: int = 1) -> None:
        self._append("counters", counter_line(name, delta))

    def counters(self) -> Dict[str, int]:
        try:
            with open(f"{self._prefix}counters.jsonl") as handle:
                text = handle.read()
        except FileNotFoundError:
            return {}
        totals, lines, _torn = sum_counters(text)
        if lines > _COUNTER_COMPACT_LINES:
            self._compact_counters()
        return totals

    def _compact_counters(self) -> None:
        """Rewrite the ledger as one total per counter (torn lines go)."""
        path = f"{self._prefix}counters.jsonl"
        with self._locked("counters"):
            # Re-read under the lock: a bump may have landed since the
            # caller's unlocked read, and compaction must not lose it.
            with open(path) as handle:
                totals = sum_counters(handle.read())[0]
            self._release("counters.jsonl")
            atomic_write(path, [counter_line(name, totals[name])
                                for name in sorted(totals)])

    def stats(self) -> Dict[str, Any]:
        """Shard-level health: sizes, dead weight, torn-line counts.

        Parses every shard (so :attr:`torn_lines` reflects the whole
        directory), which is what ``repro store stats`` wants anyway.
        """
        live = lines = torn_total = 0
        for shard in self._shards():
            entries, shard_lines, torn = self._parse_counted(shard)
            live += len(entries)
            lines += shard_lines
            torn_total += torn
        return {
            "shards": len(self._shards()),
            "live_rows": live,
            "ledger_lines": lines,
            "dead_lines": lines - live,
            "torn_lines": torn_total,
            "torn_by_shard": dict(self.torn_lines),
        }

    def close(self) -> None:
        """Drop the parse cache and close every held descriptor (the
        store reopens what it needs if used again)."""
        self._cache.clear()
        _close_all(self._held)


def _signature(stat: os.stat_result) -> Signature:
    return stat.st_ino, stat.st_mtime_ns, stat.st_size


def _close_all(held: Dict[str, int]) -> None:
    while held:
        os.close(held.popitem()[1])
