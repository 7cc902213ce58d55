"""Rows are the store's currency: the one owner of three formats.

Every backend, the fabric wire protocol, export/import, ``fsck`` and
the fault injector move a :data:`Row` — ``(key, created, fingerprint,
record-dict)`` — and only this module knows how one is spelled, what
makes one valid, and how a file of them is replaced:

1. **the row line** — :func:`encode_row` writes it (shard ledgers carry
   the integrity ``"check"``; export files and wire bodies do not) and
   :func:`decode_row` reads it under the *one* definition of a valid
   row (:func:`why_invalid`): a JSON object with a ``str`` ``"key"``, a
   ``dict`` ``"record"``, an optional ``str`` ``"fingerprint"`` /
   ``"check"`` and a numeric ``"created"`` — required in a shard
   ledger, optional on import and on the wire, where the writing
   backend stamps it.  Anything else is invalid *everywhere*:
   :func:`scan_ledger` makes ``ShardStore`` skip and count it and
   ``fsck --repair`` quarantine it, ``import`` raises and the server
   answers 400;
2. **the counters ledger** — :func:`counter_line`, :func:`sum_counters`;
3. **the atomic replace** — :func:`atomic_write`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple, Union

from .keys import record_from_dict, row_json

#: ``(key, created, fingerprint, record-dict)``; ``created`` is None only
#: on a row still travelling to the backend that will stamp it.
Row = Tuple[str, Optional[float], str, Dict[str, Any]]


class RowError(ValueError):
    """A line, body or record that is not a valid row (says why)."""


def encode_row(key: str, created: Optional[float], fingerprint: str,
               record: Dict[str, Any], *, check: bool = False) -> str:
    """One row as one JSON line; ``check`` adds the shard-ledger checksum.

    ``json.dumps(row, sort_keys=True)``'s bytes, the line and its
    checksum derived from one encoding of the record and spliced from
    its memoised request parts where it has them
    (:func:`~repro.store.keys.row_json`).
    """
    return row_json(key, created, fingerprint, record, check=check) + "\n"


def why_invalid(key: Any, created: Any, fingerprint: Any, record: Any,
                check: Any = "", *, ledger: bool = False) -> Optional[str]:
    """Why these fields do not make a valid row; None when they do.

    The one validity rule: :func:`decode_row` raises it for a line, and
    ``ShardStore`` folds into its parse cache only the appended rows a
    reader of the ledger would accept.
    """
    if not isinstance(key, str) or not isinstance(record, dict):
        return "no string 'key' and object 'record'"
    if not isinstance(fingerprint, str) or not isinstance(check, str):
        return "'fingerprint' / 'check' is not a string"
    if created is None and ledger:
        return "no 'created' stamp"
    if created is not None and (isinstance(created, bool)
                                or not isinstance(created, (int, float))):
        return "'created' is not a number"
    return None


def decode_row(line: Union[str, bytes], *, ledger: bool = False,
               key: Optional[str] = None) -> Tuple[Row, str]:
    """``(row, stored check or "")`` of one line, else :class:`RowError`.

    ``ledger`` demands the ``created`` stamp every shard line has;
    ``key`` names the row of a body that travels without one
    (``PUT /records/<key>``).
    """
    try:
        raw = json.loads(line)
    except ValueError as exc:  # not JSON, or not even UTF-8
        raise RowError(f"not JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise RowError("not a JSON object")
    row = (raw.get("key") if key is None else key, raw.get("created"),
           raw.get("fingerprint", ""), raw.get("record"))
    check = raw.get("check", "")
    reason = why_invalid(*row, check, ledger=ledger)
    if reason is not None:
        raise RowError(reason)
    return row, check


def decode_rows(lines: Iterable[Union[str, bytes]]) -> Iterator[Row]:
    """The rows of JSONL lines in the sync dialect, decoded one at a time
    as the lines arrive (blank lines skipped)."""
    for line in lines:
        if line.strip():
            yield decode_row(line)[0]


def read_jsonl(path: Union[str, Path]) -> Iterator[Row]:
    """The rows of a JSONL export, one at a time (blank lines skipped)."""
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            if line.strip():
                try:
                    row = decode_row(line)[0]
                except RowError as exc:
                    raise RowError(f"{path}:{number}: {exc}") from None
                yield row


def scan_ledger(text: str) -> Iterator[
        Tuple[str, Optional[Row], str, Optional[str]]]:
    """``(line, row, check, None)`` for every valid line of a shard ledger
    and ``(line, None, "", reason)`` for every invalid one — a crashed
    append, bit rot, a line some other tool wrote.  Folding duplicates
    (last write wins) is the caller's business: ``fsck`` must see the
    dead lines too.
    """
    for line in text.splitlines():
        line = line.strip()
        if line:
            try:
                yield (line, *decode_row(line, ledger=True), None)
            except RowError as exc:
                yield line, None, "", str(exc)


def validated(rows: Iterable[Row]) -> Iterator[Row]:
    """Rows from outside the process (HTTP upload, JSONL import, ``store
    sync``), each proven decodable on its way in: a record that
    :func:`~repro.store.keys.record_from_dict` cannot rebuild must never
    reach a store.  The decoded object is dropped — the row travels on
    as the dict it arrived as, so it is written with the bytes it came
    with.
    """
    for row in rows:
        try:
            record_from_dict(row[3])
        except (KeyError, TypeError, ValueError) as exc:
            raise RowError(f"the record of key {row[0]!r} does not decode "
                           f"({type(exc).__name__}: {exc})") from exc
        yield row


def label_of(record: Dict[str, Any]) -> str:
    """``RunRequest.label`` read straight off a record dict ("" when it
    is not request-shaped: listings stay best-effort)."""
    try:
        request = record["request"]
        return (f"{request['protocol']['name']} {request['page']['name']} @ "
                f"{request['scenario']['name']} seed={request['seed']}")
    except (KeyError, TypeError):
        return ""


def labelled(rows: Iterable[Row]) -> Iterator[Tuple[str, float, str, str]]:
    """``StoreBackend.rows()`` from ``items()``: each record → its label."""
    for key, created, fingerprint, record in rows:
        yield key, created, fingerprint, label_of(record)


def counter_line(name: str, delta: int) -> str:
    return json.dumps({"name": name, "delta": delta}, sort_keys=True) + "\n"


def sum_counters(text: str) -> Tuple[Dict[str, int], int, int]:
    """``(totals, valid lines, torn lines)`` of a counters ledger."""
    totals: Dict[str, int] = {}
    lines = torn = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            totals[raw["name"]] = totals.get(raw["name"], 0) + raw["delta"]
            lines += 1
        except (ValueError, KeyError, TypeError):
            torn += 1  # a crashed bump, or bit rot
    return totals, lines, torn


def atomic_write(path: Union[str, Path], lines: Iterable[str]) -> None:
    """Replace ``path`` with ``lines``: temp file, flush, fsync, rename —
    a reader (or a crash) sees the old file or the new one, never a
    mixture.  Where a lock guards the file, the caller holds it."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        handle.writelines(lines)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
