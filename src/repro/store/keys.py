"""Canonical run keys: a stable content address for every RunRequest.

The executor made every run a pure function of ``(configuration,
seed)``; this module turns that configuration into a *content address*.
A :class:`~repro.core.executor.RunRequest` is reduced to a canonical,
type-tagged, JSON-serialisable form (:func:`canonical`), combined with a
fingerprint of the source code the run exercises, and hashed into a
:func:`run_key`.  Two guarantees follow:

* the *same logical request* — however it was constructed, in whatever
  process — always maps to the same key;
* *any* change to the request (a config field, the scenario, the seed,
  the device) or to the code it exercises produces a different key, so a
  store lookup can never return a stale result.

The code fingerprint covers every module of the package except the
layers above the simulation (:data:`UNKEYED`: ``cli.py``, ``fabric``,
``faults.py``, ``store``, the sweep engine ``sweep.py``, and ``video``,
which no run executes), and ``proxy/`` only for proxied runs
(:func:`code_fingerprints`).  A touch under ``video/`` or to the sweep
engine therefore leaves a cached PLT sweep's keys unchanged, while a
touch under ``netem/`` — or in any new module — invalidates it.  The key layer's own shape is versioned explicitly via
:data:`KEY_SCHEMA_VERSION`.

The module also provides the JSON codec used by the store backends to
persist :class:`~repro.core.executor.RunRecord` rows
(:func:`request_to_dict` / :func:`request_from_dict`,
:func:`record_to_dict` / :func:`record_from_dict`) and the row JSON
every store line and checksum is written in (:func:`row_json`): each
shared request part is serialised once per process for the run key and
once for the rows, a row's line and checksum come from one encoding of
its record, and each sweep cell's key text is hashed once up to its
seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import operator
from functools import lru_cache
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..devices import DEVICE_PROFILES, DeviceProfile
from ..http.objects import WebObject, WebPage
from ..netem.profiles import Scenario
from ..quic.config import QuicConfig
from ..tcp.config import TcpConfig
from ..transport.cc.cubic import CubicConfig
from ..core.executor import ProtocolSpec, RunFailure, RunRecord, RunRequest
from ..core.manyflow import ManyflowConfig

#: Bump when the canonical form itself changes shape, so stores written
#: by older code are invalidated wholesale instead of mis-read.
#: v2: whole-package code fingerprint replaced by per-subsystem
#: composites (since folded into :func:`code_fingerprints`; the
#: envelope did not change).
#: v3: per-record integrity checksums in the serialized row
#: (:func:`row_check`; verified by ``repro store fsck``).
KEY_SCHEMA_VERSION = 3


# ----------------------------------------------------------------------
# canonicalisation
# ----------------------------------------------------------------------
_SCALAR_TYPES = frozenset({bool, int, str, float})
#: Dataclass -> its field names, resolved once per class rather than
#: through ``dataclasses.fields`` on every node of every request.
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """The field names of dataclass ``cls``; None for anything else."""
    try:
        return _FIELD_NAMES[cls]
    except KeyError:
        names = _FIELD_NAMES[cls] = (
            tuple(f.name for f in dataclasses.fields(cls))
            if dataclasses.is_dataclass(cls) else None)
        return names


def _not_plain_data(obj: Any) -> TypeError:
    return TypeError(
        f"cannot canonicalise {type(obj).__name__!r}; run keys only cover "
        f"plain data (dataclasses, numbers, strings, sequences, mappings)")


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a canonical JSON-serialisable structure.

    Dataclasses become type-tagged dicts of their fields (so a
    ``QuicConfig`` and a ``TcpConfig`` that happened to share field
    values could never collide); tuples become lists; dict keys are
    emitted sorted by :func:`canonical_json` at dump time.  This is the
    *specification* of the canonical form; :func:`canonical_json`
    produces the same bytes in a single walk.
    """
    # Floats stay floats: repr() is the shortest round-trip form —
    # stable across platforms and processes for CPython floats.
    if obj is None or isinstance(obj, (bool, int, str, float)):
        return obj
    names = _field_names(obj.__class__)
    if names is not None:
        payload = {name: canonical(getattr(obj, name)) for name in names}
        payload["__type__"] = type(obj).__name__
        return payload
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, Mapping):
        return {str(key): canonical(value) for key, value in obj.items()}
    raise _not_plain_data(obj)


_quote = json.encoder.encode_basestring_ascii


def _encode_float(value: float) -> str:
    # What json.dumps emits for a float, its allow_nan spellings included.
    if math.isfinite(value):
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _encode_sequence(items: Iterable[Any]) -> str:
    return "[" + ",".join([_encode(item) for item in items]) + "]"


def _encode_mapping(mapping: Mapping[Any, Any]) -> str:
    items = {str(key): value for key, value in mapping.items()}
    return "{" + ",".join([_quote(key) + ":" + _encode(items[key])
                           for key in sorted(items)]) + "}"


def _dataclass_layout(cls: type, names: Tuple[str, ...]
                      ) -> Tuple[List[Tuple[str, str]], str]:
    """``cls``'s canonical text as ``(prefix, field)`` pairs in sorted-key
    order plus a constant tail: an instance's text is each prefix
    followed by its field's encoding, then the tail (pre-sorted,
    pre-quoted keys; the ``__type__`` tag is a constant of the class)."""
    parts: List[Tuple[str, str]] = []
    pending = "{"
    for position, key in enumerate(sorted({*names, "__type__"})):
        pending += "," if position else ""
        if key == "__type__":
            pending += '"__type__":' + _quote(cls.__name__)
        else:
            parts.append((pending + _quote(key) + ":", key))
            pending = ""
    return parts, pending + "}"


def _dataclass_encoder(cls: type, names: Tuple[str, ...]
                       ) -> Callable[[Any], str]:
    """An encoder emitting ``cls`` instances (:func:`_dataclass_layout`)."""
    parts, tail = _dataclass_layout(cls, names)

    def encode(obj: Any) -> str:
        return "".join([prefix + _encode(getattr(obj, name))
                        for prefix, name in parts]) + tail

    return encode


#: The request parts every seed of a sweep cell shares *by object*: one
#: page, scenario, device and protocol (and manyflow mix) instance
#: carried by every request of the cell.  Each such object gets one
#: :class:`_Part` memo entry holding everything a row needs of it — its
#: run-key fragment, its :func:`request_to_dict` dict and that dict's
#: neutral JSON text (:func:`row_json`) — so a sweep serialises each
#: part once, not once per row.  An entry is made only for an object
#: that reaches nothing but scalars, tuples and frozen dataclasses (the
#: configs a
#: :class:`ProtocolSpec` carries included), so what it holds can never
#: go stale; an object reaching anything else (a frozen page built
#: around a list) is never memoised.
_MEMOISED_CLASSES = (WebPage, Scenario, DeviceProfile, ManyflowConfig,
                     ProtocolSpec)


class _Part:
    """The memo entry of one shared request part (see above).

    ``fragment`` is filled by the first run key that needs it; ``data``
    (shared by every row that carries the part: read-only) and its
    neutral ``text`` by the first :func:`request_to_dict`.
    """

    __slots__ = ("source", "fragment", "data", "text")

    def __init__(self, source: Any) -> None:
        self.source = source
        self.fragment: Optional[str] = None
        self.data: Any = None
        self.text = ""


#: ``id(source object) -> its entry``.  The entry's strong reference
#: keeps the id from being recycled (an id found here *is* that object);
#: the bound keeps a long-lived process that keys ever-new pages from
#: growing (a full memo is simply dropped, and its parts re-walked).
_PARTS: Dict[int, _Part] = {}
_PARTS_BOUND = 256
#: ``id(entry.data) -> entry``: how a row writer recognises a part dict
#: it may splice (held and dropped together with :data:`_PARTS`).
_PART_OF_DATA: Dict[int, _Part] = {}
#: ``(fingerprint, field texts) -> _Cell``: the run-key state of each
#: sweep cell (:func:`run_key`), held and dropped together with
#: :data:`_PARTS`.
_CELLS: Dict[Tuple[str, Tuple[str, ...]], "_Cell"] = {}
#: ``(fingerprint, ids of the fields) -> (the fields, their cell)``: a
#: cell found again by the identity of every non-seed field of a request
#: whose fields are all immutable.  The entry holds the fields, so none
#: of those ids can be recycled while it lives.
_CELL_OF_IDS: Dict[Tuple[str, Tuple[int, ...]],
                   Tuple[Tuple[Any, ...], "_Cell"]] = {}


def _clear_memos() -> None:
    """Drop every part and cell memo (a full one is simply dropped, and
    its parts re-walked)."""
    _PARTS.clear()
    _PART_OF_DATA.clear()
    _CELLS.clear()
    _CELL_OF_IDS.clear()


def _immutable(obj: Any) -> bool:
    """Whether ``obj`` reaches nothing but scalars, tuples and frozen
    dataclasses."""
    cls = obj.__class__
    if obj is None or cls in _SCALAR_TYPES:
        return True
    if cls is tuple:
        return all(map(_immutable, obj))
    names = _field_names(cls)
    return (names is not None and cls.__dataclass_params__.frozen
            and all(_immutable(getattr(obj, name)) for name in names))


def _shared_part(obj: Any) -> Optional[_Part]:
    """``obj``'s memo entry, made on first sight, or None when ``obj``
    is not a shareable part."""
    part = _PARTS.get(id(obj))
    if part is not None:
        return part
    if obj.__class__ not in _MEMOISED_CLASSES or not _immutable(obj):
        return None
    if len(_PARTS) >= _PARTS_BOUND:
        _clear_memos()
    part = _PARTS[id(obj)] = _Part(obj)
    return part


def _fragment_encoder(walk: Callable[[Any], str]) -> Callable[[Any], str]:
    """``walk`` (a dataclass encoder), once per shareable part."""
    def encode(obj: Any) -> str:
        part = _shared_part(obj)
        if part is None:
            return walk(obj)
        if part.fragment is None:
            part.fragment = walk(obj)
        return part.fragment

    return encode


#: What ``json.dumps`` emits for each exact scalar type.
_SCALAR_ENCODERS: Dict[type, Callable[[Any], str]] = {
    type(None): {None: "null"}.__getitem__,
    bool: {False: "false", True: "true"}.__getitem__,
    int: int.__repr__,
    str: _quote,
    float: _encode_float,
}
#: Exact type -> encoder; dataclasses and scalar/sequence/mapping
#: subclasses are resolved on first sight (:func:`_resolve_encoder`).
_ENCODERS: Dict[type, Callable[[Any], str]] = {
    **_SCALAR_ENCODERS,
    list: _encode_sequence,
    tuple: _encode_sequence,
    dict: _encode_mapping,
}


def _resolve_encoder(obj: Any) -> Callable[[Any], str]:
    """The encoder for ``type(obj)``, in :func:`canonical`'s order."""
    cls = obj.__class__
    if isinstance(obj, int):
        encoder = _ENCODERS[int]
    elif isinstance(obj, str):
        encoder = _ENCODERS[str]
    elif isinstance(obj, float):
        encoder = _ENCODERS[float]
    elif (names := _field_names(cls)) is not None:
        encoder = _dataclass_encoder(cls, names)
        if cls in _MEMOISED_CLASSES:
            encoder = _fragment_encoder(encoder)
    elif isinstance(obj, (list, tuple)):
        encoder = _encode_sequence
    elif isinstance(obj, Mapping):
        encoder = _encode_mapping
    else:
        raise _not_plain_data(obj)
    _ENCODERS[cls] = encoder
    return encoder


def _encode(obj: Any) -> str:
    encoder = _ENCODERS.get(obj.__class__)
    if encoder is None:
        encoder = _resolve_encoder(obj)
    return encoder(obj)


def canonical_json(obj: Any) -> str:
    """The one true serialisation: sorted keys, no whitespace.

    Byte-for-byte ``json.dumps(canonical(obj), sort_keys=True,
    separators=(",", ":"))``, produced in one walk of ``obj``.
    """
    return _encode(obj)


# ----------------------------------------------------------------------
# code fingerprints
# ----------------------------------------------------------------------
#: The package entries no run key covers: the layers above the
#: simulation (the CLI, the fabric, fault injection, this store, the
#: sweep engine) and the video QoE player, which no :class:`RunRequest`
#: runs.  Nothing ``execute_request`` reaches calls them; every other
#: ``*.py`` under the package is keyed, so a new module is keyed by
#: default.
UNKEYED = ("cli.py", "fabric", "faults.py", "store", "sweep.py", "video")

#: ``str(package dir) -> (plain, proxied)``: constant for a process.
_FINGERPRINTS: Dict[str, Tuple[str, str]] = {}


@lru_cache(maxsize=None)
def _default_package_dir() -> Path:
    return Path(__file__).resolve().parent.parent


def code_fingerprints(package_dir: Optional[Path] = None) -> Tuple[str, str]:
    """``(plain, proxied)``: the sha256 over every keyed ``*.py`` of the
    package (path and bytes, in path order), cached per process and
    directory.  ``proxy/`` enters only ``proxied``: a plain run never
    routes through it."""
    if package_dir is None:
        package_dir = _default_package_dir()
    cached = _FINGERPRINTS.get(str(package_dir))
    if cached is not None:
        return cached
    plain, proxied = hashlib.sha256(), hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        relative = path.relative_to(package_dir).as_posix()
        top = relative.split("/", 1)[0]
        if top in UNKEYED:
            continue
        entry = b"%s\0%s\0" % (relative.encode(), path.read_bytes())
        proxied.update(entry)
        if top != "proxy":
            plain.update(entry)
    cached = _FINGERPRINTS[str(package_dir)] = (plain.hexdigest(),
                                                proxied.hexdigest())
    return cached


def fingerprint_for(request: RunRequest,
                    package_dir: Optional[Path] = None) -> str:
    """The code fingerprint entering ``request``'s run key."""
    return code_fingerprints(package_dir)[bool(request.proxied)]


# ----------------------------------------------------------------------
# row JSON
# ----------------------------------------------------------------------
#: A row's record is encoded once, into a *neutral* text separated by
#: control characters (``"\x00\x02"`` between items, ``"\x01\x03"``
#: between a key and its value), and one ``bytes.translate`` each turns
#: it into the row line (``json.dumps(..., sort_keys=True)``: shard
#: ledgers, exports, the wire) and the checksum payload (the same with
#: ``separators=(",", ":")``).  JSON escapes every U+0000–U+001F inside
#: a string, so a raw control character can only be a separator.
_ITEM, _KEY = "\x00\x02", "\x01\x03"
_SPACED = bytes.maketrans(b"\x00\x01\x02\x03", b",:  ")
_COMPACT = bytes.maketrans(b"\x00\x01", b",:")
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(_ITEM, _KEY),
                                check_circular=False)
#: A dict's keys in insertion order -> (its values in sorted-key order,
#: its ``%`` template with the quoted keys baked in): a sweep's records
#: come in a handful of shapes.
_SHAPES: Dict[Tuple[str, ...], Tuple[Callable[[Any], Any], str]] = {}


def _compile_shape(keys: Tuple[str, ...]) -> Tuple[Callable[[Any], Any], str]:
    order = sorted(keys)
    template = "{" + _ITEM.join([_quote(key).replace("%", "%%") + _KEY + "%s"
                                 for key in order]) + "}"
    if len(_SHAPES) >= _PARTS_BOUND:
        _SHAPES.clear()
    # One key's itemgetter returns the value itself, not a 1-tuple.
    values = (operator.itemgetter(*order) if len(order) > 1
              else lambda value: (value[order[0]],))
    shape = _SHAPES[keys] = (values, template)
    return shape


def _write_dict(value: Dict[Any, Any]) -> str:
    """``_ROW_ENCODER.encode`` of a dict, byte for byte, written in Python
    so that a part dict registered in :data:`_PART_OF_DATA` is spliced in
    as its memoised text.  A dict or list holding anything but plain
    JSON data (a ``str`` or ``int`` subclass, a non-string key) goes to
    the encoder whole, which also raises what the stdlib raises."""
    part = _PART_OF_DATA.get(id(value))
    if part is not None:
        return part.text
    keys = tuple(value)
    shape = _SHAPES.get(keys)
    if shape is None:
        if not keys:
            return "{}"
        if not all(key.__class__ is str for key in keys):
            return _ROW_ENCODER.encode(value)
        shape = _compile_shape(keys)
    values, template = shape
    try:
        return template % tuple([_WRITERS[item.__class__](item)
                                 for item in values(value)])
    except KeyError:  # a value of a type not in ``_WRITERS``
        return _ROW_ENCODER.encode(value)


def _write_list(value: Iterable[Any]) -> str:
    try:
        return "[" + _ITEM.join([_WRITERS[item.__class__](item)
                                 for item in value]) + "]"
    except KeyError:
        return _ROW_ENCODER.encode(value)


# Exact types only: the lookups above raise KeyError for the rest.
_WRITERS: Dict[type, Callable[[Any], str]] = {
    **_SCALAR_ENCODERS, dict: _write_dict, list: _write_list,
    tuple: _write_list}


def _pair_json(key: str, record: Any) -> str:
    """The neutral text of ``{"key": key, "record": record}`` — what the
    row line and the checksum payload both hold.

    A record built by :func:`record_to_dict` in this process is written
    around its request parts' memoised texts; any other — a row decoded
    from a file or the wire — goes to the stdlib encoder whole.
    """
    pair = {"key": key, "record": record}
    request = record.get("request") if record.__class__ is dict else None
    if request.__class__ is dict and not _PART_OF_DATA.keys().isdisjoint(
            map(id, request.values())):
        return _write_dict(pair)
    return _ROW_ENCODER.encode(pair)


def _check_of(pair: str) -> str:
    payload = pair.encode().translate(_COMPACT, b"\x02\x03")
    return hashlib.sha256(payload).hexdigest()[:16]


def _write(value: Any) -> str:
    return _WRITERS.get(value.__class__, _ROW_ENCODER.encode)(value)


#: A row's neutral text ``%`` (created, fingerprint, its pair's text past
#: the brace): ``"check"``, ``"created"``, ``"fingerprint"`` sort first.
_ROW = _ITEM.join(['{"created"' + _KEY + "%s", '"fingerprint"' + _KEY + "%s",
                   "%s"])
_CHECKED_ROW = '{"check"' + _KEY + '"%s"' + _ITEM + _ROW[1:]


def row_json(key: str, created: Any, fingerprint: Any, record: Any, *,
             check: bool = False) -> str:
    """``json.dumps(row, sort_keys=True)`` of the row ``{"key",
    "created", "fingerprint", "record"}`` — plus its :func:`row_check`
    under ``"check"`` when ``check`` — from one encoding of the record."""
    pair = _pair_json(key, record)
    fields = (_write(created), _write(fingerprint), pair[1:])
    line = (_CHECKED_ROW % (_check_of(pair), *fields) if check
            else _ROW % fields)
    return line.encode().translate(_SPACED).decode()


def row_check(key: str, record: Mapping[str, Any]) -> str:
    """The integrity checksum of one serialized store row.

    A truncated sha256 over the key and the record's canonical JSON —
    enough to catch bit rot, truncation and row swaps, short enough to
    cost nothing per line.  Written by every backend at append time and
    verified by ``repro store fsck`` (:mod:`repro.store.fsck`).
    """
    return _check_of(_pair_json(key, record))


#: A :class:`RunRequest`'s canonical layout (:func:`_dataclass_layout`):
#: its key prefixes in order, where the seed's sits, and a getter of
#: every field but the seed.
_REQUEST_PARTS, _REQUEST_TAIL = _dataclass_layout(
    RunRequest, _field_names(RunRequest))
_REQUEST_PREFIXES = [prefix for prefix, _name in _REQUEST_PARTS]
_SEED_AT = [name for _prefix, name in _REQUEST_PARTS].index("seed")
_cell_values = operator.attrgetter(
    *[name for _prefix, name in _REQUEST_PARTS if name != "seed"])
#: The run-key envelope: canonical_json({"code": .., "request": ..,
#: "schema": ..}), its three sorted keys spelled out.
_KEY_HEAD = '{"code":%s,"request":'
_KEY_TAIL = ',"schema":%d}' % KEY_SCHEMA_VERSION


class _Cell:
    """The run key of every seed of one sweep cell, short of the seed:
    ``state`` has hashed the key text up to and including ``"seed":``,
    ``suffix`` is the text after the seed."""

    __slots__ = ("state", "suffix")

    def __init__(self, fingerprint: str, texts: Tuple[str, ...]) -> None:
        head = "".join(map(operator.add, _REQUEST_PREFIXES[:_SEED_AT],
                           texts[:_SEED_AT]))
        tail = "".join(map(operator.add, _REQUEST_PREFIXES[_SEED_AT + 1:],
                           texts[_SEED_AT:]))
        self.state = hashlib.sha256(
            (_KEY_HEAD % _quote(fingerprint) + head
             + _REQUEST_PREFIXES[_SEED_AT]).encode())
        self.suffix = (tail + _REQUEST_TAIL + _KEY_TAIL).encode()


def _cell_of(fingerprint: str, values: Tuple[Any, ...]
             ) -> Tuple[_Cell, bool]:
    """The cell of a request with the non-seed fields ``values``, made on
    first sight, and whether every one of those is immutable.

    A cell is memoised under the fingerprint and the encoded text of
    every field — text, not value, since ``==`` cannot tell ``0.0`` from
    ``-0.0`` or ``True`` from ``1``.  A memoised part's text is its
    fragment, found by id: an id in :data:`_PARTS` is that entry's
    object, which the entry keeps alive.
    """
    texts = []
    immutable = True
    for value in values:
        part = _PARTS.get(id(value))
        if part is None or part.fragment is None:
            texts.append(_encode(value))
            immutable = immutable and (value.__class__ in _SCALAR_ENCODERS
                                       or id(value) in _PARTS)
        else:
            texts.append(part.fragment)
    key = (fingerprint, tuple(texts))
    cell = _CELLS.get(key)
    if cell is None:
        if len(_CELLS) >= _PARTS_BOUND:
            _clear_memos()
        cell = _CELLS[key] = _Cell(fingerprint, key[1])
    return cell, immutable


def run_key(request: RunRequest, *, fingerprint: Optional[str] = None) -> str:
    """The content address of one run: sha256 of request + code.

    ``fingerprint`` defaults to the current code's fingerprint for this
    request (:func:`fingerprint_for`); tests (and cross-machine stores
    that pin a release) may pass their own.

    Every seed of a sweep cell shares the key text around its seed, so
    an exact :class:`RunRequest` with an exact ``int`` seed hashes only
    the seed and the text after it, from its cell's memoised state
    (:func:`_cell_of`); anything else is walked whole.  The bytes hashed
    are the same either way.  The seeds of a sweep cell carry the very
    same field objects, so a request whose fields are all immutable
    finds its cell again by their ids (:data:`_CELL_OF_IDS`).
    """
    if fingerprint is None:
        fingerprint = fingerprint_for(request)
    if (request.__class__ is not RunRequest
            or request.seed.__class__ is not int
            or fingerprint.__class__ is not str):
        payload = (_KEY_HEAD % _encode(fingerprint) + _encode(request)
                   + _KEY_TAIL)
        return hashlib.sha256(payload.encode()).hexdigest()
    values = _cell_values(request)
    ids = (fingerprint, tuple(map(id, values)))
    held = _CELL_OF_IDS.get(ids)
    if held is None:
        cell, immutable = _cell_of(fingerprint, values)
        if immutable:
            if len(_CELL_OF_IDS) >= _PARTS_BOUND:
                _clear_memos()
            _CELL_OF_IDS[ids] = (values, cell)
    else:
        cell = held[1]
    state = cell.state.copy()
    state.update(b"%d" % request.seed + cell.suffix)
    return state.hexdigest()


# ----------------------------------------------------------------------
# request / record JSON codec (persistence, not hashing)
# ----------------------------------------------------------------------
def _config_to_dict(config: Any) -> Optional[Dict[str, Any]]:
    if config is None:
        return None
    out = {}
    for name in _field_names(config.__class__):
        value = getattr(config, name)
        out[name] = (_config_to_dict(value)
                     if _field_names(value.__class__) is not None else value)
    return out


def _config_from_dict(cls: type, raw: Optional[Mapping[str, Any]]) -> Any:
    if raw is None:
        return None
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s): {', '.join(map(repr, unknown))}")
    kwargs = {}
    for name, value in raw.items():
        # A nested CC config dict (QuicConfig.cc / TcpConfig.cc); the
        # string-valued ManyflowConfig.cc kernel name passes through.
        if name == "cc" and isinstance(value, Mapping):
            value = _config_from_dict(CubicConfig, value)
        kwargs[name] = value
    return cls(**kwargs)


def _page_to_dict(page: WebPage) -> Dict[str, Any]:
    return {"name": page.name,
            "objects": [[o.obj_id, o.size_bytes] for o in page.objects]}


def _protocol_to_dict(protocol: ProtocolSpec) -> Dict[str, Any]:
    return {"name": protocol.name, "config": _config_to_dict(protocol.config)}


def _part_dict(obj: Any, build: Callable[[Any], Any]) -> Any:
    """``build(obj)``, once per shareable part: the dict is then shared
    by every row that carries ``obj`` and registered, with its neutral
    JSON text, for :func:`row_json` to splice."""
    part = _shared_part(obj)
    if part is None:
        return build(obj)
    if part.data is None:
        data = part.data = build(obj)
        part.text = _ROW_ENCODER.encode(data)
        _PART_OF_DATA[id(data)] = part
    return part.data


def request_to_dict(request: RunRequest) -> Dict[str, Any]:
    """A plain-JSON description of a request, rebuildable bit-identically.

    The scenario, page, protocol, device and manyflow parts are shared
    between calls on the same part objects: treat the result as
    read-only.
    """
    return {
        "scenario": _part_dict(request.scenario,
                               operator.methodcaller("to_spec")),
        "page": _part_dict(request.page, _page_to_dict),
        "protocol": _part_dict(request.protocol, _protocol_to_dict),
        "device": _part_dict(request.device, _config_to_dict),
        "seed": request.seed,
        "trace": request.trace,
        "cwnd_interval": request.cwnd_interval,
        "proxied": request.proxied,
        "timeout": request.timeout,
        # None for ordinary page loads; a plain dict for manyflow runs.
        # Readers use .get, so rows written before the field existed
        # still decode.
        "manyflow": _part_dict(request.manyflow, _config_to_dict),
    }


def request_from_dict(raw: Mapping[str, Any]) -> RunRequest:
    scenario = Scenario.from_spec(dict(raw["scenario"]))
    page = WebPage(
        raw["page"]["name"],
        tuple(WebObject(obj_id, size)
              for obj_id, size in raw["page"]["objects"]),
    )
    proto_raw = raw["protocol"]
    config_cls = QuicConfig if proto_raw["name"] == "quic" else TcpConfig
    protocol = ProtocolSpec(
        proto_raw["name"], _config_from_dict(config_cls, proto_raw["config"]))
    device_raw = dict(raw["device"])
    device = DEVICE_PROFILES.get(device_raw.get("name", ""))
    if device is None or _config_to_dict(device) != device_raw:
        device = DeviceProfile(**device_raw)
    return RunRequest(
        scenario=scenario, page=page, protocol=protocol,
        seed=raw["seed"], device=device, trace=raw["trace"],
        cwnd_interval=raw["cwnd_interval"], proxied=raw["proxied"],
        timeout=raw["timeout"],
        manyflow=_config_from_dict(ManyflowConfig, raw.get("manyflow")),
    )


def record_to_dict(record: RunRecord) -> Dict[str, Any]:
    return {
        "request": request_to_dict(record.request),
        "plt": record.plt,
        "complete": record.complete,
        "metrics": dict(record.metrics),
        "wall_time": record.wall_time,
        "attempts": record.attempts,
        "failure": (None if record.failure is None else
                    {"kind": record.failure.kind,
                     "message": record.failure.message}),
    }


def record_from_dict(raw: Mapping[str, Any],
                     request: Optional[RunRequest] = None) -> RunRecord:
    """The record a row dict spells.

    ``request`` is for a caller that already holds the request the row
    is stored under — a cache hit, whose key *is* the request's content
    address: the record carries that very object and ``raw["request"]``
    is not decoded (nor proven decodable) again.  The outcome half is
    decoded the same either way.
    """
    failure = raw.get("failure")
    return RunRecord(
        request=request_from_dict(raw["request"]) if request is None
        else request,
        plt=raw["plt"],
        complete=raw["complete"],
        metrics=dict(raw["metrics"]),
        wall_time=raw["wall_time"],
        attempts=raw["attempts"],
        failure=None if failure is None else RunFailure(**failure),
    )
