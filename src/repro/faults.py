"""Deterministic fault injection for the sweep fabric (`repro.faults`).

The fabric's crash-safety story (terminal events held until their
rows are uploaded, idempotent uploads, worker respawn) is only as
trustworthy as the faults it has survived.  This module makes fault
injection *seeded and replayable*, so "it survived chaos run 42" is a
reproducible claim, not an anecdote — the same way run keys made cache
hits definitionally fresh.

The pieces:

* :class:`FaultSpec` — one scheduled fault: a surface (``store`` /
  ``http`` / ``worker``), a kind, an operation filter, and *when* it
  fires (the Nth matching operation).
* :class:`FaultPlan` — an ordered, seeded schedule of specs with a
  thread-safe one-shot trigger (:meth:`FaultPlan.take`).  Injection
  points call ``plan.take(surface, op)`` on every operation; the plan
  counts operations per surface (and per filtered op) and hands back a
  :class:`FaultEvent` exactly once per spec when its count comes up.
  Two plans built from the same seed fire the identical schedule.
* :class:`FaultyStore` — a :class:`~repro.store.backend.StoreBackend`
  decorator that injects torn writes, transient ``OSError``\\ s and
  latency into a shard store.

The other two surfaces live where the operations happen: the HTTP
fault hook in :class:`repro.fabric.server.StoreServer` (``fault_plan=``
— scheduled 5xx, stalled/truncated bodies, dropped connections) and
worker kills in the sweep engine's worker group, armed by
:func:`repro.fabric.iter_fabric_runs` (``fault_plan=`` — SIGKILL worker
N after its Mth event).

Injected *write* faults always fail the operation loudly (the torn
bytes land on disk **and** the caller gets ``OSError``), so the normal
retry path re-uploads and the store converges to the fault-free state
— which is exactly what the chaos check (``scripts/chaos_sweep.py``)
asserts.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .core.executor import RunRecord
from .store.backend import StoreBackend
from .store.keys import record_to_dict
from .store.rows import Row, encode_row
from .store.shards import ShardStore

#: Fault kinds each surface understands.
SURFACE_KINDS: Dict[str, Tuple[str, ...]] = {
    "store": ("torn_write", "os_error", "latency"),
    "http": ("error_500", "stall", "drop", "truncate"),
    "worker": ("kill",),
}


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``op`` filters which operations count ("" matches any operation on
    the surface): store ops are method names (``put``, ``put_many``,
    ``get`` …), HTTP ops are endpoint paths (``/records``, ``/fetch``
    …), worker ops are worker ids as strings.  ``after`` is how many
    matching operations pass *before* the fault fires (0 = the very
    first one).  ``param`` parameterises the kind — seconds for
    ``latency`` / ``stall``, unused otherwise.
    """

    surface: str
    kind: str
    op: str = ""
    after: int = 0
    param: float = 0.0

    def __post_init__(self) -> None:
        kinds = SURFACE_KINDS.get(self.surface)
        if kinds is None:
            raise ValueError(
                f"unknown fault surface {self.surface!r} (expected one of "
                f"{', '.join(SURFACE_KINDS)})")
        if self.kind not in kinds:
            raise ValueError(
                f"surface {self.surface!r} has no fault kind {self.kind!r} "
                f"(expected one of {', '.join(kinds)})")
        if self.after < 0:
            raise ValueError("after must be >= 0")


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired: the spec plus where it landed."""

    spec: FaultSpec
    op: str        #: the concrete operation it fired on
    sequence: int  #: 0-based firing order within the plan


class FaultPlan:
    """A seeded, deterministic, replayable schedule of faults.

    Thread-safe: injection points in server handler threads, pool
    workers and the coordinator all share one plan.  Each spec fires at
    most once (one-shot), on the first matching operation whose count
    has reached ``spec.after``.  :meth:`schedule` describes what *will*
    fire; :meth:`fired` describes what *did* — asserting the two lists
    agree across two same-seed runs is the determinism test.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), *,
                 seed: Optional[int] = None) -> None:
        self.seed = seed
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._lock = threading.Lock()
        self._done: set = set()
        self._fired: List[FaultEvent] = []
        #: operations seen per surface and per (surface, op).
        self._surface_counts: Dict[str, int] = {}
        self._op_counts: Dict[Tuple[str, str], int] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def seeded(cls, seed: int, *, count: int = 6,
               surfaces: Sequence[str] = ("store", "http", "worker"),
               horizon: int = 40) -> "FaultPlan":
        """A random-but-deterministic plan: ``count`` faults spread over
        the first ``horizon`` operations of the named surfaces.

        The schedule is a pure function of the arguments — the
        replayability contract the chaos check leans on.
        """
        rng = random.Random(f"repro-fault-plan:{seed}")
        specs = []
        for _ in range(count):
            surface = surfaces[rng.randrange(len(surfaces))]
            kinds = SURFACE_KINDS[surface]
            kind = kinds[rng.randrange(len(kinds))]
            param = (round(rng.uniform(0.01, 0.05), 3)
                     if kind in ("latency", "stall") else 0.0)
            specs.append(FaultSpec(surface=surface, kind=kind, op="",
                                   after=rng.randrange(horizon), param=param))
        return cls(specs, seed=seed)

    # -- the trigger -------------------------------------------------------
    def take(self, surface: str, op: str = "") -> Optional[FaultEvent]:
        """Count one operation; return the fault due on it, if any.

        At most one fault fires per operation (specs are consulted in
        schedule order); a spec whose turn was shadowed by an earlier
        spec fires on the next matching operation instead of being
        lost.
        """
        with self._lock:
            n_surface = self._surface_counts.get(surface, 0)
            self._surface_counts[surface] = n_surface + 1
            op_key = (surface, op)
            n_op = self._op_counts.get(op_key, 0)
            self._op_counts[op_key] = n_op + 1
            for index, spec in enumerate(self.specs):
                if index in self._done or spec.surface != surface:
                    continue
                if spec.op and spec.op != op:
                    continue
                count = n_op if spec.op else n_surface
                if count >= spec.after:
                    self._done.add(index)
                    event = FaultEvent(spec=spec, op=op,
                                       sequence=len(self._fired))
                    self._fired.append(event)
                    return event
            return None

    # -- introspection -----------------------------------------------------
    def schedule(self) -> List[Dict[str, Any]]:
        """The plan as plain dicts (stable across processes; loggable)."""
        return [dataclasses.asdict(spec) for spec in self.specs]

    def fired(self) -> List[Dict[str, Any]]:
        """Every fault that has fired so far, in firing order."""
        with self._lock:
            return [{"sequence": event.sequence, "op": event.op,
                     **dataclasses.asdict(event.spec)}
                    for event in self._fired]

    def pending(self) -> int:
        """Specs still armed."""
        with self._lock:
            return len(self.specs) - len(self._done)

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed!r}, specs={len(self.specs)}, "
                f"fired={len(self._fired)})")


class FaultyStore(StoreBackend):
    """A store decorator that injects the plan's ``store`` faults.

    Wraps a :class:`~repro.store.shards.ShardStore`.  ``latency`` sleeps
    then proceeds; ``os_error`` raises a transient :class:`OSError`
    without touching the inner store; ``torn_write`` (on ``put`` /
    ``put_many``) appends a truncated line to the underlying shard file
    **and** raises ``OSError`` — the on-disk state a crash mid-append
    leaves behind, with the failure surfaced so idempotent retry
    re-uploads the row.  ``upload_rows`` is inherited on purpose: the
    default feeds every uploaded row through the instrumented
    :meth:`put`, so ``op="put"`` counts see them all.
    """

    kind = "faulty"

    def __init__(self, inner: ShardStore, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.path = inner.path

    # -- fault plumbing ----------------------------------------------------
    def _trip(self, op: str) -> Optional[FaultEvent]:
        """Consult the plan; handle latency/os_error inline."""
        event = self.plan.take("store", op)
        if event is None:
            return None
        if event.spec.kind == "latency":
            time.sleep(event.spec.param)
            return None
        if event.spec.kind == "os_error":
            raise OSError(f"injected transient fault during {op}")
        return event  # torn_write: the caller decides how to tear

    def _tear(self, key: str, record: RunRecord, fingerprint: str) -> None:
        """Leave half a line on disk, exactly like a crashed append."""
        inner = self.inner
        shard = inner.shard_of(key)
        full = encode_row(key, time.time(), fingerprint,
                          record_to_dict(record), check=True)
        with inner._locked(shard):
            with open(inner._data_path(shard), "a") as handle:
                handle.write(full[:max(1, len(full) // 2)])
                handle.flush()

    # -- instrumented operations -------------------------------------------
    def get(self, key: str) -> Optional[RunRecord]:
        self._trip("get")
        return self.inner.get(key)

    def put(self, key: str, record: RunRecord, *, fingerprint: str = "",
            created: Optional[float] = None) -> None:
        event = self._trip("put")
        if event is not None:  # torn_write
            self._tear(key, record, fingerprint)
            raise OSError("injected torn write during put")
        self.inner.put(key, record, fingerprint=fingerprint, created=created)

    def put_many(self, entries: List[Tuple[str, RunRecord, str]], *,
                 created: Optional[float] = None) -> int:
        event = self._trip("put_many")
        if event is not None:  # torn_write: first row tears, none land
            if entries:
                key, record, fingerprint = entries[0]
                self._tear(key, record, fingerprint)
            raise OSError("injected torn write during put_many")
        return self.inner.put_many(entries, created=created)

    def __contains__(self, key: str) -> bool:
        self._trip("contains")
        return key in self.inner

    def items(self) -> Iterator[Row]:
        self._trip("items")
        return self.inner.items()

    def row(self, key: str) -> Optional[Row]:
        self._trip("row")
        return self.inner.row(key)

    def bump_counter(self, name: str, delta: int = 1) -> None:
        self._trip("bump_counter")
        self.inner.bump_counter(name, delta)

    # -- plain delegation ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.inner)

    def keys(self) -> List[str]:
        return self.inner.keys()

    def rows(self) -> Iterator[Tuple[str, float, str, str]]:
        return self.inner.rows()

    def delete(self, key: str) -> bool:
        return self.inner.delete(key)

    def gc(self, older_than_seconds: float, now: Optional[float] = None,
           *, dry_run: bool = False) -> int:
        return self.inner.gc(older_than_seconds, now, dry_run=dry_run)

    def fingerprints(self) -> Dict[str, int]:
        return self.inner.fingerprints()

    def counters(self) -> Dict[str, int]:
        return self.inner.counters()

    def close(self) -> None:
        self.inner.close()
