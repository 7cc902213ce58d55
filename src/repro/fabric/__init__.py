"""The distributed sweep fabric: a network transport for the store.

The store layer (:mod:`repro.store`) already makes every sweep
resumable and dedup'd — run keys are content addresses, so a hit is
definitionally fresh and ``merge_into`` syncs any two stores.  This
package adds the missing piece named by the roadmap: a *network*
transport plus a work-sharing coordinator, turning the experiment grid
into a distributed, resumable job queue with zero third-party
dependencies.

Three layers:

* :mod:`repro.fabric.server` — :class:`StoreServer`, a stdlib
  ``ThreadingHTTPServer`` exposing any local :class:`~repro.store.
  backend.StoreBackend` over HTTP in the content-addressed key
  protocol (``GET /records/<key>``, batched ``POST /missing``,
  bulk ``POST /records``, ``GET /stats``, ``GET /healthz``).  The CLI
  front-end is ``repro serve``.
* :mod:`repro.fabric.client` — :class:`RemoteStore`, the client-side
  :class:`~repro.store.backend.StoreBackend` for a served store, so
  ``open_store("http://host:port")``, ``merge_into``, ``repro store
  sync`` and ``repro report --from-store`` all work unchanged against
  a remote.  Speaks the same ``KEY_SCHEMA_VERSION`` as the key layer
  and refuses to sync across versions.
* :mod:`repro.fabric.coordinator` — :func:`iter_fabric_runs`, the
  work-sharing coordinator: one batched ``/missing`` call computes the
  sweep's miss-list, the misses are sharded across N worker processes
  (each executing through :func:`~repro.sweep.iter_runs` into
  a private local shard store and bulk-uploading with retry/backoff),
  and the merged, typed :class:`~repro.sweep.RunEvent` stream
  reaches the parent.  A killed worker loses nothing: its keys are
  still missing server-side, so the coordinator respawns it (or a
  rerun resumes) and only the absent cells execute.  The CLI
  front-end is ``repro worker``.
"""

from .client import (
    FabricConnectionError,
    FabricError,
    RemoteStore,
    SchemaMismatchError,
)
from .coordinator import (
    FabricWorkerError,
    iter_fabric_runs,
    run_fabric_sweep,
)
from .server import StoreServer

__all__ = [
    "FabricConnectionError",
    "FabricError",
    "FabricWorkerError",
    "RemoteStore",
    "SchemaMismatchError",
    "StoreServer",
    "iter_fabric_runs",
    "run_fabric_sweep",
]
