"""The distributed sweep fabric: a network transport for the store.

The store layer (:mod:`repro.store`) already makes every sweep
resumable and dedup'd — run keys are content addresses, so a hit is
definitionally fresh and ``merge_into`` syncs any two stores.  This
package adds a *network* transport plus a work-sharing entry point,
turning the experiment grid into a distributed, resumable job queue
with zero third-party dependencies.

Three layers:

* :mod:`repro.fabric.server` — :class:`StoreServer`, a stdlib
  ``ThreadingHTTPServer`` exposing any local :class:`~repro.store.
  backend.StoreBackend` over HTTP in the content-addressed key
  protocol (``GET /records/<key>``, batched ``POST /missing`` and
  ``POST /fetch``, bulk ``POST /records``, ``GET /stats``, ``GET
  /healthz``).  The CLI front-end is ``repro serve``.
* :mod:`repro.fabric.client` — :class:`RemoteStore`, the client-side
  :class:`~repro.store.backend.StoreBackend` for a served store, so
  ``open_store("http://host:port")``, ``merge_into``, ``repro store
  sync`` and ``repro report --from-store`` all work unchanged against
  a remote.  Speaks the same ``KEY_SCHEMA_VERSION`` as the key layer
  and refuses to sync across versions.
* :mod:`repro.fabric.coordinator` — :func:`iter_fabric_runs`, a thin
  call of the sweep engine behind :func:`~repro.sweep.iter_runs` with
  the sweep's store at a server: lookups fetched one window at a time,
  the misses sharded across N worker processes that each upload
  ``sync_every`` rows at a time before those runs' terminal events
  leave them, and the merged, typed :class:`~repro.sweep.RunEvent`
  stream in the parent.  A killed worker loses nothing it reported:
  its unreported runs have no terminal event, so its respawn (or a
  rerun) executes only those.  The CLI front-end is ``repro worker``.
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
