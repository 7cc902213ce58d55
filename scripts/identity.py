#!/usr/bin/env python
"""Per-cell outcome identity of ``grid_serial`` between a parent and this
checkout.

Usage::

    python scripts/identity.py --parent REV [--seeds 0,7]

A perf change to the simulator owes bit-identical outcomes (ROADMAP
ground rules).  This runs the 480 page loads of the ``grid_serial``
end-to-end workload at each seed on both sides — ``REV`` through ``git
archive``, the change as the files of this checkout, each in its own
scratch copy made the way ``scripts/bench_pairs.py`` makes them — and
compares, cell by cell: PLT, completion, the client's and the server's
stats, the loss machinery's end state on each endpoint (congestion
window; TCP's duplicate threshold; QUIC's declared and false losses and
NACK threshold), every link's counters, the final simulated clock and
``events_processed``.  It prints the first cell and component that
differ and exits 1, or prints one ``equal`` line per seed and exits 0.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from bench_pairs import SIDES, export_checkout, export_rev

#: The loss machinery's end state on one endpoint, as the dump records it:
#: a trim of loss bookkeeping that shifts these shows even when the stats
#: agree.  (Source text: it runs inside each side's tree.)
LOSS_STATE = '''
def loss_state(conn):
    state = {"cwnd": conn.cc.cwnd}
    if hasattr(conn, "dupthresh"):
        state["dupthresh"] = conn.dupthresh
    detector = getattr(conn, "loss_detector", None)
    if detector is not None:
        state.update(losses_declared=detector.losses_declared,
                     false_losses=detector.false_losses,
                     threshold=detector.threshold)
    return state
'''
#: Runs in a side's tree (``python - SEED``): one JSON line per cell.  It
#: reads only surface both sides have — ``run_page_load``, its output's
#: endpoints (stats, congestion controller, loss state) and the path's
#: network.
DUMP = '''
import json, sys
from benchmarks.e2e.workloads import FULL, build_requests
from repro.core.runner import run_page_load
''' + LOSS_STATE + '''
for index, req in enumerate(build_requests("grid_serial", FULL, int(sys.argv[1]))):
    out = run_page_load(req.scenario, req.page, req.protocol, seed=req.seed,
                        device=req.device, trace=req.trace,
                        cwnd_interval=req.cwnd_interval, proxied=req.proxied,
                        timeout=req.timeout)
    print(json.dumps({
        "cell": index, "label": req.label, "plt": out.result.plt,
        "complete": out.result.complete,
        "client": vars(out.client.stats), "server": vars(out.server.stats),
        "loss": {"client": loss_state(out.client),
                 "server": loss_state(out.server)},
        "links": {f"{a}->{b}": link.stats.as_dict()
                  for (a, b), link in sorted(out.path.network.links.items())},
        "now": out.sim.now, "events": out.sim.events_processed}))
'''
#: The components compared, in the order a difference is looked for.
COMPONENTS = ("plt", "complete", "client", "server", "loss", "links", "now",
              "events")


def dump(tree: Path, seed: int, code: str = DUMP) -> List[Dict[str, Any]]:
    """Every cell's outcome at ``seed``, run from the root of ``tree``."""
    done = subprocess.run(
        [sys.executable, "-", str(seed)], input=code, cwd=tree,
        env={**os.environ, "PYTHONPATH": f"{tree / 'src'}:{tree}"},
        capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"cell dump in {tree} at seed {seed} failed "
                           f"(exit {done.returncode}):\n{done.stderr[-2000:]}")
    return [json.loads(line) for line in done.stdout.splitlines() if line]


def _differs(path: str, parent: Any, change: Any) -> Optional[str]:
    """The first leaf under ``path`` where the two values differ."""
    if isinstance(parent, dict) and isinstance(change, dict):
        for key in sorted(set(parent) | set(change)):
            found = _differs(f"{path}.{key}", parent.get(key, "<missing>"),
                             change.get(key, "<missing>"))
            if found:
                return found
        return None
    if parent != change:
        return f"{path}: parent {parent!r}, change {change!r}"
    return None


def first_difference(parent: List[Dict[str, Any]],
                     change: List[Dict[str, Any]]) -> Optional[str]:
    """The first differing cell and component, or None when all are equal."""
    if len(parent) != len(change):
        return f"cell count: parent {len(parent)}, change {len(change)}"
    for old, new in zip(parent, change):
        for component in COMPONENTS:
            found = _differs(component, old.get(component),
                             new.get(component))
            if found:
                return f"cell {old['cell']} ({old['label']}): {found}"
    return None


def main(argv: Sequence[str] = None, *, trees: Dict[str, Path] = None,
         code: str = DUMP) -> int:
    """``trees`` and ``code`` are the test seam: a test injects two
    prepared directories and a fake dump, so it needs neither git nor a
    real sweep."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--seeds", default="0,7",
                        help="comma-separated (default: 0,7)")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    with tempfile.TemporaryDirectory(prefix="identity-") as scratch:
        if trees is None:
            trees = {side: Path(scratch) / side for side in SIDES}
            for tree in trees.values():
                tree.mkdir()
            export_rev(args.parent, trees["parent"])
            export_checkout(trees["change"])
        for seed in seeds:
            rows = {side: dump(trees[side], seed, code) for side in SIDES}
            found = first_difference(rows["parent"], rows["change"])
            if found:
                print(f"seed {seed}: DIFFERENT at {found}")
                return 1
            print(f"seed {seed}: equal over {len(rows['change'])} cells")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
