"""The chaos check: a seeded fault-injected sweep must change nothing.

The fabric's crash-safety claims (terminal events held until their
rows are uploaded, idempotent uploads, respawn-and-rerun) are
exercised here under a *deterministic* :class:`repro.faults.FaultPlan`:
an HTTP 5xx burst, torn shard writes on the server's backing store, one
worker SIGKILL and one server stall, all scheduled from one seed.  Per
seed, :func:`verdict` checks five contracts:

* ``results_identical`` — after the faults, ``repro report
  --from-store`` over the served store is byte-identical to a
  fault-free run of the same sweep;
* ``fsck_clean`` — ``repro store fsck --repair`` quarantines the torn
  debris the injected faults left behind, and a second fsck pass finds
  zero residual corruption (and the repaired store still renders the
  identical report);
* corruptions detected — fsck finds every one of the (at least one)
  row corruptions injected separately;
* ``plan_deterministic`` — the same seed builds the identical fault
  schedule twice (the replayability contract);
* faults fired — every scheduled fault fired (and there was one).

Usage::

    PYTHONPATH=src python scripts/chaos_sweep.py \\
        [--cells 600] [--workers 3] [--seed 42] [--repeat N]

It runs seeds ``SEED`` … ``SEED+N-1`` (``N`` defaults to 1), prints one
contract line per seed, writes no file, and exits 1 naming every seed
that failed a contract: a rare wedge or race shows up only across many
seeds, so CI runs ``--repeat 10``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import tempfile
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.executor import ProtocolSpec, RunRecord, RunRequest
from repro.core.report import build_store_report
from repro.fabric import StoreServer, iter_fabric_runs
from repro.faults import FaultPlan, FaultSpec, FaultyStore
from repro.http import single_object_page
from repro.netem import emulated
from repro.store import ShardStore, fsck
from repro.sweep import usable_cpu_count

SCN = emulated(10.0)
PAGE = single_object_page(10_000)


def _synthetic_run(request: RunRequest) -> RunRecord:
    """Deterministic, nearly-free: the chaos exercises the plumbing."""
    plt = 0.25 + (request.seed % 97) / 1000.0
    return RunRecord(request=request, plt=plt, complete=True)


def build_requests(cells: int):
    protocols = (ProtocolSpec.quic(), ProtocolSpec.tcp())
    return [RunRequest(scenario=SCN, page=PAGE,
                       protocol=protocols[i % 2], seed=i)
            for i in range(cells)]


#: The smallest sweep whose requests reach every scheduled fault: the
#: plan's HTTP offsets are fixed (up to the 14th request), and a
#: 200-cell sweep left one fault unfired on 6-7 of 20 seeds (300 and 400
#: cells: none of 20).
MIN_CELLS = 300


def build_plan(seed: int, cells: int) -> FaultPlan:
    """The headline schedule: 5xx burst, torn writes, a kill, a stall.

    Every offset is drawn from one seeded RNG, so the whole schedule —
    not just its shape — is a pure function of ``seed``.
    """
    rng = random.Random(f"chaos-sweep:{seed}")
    specs = [
        # a burst of three scheduled 5xx replies early in the sweep
        # (windows stay low: even a small sweep makes ~15 requests)
        FaultSpec("http", "error_500", after=rng.randint(2, 4)),
        FaultSpec("http", "error_500", after=rng.randint(5, 7)),
        FaultSpec("http", "error_500", after=rng.randint(8, 10)),
        # one stalled request mid-sweep (sleeps outside the store lock)
        FaultSpec("http", "stall", after=rng.randint(11, 14),
                  param=round(rng.uniform(0.2, 0.4), 3)),
        # torn appends on the server's backing store: the bytes tear
        # AND the request 500s, so the idempotent retry re-uploads
        FaultSpec("store", "torn_write", op="put",
                  after=rng.randint(5, cells // 4)),
        FaultSpec("store", "torn_write", op="put",
                  after=rng.randint(cells // 4, cells // 2)),
        # SIGKILL worker 1 after a handful of its events
        FaultSpec("worker", "kill", op="1", after=rng.randint(5, 25)),
    ]
    return FaultPlan(specs, seed=seed)


def _report(store) -> str:
    return build_store_report(store).replace(str(store.path), "STORE")


def run_sweep(requests, workdir: Path, *, workers: int, sync_every: int,
              plan: FaultPlan = None) -> float:
    """One full fabric sweep into ``workdir/central``; returns seconds.

    With a plan, all three fault surfaces are armed: the backing store
    is wrapped in :class:`FaultyStore`, the server takes the HTTP hook,
    and the sweep engine's worker group takes the worker-kill hook.
    """
    central = ShardStore(workdir / "central")
    backing = central if plan is None else FaultyStore(central, plan)
    start = time.perf_counter()
    with StoreServer(backing, port=0, fault_plan=plan) as server:
        for _event in iter_fabric_runs(
                requests, server.url, workers=workers,
                sync_every=sync_every, run_fn=_synthetic_run,
                fault_plan=plan,
                wall_timeout=60.0):
            pass
    return time.perf_counter() - start


def inject_corruptions(store_dir: Path, count: int, seed: int) -> int:
    """Flip ``count`` live rows' payloads without touching checksums.

    Parseable-but-wrong rows are the corruption class only checksums
    catch (torn lines announce themselves); fsck must find every one.
    """
    rng = random.Random(f"chaos-corrupt:{seed}")
    shards = sorted(p for p in store_dir.glob("*.jsonl")
                    if p.stem not in ("counters", "quarantine"))
    rows = sum(len(p.read_text().splitlines()) for p in shards)
    injected = 0
    flipped = set()
    while injected < min(count, rows):
        shard = shards[rng.randrange(len(shards))]
        lines = shard.read_text().splitlines()
        pick = rng.randrange(len(lines))
        if (shard, pick) in flipped:
            continue  # a row flipped twice is one corruption, not two
        flipped.add((shard, pick))
        raw = json.loads(lines[pick])
        raw["record"]["plt"] = 99.0 + injected  # silent payload flip
        lines[pick] = json.dumps(raw, sort_keys=True)
        shard.write_text("\n".join(lines) + "\n")
        injected += 1
    return injected


def run_seed(args: argparse.Namespace, seed: int) -> Dict[str, Any]:
    """One seeded chaos sweep against its fault-free baseline: what
    :func:`verdict` judges, plus the two sweeps' wall times."""
    requests = build_requests(args.cells)
    plan = build_plan(seed, args.cells)
    plan_deterministic = (
        plan.schedule() == build_plan(seed, args.cells).schedule())

    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    try:
        baseline_s = run_sweep(requests, workdir / "baseline",
                               workers=args.workers,
                               sync_every=args.sync_every)
        with ShardStore(workdir / "baseline" / "central") as store:
            baseline_report = _report(store)

        with warnings.catch_warnings():
            # torn-line warnings are the *point* here; keep output clean
            warnings.simplefilter("ignore", RuntimeWarning)
            chaos_s = run_sweep(requests, workdir / "chaos",
                                workers=args.workers,
                                sync_every=args.sync_every, plan=plan)
            central = workdir / "chaos" / "central"
            with ShardStore(central) as store:
                chaos_report = _report(store)
                repair = fsck(store, repair=True)
                verify = fsck(store)
                post_repair_report = _report(store)
        results_identical = (chaos_report == baseline_report
                             and post_repair_report == baseline_report)

        # separate detection check: silent payload flips on the baseline
        injected = inject_corruptions(workdir / "baseline" / "central",
                                      args.corruptions, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with ShardStore(workdir / "baseline" / "central") as store:
                detect = fsck(store)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "faults_scheduled": len(plan.specs),
        "faults_fired": len(plan.fired()),
        "baseline_seconds": baseline_s, "chaos_seconds": chaos_s,
        "quarantined": repair.quarantined,
        "corruptions_injected": injected,
        "corruptions_detected": len(detect.checksum_failures),
        "results_identical": results_identical, "fsck_clean": verify.clean,
        "plan_deterministic": plan_deterministic,
    }


def verdict(result: Dict[str, Any]) -> List[str]:
    """Every contract one seed's result breaks, as a line; empty = pass.

    A count of zero proves nothing, so zero injected corruptions or zero
    scheduled faults fail: "all of none" is not a pass.
    """
    broken = []
    if not result["results_identical"]:
        broken.append("the faulted sweep did not converge to the "
                      "fault-free store")
    if not result["fsck_clean"]:
        broken.append("fsck found residual corruption after --repair")
    injected = result["corruptions_injected"]
    if not 0 < injected == result["corruptions_detected"]:
        broken.append(f"fsck detected {result['corruptions_detected']} of "
                      f"{injected} injected corruption(s)")
    if not result["plan_deterministic"]:
        broken.append("one seed built two fault schedules; runs are not "
                      "replayable")
    scheduled = result["faults_scheduled"]
    if not 0 < scheduled == result["faults_fired"]:
        broken.append(f"{result['faults_fired']} of {scheduled} scheduled "
                      f"fault(s) fired")
    return broken


def contract_line(result: Dict[str, Any]) -> str:
    return (f"results identical: {result['results_identical']}, fsck clean: "
            f"{result['fsck_clean']} ({result['quarantined']} quarantined), "
            f"plan deterministic: {result['plan_deterministic']}, faults "
            f"fired: {result['faults_fired']}/{result['faults_scheduled']}, "
            f"corruptions detected: {result['corruptions_detected']}/"
            f"{result['corruptions_injected']}")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=600,
                        help=f"sweep size (default 600, at least "
                             f"{MIN_CELLS})")
    parser.add_argument("--workers", type=int, default=3,
                        help="fabric worker processes (default 3)")
    parser.add_argument("--sync-every", type=int, default=32,
                        help="worker upload batch (default 32)")
    parser.add_argument("--seed", type=int, default=42,
                        help="first fault-plan seed (default 42)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run seeds SEED..SEED+N-1 (default 1)")
    parser.add_argument("--corruptions", type=int, default=8,
                        help="rows corrupted for the fsck detection check "
                             "(default 8, at least 1)")
    args = parser.parse_args(argv)
    if args.cells < MIN_CELLS:
        parser.error(
            f"--cells must be >= {MIN_CELLS}: a smaller sweep makes too "
            f"few HTTP requests to reach the fault plan's fixed offsets "
            f"(up to the 14th request), so a scheduled fault stays "
            f"unfired and the run fails although the fabric is fine")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.corruptions < 1:
        parser.error("--corruptions must be >= 1: detecting none of none "
                     "proves nothing")
    return args


def main() -> int:
    args = parse_args()
    print(f"{args.cells} cells, {args.workers} workers, sync_every "
          f"{args.sync_every}, {args.corruptions} corruptions; host CPUs: "
          f"{os.cpu_count()}, usable: {usable_cpu_count()}", flush=True)
    failing = []
    for seed in range(args.seed, args.seed + args.repeat):
        result = run_seed(args, seed)
        broken = verdict(result)
        print(f"seed {seed}: {contract_line(result)} -> "
              f"{'FAIL' if broken else 'ok'} ({result['baseline_seconds']:.2f}"
              f" s fault-free, {result['chaos_seconds']:.2f} s chaos)",
              flush=True)
        for line in broken:
            print(f"  FAIL: {line}")
        if broken:
            failing.append(seed)
    if failing:
        print(f"{len(failing)} of {args.repeat} seed(s) failed: "
              + ", ".join(map(str, failing)))
        return 1
    print(f"all {args.repeat} seed(s) clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
