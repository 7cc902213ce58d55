"""The chaos gate: a seeded fault-injected sweep must change nothing.

The fabric's crash-safety claims (write-ahead shards, idempotent
uploads, respawn-and-replay) are exercised here under a *deterministic*
:class:`repro.faults.FaultPlan`: an HTTP 5xx burst, torn shard writes
on the server's backing store, one worker SIGKILL and one server stall,
all scheduled from one seed.  Three contracts are verified and gated
(``scripts/bench_diff.py`` kind ``chaos``):

* ``results_identical`` — after the faults, ``repro report
  --from-store`` over the served store is byte-identical to a
  fault-free run of the same sweep;
* ``fsck_clean`` — ``repro store fsck --repair`` quarantines the torn
  debris the injected faults left behind, and a second fsck pass finds
  zero residual corruption (and the repaired store still renders the
  identical report);
* ``fsck_detect_rate`` / ``plan_deterministic`` — fsck detects 100% of
  separately injected row corruptions, and the same seed builds the
  identical fault schedule twice (the replayability contract).

Writes ``benchmarks/results/chaos_sweep.txt`` and a machine-readable
``BENCH_chaos.json`` at the repo root — or, with ``--out PATH``, the
payload at PATH and the summary beside it (``.txt``).

Usage::

    PYTHONPATH=src python scripts/chaos_sweep.py \\
        [--cells 600] [--workers 3] [--seed 42] [--out BENCH_chaos.json]

``--repeat N`` is the multi-seed soak: it runs seeds ``SEED`` …
``SEED+N-1``, prints one contract line per seed, writes no payload, and
exits 1 naming every seed that failed a contract (a rare wedge or race
shows up only across many seeds).
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
from typing import Any, Callable, Dict

from repro.core.bench import write_payload, write_summary
from repro.core.executor import (
    ProtocolSpec,
    RunRecord,
    RunRequest,
    usable_cpu_count,
)
from repro.core.report import build_store_report
from repro.fabric import StoreServer, iter_fabric_runs
from repro.faults import FaultPlan, FaultSpec, FaultyStore
from repro.http import single_object_page
from repro.netem import emulated
from repro.store import ShardStore, fsck

RESULTS = Path(__file__).parent.parent / "benchmarks" / "results" / \
    "chaos_sweep.txt"
DEFAULT_OUT = Path(__file__).parent.parent / "BENCH_chaos.json"

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
    and the coordinator takes the worker-kill hook.
    """
    central = ShardStore(workdir / "central")
    backing = central if plan is None else FaultyStore(central, plan)
    start = time.perf_counter()
    with StoreServer(backing, port=0, fault_plan=plan) as server:
        for _event in iter_fabric_runs(
                requests, server.url, workers=workers,
                sync_every=sync_every, run_fn=_synthetic_run,
                workdir=str(workdir / "wd"), fault_plan=plan,
                progress_timeout=60.0):
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


def run_seed(args: argparse.Namespace, seed: int,
             say: Callable[[str], None] = print) -> Dict[str, Any]:
    """One seeded chaos sweep against its fault-free baseline, and the
    contracts checked on it; ``say`` receives the progress lines."""
    requests = build_requests(args.cells)
    plan = build_plan(seed, args.cells)
    plan_deterministic = (
        plan.schedule() == build_plan(seed, args.cells).schedule())
    say(f"{args.cells} cells, {args.workers} workers, fault plan "
        f"seed={seed} ({len(plan.specs)} scheduled faults; "
        f"host CPUs: {os.cpu_count()}, usable: {usable_cpu_count()})")

    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    try:
        baseline_s = run_sweep(requests, workdir / "baseline",
                               workers=args.workers,
                               sync_every=args.sync_every)
        with ShardStore(workdir / "baseline" / "central") as store:
            baseline_report = _report(store)
        say(f"fault-free:  {baseline_s:6.2f} s")

        with warnings.catch_warnings():
            # torn-line warnings are the *point* here; keep output clean
            warnings.simplefilter("ignore", RuntimeWarning)
            chaos_s = run_sweep(requests, workdir / "chaos",
                                workers=args.workers,
                                sync_every=args.sync_every, plan=plan)
            fired = plan.fired()
            say(f"chaos:       {chaos_s:6.2f} s  ({len(fired)} fault(s) "
                f"fired: "
                + ", ".join(f"{f['surface']}/{f['kind']}" for f in fired)
                + ")")

            central = workdir / "chaos" / "central"
            with ShardStore(central) as store:
                chaos_report = _report(store)
                repair = fsck(store, repair=True)
                verify = fsck(store)
                post_repair_report = _report(store)
        results_identical = (chaos_report == baseline_report
                             and post_repair_report == baseline_report)
        say(f"fsck:        {repair.quarantined} row(s) quarantined, "
            f"residual issues: {verify.issues}")

        # separate detection check: silent payload flips on the baseline
        injected = inject_corruptions(workdir / "baseline" / "central",
                                      args.corruptions, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with ShardStore(workdir / "baseline" / "central") as store:
                detect = fsck(store)
        detected = len(detect.checksum_failures)
        fsck_detect_rate = detected / injected if injected else 1.0
        say(f"detection:   {detected}/{injected} injected corruption(s) "
            f"found ({100 * fsck_detect_rate:.0f}%)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "fired": fired, "faults_scheduled": len(plan.specs),
        "baseline_seconds": baseline_s, "chaos_seconds": chaos_s,
        "quarantined": repair.quarantined, "residual_issues": verify.issues,
        "corruptions_injected": injected, "corruptions_detected": detected,
        "fsck_detect_rate": fsck_detect_rate,
        "results_identical": results_identical, "fsck_clean": verify.clean,
        "plan_deterministic": plan_deterministic,
    }
    result["ok"] = (results_identical and verify.clean
                    and fsck_detect_rate == 1.0 and plan_deterministic
                    and len(fired) == len(plan.specs))
    say(contract_line(result))
    return result


def contract_line(result: Dict[str, Any]) -> str:
    return (f"results identical: {result['results_identical']}, fsck clean: "
            f"{result['fsck_clean']}, plan deterministic: "
            f"{result['plan_deterministic']}, faults fired: "
            f"{len(result['fired'])}/{result['faults_scheduled']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=600,
                        help="sweep size (default 600)")
    parser.add_argument("--workers", type=int, default=3,
                        help="fabric worker processes (default 3)")
    parser.add_argument("--sync-every", type=int, default=32,
                        help="worker upload batch (default 32)")
    parser.add_argument("--seed", type=int, default=42,
                        help="fault-plan seed (default 42)")
    parser.add_argument("--repeat", type=int, default=None, metavar="N",
                        help="soak: run seeds SEED..SEED+N-1, print one "
                             "contract line per seed, write no payload, "
                             "exit 1 naming every failing seed")
    parser.add_argument("--corruptions", type=int, default=8,
                        help="rows corrupted for the fsck detection check "
                             "(default 8)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"payload path (default {DEFAULT_OUT}); the "
                             "summary goes beside a non-default path")
    args = parser.parse_args()
    if args.repeat is not None:
        if args.repeat < 1:
            parser.error("--repeat must be >= 1")
        failing = []
        for seed in range(args.seed, args.seed + args.repeat):
            result = run_seed(args, seed, say=lambda line: None)
            print(f"seed {seed}: {contract_line(result)}, corruptions "
                  f"detected: {result['corruptions_detected']}/"
                  f"{result['corruptions_injected']} -> "
                  f"{'ok' if result['ok'] else 'FAIL'}", flush=True)
            if not result["ok"]:
                failing.append(seed)
        if failing:
            print(f"{len(failing)} of {args.repeat} seed(s) failed: "
                  + ", ".join(map(str, failing)))
            return 1
        print(f"all {args.repeat} seed(s) clean")
        return 0

    result = run_seed(args, args.seed)
    fired = result["fired"]
    faults_fired = len(fired)
    lines = [
        "Seeded chaos sweep: fault injection vs the fault-free baseline",
        "==============================================================",
        "",
        f"sweep: {args.cells} cells, {args.workers} workers, "
        f"sync_every={args.sync_every}, fault seed {args.seed}",
        f"host CPU count: {os.cpu_count()} (usable: {usable_cpu_count()})",
        "",
        f"  fault-free sweep          {result['baseline_seconds']:8.2f} s",
        f"  chaos sweep               {result['chaos_seconds']:8.2f} s "
        f"({faults_fired}/{result['faults_scheduled']} scheduled faults "
        f"fired)",
        "",
        f"  reports byte-identical    {result['results_identical']}",
        f"  rows quarantined          {result['quarantined']:8d}",
        f"  residual fsck issues      {result['residual_issues']:8d}",
        f"  corruption detect rate    "
        f"{100 * result['fsck_detect_rate']:7.0f}%"
        f"  ({result['corruptions_detected']}/"
        f"{result['corruptions_injected']})",
        f"  plan deterministic        {result['plan_deterministic']}",
        "",
        "Faults fired (schedule order):",
    ] + [f"  {f['sequence']:2d}. {f['surface']}/{f['kind']} on "
         f"{f['op'] or 'any'} (after {f['after']})" for f in fired] + [
        "",
        "Torn writes 500 the request and leave debris; the idempotent",
        "retry re-uploads, fsck --repair quarantines the debris, and the",
        "store converges to the byte-identical fault-free state.",
    ]
    write_summary(lines, RESULTS if args.out == DEFAULT_OUT
                  else args.out.with_suffix(".txt"))
    write_payload({
        "benchmark": "chaos",
        "cells": args.cells,
        "workers": args.workers,
        "sync_every": args.sync_every,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpu_count(),
        "baseline_seconds": round(result["baseline_seconds"], 4),
        "chaos_seconds": round(result["chaos_seconds"], 4),
        "faults_scheduled": result["faults_scheduled"],
        "faults_fired": faults_fired,
        "quarantined": result["quarantined"],
        "residual_issues": result["residual_issues"],
        "corruptions_injected": result["corruptions_injected"],
        "corruptions_detected": result["corruptions_detected"],
        "fsck_detect_rate": round(result["fsck_detect_rate"], 6),
        "results_identical": result["results_identical"],
        "fsck_clean": result["fsck_clean"],
        "plan_deterministic": result["plan_deterministic"],
    }, args.out)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
