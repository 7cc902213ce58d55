"""The parent side: launch repetitions one at a time, aggregate, print.

Each repetition is a fresh child process working in its own temporary
directory under ``benchmarks/e2e/out/`` (removed afterwards, also on
failure).  End-to-end metrics come from untraced repetitions only; a
separate traced repetition supplies the per-layer numbers, and the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .cli import ROOT
from .host import describe_host
from .workloads import JOBS, PARALLEL_WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Hard stop for one child; the contract allows a run 180 s in total.
CHILD_TIMEOUT_S = 150.0
#: Layer metrics that are exact counts: a change means simulated results
#: (not just speed) changed.
EXACT_LAYERS = ("netem.sim.events", "core.manyflow.logical_events",
                "core.manyflow.heap_events", "netem.queues.drops")


class BenchmarkError(RuntimeError):
    """A repetition could not be run or produced no result."""


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, size: str, trace: bool
              ) -> Dict[str, Any]:
    """One repetition in a fresh process; its result dict."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"rep-{workload}-", dir=OUT_DIR))
    result_path = workdir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [
        sys.executable, "-m", "benchmarks.e2e", "child",
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--trace", "1" if trace else "0", "--workdir", str(workdir),
        "--result", str(result_path),
        "--trace-out", str(OUT_DIR / f"trace-{workload}.json"),
        "--spawned-at", repr(time.time()),
    ]
    try:
        # Its own session, so a hung repetition's workers die with it.
        child = subprocess.Popen(command, cwd=ROOT, env=env,
                                 start_new_session=True)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if child.poll() is None or code is None:
                try:
                    os.killpg(child.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                child.wait()
        if code is None:
            raise BenchmarkError(
                f"{workload}: repetition still running after "
                f"{CHILD_TIMEOUT_S:g} s; killed")
        if code != 0 or not result_path.exists():
            raise BenchmarkError(
                f"{workload}: repetition exited with code {code} and "
                f"{'a' if result_path.exists() else 'no'} result")
        with open(result_path) as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _summary(values: List[float], unit: str) -> Dict[str, Any]:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "unit": unit,
            "values": values}


def measure_workload(workload: str, seed: int, size: str, spec: Dict[str, Any],
                     host: Dict[str, Any], *, repeats: Optional[int] = None,
                     seconds: Optional[float] = None, trace: bool = False,
                     log: Any = print) -> Dict[str, Any]:
    """Untraced repetitions (a fixed count, or as many as fit ``seconds``,
    at least one), then optionally one traced repetition."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    reps: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        rep_started = time.perf_counter()
        reps.append(run_child(workload, seed, size, trace=False))
        rep_cost = time.perf_counter() - rep_started
        log(f"  {workload} repetition {len(reps)}: "
            f"wall_s {reps[-1]['metrics']['wall_s']:.3f}, "
            f"{rep_cost:.1f} s with set-up and checks")
        if repeats is not None:
            if len(reps) >= repeats:
                break
        elif time.perf_counter() - started + rep_cost > (seconds or 0.0):
            break
    attempted = sum(rep["cells"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    checks = [dict(check, repetition=index)
              for index, rep in enumerate(reps) for check in rep["checks"]]
    digests = sorted({rep["outcome_digest"] for rep in reps})
    checks.append({"name": "every repetition yields the same digest",
                   "ok": len(digests) == 1, "detail": ", ".join(digests),
                   "repetition": None})
    measured: Dict[str, Any] = {
        "cells": reps[0]["cells"], "repetitions": len(reps),
        "attempted": attempted, "outcome_digest": digests[0],
        "metrics": {name: _summary([rep["metrics"][name] for rep in reps], unit)
                    for name, unit in units.items()},
        "raw": [rep["raw"] for rep in reps],
    }
    if workload in PARALLEL_WORKLOADS:
        # Still run, but never published as a parallel number.
        measured["oversubscribed"] = host["usable_cpu_count"] < JOBS
    if trace:
        traced = run_child(workload, seed, size, trace=True)
        checks.extend(dict(check, repetition="traced")
                      for check in traced["checks"])
        checks.append({
            "name": "traced digest equals the untraced one",
            "ok": traced["outcome_digest"] == digests[0],
            "detail": traced["outcome_digest"], "repetition": "traced"})
        attempted += traced["cells"]
        failed += traced["failed"]
        layers = traced["layers"]
        untraced = measured["metrics"]["wall_s"]["median"]
        layers["trace.overhead_share"] = (
            traced["metrics"]["wall_s"] / untraced - 1.0)
        measured["layers"] = layers
        measured["exact"] = {name: layers[name] for name in EXACT_LAYERS}
        measured["self_time_table"] = traced["self_time_table"]
        measured["traced_wall_s"] = traced["metrics"]["wall_s"]
    if not all(check["ok"] for check in checks):
        failed = attempted  # a failing check fails every cell
    measured["checks"] = checks
    measured["attempted"] = attempted
    measured["failed"] = failed
    measured["failed_share"] = failed / attempted
    return measured


def cross_checks(workloads: Dict[str, Dict[str, Any]]) -> None:
    """Checks that need two workloads of the same run."""
    serial, pool = workloads.get("grid_serial"), workloads.get("grid_pool")
    if serial is None or pool is None:
        return
    same = serial["outcome_digest"] == pool["outcome_digest"]
    pool["checks"].append({
        "name": "grid_pool digest equals grid_serial's", "ok": same,
        "detail": f"{pool['outcome_digest']} vs {serial['outcome_digest']}",
        "repetition": None})
    if not same:
        pool["failed"] = pool["attempted"]
        pool["failed_share"] = 1.0


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def render_host(host: Dict[str, Any]) -> str:
    return (f"host: nproc={host['nproc']} usable_cpu_count="
            f"{host['usable_cpu_count']} python={host['python']} "
            f"load_1min={host['load_1min']:.2f} calibration="
            f"{host['calibration_slices_per_s']:.1f} slices/s (reference "
            f"{1.0 / host['reference_slice_s']:.1f})\n"
            f"network: {host['network']}\n"
            f"times are reference seconds: wall x reference speed / "
            f"calibrated host speed")


def render_workload(name: str, measured: Dict[str, Any],
                    spec: Dict[str, Any]) -> str:
    lines = [f"{name}: {measured['cells']} cells x "
             f"{measured['repetitions']} repetition(s), digest "
             f"{measured['outcome_digest'][:16]}"
             + ("  [oversubscribed: not a parallel number]"
                if measured.get("oversubscribed") else "")]
    for metric in spec["end_to_end"]:
        summary = measured["metrics"][metric["name"]]
        lines.append(
            f"  {metric['name']:<14}{summary['median']:>12.4f} "
            f"{summary['unit']:<8} [{summary['min']:.4f} - "
            f"{summary['max']:.4f}] n={summary['n']}")
    lines.append(f"  {'failed_share':<14}{measured['failed_share']:>12.4f} "
                 f"{'ratio':<8} ({measured['failed']} of "
                 f"{measured['attempted']} operations)")
    bad = [check for check in measured["checks"] if not check["ok"]]
    lines.append(f"  checks: {len(measured['checks']) - len(bad)} ok, "
                 f"{len(bad)} failed")
    for check in bad:
        lines.append(f"    FAILED {check['name']} (repetition "
                     f"{check['repetition']}): {check['detail']}")
    if "layers" in measured:
        lines.append(f"  per-layer (one traced repetition, traced wall_s "
                     f"{measured['traced_wall_s']:.4f}):")
        for metric in spec["per_layer"]:
            lines.append(f"    {metric['name']:<38}"
                         f"{measured['layers'][metric['name']]:>16.4f} "
                         f"{metric['unit']}")
        lines.append("  where the wall-time went:")
        lines.extend("    " + row
                     for row in measured["self_time_table"].splitlines())
    return "\n".join(lines)


def run_all(names: List[str], seed: int, size: str, repeats: int,
            trace: bool, out: Optional[Path]) -> int:
    """The ``run`` command: every named workload, printed and saved."""
    spec = load_spec()
    host = describe_host()
    print(render_host(host))
    workloads: Dict[str, Dict[str, Any]] = {}
    for name in names:
        workloads[name] = measure_workload(name, seed, size, spec, host,
                                           repeats=repeats, trace=trace)
    cross_checks(workloads)
    for name in names:
        print(render_workload(name, workloads[name], spec))
    payload = {"benchmark": "e2e", "schema": 1, "seed": seed, "size": size,
               "host": host, "workloads": workloads}
    if out is None:
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"result-seed{seed}-{int(time.time())}.json"
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"result written to {out}")
    correct = all(w["failed"] == 0 for w in workloads.values())
    print("correct" if correct else "FAILED: see the checks above")
    return 0 if correct else 1


def run_contract(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> int:
    """The builder-contract form: one workload, one JSON object last."""
    spec = load_spec()
    host = describe_host()
    print(render_host(host))
    measured = measure_workload(
        workload, seed, size, spec, host, seconds=None if trace else seconds,
        repeats=1 if trace else None, trace=trace)
    print(render_workload(workload, measured, spec))
    if trace:
        metrics = {m["name"]: {"value": measured["layers"][m["name"]],
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": measured["metrics"][m["name"]]["median"],
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    correct = measured["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))
    return 0 if correct else 1
