"""Thousand-flow fast-path check: batched vs per-packet scheduling.

Runs the manyflow cell (1000 mixed QUIC/TCP flows, droptail, Reno,
seed 0, 300 s cap, sharing one 100 Mbps bottleneck) twice — batched
link delivery, then per-packet scheduling (``batch_quantum=0``, one
heap wakeup per logical item) — and exits 1 unless:

* both runs simulate identical outcomes (the batching contract), and
* the batched run is at least ``SPEEDUP_FLOOR`` times faster (the
  fast path's acceptance floor).

The batched outcome itself is pinned by
``tests/test_determinism.py::TestGoldenManyflowCell``.  No file is
written.

Usage::

    PYTHONPATH=src python benchmarks/sim_manyflow.py
"""

from __future__ import annotations

import argparse
import time
from typing import Any, Dict, List

from repro.core.manyflow import (DEFAULT_BATCH_QUANTUM, ManyflowConfig,
                                 ManyflowEngine, manyflow_scenario)

SPEEDUP_FLOOR = 3.0

CONFIG = ManyflowConfig(flows=1000, aqm="droptail", duration=300.0)
SEED = 0


def bench_manyflow() -> Dict[str, Any]:
    """Time the cell batched and per-packet; return both walls, the
    speedup and each run's simulated outcome."""
    def timed(batch_quantum: float) -> Dict[str, Any]:
        engine = ManyflowEngine(manyflow_scenario(), CONFIG, seed=SEED,
                                batch_quantum=batch_quantum)
        start = time.perf_counter()
        metrics = engine.run()
        wall = time.perf_counter() - start
        # heap_events is the cost model, not an outcome: batching
        # exists to change it.
        heap_events = metrics.pop("heap_events")
        return {"wall": wall, "heap_events": heap_events, "outcome": metrics}

    batched = timed(DEFAULT_BATCH_QUANTUM)
    per_packet = timed(0.0)
    return {
        "flows": CONFIG.flows,
        "batched": batched,
        "per_packet": per_packet,
        "speedup": per_packet["wall"] / batched["wall"],
        "events_per_sec": batched["outcome"]["logical_events"]
        / batched["wall"],
    }


def verdict(sample: Dict[str, Any]) -> List[str]:
    """Every broken contract of one sample, as a line; empty = pass."""
    broken = []
    if sample["batched"]["outcome"] != sample["per_packet"]["outcome"]:
        differ = sorted(key for key, value
                        in sample["batched"]["outcome"].items()
                        if sample["per_packet"]["outcome"].get(key) != value)
        broken.append("batched and per-packet runs simulated different "
                      "outcomes: " + ", ".join(differ))
    if sample["speedup"] < SPEEDUP_FLOOR:
        broken.append(f"speedup {sample['speedup']:.2f}x is below the "
                      f"{SPEEDUP_FLOOR:g}x floor")
    return broken


def main() -> int:
    sample = bench_manyflow()
    print(f"flows:                {sample['flows']:>10,}")
    print(f"batched wall:         {sample['batched']['wall']:>10.3f} s")
    print(f"per-packet wall:      {sample['per_packet']['wall']:>10.3f} s")
    print(f"speedup:              {sample['speedup']:>10.2f} x "
          f"(floor {SPEEDUP_FLOOR:g} x)")
    print(f"events/sec (batched): {sample['events_per_sec']:>10,.0f}")
    print(f"heap events:          {sample['batched']['heap_events']:>10,.0f}"
          f" batched, {sample['per_packet']['heap_events']:,.0f} per-packet")
    broken = verdict(sample)
    for line in broken:
        print(f"FAIL: {line}")
    if not broken:
        print("OK: identical outcomes, speedup above the floor")
    return 1 if broken else 0


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__).parse_args()  # --help only
    raise SystemExit(main())
