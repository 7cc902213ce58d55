"""Thousand-flow fast-path benchmark -> BENCH_manyflow.json.

Runs the manyflow cell (1000 mixed QUIC/TCP flows sharing one 100 Mbps
bottleneck) twice — batched link delivery vs per-packet scheduling
(``batch_quantum=0``) — and records:

* ``speedup_vs_per_packet`` — the fast-path acceptance number (the
  gate requires >= 3x),
* ``events_per_sec``        — logical events through the batched run,
* ``results_identical``     — the batching contract: both runs must
  produce bit-identical simulated outcomes,
* ``outcome``               — the fixed-seed metrics themselves, so
  ``scripts/bench_diff.py`` can cross-check behaviour between commits.

Usage::

    PYTHONPATH=src python benchmarks/sim_manyflow.py [--flows N] \
        [--out BENCH_manyflow.json]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.core.bench import run_manyflow_benchmark, write_payload

DEFAULT_OUT = Path(__file__).parent.parent / "BENCH_manyflow.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, default=1000,
                        help="concurrent flows (default 1000)")
    parser.add_argument("--aqm", default="droptail",
                        help="bottleneck queue discipline")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=300.0,
                        help="simulated-seconds cap")
    parser.add_argument("--repeat", type=int, default=1,
                        help="samples (best speedup kept)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT})")
    args = parser.parse_args()

    payload = run_manyflow_benchmark(
        flows=args.flows, repeat=args.repeat, aqm=args.aqm,
        seed=args.seed, duration=args.duration)
    print(f"flows:                {payload['flows']:>10,}")
    print(f"batched wall:         {payload['batched_seconds']:>10.3f} s")
    print(f"per-packet wall:      {payload['per_packet_seconds']:>10.3f} s")
    print(f"speedup:              {payload['speedup_vs_per_packet']:>10.2f} x")
    print(f"events/sec (batched): {payload['events_per_sec']:>10,.0f}")
    print(f"results identical:    {payload['results_identical']!s:>10}")
    if not payload["results_identical"]:
        print("ERROR: batched and per-packet outcomes diverged")
        return 1
    write_payload(payload, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
