"""Analytical-model oracle gate -> BENCH_models.json.

Runs the ``repro validate`` oracle grid — steady-state-friendly
manyflow cells for each pluggable CC kernel (reno / cubic / bbr, QUIC
and TCP parameterisations, two loss rates) — twice, and records:

* ``results_identical``   — the determinism contract: both passes must
  produce bit-identical simulated metrics for every cell,
* ``within_tolerance``    — gated cells whose observed/model ratio sits
  inside the tolerance band (the gate requires all of them),
* ``max_abs_log_error``   — the worst |ln(observed/model)| over gated
  cells; the ceiling is ``ln(1 + tolerance)`` by construction, and
  ``scripts/bench_diff.py`` prints its trend against the committed
  payload,
* ``fit``                 — the per-cell table itself, so the diff gate
  can cross-check fixed-seed behaviour between commits.

Usage::

    PYTHONPATH=src python benchmarks/model_fit.py [--out BENCH_models.json]
"""

from __future__ import annotations

import argparse
import math
import platform
from pathlib import Path

from repro.core.bench import calibrate, write_payload
from repro.core.executor import run_requests
from repro.core.models import (
    DEFAULT_TOLERANCE,
    fit_records,
    oracle_requests,
    render_model_fit_table,
)

DEFAULT_OUT = Path(__file__).parent.parent / "BENCH_models.json"


def run_grid(ccs, loss_rates, seeds, flows):
    records = run_requests(oracle_requests(ccs=ccs, loss_rates=loss_rates,
                                           seeds=seeds, flows=flows),
                           jobs=0)
    failed = [r for r in records if not r.complete]
    metrics = [r.metrics for r in records]
    return fit_records(records), metrics, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="accepted observed/model band "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT})")
    args = parser.parse_args()

    ccs, loss_rates = ("reno", "cubic", "bbr"), (0.01, 0.02)
    seeds, flows = (0,), 8

    fit, metrics_a, failed = run_grid(ccs, loss_rates, seeds, flows)
    _, metrics_b, _ = run_grid(ccs, loss_rates, seeds, flows)
    identical = metrics_a == metrics_b

    cells = fit.cells()
    gated = [cell for cell in cells if cell.gated]
    within = [cell for cell in gated if cell.within(args.tolerance)]
    log_errors = [abs(math.log(cell.ratio)) for cell in gated
                  if 0 < cell.ratio < math.inf]

    payload = {
        "benchmark": "models",
        "python": platform.python_version(),
        "calibration_ops_per_sec": round(calibrate(), 1),
        "workload": {
            "ccs": list(ccs),
            "loss_rates": list(loss_rates),
            "seeds": list(seeds),
            "flows": flows,
            "scenario": "manyflow_scenario(rate_mbps=50.0, rtt=0.040)",
        },
        "tolerance": args.tolerance,
        "cells": len(cells),
        "gated_cells": len(gated),
        "within_tolerance": len(within),
        "max_abs_log_error": round(max(log_errors), 4) if log_errors
        else None,
        "mean_abs_log_error": round(sum(log_errors) / len(log_errors), 4)
        if log_errors else None,
        "results_identical": identical,
        "fit": [
            {
                "cc": cell.cc, "proto": cell.proto,
                "rate_mbps": cell.rate_mbps, "rtt": cell.rtt,
                "loss_rate": cell.loss_rate,
                "observed": round(cell.observed, 3),
                "predicted": round(cell.predicted, 3),
                "ratio": round(cell.ratio, 4),
                "regime": cell.regime, "gated": cell.gated,
                "ok": cell.within(args.tolerance) if cell.gated else None,
            }
            for cell in cells
        ],
    }

    print(render_model_fit_table(cells, args.tolerance))
    print()
    print(f"gated cells:         {len(gated):>10}")
    print(f"within tolerance:    {len(within):>10}")
    print(f"max |ln(obs/model)|: "
          f"{payload['max_abs_log_error'] or float('nan'):>10.4f}")
    print(f"results identical:   {identical!s:>10}")
    ok = True
    if failed:
        print(f"ERROR: {len(failed)} oracle run(s) failed")
        ok = False
    if not identical:
        print("ERROR: the two oracle passes produced different metrics")
        ok = False
    if len(within) != len(gated):
        print("ERROR: gated cell(s) diverged from the analytical model")
        ok = False
    if not ok:
        return 1
    write_payload(payload, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
