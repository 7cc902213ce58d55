#!/usr/bin/env python
"""Perf-regression gate: one table, one interpreter, one entry point.

Usage::

    python scripts/bench_diff.py BASELINE.json CANDIDATE.json
    python scripts/bench_diff.py gate [KIND ...]

``gate`` measures each KIND (default: all) into a fresh temp directory
and compares it with the committed payload; it never writes a tracked
file.  A kind is one row of :data:`GATES`.  Contracts hold on the
candidate; *id* = fixed-seed block identical on the same workload.  In
``gate`` mode a fresh measurement whose workload differs from the
committed payload's fails, since its *id* fields could not be compared;
the two-file form skips them instead.  No wall-clock rate gates: on a
shared host they flapped on unchanged code, so every rate is
informational and the end-to-end benchmark (BENCHMARK.json) carries
the timing (docs/PERFORMANCE.md has the full table):

================ =================== ====================================
kind             committed payload   contracts
================ =================== ====================================
manyflow         BENCH_manyflow.json results_identical;
                                     speedup_vs_per_packet >= 3.0; id:
                                     outcome
models           BENCH_models.json   results_identical; all gated_cells
                                     within_tolerance; max_abs_log_error
                                     <= ln(1 + tol); id: fit
chaos            BENCH_chaos.json    results_identical; fsck_clean;
                                     fsck_detect_rate 1.0; all faults
                                     fired; plan_deterministic
================ =================== ====================================

Exit codes: 0 = gate passes; 1 = behaviour change, contract violation
or failed measurement; 2 = malformed payload (missing required
keys), kind mismatch or unknown kind.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent


def _numbers(*values: Any) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values)


#: Contract operators: op -> (holds(value, rhs), how an [ok] line shows it).
#: "all of" refuses an empty count: zero of zero proves nothing.
OPS = {
    "is": (lambda v, r: v is r, lambda v, r: f"{v}"),
    "==": (lambda v, r: v == r, lambda v, r: f"{v}"),
    "all of": (lambda v, r: bool(r) and v == r, lambda v, r: f"{v}/{r}"),
    ">=": (lambda v, r: _numbers(v, r) and v >= r,
           lambda v, r: f"{v:.2f}x (floor {r:g}x)"),
    "<= ln1p": (lambda v, r: _numbers(v, r) and r > 0 and v <= math.log1p(r),
                lambda v, r: f"{v:.4f} (ceiling {math.log1p(r):.4f})"),
}

#: How an informational wall-clock rate prints (no rate is gated).
_RATE = "{c:,.0f}/s vs baseline {b:,.0f}/s"

#: The gate table — the one place a payload kind is declared.  Columns:
#:   payload    committed baseline at the repo root
#:   measure    argv that re-measures it (``--out TEMP`` is appended)
#:   required   keys both payloads must carry (the shape gate, exit 2)
#:   contracts  (field, op, rhs, what a violation means) on the candidate;
#:              a string rhs names another of its fields
#:   identity   fixed-seed fields that must not change while every ``same``
#:              path (dotted, from the root; default: ``workload``) matches
#:   info       (field, template over b, c[, label])
GATES: Dict[str, Dict[str, Any]] = {
    "manyflow": {
        "payload": "BENCH_manyflow.json",
        "measure": ["benchmarks/sim_manyflow.py"],
        "required": ("flows", "batched_seconds", "per_packet_seconds",
                     "speedup_vs_per_packet", "events_per_sec",
                     "results_identical", "outcome"),
        "contracts": (
            ("results_identical", "is", True,
             "batched and per-packet scheduling simulated different outcomes"),
            ("speedup_vs_per_packet", ">=", 3.0,
             "the fast path fell below its acceptance floor")),
        "identity": ("outcome",),
        "info": (("events_per_sec", _RATE),),
    },
    "models": {
        "payload": "BENCH_models.json",
        "measure": ["benchmarks/model_fit.py"],
        "required": ("tolerance", "cells", "gated_cells", "within_tolerance",
                     "max_abs_log_error", "results_identical", "fit"),
        "contracts": (
            ("results_identical", "is", True,
             "two oracle-grid passes produced different simulated metrics"),
            ("within_tolerance", "all of", "gated_cells",
             "a CC kernel is not within tolerance of its closed-form model"),
            ("max_abs_log_error", "<= ln1p", "tolerance",
             "max |ln(obs/model)| passed its ceiling ln(1 + tolerance)")),
        "identity": ("fit",),
        "same": ("workload", "tolerance"),
        "info": (("max_abs_log_error", "{c:.4f} vs baseline {b:.4f}",
                  "fit error trend"),),
    },
    "chaos": {
        "payload": "BENCH_chaos.json",
        "measure": ["scripts/chaos_sweep.py", "--cells", "600"],
        "required": ("cells", "workers", "seed", "baseline_seconds",
                     "chaos_seconds", "faults_scheduled", "faults_fired",
                     "quarantined", "residual_issues", "corruptions_injected",
                     "corruptions_detected", "fsck_detect_rate",
                     "results_identical", "fsck_clean", "plan_deterministic"),
        "contracts": (
            ("results_identical", "is", True,
             "the faulted sweep did not converge to the fault-free store"),
            ("fsck_clean", "is", True,
             "fsck found residual corruption after --repair"),
            ("fsck_detect_rate", "==", 1.0,
             "fsck missed injected corruptions; the checksum layer leaks"),
            ("plan_deterministic", "is", True,
             "one seed built two fault schedules; runs are not replayable"),
            ("faults_fired", "all of", "faults_scheduled",
             "an unfired fault gates nothing")),
        "info": (("chaos_seconds", "{c:.2f}s vs baseline run's {b:.2f}s"),),
    },
}


def _dig(payload: Any, path: str) -> Any:
    for part in path.split("."):
        payload = payload.get(part) if isinstance(payload, dict) else None
    return payload


def _change(b: Any, c: Any) -> str:
    if isinstance(b, dict) and isinstance(c, dict):
        return "differs in " + ", ".join(
            sorted(k for k in {*b, *c} if b.get(k) != c.get(k)))
    return "differs" if isinstance(c, list) else f"{b!r} -> {c!r}"


def _drift(row: Dict[str, Any], base: Any, cand: Any) -> List[str]:
    """How two payloads' workloads differ, one entry per ``same`` path."""
    pairs = ((path, _dig(base, path), _dig(cand, path))
             for path in row.get("same", ("workload",)))
    return [f"{path} {_change(b, c)}" for path, b, c in pairs if b != c]


def compare(baseline: str, candidate: str) -> int:
    """Gate ``candidate`` against ``baseline``: interpret their kind's
    :data:`GATES` row over the two payload files."""
    base, cand = (json.loads(Path(path).read_text())
                  for path in (baseline, candidate))
    kind, cand_kind = (p.get("benchmark") for p in (base, cand))
    if kind != cand_kind:
        print(f"FAIL: baseline is a {kind!r} payload but candidate "
              f"is {cand_kind!r}; compare like with like")
        return 2
    if kind not in GATES:
        print(f"FAIL: unknown benchmark kind {kind!r} "
              f"(expected one of {', '.join(GATES)})")
        return 2
    row = GATES[kind]
    failures = []
    for which, numbers in (("baseline", base), ("candidate", cand)):
        missing = [key for key in row["required"] if key not in numbers]
        if missing:
            failures.append(f"{which} payload missing required {kind} "
                            f"key(s): {', '.join(missing)}")
    if failures:
        print("FAIL:\n" + "\n".join(f"  - {line}" for line in failures))
        return 2

    print(f"benchmark: {kind}")
    for field, op, rhs, why in row.get("contracts", ()):
        value = cand.get(field)
        bound = cand.get(rhs) if isinstance(rhs, str) else rhs
        holds, show = OPS[op]
        if holds(value, bound):
            print(f"{field}: {show(value, bound)} [ok]")
            continue
        against = f" = {bound!r}" if isinstance(rhs, str) else ""
        failures.append(f"{kind} contract `{field} {op} {rhs}{against}` "
                        f"broken by {value!r}: {why}")
        print(f"{field}: {value!r} [CONTRACT FAIL]")

    # Fixed-seed outcomes are only comparable on identical workloads.
    if base.get("workload") and not _drift(row, base, cand):
        for field in row.get("identity", ()):
            if field not in base or field not in cand:
                continue
            b, c = base[field], cand[field]
            if b != c:
                failures.append(f"behaviour change: fixed-seed {field} "
                                f"{_change(b, c)} on an identical workload")
                print(f"{field}: {_change(b, c)} [BEHAVIOUR CHANGE]")
            elif isinstance(c, (dict, list)):  # scalars speak only on change
                print(f"{field}: identical on identical workload [ok]")

    for field, template, *label in row.get("info", ()):
        b, c = base.get(field), cand.get(field)
        if _numbers(b, c) and b and c:
            trend = template.format(b=b, c=c)
            print(f"{label[0] if label else field}: {trend} [informational]")

    if failures:
        print("\nFAIL:\n" + "\n".join(f"  - {line}" for line in failures))
        return 1
    print(f"\nOK: {kind} payload shape, contracts and fixed-seed outcomes "
          f"hold")
    return 0


def run_gates(kinds: List[str]) -> int:
    """Gate a fresh temp-dir measurement of each kind against its payload.

    A kind with ``identity`` fields must be measured on its committed
    workload: otherwise those fields go uncompared and the gate would
    pass on nothing, so a drifted workload fails.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    worst = 0
    for kind in kinds or GATES:
        row = GATES[kind]
        with tempfile.TemporaryDirectory(prefix=f"gate-{kind}-") as tmp:
            out = Path(tmp) / row["payload"]
            argv = [sys.executable, *row["measure"], "--out", str(out)]
            print(f"\n== {kind}: {' '.join(argv[1:])}", flush=True)
            code = subprocess.run(argv, cwd=REPO, env=env).returncode
            if code != 0 or not out.exists():
                print(f"FAIL: the {kind} measurement exited {code}")
                code = 1
            else:
                committed = REPO / row["payload"]
                drift = row.get("identity") and _drift(
                    row, *(json.loads(path.read_text())
                           for path in (committed, out)))
                if drift:
                    print(f"FAIL: the fresh {kind} measurement ran another "
                          f"workload than the committed {row['payload']} "
                          f"({'; '.join(drift)}), so its fixed-seed "
                          f"{', '.join(row['identity'])} cannot be "
                          f"compared.  To re-baseline, run `PYTHONPATH=src "
                          f"python {' '.join(row['measure'])}` (it writes "
                          f"{row['payload']}) and commit the result.")
                    code = 1
                else:
                    code = compare(committed, out)
            worst = max(worst, code)
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.usage = "%(prog)s (BASELINE.json CANDIDATE.json | gate [KIND ...])"
    parser.add_argument("what", nargs="+",
                        help="two payloads to compare, or `gate` plus any of "
                             f"{', '.join(GATES)} (default: all)")
    args = parser.parse_args(argv)
    if args.what[0] == "gate":
        unknown = [kind for kind in args.what[1:] if kind not in GATES]
        if unknown:
            parser.error(f"unknown benchmark kind(s): {', '.join(unknown)}")
        return run_gates(args.what[1:])
    if len(args.what) != 2:
        parser.error("expected BASELINE.json CANDIDATE.json or gate [KIND ...]")
    return compare(*args.what)


if __name__ == "__main__":
    sys.exit(main())
