"""Command line of the end-to-end benchmark.

``run`` and ``compare`` are for people; the flag-only form
(``--workload --seed --seconds --trace``) is the builder contract's, and
``child`` is what the runner launches for each repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[2]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run every workload (or one), print every metric")
    run.add_argument("--seed", type=int, default=0,
                     help="offsets every request seed; the only input to "
                          "workload generation (default 0)")
    run.add_argument("--workload", default=None,
                     help="run just this workload (default: all six)")
    run.add_argument("--repeats", type=int, default=3,
                     help="untraced repetitions per workload, each a fresh "
                          "process; the median is reported (default 3)")
    run.add_argument("--trace", action="store_true",
                     help="add one traced repetition per workload: per-layer "
                          "metrics and out/trace-<workload>.json")
    run.add_argument("--out", type=Path, default=None,
                     help="result file (default: out/result-<seed>-<time>.json)")
    run.add_argument("--size", default="full", help=argparse.SUPPRESS)

    compare = commands.add_parser(
        "compare", help="apply BENCHMARK.json's bounds to two result files")
    compare.add_argument("parent", type=Path)
    compare.add_argument("change", type=Path)

    contract = commands.add_parser("contract", help=argparse.SUPPRESS)
    contract.add_argument("--workload", required=True)
    contract.add_argument("--seed", type=int, required=True)
    contract.add_argument("--seconds", type=float, required=True)
    contract.add_argument("--trace", type=int, choices=(0, 1), required=True)
    contract.add_argument("--size", default="full", help=argparse.SUPPRESS)

    child = commands.add_parser("child", help=argparse.SUPPRESS)
    child.add_argument("--workload", required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--size", required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), required=True)
    child.add_argument("--workdir", type=Path, required=True)
    child.add_argument("--result", type=Path, required=True)
    child.add_argument("--trace-out", type=Path, required=True)
    child.add_argument("--spawned-at", type=float, required=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is missing - the benchmark "
              "measures the repro package of the checkout it sits in",
              file=sys.stderr)
        return 2
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    if args.command == "compare":
        from .compare import compare
        from .runner import load_spec

        code, rows = compare(args.parent, args.change, load_spec())
        print("\n".join(rows))
        return code
    from repro.core.executor import SERIAL_ENV_VAR

    if os.environ.get(SERIAL_ENV_VAR):
        print(f"error: {SERIAL_ENV_VAR} is set, which forces every sweep "
              "serial; unset it - a pool number measured that way is not a "
              "pool number", file=sys.stderr)
        return 2
    from .workloads import SIZES, WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (expected one of "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.size not in SIZES:
        print(f"error: unknown size {args.size!r}", file=sys.stderr)
        return 2
    if args.command == "child":
        from .child import run_repetition

        result = run_repetition(
            args.workload, args.seed, SIZES[args.size], bool(args.trace),
            args.workdir, args.spawned_at, trace_out=args.trace_out)
        args.result.write_text(json.dumps(result))
        return 0
    from . import runner

    try:
        if args.command == "contract":
            return runner.run_contract(args.workload, args.seed, args.seconds,
                                       bool(args.trace), args.size)
        names = [args.workload] if args.workload else list(WORKLOADS)
        return runner.run_all(names, args.seed, args.size, args.repeats,
                              args.trace, args.out)
    except runner.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
