#!/usr/bin/env python
"""Alternating parent/change pairs of end-to-end workloads.

Usage::

    python scripts/bench_pairs.py --parent REV --workload W[,W2,...]
        [-n 10] [--seeds 0,1,2] [--layers NAME[,NAME...]]

The evidence a perf PR owes (ROADMAP ground rules, docs/PERFORMANCE.md):
each side gets its own copy of its files in a scratch directory that is
removed afterwards — ``REV`` through ``git archive``, the change as the
files of this checkout that git tracks or would track (committed or not)
— and each of the ``n`` pairs runs ``python3 benchmarks/e2e/run.py
--workload W --seed S --seconds 10 --trace 0`` once per side from the
root of its copy, the side that goes first alternating, pair ``i`` on
seed ``seeds[i % len(seeds)]`` (default: seed ``i``).  Prints, for the five
end-to-end metrics, each side's median and quartiles, the parent's
quartile spread and the pairs the change won, as a Markdown table, and
in how many pairs both sides printed the same ``outcome_digest``.

``--workload`` takes a comma-separated list — a claim and its "must not
move" rows in one command: the two scratch copies are made once and
shared, the workloads run one after another (all ``n`` pairs of one,
then the next), and each gets its own table in the same form.

``--layers`` names per-layer metrics of ``BENCHMARK.json``'s
``per_layer`` list (an unknown name is refused before anything runs).
After a workload's pairs, each side runs one ``--trace 1`` repetition on
the first pair's seed, and the table gains one row per named layer with
the two traced values: the layer a change moved, next to the end-to-end
numbers it moved.  One traced run is one sample, so those rows show no
spread; their "better" column is 1/1 or 0/1 (n/a where a side's harness
did not report the metric).

This script calls the harness; it does not edit it, and it writes no
tracked file.  Exit codes: 0 = every run printed ``"correct": true`` with
no failed operation, and both sides of every pair the same
``outcome_digest``; 1 = some run or pair did not (the table is still
printed); 2 = a run produced no result line at all (that workload has no
table; the others still run) — the worst over the workloads.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

REPO = Path(__file__).resolve().parent.parent
COMMAND = ["python3", "benchmarks/e2e/run.py"]
#: metric -> True when higher is better (BENCHMARK.json's ``end_to_end``).
METRICS = {"setup_s": False, "wall_s": False, "cells_per_s": True,
           "cpu_s": False, "peak_rss_mb": False}
SIDES = ("parent", "change")


def per_layer_metrics() -> Dict[str, bool]:
    """``BENCHMARK.json``'s per-layer metrics -> True when higher is better."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "higher" for m in spec["per_layer"]}


class NoResult(RuntimeError):
    """A run ended without the harness's JSON result line."""


def run_once(command: Sequence[str], tree: Path, workload: str,
             seed: int, trace: bool = False) -> Dict[str, Any]:
    """One repetition from the root of ``tree``; the harness's result line
    (end-to-end metrics, or with ``trace`` the per-layer ones)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", "10", "--trace", "1" if trace else "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
        result["metrics"], result["correct"], result["failed"]
    except (IndexError, ValueError, KeyError, TypeError):
        raise NoResult(
            f"{' '.join(command)} --workload {workload} --seed {seed} in "
            f"{tree} (exit {done.returncode}) printed no result line:\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}") from None
    digest = re.search(r"\bdigest ([0-9a-f]{16})\b", done.stdout)
    result["digest"] = digest.group(1) if digest else None
    return result


def run_pairs(trees: Dict[str, Path], workload: str, seeds: Sequence[int],
              pairs: int, command: Sequence[str] = COMMAND,
              log=print) -> List[Dict[str, Dict[str, Any]]]:
    """``pairs`` alternating repetitions; one ``{side: result}`` per pair."""
    out = []
    for index in range(pairs):
        seed = seeds[index % len(seeds)]
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(command, trees[side], workload, seed)
                for side in order}
        out.append(pair)
        log(f"pair {index + 1}/{pairs} seed {seed} ({order[0]} first): "
            + ", ".join(f"{side} wall_s "
                        f"{pair[side]['metrics']['wall_s']['value']:.3f}"
                        for side in SIDES))
    return out


def run_traced(trees: Dict[str, Path], workload: str, seed: int,
               command: Sequence[str] = COMMAND) -> Dict[str, Dict[str, Any]]:
    """One ``--trace 1`` repetition per side: ``{side: result}``."""
    return {side: run_once(command, trees[side], workload, seed, trace=True)
            for side in SIDES}


def _relative(parent: float, change: float) -> str:
    return f"{(change - parent) / parent:+.1%}" if parent else "n/a"


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def render(workload: str, results: List[Dict[str, Dict[str, Any]]],
           traced: Optional[Dict[str, Dict[str, Any]]] = None,
           layers: Dict[str, bool] = None) -> str:
    """The pairs as the Markdown table docs/PERFORMANCE.md quotes, plus a
    row per ``layers`` name (-> higher is better) from ``traced``."""
    rows = [f"`{workload}`, {len(results)} alternating pairs, reference "
            "seconds; median [quartiles]; spread = the parent's "
            "(q3 - q1) / median; better = pairs the change won",
            "",
            "| metric | parent | change | change vs parent | parent spread "
            "| better |",
            "| --- | --- | --- | --- | --- | --- |"]
    for metric, higher in METRICS.items():
        values = {side: [pair[side]["metrics"][metric]["value"]
                         for pair in results] for side in SIDES}
        cells = {}
        for side in SIDES:
            q1, median, q3 = _quartiles(values[side])
            cells[side] = (median, f"{median:.4g} [{q1:.4g} – {q3:.4g}]",
                           (q3 - q1) / median if median else 0.0)
        parent, change = cells["parent"][0], cells["change"][0]
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        rows.append(
            f"| `{metric}` | {cells['parent'][1]} | {cells['change'][1]} | "
            f"{_relative(parent, change)} | {cells['parent'][2]:.1%} | "
            f"{wins}/{len(results)} |")
    for name, higher in (layers or {}).items():
        value = {side: traced[side]["metrics"].get(name, {}).get("value")
                 for side in SIDES}
        parent, change = value["parent"], value["change"]
        if parent is None or change is None:
            delta, won = "n/a", "n/a"
        else:
            delta = _relative(parent, change)
            better = change > parent if higher else change < parent
            won = f"{int(better)}/1"
        shown = {side: "n/a" if v is None else f"{v:.4g}"
                 for side, v in value.items()}
        rows.append(f"| `{name}` (1 traced run) | {shown['parent']} | "
                    f"{shown['change']} | {delta} | – | {won} |")
    same = sum(pair["parent"]["digest"] == pair["change"]["digest"]
               for pair in results)
    rows += ["", f"outcome_digest equal in {same}/{len(results)} pairs: "
             + ", ".join(sorted({f"`{pair[side]['digest']}`"
                                 for pair in results for side in SIDES}))]
    return "\n".join(rows)


def failures(results: List[Dict[str, Dict[str, Any]]],
             traced: Optional[Dict[str, Dict[str, Any]]] = None) -> List[str]:
    """One line per run that was not correct or had failed operations,
    and one per pair whose sides printed different outcome digests."""
    bad = [f"traced {side}: correct={result['correct']!r} "
           f"failed={result['failed']!r}"
           for side, result in (traced or {}).items()
           if result["correct"] is not True or result["failed"]]
    for index, pair in enumerate(results):
        bad += [f"pair {index + 1} {side}: correct={result['correct']!r} "
                f"failed={result['failed']!r}"
                for side, result in pair.items()
                if result["correct"] is not True or result["failed"]]
        parent, change = pair["parent"]["digest"], pair["change"]["digest"]
        if parent != change:
            bad.append(f"pair {index + 1}: digest {parent} vs {change}")
    return bad


def export_rev(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, as the driver lays them out."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=REPO, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def export_checkout(dest: Path) -> None:
    """This checkout's tracked and not-ignored new files, as they stand."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=REPO, check=True, capture_output=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        if (REPO / name).is_file():  # skip files deleted but not yet staged
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(REPO / name, dest / name)


def main(argv: Sequence[str] = None, *, command: Sequence[str] = COMMAND,
         trees: Dict[str, Path] = None) -> int:
    """``command`` and ``trees`` are the test seam: the tier-1 contract test
    injects a fake runner and two empty directories, so it needs neither
    git nor a real benchmark run."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--workload", required=True, metavar="W[,W...]")
    parser.add_argument("-n", type=int, default=10, dest="pairs")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated; default 0..n-1")
    parser.add_argument("--layers", default="", metavar="NAME[,NAME...]",
                        help="per-layer metrics to add from one traced "
                             "repetition per side")
    args = parser.parse_args(argv)
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(args.pairs)))
    known = per_layer_metrics()
    names = list(filter(None, args.layers.split(",")))
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(f"--layers: not a per-layer metric of BENCHMARK.json: "
                     f"{', '.join(unknown)}")
    layers = {name: known[name] for name in names}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        if trees is None:
            trees = {side: Path(scratch) / side for side in SIDES}
            for tree in trees.values():
                tree.mkdir()
            export_rev(args.parent, trees["parent"])
            export_checkout(trees["change"])
        worst = 0
        for workload in filter(None, args.workload.split(",")):
            try:
                results = run_pairs(trees, workload, seeds, args.pairs,
                                    command)
                traced = (run_traced(trees, workload, seeds[0], command)
                          if layers else None)
            except NoResult as error:
                print(f"error: {error}", file=sys.stderr)
                worst = 2
                continue
            print()
            print(render(workload, results, traced, layers))
            print()
            bad = failures(results, traced)
            for line in bad:
                print(f"FAILED {line} ({workload})", file=sys.stderr)
            worst = max(worst, 1 if bad else 0)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
