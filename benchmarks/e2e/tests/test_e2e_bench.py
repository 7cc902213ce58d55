"""Self-tests of the end-to-end benchmark, at its reduced ``tiny`` size.

Run with ``python -m pytest benchmarks/e2e/tests -q`` from the repo root
(not collected by tier-1's ``testpaths = tests``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.core.executor import iter_runs  # noqa: E402

from benchmarks.e2e import cli  # noqa: E402
from benchmarks.e2e.child import (  # noqa: E402
    consume,
    count_failed,
    run_repetition,
)
from benchmarks.e2e.compare import compare  # noqa: E402
from benchmarks.e2e.host import Pacer  # noqa: E402
from benchmarks.e2e.runner import load_spec  # noqa: E402
from benchmarks.e2e.tracing import WALL, self_times  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    TINY,
    WORKLOADS,
    build_requests,
    synthetic_cell,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN_PY = ROOT / "benchmarks" / "e2e" / "run.py"


def contract(workload: str, trace: int, seed: int = 0) -> dict:
    """The last stdout line of the contract command at the tiny size."""
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_declared_names_are_well_formed_and_unique():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


@pytest.mark.parametrize("workload", ["grid_pool", "fabric_synth"])
def test_emitted_names_equal_declared_names(workload):
    spec = load_spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line = contract(workload, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {name: m["unit"] for name, m in line["metrics"].items()} \
            == declared


def test_self_times_reproduce_the_traced_wall(tmp_path):
    trace_out = tmp_path / "trace.json"
    workdir = tmp_path / "work"
    workdir.mkdir()
    result = run_repetition("store_fill", 0, TINY, True, workdir,
                            time.time(), trace_out=trace_out)
    trace = json.loads(trace_out.read_text())
    totals = self_times(trace["spans"], trace["root_pid"])
    layers = sum(seconds for name, (seconds, _) in totals.items()
                 if name != WALL)
    unattributed = totals[WALL][0]
    # raw wall_s is an independent perf_counter reading around the interval
    assert layers + unattributed == pytest.approx(result["raw"]["wall_s"],
                                                  rel=0.05)
    # (the file's span times are rounded to the microsecond)
    assert unattributed / result["raw"]["wall_s"] == pytest.approx(
        result["layers"]["trace.unattributed_share"], abs=1e-3)


def _raises_on_odd_seeds(request):
    if request.seed % 2:
        raise RuntimeError("deliberate")
    return synthetic_cell(request)


def test_failed_share_counts_a_raising_run_fn_against_attempts():
    requests = build_requests("store_fill", TINY, 0)
    sweep = consume(iter_runs(requests, run_fn=_raises_on_odd_seeds,
                              retries=0), Pacer())
    odd = sum(1 for request in requests if request.seed % 2)
    assert 0 < odd < len(requests)
    assert count_failed(sweep, len(requests), checks_ok=True) == odd
    assert count_failed(sweep, len(requests), checks_ok=False) \
        == len(requests)
    del sweep.outcomes[0]  # a request whose terminal event never came
    assert count_failed(sweep, len(requests), checks_ok=True) == odd + 1


def test_seed_changes_the_digest_and_the_same_seed_does_not(tmp_path):
    digests = []
    for index, seed in enumerate((3, 3, 4)):
        workdir = tmp_path / str(index)
        workdir.mkdir()
        digests.append(run_repetition("store_fill", seed, TINY, False,
                                      workdir, time.time())["outcome_digest"])
    assert digests[0] == digests[1] != digests[2]


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _result(wall=(10.0, 9.9, 10.1), cells=480, failed=0, digest="d"):
    def summary(values):
        ordered = sorted(values)
        return {"median": ordered[1], "min": ordered[0], "max": ordered[2],
                "n": 3, "unit": "s", "values": list(values)}

    metrics = {m["name"]: summary((1.0, 0.99, 1.01))
               for m in load_spec()["end_to_end"]}
    metrics["wall_s"] = summary(wall)
    return {"benchmark": "e2e", "workloads": {"grid_serial": {
        "cells": cells, "metrics": metrics, "outcome_digest": digest,
        "failed": failed, "attempted": 3 * cells,
        "failed_share": failed / (3 * cells),
        "exact": {"netem.sim.events": 1.0}}}}


def _compare(tmp_path, parent, change):
    paths = []
    for name, payload in (("a", parent), ("b", change)):
        path = tmp_path / f"{name}.json"
        path.write_text(payload if isinstance(payload, str)
                        else json.dumps(payload))
        paths.append(path)
    return compare(paths[0], paths[1], load_spec())


def test_compare_exit_codes(tmp_path):
    code, rows = _compare(tmp_path, _result(), _result())
    assert code == 0 and rows[-1] == "no regression"
    code, rows = _compare(tmp_path, _result(), _result(wall=(15, 14.9, 15.1)))
    assert code == 1 and any("wall_s" in r and "regressed" in r for r in rows)
    # better, not worse
    assert _compare(tmp_path, _result(), _result(wall=(5, 4.9, 5.1)))[0] == 0
    # any rise in failed operations fails
    assert _compare(tmp_path, _result(), _result(failed=1))[0] == 1
    assert _compare(tmp_path, "{not json", _result())[0] == 2
    assert _compare(tmp_path, _result(), {"benchmark": "other"})[0] == 2
    assert _compare(tmp_path, _result(), _result(cells=120))[0] == 2


def test_compare_reports_unresolved_and_changed_digests(tmp_path):
    # both spreads exceed the bound and the ranges overlap: not a verdict
    code, rows = _compare(tmp_path, _result(wall=(10, 8, 12)),
                          _result(wall=(11.5, 9, 14)))
    assert code == 0
    assert any("wall_s" in r and "unresolved" in r for r in rows)
    code, rows = _compare(tmp_path, _result(), _result(digest="e"))
    assert code == 0 and any("outcome_digest" in r and "changed" in r
                             for r in rows)


# ----------------------------------------------------------------------
# hygiene
# ----------------------------------------------------------------------
def test_refuses_to_run_with_the_serial_escape_hatch(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_EXECUTOR_SERIAL", "1")
    assert cli.main(["run", "--workload", "store_fill", "--size", "tiny"]) == 2
    assert "REPRO_EXECUTOR_SERIAL" in capsys.readouterr().err


def test_exits_nonzero_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "benchmarks" / "e2e",
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "grid_serial",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_repetitions_leave_nothing_behind():
    leftovers = [p for p in (ROOT / "benchmarks" / "e2e" / "out").iterdir()
                 if p.is_dir()]
    contract("store_fill", 0)
    assert [p for p in (ROOT / "benchmarks" / "e2e" / "out").iterdir()
            if p.is_dir()] == leftovers
