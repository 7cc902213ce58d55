"""Contract of ``scripts/bench_pairs.py``: the table, the alternation and
the exit codes, through an injected runner — no git, no benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

#: Stands in for ``benchmarks/e2e/run.py``: reads its side from the name
#: of the tree it was started in, logs the call, prints a result line.
FAKE_RUNNER = '''
import json, os, sys
side = os.path.basename(os.getcwd())
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open(os.environ["PAIRS_LOG"], "a") as log:
    log.write(json.dumps([side, args]) + "\\n")
wall = {"parent": 10.0, "change": 8.0}[side] + int(args["--seed"]) / 10
mode = os.environ.get("PAIRS_MODE", "ok")
if args["--workload"] != os.environ.get("PAIRS_BAD_WORKLOAD", args["--workload"]):
    mode = "ok"
if mode == "silent" and side == "change":
    sys.exit(3)
print("host: chatter before the result line")
digest = int(args["--seed"]) + (mode == "digest" and side == "change")
print("%s: 480 cells x 1 repetition(s), digest %016x" % (args["--workload"], digest))
metrics = {"setup_s": {"value": 0.25, "unit": "s"},
           "wall_s": {"value": wall, "unit": "s"},
           "cells_per_s": {"value": 480 / wall, "unit": "1/s"},
           "cpu_s": {"value": wall - 0.1, "unit": "s"},
           "peak_rss_mb": {"value": 35.0, "unit": "MiB"}}
if args["--trace"] == "1":
    per_event = {"parent": 4.0, "change": 3.0}[side]
    metrics = {"core.executor.us_per_event":
                   {"value": per_event, "unit": "us"},
               "store.cache.hits": {"value": 480.0, "unit": "count"}}
    if side == "change":
        metrics["store.shards.rows"] = {"value": 480.0, "unit": "count"}
    if mode == "failed-traced":
        mode = "failed"
print(json.dumps({
    "correct": not (mode == "incorrect" and side == "change"),
    "attempted": 480, "failed": 2 if mode == "failed" and side == "parent" else 0,
    "metrics": metrics}))
'''


@pytest.fixture
def pairs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    runner = tmp_path / "fake_runner.py"
    runner.write_text(FAKE_RUNNER)
    trees = {side: tmp_path / side for side in module.SIDES}
    for tree in trees.values():
        tree.mkdir()
    log = tmp_path / "calls.jsonl"
    monkeypatch.setenv("PAIRS_LOG", str(log))

    def run(*argv, workload="grid_serial"):
        code = module.main(["--parent", "unused", "--workload", workload,
                            *argv], command=[sys.executable, str(runner)],
                           trees=trees)
        calls = [json.loads(line) for line in log.read_text().splitlines()]
        return code, calls

    return run


def test_table_alternation_and_clean_exit(pairs, capsys):
    code, calls = pairs("-n", "4", "--seeds", "5,6")
    assert code == 0
    # Each side from its own tree, the first side alternating, one seed a pair.
    assert [side for side, _ in calls] == [
        "parent", "change", "change", "parent",
        "parent", "change", "change", "parent"]
    assert [args["--seed"] for _, args in calls] == list("55665566")
    assert all(args == {"--workload": "grid_serial", "--seed": args["--seed"],
                        "--seconds": "10", "--trace": "0"}
               for _, args in calls)
    out = capsys.readouterr().out
    table = [line for line in out.splitlines() if line.startswith("|")]
    assert table[0] == ("| metric | parent | change | change vs parent "
                        "| parent spread | better |")
    assert [row.split("|")[1].strip() for row in table[2:]] == [
        "`setup_s`", "`wall_s`", "`cells_per_s`", "`cpu_s`", "`peak_rss_mb`"]
    wall = table[3]
    assert wall == ("| `wall_s` | 10.55 [10.5 – 10.6] | 8.55 [8.5 – 8.6] | "
                    "-19.0% | 0.9% | 4/4 |")
    assert table[4].endswith("| 4/4 |")   # cells_per_s: higher is better
    assert table[2].endswith("| 0/4 |")   # setup_s tied: a tie is no win
    assert ("outcome_digest equal in 4/4 pairs: `0000000000000005`, "
            "`0000000000000006`") in out


@pytest.mark.parametrize("mode, expected", [
    ("incorrect", 1), ("failed", 1), ("silent", 2)])
def test_exit_code_names_a_bad_run(pairs, capsys, monkeypatch, mode, expected):
    monkeypatch.setenv("PAIRS_MODE", mode)
    code, _calls = pairs("-n", "2")
    assert code == expected
    captured = capsys.readouterr()
    if expected == 1:
        assert "| `wall_s` |" in captured.out  # the table is still printed
        assert "FAILED pair 1" in captured.err
    else:
        assert "printed no result line" in captured.err


def test_workload_list_shares_the_trees_and_prints_a_table_each(pairs, capsys):
    code, calls = pairs("-n", "2", workload="store_replay,grid_serial")
    assert code == 0
    # All pairs of one workload, then the next; the same two trees throughout.
    assert [(args["--workload"], side) for side, args in calls] == [
        ("store_replay", "parent"), ("store_replay", "change"),
        ("store_replay", "change"), ("store_replay", "parent"),
        ("grid_serial", "parent"), ("grid_serial", "change"),
        ("grid_serial", "change"), ("grid_serial", "parent")]
    out = capsys.readouterr().out
    headers = [line for line in out.splitlines() if "alternating pairs" in line]
    assert [line.split(",")[0] for line in headers] == [
        "`store_replay`", "`grid_serial`"]
    assert out.count("| `wall_s` |") == 2


@pytest.mark.parametrize("mode, expected", [
    ("incorrect", 1), ("failed", 1), ("silent", 2)])
def test_exit_code_is_the_worst_workloads(pairs, capsys, monkeypatch, mode,
                                          expected):
    monkeypatch.setenv("PAIRS_MODE", mode)
    monkeypatch.setenv("PAIRS_BAD_WORKLOAD", "store_fill")
    code, calls = pairs("-n", "2", workload="store_fill,grid_serial")
    assert code == expected
    captured = capsys.readouterr()
    # The bad workload does not cost the next one its runs or its table.
    assert [args["--workload"] for _, args in calls][-4:] == ["grid_serial"] * 4
    assert "`grid_serial`, 2 alternating pairs" in captured.out
    if expected == 1:
        assert "FAILED pair 1" in captured.err
        assert "(store_fill)" in captured.err
        assert "(grid_serial)" not in captured.err
    else:
        assert "`store_fill`" not in captured.out
        assert "--workload store_fill" in captured.err


def test_a_digest_mismatch_fails_its_pair(pairs, capsys, monkeypatch):
    monkeypatch.setenv("PAIRS_MODE", "digest")
    monkeypatch.setenv("PAIRS_BAD_WORKLOAD", "store_replay")
    code, _calls = pairs("-n", "2", "--seeds", "5",
                         workload="store_replay,grid_serial")
    assert code == 1
    captured = capsys.readouterr()
    assert "outcome_digest equal in 0/2 pairs" in captured.out
    assert captured.err.splitlines() == [
        "FAILED pair 1: digest 0000000000000005 vs 0000000000000006 "
        "(store_replay)",
        "FAILED pair 2: digest 0000000000000005 vs 0000000000000006 "
        "(store_replay)"]


def test_layers_add_one_traced_row_each(pairs, capsys):
    code, calls = pairs("-n", "2", "--seeds", "5,6", "--layers",
                        "core.executor.us_per_event,store.cache.hits,"
                        "store.shards.rows")
    assert code == 0
    # The pairs untraced, then one traced run per side on the first seed.
    assert [(side, args["--seed"], args["--trace"])
            for side, args in calls] == [
        ("parent", "5", "0"), ("change", "5", "0"),
        ("change", "6", "0"), ("parent", "6", "0"),
        ("parent", "5", "1"), ("change", "5", "1")]
    table = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("|")]
    assert table[-3:] == [
        "| `core.executor.us_per_event` (1 traced run) | 4 | 3 | -25.0% "
        "| – | 1/1 |",
        # higher is better for a count of hits; a tie is no win
        "| `store.cache.hits` (1 traced run) | 480 | 480 | +0.0% | – "
        "| 0/1 |",
        # the parent's harness did not report it
        "| `store.shards.rows` (1 traced run) | n/a | 480 | n/a | – | n/a |"]


def test_layers_are_checked_before_anything_runs(pairs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        pairs("-n", "2", "--layers", "core.executor.us_per_event,bogus.layer")
    assert exit_info.value.code == 2
    assert "bogus.layer" in capsys.readouterr().err


def test_a_bad_traced_run_fails_the_workload(pairs, capsys, monkeypatch):
    monkeypatch.setenv("PAIRS_MODE", "failed-traced")
    code, _calls = pairs("-n", "2", "--layers", "core.executor.us_per_event")
    assert code == 1
    # the pairs were clean: only the traced parent run failed operations
    assert capsys.readouterr().err.splitlines() == [
        "FAILED traced parent: correct=True failed=2 (grid_serial)"]
