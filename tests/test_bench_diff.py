"""The perf-regression gate must actually gate.

``scripts/bench_diff.py`` is run as a subprocess — exactly how CI runs
it — against synthetic payloads, so the tests pin the exit-code
contract: 0 when the candidate holds the line, non-zero when a
contract breaks or a fixed-seed outcome changes.  Wall-clock rates are
informational only (they flapped on a shared host): the end-to-end
benchmark carries the timing.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
SCRIPT = REPO / "scripts" / "bench_diff.py"


def diff(tmp_path, base, cand, *extra):
    base_file = tmp_path / "base.json"
    cand_file = tmp_path / "cand.json"
    base_file.write_text(json.dumps(base))
    cand_file.write_text(json.dumps(cand))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(base_file), str(cand_file), *extra],
        capture_output=True, text=True)


def manyflow_payload(**overrides):
    base = {
        "benchmark": "manyflow",
        "calibration_ops_per_sec": 30_000_000.0,
        "workload": {
            "flows": 1000,
            "aqm": "droptail",
            "seed": 0,
            "duration": 300.0,
            "scenario": "manyflow_scenario()",
        },
        "flows": 1000,
        "batched_seconds": 0.9,
        "per_packet_seconds": 13.5,
        "speedup_vs_per_packet": 15.0,
        "events_per_sec": 500_000.0,
        "heap_events_batched": 15_000,
        "heap_events_per_packet": 1_950_000,
        "results_identical": True,
        "outcome": {"flows_completed": 1000, "jain_index": 0.41,
                    "plt_p50": 0.173, "bytes_acked": 123_456_789},
    }
    base.update(overrides)
    return base


class TestManyflowGate:
    """Exit-code contract for the thousand-flow fast-path payload."""

    def test_payload_passes(self, tmp_path):
        proc = diff(tmp_path, manyflow_payload(), manyflow_payload())
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "manyflow" in proc.stdout

    def test_results_not_identical_fails(self, tmp_path):
        proc = diff(tmp_path, manyflow_payload(),
                    manyflow_payload(results_identical=False))
        assert proc.returncode == 1
        assert "CONTRACT FAIL" in proc.stdout

    def test_speedup_below_floor_fails(self, tmp_path):
        proc = diff(tmp_path, manyflow_payload(),
                    manyflow_payload(speedup_vs_per_packet=2.4))
        assert proc.returncode == 1
        assert "speedup_vs_per_packet" in proc.stdout

    def test_rate_drop_is_informational(self, tmp_path):
        proc = diff(tmp_path, manyflow_payload(),
                    manyflow_payload(events_per_sec=300_000.0))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "events_per_sec: 300,000/s vs baseline 500,000/s " \
               "[informational]" in proc.stdout

    def test_outcome_change_fails_on_same_workload(self, tmp_path):
        changed = manyflow_payload()
        changed["outcome"] = dict(changed["outcome"], jain_index=0.55)
        proc = diff(tmp_path, manyflow_payload(), changed)
        assert proc.returncode == 1
        assert "BEHAVIOUR CHANGE" in proc.stdout
        assert "jain_index" in proc.stdout

    def test_outcome_not_compared_across_workloads(self, tmp_path):
        changed = manyflow_payload(
            workload={"flows": 200, "aqm": "droptail", "seed": 0,
                      "duration": 300.0, "scenario": "manyflow_scenario()"},
            flows=200)
        changed["outcome"] = dict(changed["outcome"], flows_completed=200)
        proc = diff(tmp_path, manyflow_payload(), changed)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_missing_key_is_malformed(self, tmp_path):
        broken = manyflow_payload()
        del broken["outcome"]
        proc = diff(tmp_path, manyflow_payload(), broken)
        assert proc.returncode == 2
        assert "missing required" in proc.stdout


# ----------------------------------------------------------------------
# the chaos payload (scripts/chaos_sweep.py)
# ----------------------------------------------------------------------
def chaos_payload(**overrides):
    base = {
        "benchmark": "chaos",
        "cells": 600,
        "workers": 3,
        "sync_every": 32,
        "seed": 42,
        "cpu_count": 4,
        "usable_cpus": 4,
        "baseline_seconds": 1.2,
        "chaos_seconds": 1.8,
        "faults_scheduled": 7,
        "faults_fired": 7,
        "quarantined": 2,
        "residual_issues": 0,
        "corruptions_injected": 8,
        "corruptions_detected": 8,
        "fsck_detect_rate": 1.0,
        "results_identical": True,
        "fsck_clean": True,
        "plan_deterministic": True,
    }
    base.update(overrides)
    return base


class TestChaosGate:
    def test_chaos_payload_passes(self, tmp_path):
        proc = diff(tmp_path, chaos_payload(), chaos_payload())
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "chaos" in proc.stdout

    def test_results_not_identical_fails(self, tmp_path):
        proc = diff(tmp_path, chaos_payload(),
                    chaos_payload(results_identical=False))
        assert proc.returncode == 1
        assert "CONTRACT FAIL" in proc.stdout

    def test_residual_corruption_fails(self, tmp_path):
        proc = diff(tmp_path, chaos_payload(),
                    chaos_payload(fsck_clean=False, residual_issues=2))
        assert proc.returncode == 1
        assert "fsck_clean" in proc.stdout

    def test_partial_detection_fails(self, tmp_path):
        proc = diff(tmp_path, chaos_payload(),
                    chaos_payload(corruptions_detected=7,
                                  fsck_detect_rate=0.875))
        assert proc.returncode == 1
        assert "fsck_detect_rate" in proc.stdout

    def test_nondeterministic_plan_fails(self, tmp_path):
        proc = diff(tmp_path, chaos_payload(),
                    chaos_payload(plan_deterministic=False))
        assert proc.returncode == 1
        assert "plan_deterministic" in proc.stdout

    def test_unfired_fault_fails(self, tmp_path):
        # A scheduled fault that never landed exercised nothing — the
        # chaos run proved less than it claims.
        proc = diff(tmp_path, chaos_payload(), chaos_payload(faults_fired=6))
        assert proc.returncode == 1
        assert "faults_fired" in proc.stdout

    def test_slower_chaos_run_is_informational(self, tmp_path):
        proc = diff(tmp_path, chaos_payload(),
                    chaos_payload(chaos_seconds=9.9))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_missing_key_is_malformed(self, tmp_path):
        broken = chaos_payload()
        del broken["fsck_clean"]
        proc = diff(tmp_path, chaos_payload(), broken)
        assert proc.returncode == 2
        assert "missing required" in proc.stdout


# ----------------------------------------------------------------------
# the models payload (benchmarks/model_fit.py)
# ----------------------------------------------------------------------
def models_fit_row(**overrides):
    base = {"cc": "reno", "proto": "quic", "rate_mbps": 50.0, "rtt": 0.04,
            "loss_rate": 0.01, "observed": 1.1e6, "predicted": 1.0e6,
            "ratio": 1.1, "regime": "loss-limited", "gated": True,
            "ok": True}
    base.update(overrides)
    return base


def models_payload(**overrides):
    base = {
        "benchmark": "models",
        "calibration_ops_per_sec": 30_000_000.0,
        "workload": {
            "ccs": ["reno", "cubic", "bbr"],
            "loss_rates": [0.01, 0.02],
            "seeds": [0],
            "flows": 8,
            "scenario": "manyflow_scenario(rate_mbps=50.0, rtt=0.040)",
        },
        "tolerance": 0.6,
        "cells": 10,
        "gated_cells": 10,
        "within_tolerance": 10,
        "max_abs_log_error": 0.29,
        "mean_abs_log_error": 0.12,
        "results_identical": True,
        "fit": [models_fit_row(),
                models_fit_row(proto="tcp", observed=0.9e6, ratio=0.9)],
    }
    base.update(overrides)
    return base


class TestModelsGate:
    """Exit-code contract for the analytical-oracle fit payload."""

    def test_payload_passes(self, tmp_path):
        proc = diff(tmp_path, models_payload(), models_payload())
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "models" in proc.stdout

    def test_results_not_identical_fails(self, tmp_path):
        proc = diff(tmp_path, models_payload(),
                    models_payload(results_identical=False))
        assert proc.returncode == 1
        assert "CONTRACT FAIL" in proc.stdout

    def test_divergent_cell_fails(self, tmp_path):
        proc = diff(tmp_path, models_payload(),
                    models_payload(within_tolerance=9))
        assert proc.returncode == 1
        assert "within tolerance" in proc.stdout

    def test_zero_gated_cells_fails(self, tmp_path):
        # An empty grid proves nothing; the gate must refuse it.
        proc = diff(tmp_path, models_payload(),
                    models_payload(gated_cells=0, within_tolerance=0))
        assert proc.returncode == 1

    def test_log_error_past_ceiling_fails(self, tmp_path):
        # ln(1 + 0.6) ~= 0.47; a worst cell above it diverged.
        proc = diff(tmp_path, models_payload(),
                    models_payload(max_abs_log_error=0.5))
        assert proc.returncode == 1
        assert "max_abs_log_error" in proc.stdout

    def test_fit_change_fails_on_same_workload(self, tmp_path):
        changed = models_payload()
        changed["fit"] = [models_fit_row(observed=1.3e6, ratio=1.3),
                          changed["fit"][1]]
        proc = diff(tmp_path, models_payload(), changed)
        assert proc.returncode == 1
        assert "BEHAVIOUR CHANGE" in proc.stdout

    def test_fit_not_compared_across_workloads(self, tmp_path):
        changed = models_payload(
            workload=dict(models_payload()["workload"], flows=16))
        changed["fit"] = [models_fit_row(observed=1.3e6, ratio=1.3)]
        proc = diff(tmp_path, models_payload(), changed)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_missing_key_is_malformed(self, tmp_path):
        broken = models_payload()
        del broken["fit"]
        proc = diff(tmp_path, models_payload(), broken)
        assert proc.returncode == 2
        assert "missing required" in proc.stdout


# ----------------------------------------------------------------------
# whatever the kind: usage and shape errors exit 2
# ----------------------------------------------------------------------
class TestBenchDiff:
    def test_threshold_flag_is_a_usage_error(self, tmp_path):
        # no gated rate is left for a threshold to apply to
        proc = diff(tmp_path, manyflow_payload(), manyflow_payload(),
                    "--threshold", "0.10")
        assert proc.returncode == 2
        assert "unrecognized arguments: --threshold" in proc.stderr


class TestMultiPayloadGate:
    """Exit code 2 = malformed payload, kind mismatch, or a kind the
    gate table does not declare."""

    def test_kind_mismatch_is_an_error(self, tmp_path):
        proc = diff(tmp_path, manyflow_payload(), chaos_payload())
        assert proc.returncode == 2
        assert "like with like" in proc.stdout

    def test_unknown_kind_is_an_error(self, tmp_path):
        odd = {"benchmark": "frobnication", "x": 1}
        proc = diff(tmp_path, odd, odd)
        assert proc.returncode == 2

    def test_legacy_payload_without_kind_is_unknown(self, tmp_path):
        # no guessing: a payload that does not declare its kind is an
        # unknown kind, however manyflow-shaped the rest of it is
        old = manyflow_payload()
        del old["benchmark"]
        proc = diff(tmp_path, old, old)
        assert proc.returncode == 2
        assert "unknown benchmark kind" in proc.stdout


# ----------------------------------------------------------------------
# the committed payloads and the `gate` entry point
# ----------------------------------------------------------------------
COMMITTED = sorted(REPO.glob("BENCH_*.json"))


def load_script():
    spec = importlib.util.spec_from_file_location("bench_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCommittedPayloads:
    @pytest.mark.parametrize("committed", COMMITTED, ids=lambda p: p.name)
    def test_gates_committed_payload(self, committed):
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), str(committed), str(committed)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # a fourth benchmark cannot land ungated: the committed kinds and
        # the table's rows are the same set, file for file
        kinds = {path.name: json.loads(path.read_text())["benchmark"]
                 for path in COMMITTED}
        assert kinds == {row["payload"]: kind
                         for kind, row in load_script().GATES.items()}


class TestGateEntryPoint:
    def test_gate_measures_into_temp_and_never_writes_tracked(self, tmp_path):
        # models: single process and contract-only, so tier-1 imports
        # neither a timing gate nor forked workers under injected faults
        committed = REPO / "BENCH_models.json"
        before = committed.read_bytes()
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "gate", "models"],
            cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "within_tolerance: 10/10 [ok]" in proc.stdout
        assert committed.read_bytes() == before
        assert not list(tmp_path.iterdir())

    def test_unknown_kind_exits_2(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "gate", "frobnication"],
            cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 2

    @pytest.mark.parametrize("quick_side", ["committed", "fresh"])
    def test_drifted_workload_fails(self, tmp_path, monkeypatch, capsys,
                                    quick_side):
        # A reno-only, one-loss-rate (2-cell) models payload on one side
        # and the full grid on the other: the `fit` identity cannot be
        # compared, so the gate must fail rather than pass on nothing.
        quick = models_payload(
            workload=dict(models_payload()["workload"], ccs=["reno"],
                          loss_rates=[0.01]),
            cells=2, gated_cells=2, within_tolerance=2)
        committed, fresh = ((quick, models_payload())
                            if quick_side == "committed"
                            else (models_payload(), quick))
        (tmp_path / "BENCH_models.json").write_text(json.dumps(committed))
        measured = tmp_path / "fresh.json"
        measured.write_text(json.dumps(fresh))
        script = load_script()
        monkeypatch.setattr(script, "REPO", tmp_path)
        monkeypatch.setitem(script.GATES["models"], "measure", [
            "-c", "import shutil, sys; shutil.copy(sys.argv[1], sys.argv[-1])",
            str(measured)])
        assert script.run_gates(["models"]) == 1
        out = capsys.readouterr().out
        assert "workload differs in ccs, loss_rates" in out
        assert "PYTHONPATH=src python" in out
        assert json.loads((tmp_path / "BENCH_models.json").read_text()) \
            == committed
