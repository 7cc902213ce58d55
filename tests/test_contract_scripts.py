"""The two self-checking scripts judge what they measure.

``benchmarks/sim_manyflow.py`` and ``scripts/chaos_sweep.py`` carry
their contracts in their exit code.  Each verdict is a pure function of
one measured sample, so it is tested here on synthetic samples — no
simulation, no fabric — with every contract broken in turn.
"""

import importlib.util
from pathlib import Path

import pytest

from benchmarks import sim_manyflow

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _chaos_sweep():
    spec = importlib.util.spec_from_file_location(
        "chaos_sweep", SCRIPTS / "chaos_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


chaos_sweep = _chaos_sweep()


def manyflow_sample(speedup=15.0, per_packet_outcome=None):
    outcome = {"flows_completed": 1000.0, "plt_p50": 0.1725,
               "jain_index": 0.4128, "logical_events": 489783.0}
    return {
        "flows": 1000,
        "batched": {"wall": 0.9, "heap_events": 35742.0,
                    "outcome": dict(outcome)},
        "per_packet": {"wall": 0.9 * speedup, "heap_events": 7044584.0,
                       "outcome": dict(per_packet_outcome or outcome)},
        "speedup": speedup,
        "events_per_sec": 489783.0 / 0.9,
    }


class TestManyflowVerdict:
    def test_clean_sample_passes(self):
        assert sim_manyflow.verdict(manyflow_sample()) == []

    def test_diverged_outcome_fails_naming_the_metric(self):
        diverged = dict(manyflow_sample()["batched"]["outcome"],
                        jain_index=0.5)
        broken = sim_manyflow.verdict(
            manyflow_sample(per_packet_outcome=diverged))
        assert len(broken) == 1 and "jain_index" in broken[0]

    def test_speedup_below_floor_fails(self):
        broken = sim_manyflow.verdict(manyflow_sample(speedup=2.4))
        assert len(broken) == 1 and "2.40x" in broken[0]
        assert sim_manyflow.verdict(
            manyflow_sample(speedup=sim_manyflow.SPEEDUP_FLOOR)) == []

    @pytest.mark.parametrize("sample, code", [
        (manyflow_sample(), 0), (manyflow_sample(speedup=2.4), 1),
        (manyflow_sample(per_packet_outcome={"plt_p50": 0.2}), 1)],
        ids=["clean", "slow", "diverged"])
    def test_exit_code(self, monkeypatch, capsys, sample, code):
        monkeypatch.setattr(sim_manyflow, "bench_manyflow", lambda: sample)
        assert sim_manyflow.main() == code
        assert ("FAIL:" in capsys.readouterr().out) == bool(code)


def chaos_result(**overrides):
    result = {
        "faults_scheduled": 7, "faults_fired": 7,
        "baseline_seconds": 1.3, "chaos_seconds": 1.7, "quarantined": 2,
        "corruptions_injected": 8, "corruptions_detected": 8,
        "results_identical": True, "fsck_clean": True,
        "plan_deterministic": True,
    }
    result.update(overrides)
    return result


class TestChaosVerdict:
    def test_clean_seed_passes(self):
        assert chaos_sweep.verdict(chaos_result()) == []

    @pytest.mark.parametrize("overrides, says", [
        ({"results_identical": False}, "did not converge"),
        ({"fsck_clean": False}, "residual corruption"),
        ({"corruptions_detected": 7}, "detected 7 of 8"),
        ({"plan_deterministic": False}, "not replayable"),
        ({"faults_fired": 6}, "6 of 7 scheduled"),
    ], ids=["not-identical", "residual", "partial-detection",
            "nondeterministic-plan", "unfired-fault"])
    def test_each_broken_contract_fails(self, overrides, says):
        broken = chaos_sweep.verdict(chaos_result(**overrides))
        assert len(broken) == 1 and says in broken[0]

    @pytest.mark.parametrize("overrides", [
        {"corruptions_injected": 0, "corruptions_detected": 0},
        {"faults_scheduled": 0, "faults_fired": 0},
    ], ids=["no-corruption", "no-fault"])
    def test_zero_of_zero_fails(self, overrides):
        assert len(chaos_sweep.verdict(chaos_result(**overrides))) == 1

    def test_zero_corruptions_refused_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            chaos_sweep.parse_args(["--corruptions", "0"])
        assert exit_info.value.code == 2
        assert "--corruptions must be >= 1" in capsys.readouterr().err
        assert chaos_sweep.parse_args([]).corruptions == 8
