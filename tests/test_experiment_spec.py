"""Tests for declarative experiment specs and their execution."""

import json

import pytest

from pathlib import Path

from repro.core import executor
from repro.core.experiment import (
    ExperimentResult,
    ExperimentSpec,
    ScenarioSpec,
    WorkloadSpec,
    experiment_requests,
    run_experiment,
)
from repro.netem import emulated

SHIPPED_SPECS = sorted(
    (Path(__file__).parent.parent / "examples" / "specs").glob("*.json"))


def tiny_spec(**overrides):
    kwargs = dict(
        name="tiny",
        scenarios=[ScenarioSpec(rate_mbps=10.0)],
        workloads=[WorkloadSpec(objects=1, size_kb=50)],
        runs=2,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestSpecValidation:
    def test_requires_scenarios_and_workloads(self):
        with pytest.raises(ValueError):
            ExperimentSpec("x", [], [WorkloadSpec()])
        with pytest.raises(ValueError):
            ExperimentSpec("x", [ScenarioSpec()], [])

    def test_rejects_unknown_device(self):
        with pytest.raises(ValueError):
            tiny_spec(device="iphone99")

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            tiny_spec(protocols=("quic", "sctp"))

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            tiny_spec(runs=0)


class TestSerialisation:
    def test_spec_json_round_trip(self):
        spec = tiny_spec(
            scenarios=[ScenarioSpec(10.0, loss_pct=1.0),
                       ScenarioSpec(50.0, delay_ms=50.0)],
            workloads=[WorkloadSpec(1, 100), WorkloadSpec(200, 10)],
            device="motog",
            quic_version=37,
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec

    def test_from_json_applies_defaults(self):
        raw = {
            "name": "d",
            "scenarios": [{"rate_mbps": 5.0}],
            "workloads": [{"objects": 1, "size_kb": 10}],
        }
        spec = ExperimentSpec.from_json(json.dumps(raw))
        assert spec.runs == 10
        assert spec.protocols == ("quic", "tcp")
        assert spec.device == "desktop"

    def test_labels(self):
        assert WorkloadSpec(200, 10).label == "200x10KB"
        assert "5Mbps" in ScenarioSpec(5.0).label


class TestSchemaVersion:
    def test_default_schema_version_round_trips(self):
        spec = tiny_spec()
        assert spec.schema_version == 1
        assert ExperimentSpec.from_json(spec.to_json()).schema_version == 1

    def test_rejects_newer_schema_version(self):
        raw = json.loads(tiny_spec().to_json())
        raw["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            ExperimentSpec.from_json(json.dumps(raw))

    def test_rejects_invalid_schema_version(self):
        with pytest.raises(ValueError):
            tiny_spec(schema_version=0)
        with pytest.raises(ValueError):
            tiny_spec(schema_version="1")

    def test_rejects_unknown_top_level_key(self):
        raw = json.loads(tiny_spec().to_json())
        raw["worklods"] = raw["workloads"]  # typo'd key
        with pytest.raises(ValueError) as excinfo:
            ExperimentSpec.from_json(json.dumps(raw))
        # The error should both name the bad key and list valid ones.
        assert "worklods" in str(excinfo.value)
        assert "workloads" in str(excinfo.value)

    def test_rejects_unknown_scenario_key(self):
        raw = json.loads(tiny_spec().to_json())
        raw["scenarios"][0]["rate"] = 10.0
        with pytest.raises(ValueError, match="rate"):
            ExperimentSpec.from_json(json.dumps(raw))

    def test_rejects_unknown_workload_key(self):
        raw = json.loads(tiny_spec().to_json())
        raw["workloads"][0]["size"] = 50
        with pytest.raises(ValueError, match="size"):
            ExperimentSpec.from_json(json.dumps(raw))

    def test_rejects_non_object_payload(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_json("[1, 2, 3]")

    def test_missing_required_keys_named(self):
        with pytest.raises(ValueError, match="scenarios"):
            ExperimentSpec.from_json(json.dumps({"name": "x"}))


class TestExecution:
    def test_run_fills_every_cell(self):
        spec = tiny_spec(
            scenarios=[ScenarioSpec(10.0), ScenarioSpec(50.0)],
            workloads=[WorkloadSpec(1, 20)],
        )
        result = run_experiment(spec)
        assert len(result.samples) == 2 * 1 * 2  # scenarios x loads x protos
        for values in result.samples.values():
            assert len(values) == 2
            assert all(v > 0 for v in values)

    def test_heatmap_and_comparisons(self):
        result = run_experiment(tiny_spec(runs=3))
        hm = result.heatmap()
        assert len(hm.cells) == 1
        cell = result.comparison(
            result.spec.scenarios[0].label, result.spec.workloads[0].label)
        assert cell.quic_mean > 0 and cell.tcp_mean > 0

    def test_progress_callback_invoked(self):
        calls = []
        run_experiment(tiny_spec(), progress=lambda key, plts: calls.append(key))
        assert len(calls) == 2

    def test_result_json_round_trip(self):
        result = run_experiment(tiny_spec())
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.spec == result.spec
        assert restored.samples == result.samples

    def test_summary_rows(self):
        result = run_experiment(tiny_spec())
        rows = result.summary_rows()
        assert len(rows) == 2
        assert any("quic" in row for row in rows)


class TestCellLabels:
    """Cells that share a label would silently share samples."""

    def test_jitter_only_scenarios_get_their_own_cells(self):
        # the Fig. 10 sweep: same rate, jitter on and off
        spec = tiny_spec(scenarios=[ScenarioSpec(rate_mbps=10.0),
                                    ScenarioSpec(rate_mbps=10.0,
                                                 jitter_ms=10.0)])
        plain, jittered = (s.label for s in spec.scenarios)
        assert plain == "10Mbps+0ms+0%loss"
        assert jittered == "10Mbps+0ms+0%loss+10ms jitter"
        result = run_experiment(spec)
        assert len(result.samples) == 2 * 1 * 2
        assert all(len(values) == spec.runs
                   for values in result.samples.values())
        key = (plain, "1x50KB", "quic")
        assert result.samples[key] != \
            result.samples[(jittered,) + key[1:]]
        assert result.heatmap().row_labels == [plain, jittered]

    def test_label_change_leaves_the_requests_alone(self):
        # run keys hash the request, and the e2e grid is built through
        # experiment_requests: only the cell key may carry the jitter
        spec = tiny_spec(scenarios=[ScenarioSpec(rate_mbps=10.0,
                                                 jitter_ms=10.0)])
        for (label, _workload, _protocol), requests in \
                experiment_requests(spec):
            assert label.endswith("+10ms jitter")
            assert all(request.scenario == emulated(10.0, jitter_ms=10.0)
                       for request in requests)

    def test_colliding_labels_refused_before_any_run(self, monkeypatch):
        executed = []
        monkeypatch.setattr(executor, "execute_request", executed.append)
        spec = tiny_spec(scenarios=[ScenarioSpec(rate_mbps=10.0),
                                    ScenarioSpec(rate_mbps=10.0)])
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            run_experiment(spec)
        assert executed == []


class TestSingleProtocolSpec:
    def test_heatmap_leaves_one_sided_cells_empty(self):
        result = run_experiment(tiny_spec(protocols=("quic",)))
        assert list(result.samples) == [("10Mbps+0ms+0%loss", "1x50KB",
                                        "quic")]
        heatmap = result.heatmap()  # used to die with KeyError (.., 'tcp')
        assert heatmap.cells == {}
        assert heatmap.render().splitlines()[-1].split() == \
            ["10Mbps+0ms+0%loss", "-"]


class TestShippedSpecs:
    @pytest.mark.parametrize("path", SHIPPED_SPECS, ids=lambda p: p.name)
    def test_parses(self, path):
        spec = ExperimentSpec.from_json(path.read_text())
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_smoke_is_shipped(self):
        assert "smoke.json" in {path.name for path in SHIPPED_SPECS}
