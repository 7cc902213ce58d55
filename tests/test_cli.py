"""Tests for the command-line interface."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core import executor

SMOKE_SPEC = Path(__file__).parent.parent / "examples" / "specs" / "smoke.json"


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.rate == 10.0
        assert args.runs == 10
        assert args.device == "desktop"
        assert args.jobs == 1

    def test_jobs_flag_on_parallel_commands(self):
        parser = build_parser()
        assert parser.parse_args(["compare", "--jobs", "4"]).jobs == 4
        assert parser.parse_args(["heatmap", "--jobs", "0"]).jobs == 0
        assert parser.parse_args(
            ["spec", "--file", "x.json", "--jobs", "2"]).jobs == 2


    @pytest.mark.parametrize("argv", [
        ["compare", "--runs", "1"],
        ["heatmap", "--runs", "0"],
        ["compare", "--jobs", "-1"],
        ["heatmap", "--jobs", "-1"],
        ["spec", "--file", "x.json", "--jobs", "-2"],
        ["manyflow", "--jobs", "-1"],
        ["validate", "--jobs", "-1"],
        ["worker", "--file", "x.json", "--url", "u", "--workers", "0"],
        ["worker", "--file", "x.json", "--url", "u", "--sync-every", "0"],
    ], ids=" ".join)
    def test_a_bad_count_exits_2_with_one_error_line(self, capsys, argv):
        # Refused at parse time: nothing runs, nothing is printed to
        # stdout, and no traceback.
        flag, value = argv[-2:]
        floor = {"--runs": 2, "--jobs": 0, "--workers": 1,
                 "--sync-every": 1}[flag]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert errors == [f"repro {argv[0]}: error: argument {flag}: must "
                          f"be >= {floor}, got {value}"]
        assert "Traceback" not in captured.err

    def test_count_flags_keep_their_floor_values(self):
        parser = build_parser()
        assert parser.parse_args(["compare", "--runs", "2"]).runs == 2
        assert parser.parse_args(["heatmap", "--runs", "2"]).runs == 2
        args = parser.parse_args(["worker", "--file", "x", "--url", "u",
                                  "--workers", "1", "--sync-every", "1"])
        assert (args.workers, args.sync_every) == (1, 1)
        with pytest.raises(SystemExit):
            parser.parse_args(["compare", "--runs", "two"])


class TestCommands:
    def test_versions(self, capsys):
        assert main(["versions"]) == 0
        out = capsys.readouterr().out
        assert "QUIC 34" in out and "MACW=430" in out
        assert "QUIC 37" in out and "MACW=2000" in out

    def test_compare(self, capsys):
        assert main(["compare", "--rate", "10", "--size-kb", "50",
                     "--runs", "3"]) == 0
        out = capsys.readouterr().out
        assert "QUIC" in out and "TCP" in out and "p=" in out

    def test_compare_multi_object(self, capsys):
        assert main(["compare", "--rate", "10", "--size-kb", "10",
                     "--objects", "5", "--runs", "2"]) == 0
        assert "5x10KB" in capsys.readouterr().out

    def test_heatmap(self, capsys):
        assert main(["heatmap", "--rates", "10", "--sizes-kb", "10,100",
                     "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "1x10KB" in out and "1x100KB" in out

    def test_compare_parallel_matches_serial(self, capsys):
        argv = ["compare", "--rate", "10", "--size-kb", "50", "--runs", "4"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_fairness(self, capsys):
        assert main(["fairness", "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "quic" in out and "tcp" in out and "share" in out

    def test_bulk_with_nack_override(self, capsys):
        assert main(["bulk", "--protocol", "quic", "--size-mb", "0.5",
                     "--rate", "20", "--nack-threshold", "10"]) == 0
        out = capsys.readouterr().out
        assert "Mbps" in out and "losses=" in out

    def test_bulk_tcp_rejects_nack_threshold(self, capsys):
        # a QUIC-only knob: refused before anything runs, not ignored
        with pytest.raises(SystemExit,
                           match="error: --nack-threshold applies to "
                                 "--protocol quic"):
            main(["bulk", "--protocol", "tcp", "--size-mb", "0.5",
                  "--nack-threshold", "30"])
        assert capsys.readouterr().out == ""

    def test_bulk_tcp(self, capsys):
        assert main(["bulk", "--protocol", "tcp", "--size-mb", "0.5",
                     "--rate", "20"]) == 0
        assert "tcp:" in capsys.readouterr().out

    def test_statemachine_writes_dot(self, tmp_path, capsys):
        out_file = tmp_path / "fsm.dot"
        assert main(["statemachine", "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert "digraph" in out_file.read_text()
        assert "SlowStart" in capsys.readouterr().out

    def test_video(self, capsys):
        assert main(["video", "--quality", "tiny", "--rate", "50",
                     "--loss", "0", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "quic" in out and "tcp" in out


class TestSpecCommand:
    def test_spec_runs_file(self, tmp_path, capsys):
        spec = {
            "name": "cli-spec",
            "scenarios": [{"rate_mbps": 10.0}],
            "workloads": [{"objects": 1, "size_kb": 20}],
            "runs": 2,
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out_file = tmp_path / "result.json"
        assert main(["spec", "--file", str(spec_file),
                     "--out", str(out_file)]) == 0
        assert "cli-spec" in capsys.readouterr().out
        assert out_file.exists()
        from repro.core.experiment import ExperimentResult

        restored = ExperimentResult.from_json(out_file.read_text())
        assert len(restored.samples) == 2

    def test_single_protocol_spec_prints_summary_rows(self, tmp_path, capsys):
        spec_file = tmp_path / "quic-only.json"
        spec_file.write_text(json.dumps({
            "name": "quic-only", "protocols": ["quic"], "runs": 2,
            "scenarios": [{"rate_mbps": 10.0}],
            "workloads": [{"objects": 1, "size_kb": 20}]}))
        assert main(["spec", "--file", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "n=2" in out and "quic" in out  # summary_rows(), no heatmap
        assert "positive =" not in out

    def test_shipped_smoke_spec_is_pinned(self, tmp_path, capsys):
        # `make bench-smoke`: golden captured before the sweep-fold
        # rewire, pinned like tests/test_determinism.py pins its cells
        written = []
        for extra in ([], ["--jobs", "2"]):
            out_file = tmp_path / f"smoke{len(written)}.json"
            assert main(["spec", "--file", str(SMOKE_SPEC),
                         "--out", str(out_file)] + extra) == 0
            written.append(out_file.read_bytes())
        assert written[0] == written[1]
        assert hashlib.sha256(written[0]).hexdigest() == (
            "20e7d9c20910a0821f5a9d543d122bd4bea9866afc592439a4be6974340c6ef1")


class TestDuplicateCells:
    def test_heatmap_with_a_repeated_rate_is_a_clean_error(self, monkeypatch):
        executed = []
        monkeypatch.setattr(executor, "execute_request", executed.append)
        with pytest.raises(SystemExit, match="^error: duplicate sweep cell"):
            main(["heatmap", "--rates", "10,10", "--sizes-kb", "10",
                  "--runs", "2"])
        assert executed == []


class TestManyflowCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["manyflow"])
        assert args.flows == 1000
        assert args.aqm == "droptail"
        assert args.arrival_rate == 50.0
        assert args.jobs == 1

    def test_profile_workload_choice(self):
        args = build_parser().parse_args(
            ["bench", "--profile", "5", "--profile-workload", "manyflow"])
        assert args.profile == 5
        assert args.profile_workload == "manyflow"

    def test_profile_manyflow_covers_every_kernel(self, capsys,
                                                  monkeypatch):
        from functools import partial

        from repro.core import bench
        from repro.transport.cc import KERNEL_NAMES

        monkeypatch.setattr(bench, "profile_manyflow",
                            partial(bench.profile_manyflow, flows=20))
        assert main(["bench", "--profile", "3",
                     "--profile-workload", "manyflow"]) == 0
        out = capsys.readouterr().out
        for cc in KERNEL_NAMES:
            heading = f"== manyflow cc={cc} (20 flows) =="
            assert out.count(heading) == 1
            assert "Ordered by: cumulative time" in out.split(heading)[1]

    @pytest.mark.parametrize("argv", [["bench"], ["bench", "--profile", "1"]],
                             ids=["bare", "profile-1"])
    def test_profile_prints_the_event_census(self, capsys, argv):
        """Every event is one call out of the run loop, so the handler
        counts sum to the canonical pair's pinned ``events_processed``;
        a bare ``repro bench`` profiles the same pair."""
        assert main(argv) == 0
        census = capsys.readouterr().out.split(
            "Events by handler (callees of the run loop):\n")[1].split("\n\n")[0]
        rows = dict(line.split()[:2] for line in census.splitlines())
        counts = {k: int(v.replace(",", "")) for k, v in rows.items()}
        assert counts.pop("total") == sum(counts.values()) == 3666 + 5092
        assert (counts["netem/link.py:_deliver"]
                > counts["netem/link.py:_transmit_next"])
        assert "per delivered packet" in census

    def test_bench_writes_no_payload(self, capsys):
        # `repro bench` is the profiler alone; timing lives in BENCHMARK.json
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--out", "x.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err

    def test_small_run_and_cache_replay(self, capsys, tmp_path):
        argv = ["manyflow", "--flows", "20", "--duration", "120",
                "--cache", str(tmp_path / "store")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "manyflow-20f-droptail" in out
        assert "jain=" in out
        assert "20/20 flows" in out
        assert main(argv) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_cc_axis_defaults_to_reno(self):
        args = build_parser().parse_args(["manyflow"])
        assert args.cc == "reno"

    def test_cc_axis_runs_each_kernel(self, capsys):
        assert main(["manyflow", "--flows", "15", "--duration", "60",
                     "--cc", "reno,cubic"]) == 0
        out = capsys.readouterr().out
        # Multi-kernel sweeps tag each line; only non-default kernels
        # suffix the label (default runs stay bit-identical).
        assert "manyflow-15f-droptail, manyflow-15f-droptail-cubic" in out
        assert "reno seed 0" in out
        assert "cubic seed 0" in out

    def test_unknown_cc_is_rejected(self):
        with pytest.raises(SystemExit, match="vegas"):
            main(["manyflow", "--cc", "vegas"])
