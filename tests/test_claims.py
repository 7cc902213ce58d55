"""Tests for the claims table, the verdict lines it writes and the
committed report that is read back from them."""

import ast
import re
from pathlib import Path

import pytest

from benchmarks import harness
from benchmarks.harness import bench_runs
from benchmarks.test_fig10_reordering import quic_transfer
from repro.core import claims
from repro.core.claims import CLAIMS, judge
from repro.core.report import build_report, collect_sections

from .test_paper_findings import _reordering

ROOT = Path(__file__).resolve().parents[1]
STEM = re.compile(r"""["']((?:fig|tab|sec)\d\w*)["']""")


@pytest.fixture(scope="module")
def nack30_verdict():
    """Fig. 10's tier-1 input with the default NACK threshold at 30, not 3."""
    rows = {label: result for label, result in _reordering().items()
            if label != "QUIC nack=3"}
    return judge("fig10_reordering",
                 {"QUIC nack=30": quic_transfer(nack_threshold=30), **rows})


class TestJudge:
    def test_a_nack_threshold_of_30_reads_no(self, nack30_verdict):
        assert not nack30_verdict.passed
        assert nack30_verdict.render().startswith(
            "reproduced: no (default_over_tcp_elapsed=")

    def test_the_report_prints_no_and_the_failing_numbers(
            self, nack30_verdict, tmp_path):
        (tmp_path / "fig10_reordering.txt").write_text(
            "QUIC nack=30 ...\n" + nack30_verdict.render() + "\n")
        text = build_report(tmp_path)
        assert "| Fig. 10 | NACK threshold vs reordering | no |" in text
        assert re.search(r"default_over_tcp_elapsed=[\d.]+, need > 1\.5",
                         text)

    def test_a_file_without_a_verdict_line_is_unverified(self, tmp_path):
        (tmp_path / "fig10_reordering.txt").write_text("QUIC nack=3 slow\n")
        [section] = collect_sections(tmp_path)
        assert section.reproduced == "unverified"
        assert "| unverified |" in build_report(tmp_path)

    def test_a_check_with_nothing_to_read_is_partial_never_yes(
            self, tmp_path, monkeypatch):
        rows = {label: result for label, result in _reordering().items()
                if label != "QUIC time-based"}
        verdict = judge("fig10_reordering", rows)
        assert verdict.passed and not verdict.complete
        assert verdict.render() == ("reproduced: partial not judged: "
                                    "time_based_over_default_elapsed")
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        with pytest.raises(AssertionError, match="reproduced: partial"):
            harness.save_judged("fig10_reordering", "QUIC nack=3 ...", rows)
        [section] = collect_sections(tmp_path)
        assert section.reproduced == "unverified"

    def test_an_input_with_nothing_to_judge_does_not_pass(self):
        verdict = judge("fig12_mobile", {})
        assert not verdict.passed and verdict.judged == ()

    def test_the_claims_module_imports_nothing_from_the_package(self):
        tree = ast.parse(Path(claims.__file__).read_text())
        modules = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names]
        modules += ["." * node.level + (node.module or "")
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert modules and not [m for m in modules
                                if m.startswith((".", "repro"))]


class TestCommittedReport:
    def test_report_md_is_rendered_from_the_results(self):
        assert (ROOT / "REPORT.md").read_text() == \
            build_report(ROOT / "benchmarks" / "results") + "\n"

    def test_every_claim_is_saved_by_exactly_one_benchmark(self):
        saved = {}
        for path in sorted((ROOT / "benchmarks").glob("test_*.py")):
            for stem in set(STEM.findall(path.read_text())):
                saved.setdefault(stem, []).append(path.name)
        assert set(saved) == set(CLAIMS)
        assert {stem: files for stem, files in saved.items()
                if len(files) != 1} == {}


class TestBenchRuns:
    @pytest.mark.parametrize("raw", ["1", "0", "2.5", "ten", ""])
    def test_rejects_fewer_than_two_or_non_integers(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RUNS", raw)
        with pytest.raises(ValueError, match="^REPRO_BENCH_RUNS must be"):
            bench_runs()

    def test_accepts_two_or_more(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RUNS", "2")
        assert bench_runs() == 2
        monkeypatch.delenv("REPRO_BENCH_RUNS")
        assert bench_runs() == 5
