"""Tests for the Markdown reproduction-report builder."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.core.aggregate import store_aggregator
from repro.core.claims import CLAIMS
from repro.core.executor import ProtocolSpec, RunRecord, RunRequest
from repro.core.report import (
    build_report,
    build_store_report,
    collect_sections,
    extra_results,
    missing_experiments,
)
from repro.http import single_object_page
from repro.netem import emulated
from repro.store import RunCache, ShardStore, run_key


@pytest.fixture
def results_dir(tmp_path):
    (tmp_path / "fig10_reordering.txt").write_text("QUIC nack=3 slow\n")
    (tmp_path / "tab04_fairness.txt").write_text("QUIC 3.9 TCP 1.1\n")
    (tmp_path / "ablation_fec.txt").write_text("fec slower\n")
    return tmp_path


class TestReport:
    def test_sections_loaded(self, results_dir):
        sections = collect_sections(results_dir)
        assert {s.stem for s in sections} == {"fig10_reordering",
                                              "tab04_fairness"}

    def test_missing_listed(self, results_dir):
        missing = missing_experiments(results_dir)
        assert "fig06a_plt_sizes" in missing
        assert "fig10_reordering" not in missing

    def test_extras_listed(self, results_dir):
        assert extra_results(results_dir) == ["ablation_fec"]

    def test_markdown_structure(self, results_dir):
        text = build_report(results_dir)
        assert text.startswith("# Reproduction report")
        assert "| Fig. 10 |" in text
        assert "QUIC nack=3 slow" in text
        assert "### ablation_fec" in text
        assert "*not run*" in text

    def test_empty_dir(self, tmp_path):
        text = build_report(tmp_path)
        assert "no results yet" in text

    def test_index_covers_all_paper_artifacts(self):
        artifacts = {claim.artefact for claim in CLAIMS.values()}
        for needed in ("Fig. 2", "Fig. 3a", "Table 4 / Fig. 4", "Fig. 5",
                       "Fig. 6a", "Fig. 7", "Fig. 8a", "Fig. 9", "Fig. 10",
                       "Fig. 11", "Fig. 12", "Fig. 13", "Fig. 14 / Table 5",
                       "Fig. 15", "Table 6", "Fig. 17", "Fig. 18",
                       "Sec. 5.4"):
            assert needed in artifacts

    def test_cli_report_command(self, results_dir, tmp_path, capsys):
        out = tmp_path / "REPORT.md"
        assert main(["report", "--results", str(results_dir),
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "Reproduction report" in out.read_text()


def _record(scenario, page, protocol, seed, plt):
    request = RunRequest(scenario=scenario, page=page, protocol=protocol,
                         seed=seed)
    return RunRecord(request=request, plt=plt, complete=True,
                     metrics={"plt": plt})


@pytest.fixture
def store(tmp_path):
    """A small store: one scenario/page cell, QUIC and TCP, 3 seeds."""
    backend = ShardStore(tmp_path / "report")
    scenario = emulated(10.0)
    page = single_object_page(20_000)
    for seed, (q_plt, t_plt) in enumerate([(0.7, 1.3), (0.8, 1.2),
                                           (0.9, 1.4)]):
        for protocol, plt in ((ProtocolSpec.quic(), q_plt),
                              (ProtocolSpec.tcp(), t_plt)):
            record = _record(scenario, page, protocol, seed, plt)
            backend.put(run_key(record.request), record)
    return backend


class TestStoreReport:
    def test_structure(self, store):
        text = build_store_report(store)
        assert text.startswith("# Reproduction report")
        assert "6 cached run(s) across 2 cell(s)" in text
        assert "no re-execution" in text
        assert "## Store summary" in text
        assert "QUIC/TCP median PLT ratio" in text  # the ratio block

    def test_aggregates_are_correct(self, store):
        cells = {c.protocol: c for c in store_aggregator(store).aggregates()}
        assert cells["quic"].runs == 3
        assert cells["quic"].median_plt == pytest.approx(0.8)
        assert cells["tcp"].median_plt == pytest.approx(1.3)

    def test_empty_store_is_friendly(self, tmp_path):
        text = build_store_report(ShardStore(tmp_path / "empty"))
        assert "no decodable records" in text
        assert "--cache" in text

    def test_report_embeds_the_aggregator_table(self, store):
        assert store_aggregator(store).render() in build_store_report(store)

    def test_cached_sweep_reports_without_rerun(self, tmp_path):
        # End to end: executor --cache writes the store, report reads it.
        from repro.sweep import run_requests

        cache = RunCache(ShardStore(tmp_path / "sweep"))
        requests = [RunRequest(scenario=emulated(10.0),
                               page=single_object_page(20_000),
                               protocol=proto, seed=s)
                    for proto in (ProtocolSpec.quic(), ProtocolSpec.tcp())
                    for s in range(2)]
        run_requests(requests, store=cache)
        text = build_store_report(cache.store)
        assert "4 cached run(s)" in text

    def test_cli_from_store(self, store, tmp_path, capsys):
        out = tmp_path / "STORE_REPORT.md"
        assert main(["report", "--from-store", store.path,
                     "--out", str(out)]) == 0
        assert out.read_text() == build_store_report(store) + "\n"

    def test_cli_from_store_missing_is_friendly(self, tmp_path, capsys):
        assert main(["report", "--from-store",
                     str(tmp_path / "nope")]) == 0
        assert "no results store" in capsys.readouterr().out

    def test_cli_from_store_live(self, store, capsys):
        assert main(["report", "--from-store", store.path, "--live"]) == 0
        out = capsys.readouterr().out
        assert "Live view" in out
        assert "## Store summary" in out

    def test_cli_live_requires_from_store(self, results_dir):
        with pytest.raises(SystemExit, match="--from-store"):
            main(["report", "--results", str(results_dir), "--live"])

    def test_live_report_differs_only_by_banner(self, store):
        plain = build_store_report(store)
        live = build_store_report(store, live=True)
        assert "Live view" not in plain
        assert "Live view" in live
        # the table body is untouched by the live banner
        assert plain.split("## Store summary")[1] == \
            live.split("## Store summary")[1]
