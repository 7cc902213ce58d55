"""Reproduction report generation.

Collates the reproduced tables into one Markdown report — the artefact
a reproduction study would publish next to EXPERIMENTS.md.  Two
sources feed it:

* the committed text summaries under ``benchmarks/results/`` (the
  classic path, keyed by :data:`EXPERIMENT_INDEX`), and
* any results store (``repro report --from-store PATH``), whose cached
  :class:`~repro.core.executor.RunRecord` rows are aggregated through
  :mod:`repro.core.aggregate` — so a warm cache is reportable without
  re-running a single benchmark.

Exposed as ``python -m repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .aggregate import render_cell_table, store_aggregator

#: Experiment index: result-file stem -> (paper artefact, one-line claim).
EXPERIMENT_INDEX: Dict[str, Tuple[str, str]] = {
    "fig02_calibration": ("Fig. 2", "GAE wait-time variability; public build ~2x slower"),
    "fig02_macw_search": ("Fig. 2", "grey-box MACW calibration selects 430"),
    "fig03a_cubic_state_machine": ("Fig. 3a", "inferred QUIC Cubic state machine"),
    "fig03b_bbr_state_machine": ("Fig. 3b", "inferred BBR state machine"),
    "tab04_fairness": ("Table 4 / Fig. 4", "QUIC takes far more than its fair share"),
    "fig05_cwnd_timeline": ("Fig. 5", "QUIC sustains the larger cwnd when competing"),
    "fig06a_plt_sizes": ("Fig. 6a", "QUIC wins across rates and object sizes"),
    "fig06b_plt_counts": ("Fig. 6b", "many small objects collapse QUIC's edge"),
    "fig07_zero_rtt": ("Fig. 7", "0-RTT gain fades with object size"),
    "fig08a_sizes_loss1pct": ("Fig. 8a", "QUIC wins under 1% loss"),
    "fig08b_sizes_delay50ms": ("Fig. 8b", "QUIC wins under +50 ms delay"),
    "fig08c_sizes_delay100ms": ("Fig. 8c", "QUIC wins under +100 ms delay"),
    "fig08d_counts_loss1pct": ("Fig. 8d", "count grid under loss"),
    "fig08e_counts_delay50ms": ("Fig. 8e", "count grid under +50 ms"),
    "fig08f_counts_delay100ms": ("Fig. 8f", "count grid under +100 ms"),
    "fig09_cwnd_loss": ("Fig. 9", "QUIC's larger window under 1% loss"),
    "fig10_reordering": ("Fig. 10", "NACK threshold vs reordering"),
    "fig11_variable_bw": ("Fig. 11", "QUIC tracks fluctuating bandwidth"),
    "fig12_mobile": ("Fig. 12", "mobile devices erode QUIC's gains"),
    "fig13_state_dwell": ("Fig. 13", "ApplicationLimited dwell on phones"),
    "fig14_cellular": ("Fig. 14 / Table 5", "emulated cellular networks"),
    "fig15_macw": ("Fig. 15", "MACW 2000 vs 430"),
    "tab06_video_qoe": ("Table 6", "video QoE per quality"),
    "fig17_tcp_proxy": ("Fig. 17", "QUIC vs proxied TCP"),
    "fig18_quic_proxy": ("Fig. 18", "QUIC direct vs proxied"),
    "sec54_versions": ("Sec. 5.4", "version-stable performance"),
    "sec54_fsm_stability": ("Sec. 5.4", "version-stable state machines"),
}


@dataclass
class ReportSection:
    stem: str
    artefact: str
    claim: str
    body: str


def collect_sections(results_dir: Path) -> List[ReportSection]:
    """Load every known result file present in ``results_dir``."""
    sections: List[ReportSection] = []
    for stem, (artefact, claim) in EXPERIMENT_INDEX.items():
        path = results_dir / f"{stem}.txt"
        if not path.exists():
            continue
        sections.append(ReportSection(stem, artefact, claim,
                                      path.read_text().rstrip()))
    return sections


def missing_experiments(results_dir: Path) -> List[str]:
    """Index entries with no result file yet (bench not run)."""
    return [stem for stem in EXPERIMENT_INDEX
            if not (results_dir / f"{stem}.txt").exists()]


def extra_results(results_dir: Path) -> List[str]:
    """Result files outside the core index (ablations, extensions)."""
    known = set(EXPERIMENT_INDEX)
    return sorted(
        path.stem for path in results_dir.glob("*.txt")
        if path.stem not in known
    )


def build_report(results_dir: Path, title: str = "Reproduction report") -> str:
    """Render the Markdown report."""
    sections = collect_sections(results_dir)
    lines = [f"# {title}", ""]
    if not sections:
        lines.append("*(no results yet — run `pytest benchmarks/ "
                     "--benchmark-only` first)*")
        return "\n".join(lines)
    lines.append("| artefact | claim | reproduced |")
    lines.append("|---|---|---|")
    for section in sections:
        lines.append(f"| {section.artefact} | {section.claim} | yes |")
    for stem in missing_experiments(results_dir):
        artefact, claim = EXPERIMENT_INDEX[stem]
        lines.append(f"| {artefact} | {claim} | *not run* |")
    lines.append("")
    for section in sections:
        lines.append(f"## {section.artefact} — {section.claim}")
        lines.append("")
        lines.append("```")
        lines.append(section.body)
        lines.append("```")
        lines.append("")
    extras = extra_results(results_dir)
    if extras:
        lines.append("## Ablations & extensions")
        lines.append("")
        for stem in extras:
            lines.append(f"### {stem}")
            lines.append("")
            lines.append("```")
            lines.append((results_dir / f"{stem}.txt").read_text().rstrip())
            lines.append("```")
            lines.append("")
    return "\n".join(lines)


def build_store_report(store: object,
                       title: str = "Reproduction report", *,
                       live: bool = False) -> str:
    """Render the Markdown report straight from a results store.

    The table body comes from the incremental aggregation
    (:func:`~repro.core.aggregate.store_aggregator`): the store is
    streamed, never materialised.  Rows the aggregation could not
    decode are never dropped silently: the report says how many.

    ``live`` renders a store a sweep is *still appending to*: the grid
    is expected to be partial, so instead of presenting it as final the
    report labels the cells that are still short of the deepest cell's
    run count.  Without ``live`` the output is unchanged from the
    classic path.
    """
    aggregator = store_aggregator(store)
    cells = aggregator.aggregates()
    total = aggregator.total_runs
    lines = [f"# {title}", ""]
    path = getattr(store, "path", "results store")
    skipped = ([f"{aggregator.skipped} row(s) skipped: not decodable as a "
                "run record"] if aggregator.skipped else [])
    if not cells:
        lines.append(f"*(store at `{path}` holds no decodable records — "
                     "run a sweep with `--cache` first)*")
        lines.extend(skipped)
        if live:
            lines.append("")
            lines.append("*(live view: the sweep may not have produced "
                         "its first record yet)*")
        return "\n".join(lines)
    lines.append(f"Collated from the results store at `{path}`: "
                 f"{total} cached run(s) across {len(cells)} "
                 f"cell(s), no re-execution.")
    lines.extend(skipped)
    if live:
        deepest = max(cell.runs for cell in cells)
        partial = [cell for cell in cells if cell.runs < deepest]
        lines.append("")
        lines.append("**Live view** — rendered mid-sweep; cells may still "
                     "be filling and medians will shift as runs land.")
        if partial:
            lines.append(f"Partial cells (below the deepest cell's "
                         f"{deepest} run(s)): {len(partial)} of "
                         f"{len(cells)}")
            for cell in partial:
                lines.append(f"  - {cell.scenario} / {cell.page} / "
                             f"{cell.protocol}: {cell.runs}/{deepest} "
                             f"run(s)")
        else:
            lines.append(f"All {len(cells)} cell(s) currently hold "
                         f"{deepest} run(s) — the grid looks complete "
                         "from here.")
    lines.append("")
    lines.append("## Store summary")
    lines.append("")
    lines.append("```")
    lines.append(render_cell_table(cells))
    lines.append("```")
    lines.append("")
    fairness = aggregator.render_fairness()
    if fairness is not None:
        lines.append("## Fairness (Jain index, Tab. 4 generalised "
                     "across AQM)")
        lines.append("")
        lines.append("Per-run Jain index over completed flows' mean "
                     "rates; QUIC share is the QUIC fraction of acked "
                     "bytes (manyflow records only).")
        lines.append("")
        lines.append("```")
        lines.append(fairness)
        lines.append("```")
        lines.append("")
    model_fit = aggregator.render_model_fit()
    if model_fit is not None:
        lines.append("## Model fit (analytical CC oracles)")
        lines.append("")
        lines.append("Median per-flow goodput from homogeneous manyflow "
                     "cells against the closed-form steady-state models "
                     "(Mathis/AIMD, RFC 8312 Cubic, BDP-bound BBR) — "
                     "`repro validate` gates on this table.")
        lines.append("")
        lines.append(model_fit)
        lines.append("")
    dwell = aggregator.render_dwell()
    if dwell is not None:
        lines.append("## Inferred CC states (Fig. 3 / Fig. 13 dwell)")
        lines.append("")
        lines.append("Mean per-state dwell fractions from traced runs "
                     "(`trace=True` requests export `dwell:<state>` "
                     "metrics) — the store-backed form of the "
                     "state-machine artefact.")
        lines.append("")
        lines.append("```")
        lines.append(dwell)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


__all__ = [
    "EXPERIMENT_INDEX",
    "ReportSection",
    "build_report",
    "build_store_report",
    "collect_sections",
    "extra_results",
    "missing_experiments",
]
