"""Reproduction report generation.

Collates the reproduced tables into one Markdown report — the artefact
a reproduction study would publish next to EXPERIMENTS.md.  Two
sources feed it:

* the committed text summaries under ``benchmarks/results/`` (the
  classic path, keyed by :data:`~repro.core.claims.CLAIMS`), whose
  "reproduced" column is read from each file's verdict line, and
* any results store (``repro report --from-store PATH``), whose cached
  :class:`~repro.core.executor.RunRecord` rows are aggregated through
  :mod:`repro.core.aggregate` — so a warm cache is reportable without
  re-running a single benchmark.

Exposed as ``python -m repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List

from .aggregate import render_cell_table, store_aggregator
from .claims import CLAIMS


@dataclass
class ReportSection:
    stem: str
    artefact: str
    claim: str
    body: str

    @property
    def reproduced(self) -> str:
        """``yes``/``no`` from the file's verdict line, else ``unverified``
        (no verdict line, or a ``partial`` one: a check was not judged)."""
        words = self.body.rsplit("\n", 1)[-1].split()[:2]
        yes_no = (["reproduced:", "yes"], ["reproduced:", "no"])
        return words[1] if words in yes_no else "unverified"


def collect_sections(results_dir: Path) -> List[ReportSection]:
    """Load every known result file present in ``results_dir``."""
    missing = set(missing_experiments(results_dir))
    return [ReportSection(stem, claim.artefact, claim.text,
                          (results_dir / f"{stem}.txt").read_text().rstrip())
            for stem, claim in CLAIMS.items() if stem not in missing]


def missing_experiments(results_dir: Path) -> List[str]:
    """Claims with no result file yet (bench not run)."""
    return [stem for stem in CLAIMS
            if not (results_dir / f"{stem}.txt").exists()]


def extra_results(results_dir: Path) -> List[str]:
    """Result files outside the claims table (ablations, extensions)."""
    return sorted(path.stem for path in results_dir.glob("*.txt")
                  if path.stem not in CLAIMS)


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
        lines.append(f"| {section.artefact} | {section.claim} | "
                     f"{section.reproduced} |")
    for stem in missing_experiments(results_dir):
        lines.append(f"| {CLAIMS[stem].artefact} | {CLAIMS[stem].text} | "
                     "*not run* |")
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


__all__ = ["ReportSection", "build_report", "build_store_report",
           "collect_sections", "extra_results", "missing_experiments"]
