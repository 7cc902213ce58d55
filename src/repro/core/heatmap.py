"""Heatmap grids in the style of the paper's Figs. 6-8, 12, 14, 15, 17, 18.

A :class:`Heatmap` is a rate x workload grid of
:class:`~repro.core.comparison.Comparison` cells.  The terminal rendering
mirrors the paper's colour coding: positive percentages (QUIC/treatment
faster) where the paper prints red, negative where it prints blue, and a
dot for statistically insignificant ("white") cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .comparison import Comparison


@dataclass
class Heatmap:
    """A labelled grid of comparisons."""

    title: str
    row_labels: List[str]
    col_labels: List[str]
    cells: Dict[Tuple[str, str], Comparison] = field(default_factory=dict)
    #: What the two sides are called in the rendering.
    treatment: str = "QUIC"
    baseline: str = "TCP"

    @classmethod
    def from_samples(cls, title: str, row_labels: Sequence[str],
                     col_labels: Sequence[str],
                     samples: Mapping[Tuple[str, str, str], List[float]]
                     ) -> "Heatmap":
        """The grid over ``(row, col, "quic" | "tcp") -> samples``.

        A cell missing either side (a single-protocol sweep) is left
        out and renders as ``-``.
        """
        heatmap = cls(title, list(row_labels), list(col_labels))
        for row in heatmap.row_labels:
            for col in heatmap.col_labels:
                quic = samples.get((row, col, "quic"))
                tcp = samples.get((row, col, "tcp"))
                if quic and tcp:
                    heatmap.put(row, col,
                                Comparison(f"{row} / {col}", quic, tcp))
        return heatmap

    def put(self, row: str, col: str, comparison: Comparison) -> None:
        if row not in self.row_labels or col not in self.col_labels:
            raise KeyError(f"cell ({row!r}, {col!r}) outside the grid")
        self.cells[(row, col)] = comparison

    def get(self, row: str, col: str) -> Optional[Comparison]:
        return self.cells.get((row, col))

    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII table: one row per rate, one column per workload."""
        width = max(8, max((len(c) for c in self.col_labels), default=8) + 2)
        row_w = max(10, max((len(r) for r in self.row_labels), default=10) + 2)
        lines = [self.title,
                 f"(positive = {self.treatment} faster; '·' = not significant "
                 f"at p<0.01)"]
        header = " " * row_w + "".join(c.rjust(width) for c in self.col_labels)
        lines.append(header)
        for row in self.row_labels:
            out = row.ljust(row_w)
            for col in self.col_labels:
                cell = self.cells.get((row, col))
                text = cell.cell_text().strip() if cell is not None else "-"
                out += text.rjust(width)
            lines.append(out)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # aggregate queries the claims table (repro.core.claims) reads
    # ------------------------------------------------------------------
    def fraction_favoring_treatment(self) -> float:
        """Fraction of significant cells where the treatment wins."""
        significant = [c for c in self.cells.values() if c.significant()]
        if not significant:
            return 0.0
        wins = sum(1 for c in significant if c.pct_diff > 0)
        return wins / len(significant)

    def significant_cells(self) -> List[Comparison]:
        return [c for c in self.cells.values() if c.significant()]

    def mean_pct_diff(self) -> float:
        cells = list(self.cells.values())
        if not cells:
            return 0.0
        return sum(c.pct_diff for c in cells) / len(cells)
