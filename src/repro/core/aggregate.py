"""Incremental record aggregation behind ``repro report --from-store``.

A results store (any :class:`~repro.store.backend.StoreBackend`) holds
cached :class:`~repro.core.executor.RunRecord` rows; this module turns
a stream of them into deterministic per-cell aggregates (scenario x
page x protocol) and renders the tables the store report embeds — so a
warm cache is reportable without re-executing anything.

The aggregation is *incremental* and folds the stored *row dicts*: a
:class:`StreamAggregator` holds one :class:`CellAccumulator` per cell,
each updated per row from the handful of fields the tables read, so
nothing ever materialises the full record list and only manyflow rows
(whose tables need the typed config) are rebuilt into records.  An
accumulator keeps only the cell's PLT floats and a run counter — the
memory ceiling of a 10⁶-cell sweep's report is a few floats per cell,
not 10⁶ pickled records.
Because a partially-fed aggregator is already renderable, ``repro
report --from-store --live`` can collate a store *while* a sweep is
appending to it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from .executor import RunRecord
from .models import ModelFitAccumulator, render_model_fit_table

#: A cell identity: (scenario name, page name, protocol name).
CellKey = Tuple[str, str, str]

#: What reading a mis-shaped row dict raises (a missing field, a list
#: where an object belongs, an unknown config field) — the only errors
#: a store reader may answer by skipping the row.
_MISSHAPEN = (KeyError, TypeError, ValueError, AttributeError)


@dataclass(frozen=True)
class CellAggregate:
    """Summary statistics for one (scenario, page, protocol) cell."""

    scenario: str
    page: str
    protocol: str
    runs: int
    ok: int
    median_plt: Optional[float]
    mean_plt: Optional[float]

    @property
    def key(self) -> CellKey:
        return (self.scenario, self.page, self.protocol)


@dataclass
class CellAccumulator:
    """Incremental aggregation state for one cell.

    Holds only a run counter and the successful PLT floats — bounded
    memory regardless of how many records flow through.
    """

    scenario: str
    page: str
    protocol: str
    runs: int = 0
    plts: List[float] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return len(self.plts)

    def add(self, ok: bool, plt: Optional[float]) -> None:
        self.runs += 1
        if ok and plt is not None:
            self.plts.append(plt)

    def aggregate(self) -> CellAggregate:
        plts = sorted(self.plts)
        return CellAggregate(
            scenario=self.scenario, page=self.page, protocol=self.protocol,
            runs=self.runs, ok=len(plts),
            median_plt=statistics.median(plts) if plts else None,
            mean_plt=statistics.fmean(plts) if plts else None,
        )


@dataclass
class FairnessAccumulator:
    """Incremental Jain-fairness aggregation for one manyflow cell.

    Fed the ``metrics`` of records that carry a ``jain_index`` (the
    manyflow family — see :mod:`repro.core.manyflow`); keyed by
    ``(scenario, config label)`` where the label encodes flow count and
    AQM, so the rendered table is the Tab. 4 Jain-index artefact
    generalised across queue disciplines.
    """

    scenario: str
    config: str
    aqm: str
    flows: int
    runs: int = 0
    completed: int = 0
    jains: List[float] = field(default_factory=list)
    quic_shares: List[float] = field(default_factory=list)
    plt_quic: List[float] = field(default_factory=list)
    plt_tcp: List[float] = field(default_factory=list)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.scenario, self.config)

    def add(self, metrics: Mapping[str, float]) -> None:
        self.runs += 1
        self.completed += int(metrics.get("flows_completed", 0))
        self.jains.append(metrics["jain_index"])
        if "quic_share" in metrics:
            self.quic_shares.append(metrics["quic_share"])
        if metrics.get("plt_quic_p50"):
            self.plt_quic.append(metrics["plt_quic_p50"])
        if metrics.get("plt_tcp_p50"):
            self.plt_tcp.append(metrics["plt_tcp_p50"])


@dataclass
class DwellAccumulator:
    """Incremental state-dwell aggregation for one traced cell.

    Fed the ``metrics`` of records that carry ``dwell:<state>`` keys —
    the per-state time fractions :meth:`ServerTrace.dwell_fractions`
    exports when a request is executed with ``trace=True``.  Keyed by
    ``(scenario, protocol)``, so the rendered table is the store-backed
    form of the Fig. 3 / Fig. 13 inferred-state artefact: which CC
    states a protocol actually dwells in under each network condition.
    """

    scenario: str
    protocol: str
    runs: int = 0
    #: state name -> summed dwell fraction across runs.
    fractions: Dict[str, float] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.scenario, self.protocol)

    def add(self, metrics: Mapping[str, float]) -> None:
        self.runs += 1
        for name, value in metrics.items():
            if name.startswith("dwell:"):
                state = name[len("dwell:"):]
                self.fractions[state] = self.fractions.get(state, 0.0) + value

    def mean_fractions(self) -> List[Tuple[str, float]]:
        """(state, mean dwell fraction), largest dwell first."""
        if not self.runs:
            return []
        return sorted(((state, total / self.runs)
                       for state, total in self.fractions.items()),
                      key=lambda kv: (-kv[1], kv[0]))


def render_dwell_table(cells: List[DwellAccumulator]) -> str:
    """The store-backed inferred-state dwell table (Fig. 3 / Fig. 13)."""
    if not cells:
        return "(no traced records)"
    width_scn = max(len("scenario"), *(len(c.scenario) for c in cells))
    states = {state for cell in cells for state, _ in cell.mean_fractions()}
    width_state = max(len("state"), *(len(s) for s in states)) if states \
        else len("state")
    lines = [
        f"{'scenario':<{width_scn}}  {'proto':<5}  {'runs':>4}  "
        f"{'state':<{width_state}}  {'dwell':>6}",
    ]
    for cell in sorted(cells, key=lambda c: c.key):
        for state, fraction in cell.mean_fractions():
            lines.append(
                f"{cell.scenario:<{width_scn}}  {cell.protocol:<5}  "
                f"{cell.runs:>4}  {state:<{width_state}}  "
                f"{fraction * 100:>5.1f}%")
    return "\n".join(lines)


def render_fairness_table(cells: List[FairnessAccumulator]) -> str:
    """The store-backed Jain-index table (Tab. 4, AQM-generalised)."""
    if not cells:
        return "(no fairness records)"
    width_scn = max(len("scenario"), *(len(c.scenario) for c in cells))
    width_cfg = max(len("config"), *(len(c.config) for c in cells))
    lines = [
        f"{'scenario':<{width_scn}}  {'config':<{width_cfg}}  "
        f"{'aqm':<8}  {'runs':>4}  {'flows done':>10}  "
        f"{'Jain':>6}  {'QUIC share':>10}  "
        f"{'QUIC p50':>9}  {'TCP p50':>9}",
    ]

    def med(values: List[float]) -> Optional[float]:
        return statistics.median(values) if values else None

    def fmt(value: Optional[float], spec: str, suffix: str = "") -> str:
        return f"{value:{spec}}{suffix}" if value is not None else "-"

    for cell in sorted(cells, key=lambda c: c.key):
        lines.append(
            f"{cell.scenario:<{width_scn}}  {cell.config:<{width_cfg}}  "
            f"{cell.aqm:<8}  {cell.runs:>4}  {cell.completed:>10}  "
            f"{fmt(med(cell.jains), '.3f'):>6}  "
            f"{fmt(med(cell.quic_shares), '.3f'):>10}  "
            f"{fmt(med(cell.plt_quic), '.3f', 's'):>9}  "
            f"{fmt(med(cell.plt_tcp), '.3f', 's'):>9}")
    return "\n".join(lines)


class StreamAggregator:
    """Per-cell accumulators fed one stored row dict at a time.

    Nothing is materialised, and the output depends only on the set of
    rows fed.  Rows carrying fairness metrics (the manyflow family)
    additionally feed per-cell :class:`FairnessAccumulator`\\ s, a
    shared :class:`~repro.core.models.ModelFitAccumulator` (the
    analytical oracle comparison behind ``repro validate``), and — when
    traced — per-cell :class:`DwellAccumulator`\\ s.
    """

    def __init__(self) -> None:
        self.cells: Dict[CellKey, CellAccumulator] = {}
        self.fairness: Dict[Tuple[str, str], FairnessAccumulator] = {}
        self.model_fit = ModelFitAccumulator()
        self.dwell: Dict[Tuple[str, str], DwellAccumulator] = {}
        #: Rows :meth:`add_row` refused as not decodable; no table
        #: counts them, the store report says how many there were.
        self.skipped = 0

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def total_runs(self) -> int:
        return sum(cell.runs for cell in self.cells.values())

    def add_row(self, raw: Mapping[str, Any]) -> None:
        """Fold one record dict (``Row[3]``) into every table it feeds.

        The fields the tables use are read straight off the dict, the
        way :func:`~repro.store.rows.label_of` reads a label; only a
        manyflow row is rebuilt into a :class:`RunRecord`, because the
        fairness and model-fit tables need its typed config and
        scenario.  Everything is read before anything is mutated: a row
        that is not decodable — not request-shaped with string names, a
        dict ``metrics`` and a bool ``complete``, or a manyflow row
        ``record_from_dict`` refuses — is counted in :attr:`skipped`
        and touches no table.
        """
        try:
            request = raw["request"]
            scenario = request["scenario"]["name"]
            page = request["page"]["name"]
            protocol = request["protocol"]["name"]
            plt, complete, metrics = raw["plt"], raw["complete"], raw["metrics"]
            ok = complete and raw.get("failure") is None
            shaped = (isinstance(scenario, str) and isinstance(page, str)
                      and isinstance(protocol, str)
                      and isinstance(metrics, dict)
                      and isinstance(complete, bool))
            record = None
            if shaped and request.get("manyflow") is not None:
                from ..store.keys import record_from_dict  # package cycle

                record = record_from_dict(raw)
        except _MISSHAPEN:
            shaped = False
        if not shaped:
            self.skipped += 1
            return
        key = (scenario, page, protocol)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = CellAccumulator(*key)
        cell.add(ok, plt)
        if record is not None:
            config = record.request.manyflow
            if "jain_index" in metrics:
                fair_key = (scenario, config.label)
                fair = self.fairness.get(fair_key)
                if fair is None:
                    fair = self.fairness[fair_key] = FairnessAccumulator(
                        scenario=scenario, config=config.label,
                        aqm=config.aqm, flows=config.flows)
                fair.add(metrics)
            self.model_fit.add_record(record)
        if any(name.startswith("dwell:") for name in metrics):
            dwell_key = (scenario, protocol)
            dwell = self.dwell.get(dwell_key)
            if dwell is None:
                dwell = self.dwell[dwell_key] = DwellAccumulator(
                    scenario=scenario, protocol=protocol)
            dwell.add(metrics)

    def aggregates(self) -> List[CellAggregate]:
        return [self.cells[key].aggregate() for key in sorted(self.cells)]

    def render(self) -> str:
        return render_cell_table(self.aggregates())

    def render_fairness(self) -> Optional[str]:
        """The Jain-index table, or None when no fairness records seen."""
        if not self.fairness:
            return None
        return render_fairness_table(list(self.fairness.values()))

    def render_model_fit(self, tolerance: Optional[float] = None
                         ) -> Optional[str]:
        """The oracle fit table, or None when no fit cells accumulated."""
        if not self.model_fit:
            return None
        if tolerance is None:
            return render_model_fit_table(self.model_fit.cells())
        return render_model_fit_table(self.model_fit.cells(), tolerance)

    def render_dwell(self) -> Optional[str]:
        """The state-dwell table, or None when no traced records seen."""
        if not self.dwell:
            return None
        return render_dwell_table(list(self.dwell.values()))


def iter_records(store: Any) -> Iterator[RunRecord]:
    """Every decodable record in ``store``, fully rebuilt, oldest first
    (``repro validate --from-store``; the report folds rows instead).

    Rows ``record_from_dict`` cannot rebuild are skipped, not fatal — a
    read over a shared store should survive one bad row.
    """
    from ..store.keys import record_from_dict  # avoid a package cycle

    for _key, _created, _fingerprint, raw in store.items():
        try:
            yield record_from_dict(raw)
        except _MISSHAPEN:
            continue


def store_aggregator(store: Any) -> StreamAggregator:
    """Aggregate a whole store, oldest row first, without rebuilding
    its records (see :meth:`StreamAggregator.add_row`)."""
    aggregator = StreamAggregator()
    for _key, _created, _fingerprint, raw in store.items():
        aggregator.add_row(raw)
    return aggregator


def _ratio_rows(cells: List[CellAggregate]) -> List[Tuple[str, str, float]]:
    """(scenario, page, quic/tcp median ratio) where both medians exist."""
    medians: Dict[Tuple[str, str], Dict[str, float]] = {}
    for cell in cells:
        if cell.median_plt is not None:
            medians.setdefault((cell.scenario, cell.page), {})[
                cell.protocol] = cell.median_plt
    rows = []
    for (scenario, page), by_proto in sorted(medians.items()):
        if "quic" in by_proto and "tcp" in by_proto and by_proto["tcp"]:
            rows.append((scenario, page, by_proto["quic"] / by_proto["tcp"]))
    return rows


def render_cell_table(cells: List[CellAggregate]) -> str:
    """The canonical fixed-width cell table (both report paths embed it)."""
    if not cells:
        return "(no records)"
    width_scn = max(len("scenario"), *(len(c.scenario) for c in cells))
    width_page = max(len("page"), *(len(c.page) for c in cells))
    lines = [
        f"{'scenario':<{width_scn}}  {'page':<{width_page}}  "
        f"{'proto':<5}  {'runs':>4}  {'ok':>4}  "
        f"{'median PLT':>10}  {'mean PLT':>10}",
    ]
    for cell in cells:
        median = (f"{cell.median_plt:.4f}s" if cell.median_plt is not None
                  else "-")
        mean = f"{cell.mean_plt:.4f}s" if cell.mean_plt is not None else "-"
        lines.append(
            f"{cell.scenario:<{width_scn}}  {cell.page:<{width_page}}  "
            f"{cell.protocol:<5}  {cell.runs:>4}  {cell.ok:>4}  "
            f"{median:>10}  {mean:>10}")
    ratios = _ratio_rows(cells)
    if ratios:
        lines.append("")
        lines.append("QUIC/TCP median PLT ratio (<1 means QUIC wins):")
        for scenario, page, ratio in ratios:
            lines.append(f"  {scenario:<{width_scn}}  {page:<{width_page}}  "
                         f"{ratio:.3f}")
    return "\n".join(lines)
