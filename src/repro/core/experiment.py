"""Declarative experiment specifications (the paper's automation goal).

The paper closes by promising to "automate the steps used for analysis in
our approach".  This module does that for the reproduction: an
:class:`ExperimentSpec` declares a full experiment — network grid,
workload grid, protocols, device, rounds — as plain data (JSON
round-trippable), and :func:`run_experiment` executes it into an
:class:`ExperimentResult` containing every sample, every comparison and
the rendered heatmap.  The CLI's ``spec`` command runs a spec file.

Example spec (JSON)::

    {
      "name": "desktop-plt",
      "scenarios": [
        {"rate_mbps": 10.0, "loss_pct": 0.0},
        {"rate_mbps": 10.0, "loss_pct": 1.0}
      ],
      "workloads": [
        {"objects": 1, "size_kb": 100},
        {"objects": 100, "size_kb": 10}
      ],
      "runs": 10,
      "device": "desktop",
      "quic_version": 34
    }
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..devices import DEVICE_PROFILES
from ..http.objects import WebPage, page
from ..netem.profiles import Scenario, emulated
from ..quic.config import quic_config
from ..sweep import collect
from .comparison import Comparison
from .executor import ProtocolSpec, RunRequest
from .heatmap import Heatmap
from .stats import mean, sample_std

#: Version of the JSON spec schema this build reads and writes.
SCHEMA_VERSION = 1


def _reject_unknown_keys(kind: str, raw: Mapping[str, Any],
                         allowed: set) -> None:
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {kind} key(s): {', '.join(map(repr, unknown))} "
            f"(known keys: {', '.join(sorted(allowed))})"
        )


def _parse_entry(cls: type, raw: Mapping[str, Any], kind: str):
    if not isinstance(raw, Mapping):
        raise ValueError(f"each {kind} must be a JSON object, got {raw!r}")
    _reject_unknown_keys(kind, raw, {f.name for f in fields(cls)})
    return cls(**raw)


@dataclass(frozen=True)
class WorkloadSpec:
    """A page: ``objects`` equal objects of ``size_kb`` KB each."""

    objects: int = 1
    size_kb: float = 100.0

    def build(self) -> WebPage:
        return page(self.objects, int(self.size_kb * 1024))

    @property
    def label(self) -> str:
        return f"{self.objects}x{self.size_kb:g}KB"


@dataclass(frozen=True)
class ScenarioSpec:
    """A network condition in the paper's units (Table 2)."""

    rate_mbps: Optional[float] = 10.0
    loss_pct: float = 0.0
    delay_ms: float = 0.0
    jitter_ms: float = 0.0

    def build(self) -> Scenario:
        return emulated(self.rate_mbps, loss_pct=self.loss_pct,
                        extra_delay_ms=self.delay_ms,
                        jitter_ms=self.jitter_ms)

    @property
    def label(self) -> str:
        """The scenario's name, plus any jitter — which the name omits.

        Scenarios that differ only in jitter (the Fig. 10 sweep) must
        not share a sweep cell.
        """
        name = self.build().name
        return f"{name}+{self.jitter_ms:g}ms jitter" if self.jitter_ms else name


@dataclass
class ExperimentSpec:
    """A complete declarative experiment."""

    name: str
    scenarios: List[ScenarioSpec]
    workloads: List[WorkloadSpec]
    protocols: Tuple[str, ...] = ("quic", "tcp")
    runs: int = 10
    device: str = "desktop"
    quic_version: int = 34
    description: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.scenarios or not self.workloads:
            raise ValueError("spec needs at least one scenario and workload")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if self.device not in DEVICE_PROFILES:
            raise ValueError(f"unknown device {self.device!r}")
        for protocol in self.protocols:
            if protocol not in ("quic", "tcp"):
                raise ValueError(f"unknown protocol {protocol!r}")
        if not isinstance(self.schema_version, int) or self.schema_version < 1:
            raise ValueError(
                f"schema_version must be a positive integer, "
                f"got {self.schema_version!r}")
        if self.schema_version > SCHEMA_VERSION:
            raise ValueError(
                f"spec schema_version {self.schema_version} is newer than "
                f"this build supports (<= {SCHEMA_VERSION}); upgrade repro "
                f"or re-export the spec")

    # -- serialisation -----------------------------------------------------
    def to_json(self) -> str:
        payload = asdict(self)
        payload["protocols"] = list(self.protocols)
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("an experiment spec must be a JSON object")
        _reject_unknown_keys("experiment spec", raw,
                             {f.name for f in fields(cls)})
        for required in ("name", "scenarios", "workloads"):
            if required not in raw:
                raise ValueError(f"experiment spec is missing {required!r}")
        return cls(
            name=raw["name"],
            scenarios=[_parse_entry(ScenarioSpec, s, "scenario")
                       for s in raw["scenarios"]],
            workloads=[_parse_entry(WorkloadSpec, w, "workload")
                       for w in raw["workloads"]],
            protocols=tuple(raw.get("protocols", ("quic", "tcp"))),
            runs=raw.get("runs", 10),
            device=raw.get("device", "desktop"),
            quic_version=raw.get("quic_version", 34),
            description=raw.get("description", ""),
            schema_version=raw.get("schema_version", SCHEMA_VERSION),
        )


@dataclass
class ExperimentResult:
    """All samples plus derived comparisons for one executed spec."""

    spec: ExperimentSpec
    #: (scenario_label, workload_label, protocol) -> PLT samples.
    samples: Dict[Tuple[str, str, str], List[float]] = field(
        default_factory=dict)

    def comparison(self, scenario_label: str, workload_label: str) -> Comparison:
        quic = self.samples[(scenario_label, workload_label, "quic")]
        tcp = self.samples[(scenario_label, workload_label, "tcp")]
        return Comparison(f"{scenario_label} / {workload_label}", quic, tcp)

    def heatmap(self, title: Optional[str] = None) -> Heatmap:
        return Heatmap.from_samples(
            title or self.spec.name,
            [s.label for s in self.spec.scenarios],
            [w.label for w in self.spec.workloads], self.samples)

    def summary_rows(self) -> List[str]:
        rows = []
        for (scenario, workload, protocol), values in sorted(self.samples.items()):
            rows.append(
                f"{scenario:<24}{workload:<12}{protocol:<6}"
                f"{mean(values):8.3f}s (sd {sample_std(values):6.3f}, "
                f"n={len(values)})"
            )
        return rows

    # -- serialisation -----------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "spec": json.loads(self.spec.to_json()),
            "samples": {
                "|".join(key): values for key, values in self.samples.items()
            },
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        raw = json.loads(text)
        spec = ExperimentSpec.from_json(json.dumps(raw["spec"]))
        samples = {
            tuple(key.split("|")): values
            for key, values in raw["samples"].items()
        }
        return cls(spec=spec, samples=samples)


def experiment_requests(spec: ExperimentSpec, *, seed_base: int = 0
                        ) -> List[Tuple[Tuple[str, str, str],
                                        List[RunRequest]]]:
    """Expand a spec into its (cell key, seeded RunRequests) pairs."""
    device = DEVICE_PROFILES[spec.device]
    quic_spec = ProtocolSpec("quic", quic_config(spec.quic_version))
    tcp_spec = ProtocolSpec("tcp")
    cells: List[Tuple[Tuple[str, str, str], List[RunRequest]]] = []
    for scenario_spec in spec.scenarios:
        scenario = scenario_spec.build()
        for workload_spec in spec.workloads:
            workload = workload_spec.build()
            for protocol in spec.protocols:
                proto = quic_spec if protocol == "quic" else tcp_spec
                key = (scenario_spec.label, workload_spec.label, protocol)
                cells.append((key, [
                    RunRequest(scenario=scenario, page=workload,
                               protocol=proto, seed=seed_base + i,
                               device=device)
                    for i in range(spec.runs)
                ]))
    return cells


def run_experiment(spec: ExperimentSpec, *, seed_base: int = 0,
                   progress: Optional[Any] = None,
                   jobs: Optional[int] = 1,
                   store: Optional[Any] = None) -> ExperimentResult:
    """Execute a spec: every (scenario x workload x protocol) cell.

    ``jobs`` fans every seeded run of the whole grid out over the
    sweep engine's worker processes; because each run is a pure function of its
    request, the result (including ``to_json()``) is byte-identical for
    any worker count.  ``progress(key, plts)`` fires once per cell, as
    soon as that cell's last run completes (completion order under
    parallelism — every cell still fires exactly once).

    ``store`` (a :mod:`repro.store` store, cache, or path) makes the
    sweep cached *and resumable*: completed runs are persisted as they
    finish, so re-running a killed sweep executes only the missing
    cells, and re-running a finished one executes nothing at all.
    """
    return ExperimentResult(spec=spec, samples=collect(
        experiment_requests(spec, seed_base=seed_base), on_cell=progress,
        jobs=jobs, store=store))
