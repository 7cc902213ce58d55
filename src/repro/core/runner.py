"""High-level experiment drivers.

These functions are the public face of the evaluation framework: each
builds a fresh simulated testbed (Fig. 1 / Fig. 4 / Fig. 16 topology),
runs one or many page loads / transfers, and returns metrics plus the
instrumented traces needed for root-cause analysis.  The benchmark
harness and the examples are thin layers over this module.

Batch drivers (``measure_plts``, ``compare_page_load``,
``compare_quic_variants``, ``build_plt_heatmap``) accept ``jobs=`` and
fan their independent seeded rounds out over the sweep engine
(:mod:`repro.sweep`); seeded results are bit-identical to serial
execution.  They also accept ``store=`` — a :mod:`repro.store` results
store (or a path to one) that serves previously computed runs as cache
hits and persists new ones as they complete.  A protocol is named by a
:class:`~repro.core.executor.ProtocolSpec` (a bare ``"quic"``/``"tcp"``
means the paper's defaults).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..devices import DESKTOP, DeviceProfile
from ..http.client import PageLoader, PageLoadResult
from ..http.objects import WebPage, single_object_page
from ..http.server import page_request_handler
from ..netem.link import BandwidthSchedule, mbps
from ..netem.profiles import Scenario, fairness_bottleneck
from ..netem.sim import Simulator
from ..netem.topology import Path, build_bottleneck, build_path, build_proxy_path
from ..proxy import install_proxy
from ..quic.config import QuicConfig
from ..tcp.config import TcpConfig
from ..sweep import collect
from .comparison import Comparison
from .executor import ProtocolLike, ProtocolSpec, RunRequest
from .heatmap import Heatmap
from .instrumentation import Trace
from .monitors import FlowThroughputMonitor
from .rootcause import loss_report

#: Default number of measurement rounds (the paper: "at least 10").
DEFAULT_RUNS = 10
DEFAULT_TIMEOUT = 900.0

#: RunRequest fields settable through the batch drivers' ``**kwargs``.
_REQUEST_FIELDS = ("device", "trace", "cwnd_interval", "proxied", "timeout")


def _request_fields(caller: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    unknown = sorted(set(kwargs) - set(_REQUEST_FIELDS))
    if unknown:
        raise TypeError(
            f"{caller}() got unexpected keyword argument(s) "
            f"{', '.join(map(repr, unknown))}; RunRequest accepts "
            f"{', '.join(_REQUEST_FIELDS)}")
    return kwargs


def _side_spec(name: str, value: Optional[Union[QuicConfig, TcpConfig,
                                                ProtocolSpec]]) -> ProtocolSpec:
    """Coerce one comparison side (a config, a spec, or None) to a spec."""
    if isinstance(value, ProtocolSpec):
        if value.name != name:
            raise ValueError(
                f"the {name} side of a comparison got a {value.name} "
                f"ProtocolSpec")
        return value
    return ProtocolSpec(name, value)


def _seeded_requests(scenario: Scenario, page: WebPage, spec: ProtocolSpec,
                     runs: int, seed_base: int,
                     fields: Dict[str, Any]) -> List[RunRequest]:
    return [
        RunRequest(scenario=scenario, page=page, protocol=spec,
                   seed=seed_base + round_idx, **fields)
        for round_idx in range(runs)
    ]


@dataclass
class RunOutput:
    """Everything one page-load run produced."""

    result: PageLoadResult
    sim: Simulator
    client: Any
    server: Any
    server_trace: Trace
    client_trace: Trace
    path: Path
    proxy_connections: Tuple[Any, ...] = ()

    @property
    def plt(self) -> float:
        return self.result.plt


def run_page_load(
    scenario: Scenario,
    page: WebPage,
    protocol: ProtocolLike,
    *,
    seed: int = 0,
    device: DeviceProfile = DESKTOP,
    trace: bool = False,
    cwnd_interval: float = 0.0,
    proxied: bool = False,
    timeout: float = DEFAULT_TIMEOUT,
) -> RunOutput:
    """Load ``page`` once over ``protocol`` in ``scenario``; return metrics.

    ``protocol`` is a :class:`ProtocolSpec` (or a bare ``"quic"``/
    ``"tcp"`` for the defaults).  With ``proxied`` a split-connection
    proxy sits midway (Fig. 16); the proxy terminates the same protocol
    on both legs.
    """
    spec = ProtocolSpec.of(protocol)
    sim = Simulator()
    server_trace = Trace(label=f"{spec.name}-server", enabled=trace,
                         cwnd_min_interval=cwnd_interval)
    client_trace = Trace(label=f"{spec.name}-client", enabled=False)
    handler = page_request_handler(page)
    proxy_conns: Tuple[Any, ...] = ()
    if proxied:
        path = build_proxy_path(sim, scenario, seed=seed)
        client, server, proxy_conns = install_proxy(
            sim, path, spec, handler, device=device, seed=seed,
            server_trace=server_trace, client_trace=client_trace,
        )
    else:
        path = build_path(sim, scenario, seed=seed)
        client, server = spec.open_pair(
            sim, path.client, path.server, device=device,
            request_handler=handler, server_trace=server_trace,
            client_trace=client_trace, seed=seed,
        )
    loader = PageLoader(sim, client, page)
    loader.run(timeout)
    server_trace.close(sim.now)
    client_trace.close(sim.now)
    return RunOutput(
        result=loader.result, sim=sim, client=client, server=server,
        server_trace=server_trace, client_trace=client_trace, path=path,
        proxy_connections=proxy_conns,
    )


def measure_plts(
    scenario: Scenario,
    page: WebPage,
    protocol: ProtocolLike,
    runs: int = DEFAULT_RUNS,
    *,
    seed_base: int = 0,
    jobs: Optional[int] = 1,
    store: Optional[Any] = None,
    **kwargs: Any,
) -> List[float]:
    """PLT samples over ``runs`` seeded rounds (paper: >= 10 per scenario).

    ``jobs`` fans the independent rounds out across worker processes;
    seeded samples are identical to serial execution.  ``store`` serves
    already-computed rounds from a results store and persists new ones
    (see :mod:`repro.store`).
    """
    spec = ProtocolSpec.of(protocol)
    fields = _request_fields("measure_plts", kwargs)
    requests = _seeded_requests(scenario, page, spec, runs, seed_base, fields)
    return collect([(None, requests)], jobs=jobs, store=store)[None]


def _compare(scenario: Scenario, page: WebPage, treatment: ProtocolSpec,
             baseline: ProtocolSpec, runs: int, fields: Dict[str, Any], *,
             label: Optional[str], seed_base: int, jobs: Optional[int],
             store: Optional[Any], **names: str) -> Comparison:
    """One cell: ``runs`` back-to-back seeded rounds per side, compared."""
    samples = collect(
        [(side, _seeded_requests(scenario, page, spec, runs, seed_base,
                                 fields))
         for side, spec in (("treatment", treatment), ("baseline", baseline))],
        jobs=jobs, store=store)
    return Comparison(label or f"{scenario.name} / {page.name}",
                      samples["treatment"], samples["baseline"], **names)


def compare_page_load(
    scenario: Scenario,
    page: WebPage,
    runs: int = DEFAULT_RUNS,
    *,
    label: Optional[str] = None,
    seed_base: int = 0,
    jobs: Optional[int] = 1,
    store: Optional[Any] = None,
    quic: Optional[Union[QuicConfig, ProtocolSpec]] = None,
    tcp: Optional[Union[TcpConfig, ProtocolSpec]] = None,
    **common: Any,
) -> Comparison:
    """The paper's core unit: back-to-back QUIC and TCP rounds, compared.

    ``quic``/``tcp`` override either side's configuration (a config or a
    full :class:`ProtocolSpec`).
    """
    return _compare(
        scenario, page, _side_spec("quic", quic), _side_spec("tcp", tcp),
        runs, _request_fields("compare_page_load", common), label=label,
        seed_base=seed_base, jobs=jobs, store=store)


def compare_quic_variants(
    scenario: Scenario,
    page: WebPage,
    treatment_cfg: QuicConfig,
    baseline_cfg: QuicConfig,
    runs: int = DEFAULT_RUNS,
    *,
    label: Optional[str] = None,
    treatment_name: str = "treatment",
    baseline_name: str = "baseline",
    seed_base: int = 0,
    jobs: Optional[int] = 1,
    store: Optional[Any] = None,
    **common: Any,
) -> Comparison:
    """Compare two QUIC configurations (e.g. 0-RTT on/off for Fig. 7)."""
    return _compare(
        scenario, page, ProtocolSpec("quic", treatment_cfg),
        ProtocolSpec("quic", baseline_cfg), runs,
        _request_fields("compare_quic_variants", common), label=label,
        seed_base=seed_base, jobs=jobs, store=store,
        treatment_name=treatment_name, baseline_name=baseline_name)


def build_plt_heatmap(
    title: str,
    scenarios: Sequence[Scenario],
    pages: Sequence[WebPage],
    runs: int = DEFAULT_RUNS,
    *,
    jobs: Optional[int] = 1,
    store: Optional[Any] = None,
    seed_base: int = 0,
    quic: Optional[Union[QuicConfig, ProtocolSpec]] = None,
    tcp: Optional[Union[TcpConfig, ProtocolSpec]] = None,
    **kwargs: Any,
) -> Heatmap:
    """Build a Fig. 6/8-style heatmap: scenarios as rows, pages as columns.

    The whole grid — every (scenario x page x protocol x round) — is
    fanned out over the sweep engine in one batch, so ``jobs`` parallelises
    across cells, not just within them.  Two scenarios (or pages) that
    share a name would share a row, so they raise ``ValueError`` before
    anything runs.
    """
    sides = (_side_spec("quic", quic), _side_spec("tcp", tcp))
    fields = _request_fields("build_plt_heatmap", kwargs)
    samples = collect(
        [((scenario.name, page.name, spec.name),
          _seeded_requests(scenario, page, spec, runs, seed_base, fields))
         for scenario in scenarios for page in pages for spec in sides],
        jobs=jobs, store=store)
    return Heatmap.from_samples(title, [s.name for s in scenarios],
                                [p.name for p in pages], samples)


# ----------------------------------------------------------------------
# fairness (Table 4 / Fig. 4)
# ----------------------------------------------------------------------
@dataclass
class FairnessResult:
    """Per-flow throughputs on a shared bottleneck."""

    scenario: Scenario
    duration: float
    #: flow label -> average Mbps over the measurement window.
    average_mbps: Dict[str, float]
    #: flow label -> (time, mbps) series.
    series: Dict[str, List[Tuple[float, float]]]

    def quic_share(self) -> float:
        """QUIC's fraction of the total delivered bytes."""
        total = sum(self.average_mbps.values())
        quic = sum(v for k, v in self.average_mbps.items() if k.startswith("quic"))
        return quic / total if total > 0 else 0.0


def run_fairness(
    n_quic: int = 1,
    n_tcp: int = 1,
    duration: float = 60.0,
    *,
    scenario: Optional[Scenario] = None,
    seed: int = 0,
    quic: Optional[Union[QuicConfig, ProtocolSpec]] = None,
    tcp: Optional[Union[TcpConfig, ProtocolSpec]] = None,
    stagger: float = 0.1,
) -> FairnessResult:
    """Competing bulk flows over one bottleneck (Table 4's setup).

    Each flow downloads an effectively unbounded object; throughput is
    measured at the bottleneck for ``duration`` seconds.  ``quic``/``tcp``
    override either side's configuration (a config or a full
    :class:`ProtocolSpec`).
    """
    scenario = scenario if scenario is not None else fairness_bottleneck()
    quic_spec, tcp_spec = _side_spec("quic", quic), _side_spec("tcp", tcp)
    sim = Simulator()
    n_pairs = n_quic + n_tcp
    net, clients, servers, bottleneck = build_bottleneck(
        sim, scenario, n_pairs, seed=seed
    )
    monitor = FlowThroughputMonitor(bottleneck, interval=0.25)
    # An object large enough to outlast the window at the link rate.
    rate = scenario.rate_mbps if scenario.rate_mbps is not None else 1000.0
    blob = int(rate * 1e6 / 8 * duration * 2)
    handler = lambda meta: meta["size"]  # noqa: E731 - tiny closure
    rng = random.Random(seed)
    idx = 0
    for q in range(n_quic):
        flow = f"quic{q}" if n_quic > 1 else "quic"
        client, _server = quic_spec.open_pair(
            sim, clients[idx], servers[idx],
            request_handler=handler, seed=rng.randrange(1 << 30), flow_id=flow,
        )
        start = stagger * idx
        sim.post(start, client.connect)
        sim.post(start, client.request, {"size": blob}, lambda *a: None)
        idx += 1
    for t in range(n_tcp):
        flow = f"tcp{t + 1}" if n_tcp > 1 else "tcp"
        client, _server = tcp_spec.open_pair(
            sim, clients[idx], servers[idx],
            request_handler=handler, seed=rng.randrange(1 << 30), flow_id=flow,
        )
        start = stagger * idx

        def kickoff(c=client):
            c.connect(lambda now, c=c: c.request({"size": blob}, lambda *a: None))

        sim.post(start, kickoff)
        idx += 1
    sim.run(until=duration)
    averages = {
        flow: monitor.average_mbps(flow, duration) for flow in monitor.flows()
    }
    series = {flow: monitor.series_mbps(flow) for flow in monitor.flows()}
    return FairnessResult(scenario, duration, averages, series)


# ----------------------------------------------------------------------
# single bulk transfers with instrumentation (Figs. 5, 9, 10, 11)
# ----------------------------------------------------------------------
@dataclass
class TransferResult:
    """One instrumented bulk download."""

    protocol: str
    size_bytes: int
    elapsed: float
    throughput_mbps: float
    cwnd_series: List[Tuple[float, int]]
    server_trace: Trace
    stats: Any
    false_losses: int = 0
    losses: int = 0


def run_bulk_transfer(
    scenario: Scenario,
    size_bytes: int,
    protocol: ProtocolLike,
    *,
    seed: int = 0,
    variable_bw: Optional[Tuple[float, float, float]] = None,
    cwnd_interval: float = 0.01,
    timeout: float = DEFAULT_TIMEOUT,
) -> TransferResult:
    """Download one object, recording cwnd and loss-detection activity.

    ``variable_bw=(low_mbps, high_mbps, period)`` re-draws the bottleneck
    rate during the transfer (Fig. 11).
    """
    spec = ProtocolSpec.of(protocol)
    sim = Simulator()
    path = build_path(sim, scenario, seed=seed)
    if variable_bw is not None:
        low, high, period = variable_bw
        schedule = BandwidthSchedule(
            sim, [path.bottleneck_down, path.bottleneck_up],
            mbps(low), mbps(high), period=period,
            rng=random.Random(seed ^ 0xBEEF),
        )
        schedule.start()
    server_trace = Trace(label=f"{spec.name}-server", enabled=True,
                         cwnd_min_interval=cwnd_interval)
    page = single_object_page(size_bytes)
    client, server = spec.open_pair(
        sim, path.client, path.server, device=DESKTOP,
        request_handler=page_request_handler(page), server_trace=server_trace,
        client_trace=Trace(enabled=False), seed=seed,
    )
    loader = PageLoader(sim, client, page)
    loader.run(timeout)
    server_trace.close(sim.now)
    if not loader.done:
        raise RuntimeError(f"{spec.name} bulk transfer did not finish in {timeout}s")
    elapsed = loader.result.plt
    report = loss_report(server)
    return TransferResult(
        protocol=spec.name,
        size_bytes=size_bytes,
        elapsed=elapsed,
        throughput_mbps=size_bytes * 8 / elapsed / 1e6,
        cwnd_series=server_trace.series("cwnd"),
        server_trace=server_trace,
        stats=server.stats,
        false_losses=report.false_losses,
        losses=report.losses_declared,
    )
