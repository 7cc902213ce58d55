"""What one run is: the seeded request, its record, and how it executes.

The paper's methodology is a large matrix of *independent* seeded
simulations — "at least 10" rounds per (scenario x workload x protocol)
cell — and every run is a pure function of ``(configuration, seed)``.
This module defines that function's input and output, and nothing else:
it sits under the run key (:mod:`repro.store.keys`), so an edit here
re-executes cached runs, while the sweep engine that fans runs out
(:mod:`repro.sweep`) does not.

The unit of work is a :class:`RunRequest`: a frozen, picklable
description of one run (scenario, page workload, :class:`ProtocolSpec`,
device, seed, trace options).  :func:`execute_request` — the default
run function — executes one and yields a :class:`RunRecord` carrying the
metrics, wall-clock timing and — instead of an exception that would
poison a whole batch — a structured :class:`RunFailure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..devices import DESKTOP, DeviceProfile
from ..http.objects import WebPage
from ..netem.node import Node
from ..netem.profiles import Scenario
from ..netem.sim import Simulator
from .manyflow import ManyflowConfig
from ..quic.config import QuicConfig, quic_config
from ..quic.connection import QuicConnection
from ..tcp.config import TcpConfig, tcp_config
from ..tcp.connection import TcpConnection

#: Simulated-time cap per run (mirrors ``runner.DEFAULT_TIMEOUT``).
DEFAULT_SIM_TIMEOUT = 900.0

#: Protocol name -> (config type, the paper's default config, connection
#: class): the one place a protocol name becomes a stack.
_STACKS = {
    "quic": (QuicConfig, quic_config(34), QuicConnection),
    "tcp": (TcpConfig, tcp_config(), TcpConnection),
}
PROTOCOL_NAMES = tuple(_STACKS)


# ----------------------------------------------------------------------
# request / result types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol plus its configuration, as one picklable value.

    The name selects the stack, ``config`` carries its tunables
    (``None`` means the paper's defaults, resolved lazily so the pickle
    stays small).
    """

    name: str
    config: Optional[Union[QuicConfig, TcpConfig]] = None

    def __post_init__(self) -> None:
        if self.name not in PROTOCOL_NAMES:
            raise ValueError(
                f"unknown protocol {self.name!r} (expected one of "
                f"{', '.join(PROTOCOL_NAMES)})"
            )
        if self.config is not None:
            expected = _STACKS[self.name][0]
            if not isinstance(self.config, expected):
                raise TypeError(
                    f"{self.name} ProtocolSpec needs a {expected.__name__}, "
                    f"got {type(self.config).__name__}"
                )

    # -- constructors ------------------------------------------------------
    @classmethod
    def quic(cls, config: Optional[QuicConfig] = None, *,
             version: Optional[int] = None) -> "ProtocolSpec":
        """A QUIC spec; ``version`` builds the version-keyed config."""
        if version is not None:
            if config is not None:
                raise TypeError("pass either config or version, not both")
            config = quic_config(version)
        return cls("quic", config)

    @classmethod
    def tcp(cls, config: Optional[TcpConfig] = None) -> "ProtocolSpec":
        return cls("tcp", config)

    @classmethod
    def of(cls, protocol: Union[str, "ProtocolSpec"],
           config: Optional[Union[QuicConfig, TcpConfig]] = None
           ) -> "ProtocolSpec":
        """Coerce a protocol name or an existing spec into a spec."""
        if isinstance(protocol, ProtocolSpec):
            if config is not None:
                raise TypeError(
                    "pass the configuration inside the ProtocolSpec, not "
                    "alongside it")
            return protocol
        return cls(protocol, config)

    # -- accessors ---------------------------------------------------------
    def resolved_config(self) -> Union[QuicConfig, TcpConfig]:
        """The configuration, with the paper's defaults filled in."""
        if self.config is not None:
            return self.config
        return _STACKS[self.name][1]

    def open_pair(self, sim: Simulator, client_node: Node, server_node: Node,
                  **endpoint_kwargs: Any) -> Tuple[Any, Any]:
        """A connected client/server pair of this stack on the resolved
        config; ``endpoint_kwargs`` are
        :meth:`~repro.transport.base.TransportEndpoint.open_pair`'s."""
        return _STACKS[self.name][2].open_pair(
            sim, client_node, server_node, self.resolved_config(),
            **endpoint_kwargs)

    @property
    def label(self) -> str:
        if self.config is None:
            return self.name
        if isinstance(self.config, QuicConfig):
            return self.config.label()
        return "tcp(custom)"


#: What a protocol argument may look like across the public drivers: a
#: spec, or a bare ``"quic"``/``"tcp"`` for the paper's defaults.
ProtocolLike = Union[str, ProtocolSpec]


@dataclass(frozen=True)
class RunRequest:
    """One seeded run, serialisable to a worker process and back.

    Everything needed to reconstruct the run lives here as plain frozen
    data: the :class:`~repro.netem.profiles.Scenario` (itself a data-only
    spec — see ``Scenario.to_spec``/``from_spec``), the page workload,
    the :class:`ProtocolSpec`, the device model, the seed, and the trace
    options.  ``timeout`` caps *simulated* time (the in-sim watchdog);
    wall-clock budgets are enforced by the sweep engine.
    """

    scenario: Scenario
    page: WebPage
    protocol: ProtocolSpec
    seed: int = 0
    device: DeviceProfile = DESKTOP
    trace: bool = False
    cwnd_interval: float = 0.0
    proxied: bool = False
    timeout: float = DEFAULT_SIM_TIMEOUT
    #: When set, this request is a many-flow aggregate run: the engine in
    #: :mod:`repro.core.manyflow` executes it instead of a page load, and
    #: ``page``/``protocol`` serve only as cell-addressing labels.
    manyflow: Optional[ManyflowConfig] = None

    @property
    def label(self) -> str:
        return (f"{self.protocol.name} {self.page.name} @ "
                f"{self.scenario.name} seed={self.seed}")

    def with_(self, **changes: Any) -> "RunRequest":
        return replace(self, **changes)

    def execute(self) -> "RunRecord":
        """Run in-process (no pool) and return the record."""
        return execute_request(self)


@dataclass(frozen=True)
class RunFailure:
    """Structured description of why a run produced no sample.

    ``kind`` is one of ``"timeout"`` (wall-clock budget exceeded),
    ``"incomplete"`` (the simulation hit its simulated-time cap), or
    ``"error"`` (an exception).  A run is attempted once: a fixed-seed
    run that raised would raise again.
    """

    kind: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass
class RunRecord:
    """What one executed :class:`RunRequest` produced."""

    request: RunRequest
    plt: Optional[float] = None
    complete: bool = False
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds the run took.
    wall_time: float = 0.0
    #: Attempts made.  The engine attempts a run once, so a record it
    #: makes reads 1; the field stays because stored rows carry it.
    attempts: int = 1
    failure: Optional[RunFailure] = None
    #: True when this record was served from a results store rather than
    #: executed (see :mod:`repro.store`); never persisted.
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None and self.complete

    def require(self) -> float:
        """The PLT sample, or a RuntimeError mirroring the serial API."""
        if self.ok and self.plt is not None:
            return self.plt
        reason = str(self.failure) if self.failure else "did not complete"
        raise RuntimeError(
            f"{self.request.protocol.name} load of {self.request.page.name} "
            f"in {self.request.scenario.name} (seed {self.request.seed}) "
            f"failed: {reason}"
        )


#: A run function: maps a request to a record (may raise).  Injectable so
#: tests can exercise timeout and error handling without real simulations.
RunFn = Callable[[RunRequest], RunRecord]


def execute_request(request: RunRequest) -> RunRecord:
    """Execute one request with the real simulator (the default RunFn)."""
    if request.manyflow is not None:
        from .manyflow import execute_manyflow
        return execute_manyflow(request)

    from .runner import run_page_load  # runner sits above this module

    output = run_page_load(
        request.scenario, request.page, request.protocol,
        seed=request.seed, device=request.device, trace=request.trace,
        cwnd_interval=request.cwnd_interval, proxied=request.proxied,
        timeout=request.timeout,
    )
    result = output.result
    metrics: Dict[str, float] = {
        "bytes": float(request.page.total_bytes),
        "objects": float(request.page.object_count),
    }
    if request.trace:
        for state, fraction in output.server_trace.dwell_fractions().items():
            metrics[f"dwell:{state}"] = fraction
    if not result.complete:
        return RunRecord(
            request=request, plt=None, complete=False, metrics=metrics,
            failure=RunFailure(
                "incomplete",
                f"page load still running after {request.timeout:g}s of "
                f"simulated time"),
        )
    metrics["plt"] = result.plt
    return RunRecord(request=request, plt=result.plt, complete=True,
                     metrics=metrics)


# The end-to-end harness (benchmarks/e2e/, held byte-identical between
# benchmark revisions) and the goldens of tests/test_determinism.py import
# these sweep names from this module; they live in repro.sweep, outside
# the run key.
from ..sweep import (  # noqa: E402  (after the run types sweep imports)
    SERIAL_ENV_VAR,
    RunEvent,
    iter_runs,
    run_requests,
    usable_cpu_count,
)
