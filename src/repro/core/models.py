"""Closed-form steady-state CC throughput models + the model-fit layer.

The ROADMAP's analytical-oracle item, in the spirit of the Mathis
et al. macroscopic TCP model and its descendants: for each pluggable
kernel in :mod:`repro.transport.cc.kernels` there is a closed-form
steady-state throughput prediction —

* **Reno-shaped AIMD** (:func:`aimd_rate`): the Mathis square-root law
  generalised to an arbitrary multiplicative-decrease ``beta`` and
  additive-increase ``alpha``.  With the classic ``beta = 1/2``,
  ``alpha = 1`` it collapses to ``rate = (mss/rtt) * sqrt(3/(2p))``.
* **Cubic** (:func:`cubic_rate`): the RFC 8312 steady-state sawtooth —
  ``W_max = (4 rtt / (p (3+beta)))^(3/4) * (C/(1-beta))^(1/4)`` packets,
  average window ``(3+beta)/4 * W_max`` — taken as the max with the
  TCP-friendly AIMD region, so low-loss/short-RTT cells recover the
  Reno law exactly as the kernel's ``w_est`` floor does.
* **BBR** (:func:`bbr_rate`): loss-agnostic by design; the model is the
  BDP/capacity bound times the goodput factor ``(1 - p)``.

:func:`predict_rate` bounds every loss-driven prediction by the link's
goodput capacity and by the MACW window limit (``max_cwnd * mss /
rtt`` — the paper's Sec. 5.1 cap) and labels the binding constraint as
the cell's *regime*.

The fit layer (:class:`ModelFitAccumulator`) compares predictions
against store-backed manyflow sweep cells: every completed record with
a homogeneous protocol mix and a ``rate_p50`` metric contributes its
median per-flow goodput as the observable.  ``repro validate`` renders
the resulting table and exits nonzero on gated cells whose
observed/predicted ratio falls outside the tolerance band — a CC
regression surfaces as a model-fit break even after fixed-seed goldens
were re-baselined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..netem.packet import DEFAULT_MSS, HEADER_BYTES
from ..transport.flowtable import FlowParams, QUIC_PARAMS, TCP_PARAMS

__all__ = [
    "DEFAULT_TOLERANCE",
    "FitCell",
    "ModelFitAccumulator",
    "ModelPrediction",
    "aimd_rate",
    "bbr_rate",
    "cubic_rate",
    "oracle_configs",
    "oracle_requests",
    "predict_rate",
    "render_model_fit_table",
]

#: Default accepted band for observed/predicted: within a factor of
#: ``1 + DEFAULT_TOLERANCE`` either way.  Steady-state models ignore
#: slow start, recovery details and self-induced queueing, so the band
#: is generous; a mis-tuned kernel (wrong beta) still lands well
#: outside it (see tests/test_models.py).
DEFAULT_TOLERANCE = 0.6

#: Regime labels: which constraint binds the prediction.
REGIME_LOSS = "loss-limited"
REGIME_CAPACITY = "capacity-limited"
REGIME_WINDOW = "window-limited"

_INF = float("inf")


def aimd_rate(mss: float, rtt: float, loss_rate: float, *,
              beta: float = 0.5, alpha: float = 1.0) -> float:
    """Steady-state AIMD goodput, bytes/sec (Mathis generalised).

    The sawtooth oscillates between ``beta * W`` and ``W`` with additive
    increase ``alpha`` packets/RTT; one loss event per cycle delivers
    ``(1 - beta^2) W^2 / (2 alpha)`` packets, so ``W = sqrt(2 alpha /
    ((1 - beta^2) p))`` and the mean window is ``(1 + beta)/2 * W``.
    """
    if loss_rate <= 0:
        return _INF
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    w_peak = math.sqrt(2.0 * alpha / ((1.0 - beta * beta) * loss_rate))
    w_avg = (1.0 + beta) / 2.0 * w_peak
    return w_avg * mss / rtt


def cubic_rate(mss: float, rtt: float, loss_rate: float, *,
               beta: float = 0.7, c: float = 0.4,
               alpha: Optional[float] = None) -> float:
    """Steady-state Cubic goodput, bytes/sec (RFC 8312 sawtooth).

    Integrating the cubic window over one loss cycle of length
    ``K = ((1-beta) W_max / C)^(1/3)`` seconds gives ``W_max =
    (4 rtt / (p (3+beta)))^(3/4) * (C/(1-beta))^(1/4)`` and a mean
    window of ``(3+beta)/4 * W_max`` — the famous ``p^(-3/4)`` loss
    exponent and ``rtt^(-1/4)`` RTT-fairness.  The TCP-friendly region
    (``alpha`` defaulting to RFC 8312's ``3(1-beta)/(1+beta)``) is a
    floor, exactly as the kernel's ``w_est`` term is.
    """
    if loss_rate <= 0:
        return _INF
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    w_max = ((4.0 * rtt / (loss_rate * (3.0 + beta))) ** 0.75
             * (c / (1.0 - beta)) ** 0.25)
    w_avg = (3.0 + beta) / 4.0 * w_max
    cubic = w_avg * mss / rtt
    if alpha is None:
        alpha = 3.0 * (1.0 - beta) / (1.0 + beta)
    friendly = aimd_rate(mss, rtt, loss_rate, beta=beta, alpha=alpha)
    return max(cubic, friendly)


def bbr_rate(mss: float, rtt: float, loss_rate: float, *,
             link_rate: float, max_cwnd: Optional[float] = None) -> float:
    """Steady-state BBR goodput, bytes/sec: BDP-bound, loss-agnostic.

    BBR paces at the measured bottleneck bandwidth regardless of random
    loss, so the model is the link's goodput capacity (or the window
    limit ``max_cwnd * mss / rtt`` when the MACW binds first) times the
    delivered fraction ``1 - p``.
    """
    bound = link_rate
    if max_cwnd is not None:
        bound = min(bound, max_cwnd * mss / rtt)
    return bound * (1.0 - loss_rate)


@dataclass(frozen=True)
class ModelPrediction:
    """A bounded steady-state prediction and its binding constraint."""

    rate: float      #: goodput, bytes/sec
    regime: str      #: one of loss-/capacity-/window-limited


def goodput_capacity(rate_bps: float, mss: float = DEFAULT_MSS) -> float:
    """Link capacity net of per-packet header overhead, bytes/sec."""
    return rate_bps / 8.0 * (mss / (mss + HEADER_BYTES))


def predict_rate(cc: str, params: FlowParams, *, rtt: float,
                 loss_rate: float, link_rate_bps: float,
                 mss: float = DEFAULT_MSS) -> ModelPrediction:
    """Oracle prediction for one flow of ``cc`` under ``params``.

    ``params`` is the per-protocol :class:`FlowParams` the manyflow
    kernels are built from (QUIC's beta 0.85 / MACW 430 vs TCP's 0.7),
    so model and simulation share one source of constants.
    """
    capacity = goodput_capacity(link_rate_bps, mss)
    window_limit = params.max_cwnd * mss / rtt
    if cc == "reno":
        loss_limited = aimd_rate(mss, rtt, loss_rate, beta=params.beta)
    elif cc == "cubic":
        n = max(params.emulated_connections, 1)
        alpha = 3.0 * n * n * (1.0 - params.beta) / (1.0 + params.beta)
        loss_limited = cubic_rate(mss, rtt, loss_rate, beta=params.beta,
                                  alpha=alpha)
    elif cc == "bbr":
        rate = bbr_rate(mss, rtt, loss_rate, link_rate=capacity,
                        max_cwnd=params.max_cwnd)
        regime = (REGIME_WINDOW if window_limit < capacity
                  else REGIME_CAPACITY)
        return ModelPrediction(rate=rate, regime=regime)
    else:
        raise ValueError(f"no analytical model for CC kernel {cc!r}")
    rate = min(loss_limited, capacity, window_limit)
    if rate == loss_limited:
        regime = REGIME_LOSS
    elif rate == capacity:
        regime = REGIME_CAPACITY
    else:
        regime = REGIME_WINDOW
    return ModelPrediction(rate=rate, regime=regime)


# ----------------------------------------------------------------------
# fit layer: predictions vs store-backed sweep cells
# ----------------------------------------------------------------------
_PARAMS_BY_NAME = {"quic": QUIC_PARAMS, "tcp": TCP_PARAMS}


@dataclass(frozen=True)
class FitCell:
    """One (kernel, protocol, scenario) cell of the model-fit table."""

    cc: str
    proto: str
    rate_mbps: float
    rtt: float
    loss_rate: float
    observed: float       #: mean-over-seeds median per-flow goodput, B/s
    predicted: float
    regime: str
    runs: int
    #: Only loss>0 cells are gated: at zero loss the loss models are
    #: unbounded and the cell is purely capacity/contention-shaped.
    gated: bool

    @property
    def ratio(self) -> float:
        if self.predicted <= 0:
            return _INF
        return self.observed / self.predicted

    def within(self, tolerance: float) -> bool:
        """Observed within a factor of ``1 + tolerance`` of the model."""
        band = 1.0 + tolerance
        ratio = self.ratio
        return (1.0 / band) <= ratio <= band


class ModelFitAccumulator:
    """Streaming accumulator: manyflow records → model-fit cells.

    Order-independent: cells key on ``(cc, proto, link, rtt, loss)`` and
    average the ``rate_p50`` observable across seeds.  Mixed-protocol
    runs (``0 < tcp_share < 1``) are skipped — their median flow has no
    single analytical model.
    """

    def __init__(self) -> None:
        #: key -> [observed_sum, run_count]
        self._sums: Dict[Tuple[str, str, float, float, float],
                         List[float]] = {}

    def add_record(self, record: Any) -> None:
        request = getattr(record, "request", None)
        manyflow = getattr(request, "manyflow", None)
        if manyflow is None or not getattr(record, "complete", False):
            return
        if 0.0 < manyflow.tcp_share < 1.0:
            return
        metrics = getattr(record, "metrics", None) or {}
        observed = metrics.get("rate_p50")
        if not observed or observed <= 0:
            return
        proto = "tcp" if manyflow.tcp_share >= 1.0 else "quic"
        scenario = request.scenario
        key = (manyflow.cc, proto, float(scenario.rate_mbps),
               float(scenario.total_rtt), float(scenario.loss_rate))
        entry = self._sums.setdefault(key, [0.0, 0.0])
        entry[0] += observed
        entry[1] += 1.0

    def __bool__(self) -> bool:
        return bool(self._sums)

    def cells(self) -> List[FitCell]:
        out: List[FitCell] = []
        for key in sorted(self._sums):
            cc, proto, rate_mbps, rtt, loss_rate = key
            obs_sum, count = self._sums[key]
            prediction = predict_rate(
                cc, _PARAMS_BY_NAME[proto], rtt=rtt, loss_rate=loss_rate,
                link_rate_bps=rate_mbps * 1e6)
            out.append(FitCell(
                cc=cc, proto=proto, rate_mbps=rate_mbps, rtt=rtt,
                loss_rate=loss_rate, observed=obs_sum / count,
                predicted=prediction.rate, regime=prediction.regime,
                runs=int(count), gated=loss_rate > 0.0))
        return out


def render_model_fit_table(cells: Sequence[FitCell],
                           tolerance: float = DEFAULT_TOLERANCE) -> str:
    """The ``repro validate`` / ``report --from-store`` fit table."""
    lines = [
        "| CC | proto | link | RTT | loss | observed | model | obs/model "
        "| regime | fit |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for cell in cells:
        if cell.gated:
            verdict = "ok" if cell.within(tolerance) else "DIVERGENT"
        else:
            verdict = "(info)"
        ratio = cell.ratio
        lines.append(
            f"| {cell.cc} | {cell.proto} | {cell.rate_mbps:g} Mbps "
            f"| {cell.rtt * 1000:g} ms | {cell.loss_rate:.2%} "
            f"| {cell.observed / 1e3:,.0f} KB/s "
            f"| {cell.predicted / 1e3:,.0f} KB/s "
            f"| {'inf' if math.isinf(ratio) else f'{ratio:.2f}'} "
            f"| {cell.regime} | {verdict} |")
    lines.append("")
    lines.append(f"tolerance: observed within {1 + tolerance:.2f}x of the "
                 f"model either way; loss-free cells are informational.")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the oracle grid: steady-state-friendly manyflow cells
# ----------------------------------------------------------------------
def oracle_configs(ccs: Sequence[str] = ("reno", "cubic", "bbr"),
                   flows: int = 8) -> List[Any]:
    """Manyflow configs tuned so the steady-state models apply.

    Long (~3 MB, low-variance) transfers at a low arrival rate on a fat
    link: flows are mostly alone at the bottleneck, random loss — not
    queue contention — is the binding constraint, and each flow spans
    many sawtooth cycles.  One config per (cc, protocol) with a
    homogeneous mix, so every cell has a single analytical model.
    """
    from .manyflow import ManyflowConfig  # avoid import cycle

    configs: List[Any] = []
    for cc in ccs:
        for tcp_share in (0.0, 1.0):
            configs.append(ManyflowConfig(
                flows=flows, arrival_rate=0.12, tcp_share=tcp_share,
                page_kb_median=8192.0, page_sigma=0.1, video_share=0.0,
                aqm="droptail", duration=240.0, cc=cc))
    return configs


def oracle_requests(ccs: Sequence[str] = ("reno", "cubic", "bbr"),
                    loss_rates: Sequence[float] = (0.01, 0.02),
                    seeds: Sequence[int] = (0,),
                    flows: int = 8) -> List[Any]:
    """The ``repro validate`` grid: oracle configs x loss cells.

    BBR only runs the lowest-loss cell: the BDP-bound model applies
    while random loss stays within BBR's probing headroom; past ~1%
    the engine's go-back-N RTO path dominates the simplified BBR and
    the loss-agnostic model no longer describes it.
    """
    from .manyflow import manyflow_requests, manyflow_scenario

    requests: List[Any] = []
    for loss_rate in loss_rates:
        scenario = manyflow_scenario(rate_mbps=50.0, rtt=0.040,
                                     loss_rate=loss_rate)
        cell_ccs = [cc for cc in ccs
                    if cc != "bbr" or loss_rate <= min(loss_rates)]
        for config in oracle_configs(cell_ccs, flows=flows):
            requests.extend(manyflow_requests(config, scenario, seeds))
    return requests


def fit_records(records: Iterable[Any]) -> ModelFitAccumulator:
    """Fold an iterable of records into a fit accumulator."""
    accumulator = ModelFitAccumulator()
    for record in records:
        accumulator.add_record(record)
    return accumulator
