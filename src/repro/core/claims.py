"""The paper's claims and the bounds that judge them, in one table.

:data:`CLAIMS` maps each result stem under ``benchmarks/results/`` to the
paper artefact, the claim the report prints, and named checks over the
result the experiment returns (a ``Heatmap``, runner results, or a
dict/tuple of them).  The figure benchmarks write :func:`judge`'s verdict
into their result file and tier-1 judges the same rows on smaller grids,
where a check whose cell the input lacks is not judged (``partial``, never
``yes``).  Checks read results through attributes only: nothing simulates.
"""

from __future__ import annotations

import operator
from statistics import fmean as mean
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

OPS: Dict[str, Callable[[Any, Any], bool]] = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt,
    "==": operator.eq, "in": lambda a, b: a in b}


class Check(NamedTuple):
    name: str
    observe: Callable[[Any], Any]
    op: str
    bound: Any


class Claim(NamedTuple):
    artefact: str
    text: str
    checks: Tuple[Check, ...]


def _fmt(value: Any) -> str:
    return f"{value:.3g}" if isinstance(value, float) else str(value)


class Outcome(NamedTuple):
    name: str
    observed: Optional[Any]  # None: the input holds nothing to observe
    op: str
    bound: Any

    @property
    def passed(self) -> bool:
        return self.observed is not None and OPS[self.op](self.observed, self.bound)

    def render(self) -> str:
        return f"{self.name}={_fmt(self.observed)}, need {self.op} {_fmt(self.bound)}"


class Verdict(NamedTuple):
    stem: str
    outcomes: Tuple[Outcome, ...]

    @property
    def judged(self) -> Tuple[str, ...]:
        return tuple(o.name for o in self.outcomes if o.observed is not None)

    @property
    def failed(self) -> Tuple[Outcome, ...]:
        return tuple(o for o in self.outcomes if o.observed is not None and not o.passed)

    @property
    def passed(self) -> bool:
        """At least one check was judged and none failed."""
        return bool(self.judged) and not self.failed

    @property
    def complete(self) -> bool:
        """Every check was judged and held: the bar for ``reproduced: yes``."""
        return self.passed and len(self.judged) == len(self.outcomes)

    def render(self) -> str:
        """``reproduced: yes|partial|no (<failed checks with numbers>)``."""
        text = "reproduced: " + ("yes" if self.complete else "partial" if self.passed else "no")
        if self.failed:
            text += " (" + "; ".join(o.render() for o in self.failed) + ")"
        skipped = [o.name for o in self.outcomes if o.observed is None]
        return text + (" not judged: " + ", ".join(skipped) if skipped else "")


def judge(stem: str, result: Any) -> Verdict:
    """Apply the checks of ``CLAIMS[stem]`` to an experiment's result."""
    outcomes = []
    for check in CLAIMS[stem].checks:
        try:
            observed = check.observe(result)
        except LookupError:  # a cell, row or series this input lacks
            observed = None
        outcomes.append(Outcome(check.name, observed, check.op, check.bound))
    return Verdict(stem, tuple(outcomes))


# -- observations over heatmaps (row x column grids of Comparison cells) --
def _cells(heatmap, row: Optional[str] = None, col: Optional[str] = None):
    cells = [cell for (r, c), cell in heatmap.cells.items()
             if row in (None, r) and col in (None, c)]
    if not cells:
        raise KeyError((row, col))
    return cells


def _gain(heatmap, row: Optional[str] = None, col: Optional[str] = None) -> float:
    """Mean percent gain of the treatment over the selected cells."""
    return mean(cell.pct_diff for cell in _cells(heatmap, row, col))


def _white0(cell) -> float:
    """A cell's gain, a not-significant ('white') cell counting as 0."""
    return cell.pct_diff if cell.significant() else 0.0


def _small_minus_large(h, row: Optional[str] = None) -> float:
    if len(h.col_labels) < 2:
        raise KeyError("a single object size")
    return _gain(h, row, h.col_labels[0]) - _gain(h, row, h.col_labels[-1])


# -- observations over the other result shapes ----------------------------
def _macw(result, macw: int) -> float:
    return dict(result.candidates)[macw]


def _fair(table, label: str):
    """Per-flow mean Mbps and mean QUIC share over one mix's seeds."""
    runs = table[label]
    return ({flow: mean(r.average_mbps[flow] for r in runs) for flow in runs[0].average_mbps},
            mean(r.quic_share() for r in runs))


def _nack(rows) -> list:
    """The ``QUIC nack=N`` transfers in sweep order (the first is the default)."""
    return [r for label, r in rows.items() if label.startswith("QUIC nack=")]


def _dwell(out) -> float:
    return out.server_trace.dwell_fractions().get("ApplicationLimited", 0.0)


def _bar(bars, label: str):
    return {bar.label: bar for bar in bars}[label]


def _qoe(rows, quality: str, stat: str, protocol: str = "quic") -> float:
    return rows[(quality, protocol)].stat(stat)[0]


def _qoe_ratio(rows, quality: str, stat: str) -> float:
    return _qoe(rows, quality, stat) / _qoe(rows, quality, stat, "tcp")


def _favours(bound: float) -> Check:
    return Check("favouring_fraction", lambda h: h.fraction_favoring_treatment(), ">=", bound)


def _many_small_gap(bound: float) -> Check:
    return Check("single_minus_many_gain_pct",
                 lambda h: _gain(h, col="1x10KB") - _gain(h, col="200x10KB"), ">", bound)


def _states(expected, *edges) -> Tuple[Check, ...]:
    """The expected states, and for each ``(a, bs)`` an edge from a to one of bs."""
    return (Check("missing_states", lambda m: sorted(set(expected) - m.states), "==", []),
            *(Check(f"{'_or_'.join(bs)}_after_{a}", lambda m, a=a, bs=bs: any(
                m.has_transition(a, b) for b in bs), "==", True) for a, bs in edges))


_EC2, _GAE = "calibrated EC2 (MACW=430)", "Google App Engine"
_LTE, _3G = ("verizon-lte", "sprint-lte"), ("verizon-3g", "sprint-3g")
_FIXED_CONFIG = (25, 28, 30, 32, 34, 36)
_CUBIC_STATES = {"Init", "SlowStart", "CongestionAvoidance", "CongestionAvoidanceMaxed",
                 "ApplicationLimited", "Recovery", "TailLossProbe"}

#: Result stem -> claim.  Row order is the report's row order.
CLAIMS: Dict[str, Claim] = {
    "fig02_calibration": Claim("Fig. 2", "GAE wait-time variability; public build ~2x slower", (
        Check("gae_over_ec2_wait",
              lambda r: _bar(r, _GAE).mean_wait / _bar(r, _EC2).mean_wait, ">", 3.0),
        Check("public_over_ec2_download", lambda r: _bar(
            r, "public default (MACW=107,bug)").mean_download / _bar(r, _EC2).mean_download,
            ">", 1.5))),
    "fig02_macw_search": Claim("Fig. 2", "grey-box MACW calibration selects 430", (
        Check("best_macw", lambda r: r.best_macw, "in", (430, 860)),  # >= BDP: same cap
        Check("macw107_over_macw430_plt", lambda r: _macw(r, 107) / _macw(r, 430), ">", 1.0),
        Check("macw430_over_largest_plt",
              lambda r: _macw(r, 430) / _macw(r, max(dict(r.candidates))), ">=", 0.95))),
    "fig03a_cubic_state_machine": Claim("Fig. 3a", "inferred QUIC Cubic state machine", _states(
        _CUBIC_STATES, ("Init", ("SlowStart",)),
        ("SlowStart", ("CongestionAvoidance", "Recovery")))),
    "fig03b_bbr_state_machine": Claim("Fig. 3b", "inferred BBR state machine", _states(
        {"Startup", "Drain", "ProbeBW"}, ("Startup", ("Drain",)), ("Drain", ("ProbeBW",)))),
    "tab04_fairness": Claim("Table 4 / Fig. 4", "QUIC takes far more than its fair share", (
        Check("quic_vs_quic_min_mbps", lambda t: min(_fair(t, "QUIC vs QUIC")[0].values()),
              ">", 1.25),
        Check("quic_vs_quic_balance", lambda t: min(
            f := _fair(t, "QUIC vs QUIC")[0].values()) / max(f), ">", 0.6),
        Check("quic_over_tcp_mbps",
              lambda t: (f := _fair(t, "QUIC vs TCP")[0])["quic"] / f["tcp"], ">", 1.3),
        Check("quic_share_vs_tcpx2", lambda t: _fair(t, "QUIC vs TCPx2")[1], ">", 0.5),
        # The paper measures >50% here too; our TCP recovers a little better at
        # tiny windows, so QUIC holds ~40% — double its 20% fair share (a
        # deviation documented in EXPERIMENTS.md).
        Check("quic_share_vs_tcpx4", lambda t: _fair(t, "QUIC vs TCPx4")[1], ">", 0.35))),
    "fig05_cwnd_timeline": Claim("Fig. 5", "QUIC sustains the larger cwnd when competing", (
        Check("quic_over_tcp_steady_cwnd", lambda r: mean(c for t, c in r[0] if t > 5.0)
              / mean(c for t, c in r[1] if t > 5.0), ">", 1.0),)),
    "fig06a_plt_sizes": Claim("Fig. 6a", "QUIC wins across rates and object sizes", (
        _favours(0.85),
        Check("significant_fraction", lambda h: len(h.significant_cells()) / len(h.cells),
              ">=", 0.6),
        Check("mean_gain_pct", lambda h: h.mean_pct_diff(), ">", 10.0),
        Check("small_minus_large_gain_pct", _small_minus_large, ">", 0.0))),
    "fig06b_plt_counts": Claim("Fig. 6b", "many small objects collapse QUIC's edge",
                               (_many_small_gap(5.0),)),
    "fig07_zero_rtt": Claim("Fig. 7", "0-RTT gain fades with object size", (
        Check("small_object_gain_pct",
              lambda h: min(map(_white0, _cells(h, col=h.col_labels[0]))), ">", 15.0),
        Check("large_object_gain_pct",
              lambda h: max(c.pct_diff for c in _cells(h, col=h.col_labels[-1])), "<", 5.0),
        Check("min_row_small_minus_large_pct",
              lambda h: min(_small_minus_large(h, row) for row in h.row_labels), ">", 0.0))),
    "fig08a_sizes_loss1pct": Claim("Fig. 8a", "QUIC wins under 1% loss", (
        _favours(0.8), Check("mean_gain_pct", lambda h: h.mean_pct_diff(), ">", 25.0))),
    "fig08b_sizes_delay50ms": Claim("Fig. 8b", "QUIC wins under +50 ms delay", (_favours(0.8),)),
    "fig08c_sizes_delay100ms": Claim("Fig. 8c", "QUIC wins under +100 ms delay", (_favours(0.8),)),
    "fig08d_counts_loss1pct": Claim("Fig. 8d", "count grid under loss", (
        Check("mean_gain_pct", lambda h: h.mean_pct_diff(), ">", 10.0),)),
    "fig08e_counts_delay50ms": Claim("Fig. 8e", "count grid under +50 ms",
                                     (_many_small_gap(0.0),)),
    "fig08f_counts_delay100ms": Claim("Fig. 8f", "count grid under +100 ms",
                                      (_many_small_gap(0.0),)),
    "fig09_cwnd_loss": Claim("Fig. 9", "QUIC's larger window under 1% loss", (
        Check("quic_over_tcp_cwnd", lambda r: mean(c for _, c in r[0].cwnd_series)
              / mean(c for _, c in r[1].cwnd_series), ">", 1.0),
        Check("tcp_over_quic_elapsed", lambda r: r[1].elapsed / r[0].elapsed, ">", 1.0))),
    "fig10_reordering": Claim("Fig. 10", "NACK threshold vs reordering", (
        Check("default_over_tcp_elapsed",
              lambda r: _nack(r)[0].elapsed / r["TCP (DSACK)"].elapsed, ">", 1.5),
        Check("default_false_losses", lambda r: _nack(r)[0].false_losses, ">", 100),
        Check("largest_over_default_elapsed",
              lambda r: _nack(r)[-1].elapsed / _nack(r)[0].elapsed, "<", 0.5),
        Check("largest_over_default_false_losses",
              lambda r: _nack(r)[-1].false_losses / _nack(r)[0].false_losses, "<", 1 / 3),
        Check("adaptive_over_default_elapsed",
              lambda r: r["QUIC adaptive"].elapsed / _nack(r)[0].elapsed, "<", 1.0),
        Check("time_based_over_default_elapsed",
              lambda r: r["QUIC time-based"].elapsed / _nack(r)[0].elapsed, "<", 1.0))),
    "fig11_variable_bw": Claim("Fig. 11", "QUIC tracks fluctuating bandwidth", (
        Check("quic_over_tcp_tput", lambda r: mean(r["quic"]) / mean(r["tcp"]), ">", 1.10),)),
    "fig12_mobile": Claim("Fig. 12", "mobile devices erode QUIC's gains", (
        Check("desktop_minus_nexus6_gain_pct",
              lambda d: d["desktop"].mean_pct_diff() - d["nexus6"].mean_pct_diff(), ">", 0.0),
        Check("nexus6_minus_motog_gain_pct",
              lambda d: d["nexus6"].mean_pct_diff() - d["motog"].mean_pct_diff(), ">=", -1.0),
        Check("desktop_minus_motog_gain_pct",
              lambda d: d["desktop"].mean_pct_diff() - d["motog"].mean_pct_diff(), ">", 10.0),
        Check("motog_50mbps_10mb_quic_wins", lambda d: (c := d["motog"].cells[
            ("50Mbps+0ms+0%loss", "1x10000KB")]).significant() and c.pct_diff > 0, "==", False))),
    "fig13_state_dwell": Claim("Fig. 13", "ApplicationLimited dwell on phones", (
        Check("desktop_app_limited", lambda r: _dwell(r[0]), "<", 0.15),
        Check("motog_app_limited", lambda r: _dwell(r[1]), ">", 0.40),
        Check("dominant_shift", lambda r: r[2].dominant_shift()[0], "in",
              ("ApplicationLimited", "CongestionAvoidance")),
        Check("motog_over_desktop_plt", lambda r: r[1].plt / r[0].plt, ">", 1.2))),
    "fig14_cellular": Claim("Fig. 14 / Table 5", "emulated cellular networks", (
        Check("lte_min_10kb_gain_pct",
              lambda h: min(h.cells[(n, "1x10KB")].pct_diff for n in _LTE), ">", 10.0),
        Check("lte_minus_3g_1mb_gain_pct",
              lambda h: mean(h.cells[(n, "1x1000KB")].pct_diff for n in _LTE)
              - mean(h.cells[(n, "1x1000KB")].pct_diff for n in _3G), ">", 0.0))),
    "fig15_macw": Claim("Fig. 15", "MACW 2000 vs 430", (
        Check("v37_macw430_vs_v34_delta", lambda r: mean(r[1]), "<", 0.05),
        Check("macw2000_gain_100mbps_30mb_pct",
              lambda r: r[0].cells[("100Mbps", "1x30000KB")].pct_diff, ">", 5.0))),
    "tab06_video_qoe": Claim("Table 6", "video QoE per quality", (
        Check("low_quality_max_buffer_pct", lambda r: max(
            _qoe(r, q, "buffer_play_ratio_pct", p) for q in ("tiny", "medium", "hd720")
            for p in ("quic", "tcp")), "<", 15.0),
        Check("tiny_loaded_gap_pct", lambda r: abs(_qoe(r, "tiny", "video_loaded_pct")
                                                   - _qoe(r, "tiny", "video_loaded_pct", "tcp")),
              "<", 3.0),
        Check("hd2160_loaded_quic_over_tcp",
              lambda r: _qoe_ratio(r, "hd2160", "video_loaded_pct"), ">", 1.3),
        Check("hd2160_buffer_quic_over_tcp",
              lambda r: _qoe_ratio(r, "hd2160", "buffer_play_ratio_pct"), "<", 1.0))),
    "fig17_tcp_proxy": Claim("Fig. 17", "QUIC vs proxied TCP", (
        Check("high_delay_10kb_gain_pct",
              lambda g: g["proxied"].cells[("delay+100ms", "1x10KB")].pct_diff, ">", 0.0),
        Check("base_200kb_gain_pct",
              lambda g: g["proxied"].cells[("base-36ms", "1x200KB")].pct_diff, "<", 20.0),
        Check("lossy_max_gain_pct",
              lambda g: max(map(_white0, _cells(g["proxied"], row="loss-1pct"))), "<", 25.0),
        # QUIC's gain over direct TCP minus its gain over proxied TCP, +100 ms
        # row: positive when the split proxy speeds TCP up.
        Check("high_delay_proxy_gap_closed_pct",
              lambda g: _gain(g["direct"], "delay+100ms") - _gain(g["proxied"], "delay+100ms"),
              ">", 0.0))),
    "fig18_quic_proxy": Claim("Fig. 18", "QUIC direct vs proxied", (
        Check("min_10kb_direct_gain_pct",
              lambda h: min(c.pct_diff for c in _cells(h, col="1x10KB")), ">", 0.0),
        Check("lossy_10mb_direct_gain_pct",
              lambda h: h.cells[("loss-1pct", "1x10000KB")].pct_diff, "<", 5.0))),
    "sec54_versions": Claim("Sec. 5.4", "version-stable performance", (
        Check("fixed_config_spread", lambda r: (max(
            p := [mean(r[v]) for v in _FIXED_CONFIG if v in r]) - min(p)) / min(p), "<", 0.01),
        Check("v37_vs_v34_delta",
              lambda r: abs(mean(r[37]) - mean(r[34])) / mean(r[34]), "<", 0.05))),
    "sec54_fsm_stability": Claim("Sec. 5.4", "version-stable state machines", (
        Check("diverged_versions",
              lambda diffs: sorted(v for v, d in diffs.items() if not d.is_empty), "==", []),)),
}
