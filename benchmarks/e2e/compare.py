"""``compare A.json B.json``: apply the declared bounds, row by row.

``A`` is the parent (baseline) result, ``B`` the change.  One row per
(metric, workload); a combined score is never printed.  Exit codes:
0 = no row regressed, 1 = at least one did, 2 = a file is malformed or
the two runs are not of the same workloads at the same sizes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

OK, REGRESSED, UNRESOLVED = "ok", "regressed", "unresolved"


class Mismatch(ValueError):
    """The two files cannot be compared."""


def _load(path: Path) -> Dict[str, Any]:
    try:
        payload = json.loads(path.read_text())
        if payload["benchmark"] != "e2e" or not payload["workloads"]:
            raise KeyError("benchmark")
        return payload
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise Mismatch(f"{path}: not an e2e result file ({exc!r})") from exc


def judge(parent: Dict[str, Any], change: Dict[str, Any], better: str,
          bound: float) -> Tuple[str, float]:
    """Verdict and the relative worsening of the median (+ = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (change["median"] - parent["median"]) / parent["median"]
    too_wide = any((side["max"] - side["min"]) / side["median"] > bound
                   for side in (parent, change))
    overlap = (change["min"] <= parent["max"]
               and parent["min"] <= change["max"])
    if too_wide and overlap:
        return UNRESOLVED, worse
    return (REGRESSED if worse > bound else OK), worse


def compare(parent_path: Path, change_path: Path, spec: Dict[str, Any]
            ) -> Tuple[int, List[str]]:
    """Exit code and the printed rows."""
    try:
        parent, change = _load(parent_path), _load(change_path)
        names = sorted(parent["workloads"])
        if names != sorted(change["workloads"]):
            raise Mismatch("the two files hold different workloads: "
                           f"{names} vs {sorted(change['workloads'])}")
        for name in names:
            sizes = (parent["workloads"][name]["cells"],
                     change["workloads"][name]["cells"])
            if sizes[0] != sizes[1]:
                raise Mismatch(f"{name}: {sizes[0]} cells vs {sizes[1]}; "
                               "results at different sizes do not compare")
    except Mismatch as exc:
        return 2, [f"error: {exc}"]
    rows = [f"{'workload':<14}{'metric':<14}{'parent':>12}{'change':>12}"
            f"{'worse by':>10}{'bound':>8}  verdict"]
    regressed = False
    for name in names:
        before, after = parent["workloads"][name], change["workloads"][name]
        for metric in spec["end_to_end"]:
            verdict, worse = judge(before["metrics"][metric["name"]],
                                   after["metrics"][metric["name"]],
                                   metric["better"], metric["bound"])
            regressed |= verdict == REGRESSED
            rows.append(
                f"{name:<14}{metric['name']:<14}"
                f"{before['metrics'][metric['name']]['median']:>12.4f}"
                f"{after['metrics'][metric['name']]['median']:>12.4f}"
                f"{worse:>+10.1%}{metric['bound']:>8.0%}  {verdict}")
        # Any rise in the share of failed operations fails, whatever the size.
        rose = after["failed_share"] > before["failed_share"]
        regressed |= rose
        rows.append(f"{name:<14}{'failed_share':<14}"
                    f"{before['failed_share']:>12.4f}"
                    f"{after['failed_share']:>12.4f}{'':>10}{'0%':>8}  "
                    f"{REGRESSED if rose else OK}")
        for key in ("outcome_digest", *sorted(before.get("exact", {}))):
            was, now = _exact(before, key), _exact(after, key)
            if now is not None and now != was:
                rows.append(f"{name:<14}{key}: {was} -> {now}  changed "
                            f"(simulated results differ; reported, not "
                            f"failed)")
    rows.append("regression" if regressed else "no regression")
    return (1 if regressed else 0), rows


def _exact(measured: Dict[str, Any], key: str) -> Any:
    if key == "outcome_digest":
        return measured["outcome_digest"]
    return measured.get("exact", {}).get(key)
