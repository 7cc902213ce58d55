"""Benchmark-harness helpers.

Every ``benchmarks/test_*.py`` module regenerates one table or figure of
the paper.  Conventions:

* Each bench runs its experiment once through ``benchmark.pedantic``
  (the interesting output is the reproduced table, not the wall time,
  but pytest-benchmark still records how long the reproduction takes).
* :func:`save_judged` judges the result by :data:`repro.core.claims.CLAIMS`,
  saves the table under ``benchmarks/results/`` ending in the verdict line
  (``reproduced: yes|partial|no (...) [runs=N full=yes|no]``), then asserts
  that every check was judged and held.
* ``REPRO_BENCH_RUNS`` (default 5, at least 2: Welch's t-test needs two
  samples per side) controls measurement rounds per cell; the paper
  uses >= 10 — set it to 10+ for publication-grade output.  ``runs=N`` in
  the verdict line is this budget; some figures take fewer or fixed
  samples (docs/REPRODUCING.md §8 lists them).
* ``REPRO_FULL=1`` switches the large experiments (e.g. Fig. 11's 210 MB
  object) to full paper scale.
"""

from __future__ import annotations

import os
from pathlib import Path
from repro.core.claims import judge

RESULTS_DIR = Path(__file__).parent / "results"


def bench_runs(default: int = 5) -> int:
    """Measurement rounds per cell (paper: at least 10)."""
    raw = os.environ.get("REPRO_BENCH_RUNS", str(default))
    if not raw.strip().isdigit() or int(raw) < 2:
        raise ValueError(f"REPRO_BENCH_RUNS must be an integer >= 2 (a "
                         f"t-test needs two samples per side), got {raw!r}")
    return int(raw)


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "") not in ("", "0")


def save_result(name: str, text: str) -> None:
    """Print a reproduced table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


def save_judged(name: str, text: str, result) -> None:
    """Judge ``result`` by ``CLAIMS[name]``, save ``text`` ending in the
    verdict line, and only then assert the verdict."""
    verdict = judge(name, result)
    save_result(name, f"{text}\n{verdict.render()} [runs={bench_runs()} "
                      f"full={'yes' if full_scale() else 'no'}]")
    assert verdict.complete, verdict.render()


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
