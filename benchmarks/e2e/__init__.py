"""One end-to-end benchmark with a layer budget (see README.md here).

Six named workloads drive the public API of ``repro`` from outside —
cold process to rendered report — and report six end-to-end metrics
plus, from a separate traced run, per-layer numbers whose self-times sum
to the traced wall.  ``BENCHMARK.json`` at the repo root declares the
names, units and bounds; this package emits exactly those names.

Entry points::

    PYTHONPATH=src python -m benchmarks.e2e run [--seed N] [--workload NAME]
                                                [--repeats K] [--trace]
    PYTHONPATH=src python -m benchmarks.e2e compare A.json B.json
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
"""
