"""The builder contract's entry point: ``python3 benchmarks/e2e/run.py
--workload NAME --seed N --seconds S --trace 0|1`` from the checkout's
root.  Everything else is ``python -m benchmarks.e2e`` (see README.md)."""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.e2e.cli import main

    raise SystemExit(main(["contract", *sys.argv[1:]]))
