"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload seq-1080p --seed 1 --seconds 12 --trace 0

Builds the workload's inputs from the seed, times passes of its operation
for the given seconds, checks the outputs, and prints the metrics. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the benchmark measures one core's work.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "areatrack" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import areatrack

    if Path(areatrack.__file__).resolve().parent != (src / "areatrack").resolve():
        sys.exit(f"perfbench: imported areatrack from {areatrack.__file__}, not {src}")
    import harness

    return harness.main(ROOT)


if __name__ == "__main__":
    sys.exit(main())
