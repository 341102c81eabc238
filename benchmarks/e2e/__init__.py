"""The repo benchmark: four workloads, end to end and layer by layer.

Run from the repo root (the command in ``BENCHMARK.json``)::

    python3 -m benchmarks.e2e --workload paper16 --seed 0 --seconds 20 \
        --trace 0

``README.md`` in this directory explains the workloads, the metrics and
how to compare two sets of runs.  Nothing here is imported by the
simulator; layers are measured from outside.
"""

import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")
# Scratch space lives in the checkout: the benchmark may not write
# anywhere else (never /tmp, never ~/.cache/repro).
TMP_PARENT = os.path.join(REPO_ROOT, ".bench_tmp")
