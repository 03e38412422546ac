"""End-to-end and per-layer benchmark of the points-to analysis.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see ``perfbench/run.py``
for the workloads and ``perfbench/layers.json`` for which layer metric
should move which end-to-end metric.
"""
