"""The repository benchmark: cold compiles, served compiles and simulation.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; see ``perfbench/README.md`` for the workloads, the
metrics and how each per-layer number relates to the end-to-end ones.
"""
