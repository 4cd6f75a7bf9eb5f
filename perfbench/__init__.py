"""End-to-end benchmark of the simulator, timed from outside the package.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; see ``perfbench/README.md``.
"""
