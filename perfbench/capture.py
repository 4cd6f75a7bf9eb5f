#!/usr/bin/env python3
"""Pin the reference digests the benchmark's output check compares with.

    python3 perfbench/capture.py --profile full --jobs 2

Run from the root of a checkout, on the commit whose simulated outputs
are the reference. Every workload on each of the profile's pinned
inputs (``outputs.PINNED_INPUTS``) runs in a worker process through the
same workload code the benchmark times: set-up, the cold pass, then one
warm render that must project identically. The digests of each
operation, and each workload's simulated headline, are written to
``perfbench/references.json``, replacing only the captured profile.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import outputs  # noqa: E402
from perfbench.metrics import WORKLOADS  # noqa: E402


def capture_one(task):
    """Digests and simulated headline of one workload on one input."""
    from perfbench.workloads import make_workload

    name, profile, index = task
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as scratch:
        workload = make_workload(name, profile, index, Path(scratch))
        workload.setup()
        cold = workload.cold()
        digests = outputs.digests(workload.operations(cold))
        warm = outputs.digests(workload.operations(workload.warm()))
        if warm != digests:
            raise RuntimeError(f"{name} input {index}: warm differs from cold")
        workload.measure_extras(cold)
        return name, index, digests, workload.sim_metrics(cold)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="full", choices=tuple(outputs.PINNED_INPUTS))
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    inputs = outputs.PINNED_INPUTS[args.profile]
    tasks = [(n, args.profile, i) for n in WORKLOADS for i in range(inputs)]
    context = multiprocessing.get_context("spawn")
    with context.Pool(args.jobs) as pool:
        results = pool.map(capture_one, tasks, chunksize=1)

    path = outputs.REFERENCES
    references = json.loads(path.read_text()) if path.exists() else {"profiles": {}}
    profile = {
        "commit": commit,
        "default_input": 0,
        # the last pinned input is kept out of tuning runs
        "held_out_input": inputs - 1,
        "workloads": {},
        "simulated": {},
    }
    for name, index, digests, simulated in results:
        profile["workloads"].setdefault(name, {})[str(index)] = digests
        profile["simulated"].setdefault(name, {})[str(index)] = simulated
        print(f"{name} input {index}: {len(digests)} operations, {simulated}")
    references["profiles"][args.profile] = profile
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
