"""Regenerate the same-timestamp ordering fixture of contended cells.

Three ``bg_dgsp`` cells whose firmware cores are contended at equal
timestamps: the order in which waiters are granted a core at the same
instant decides their ``total_seconds``. A model that computes a
critical section's end instead of simulating it moves these cells
unless it delivers every hold in the order the kernel would have. The
digests are those of the canonical serialized ``RunResult`` payload,
as in ``capture_golden.py``; ``tests/test_same_timestamp_order.py``
asserts the current code still produces them.

Run from the repo root after an *intentional* semantic change only:

    PYTHONPATH=src python tests/tools/capture_contended_cores.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.orchestrate import CELL_DOC
from repro.orchestrate.cache import json_default
from repro.platforms import PreparedWorkload, run_platform
from repro.workloads import workload_by_name

FIXTURE = (
    Path(__file__).resolve().parent.parent / "data" / "contended_cores_sha256.json"
)

PLATFORM = "bg_dgsp"
PARAMS = dict(batch_size=4, num_batches=1, scaled_nodes=2048)
# (workload, seed): the cells where same-timestamp core grants decide
# the result
CELLS = (("movielens", 0), ("amazon", 3), ("ogbn", 1))


def cell_name(workload: str, seed: int) -> str:
    return f"{PLATFORM}/{workload}/seed{seed}"


def payload_digest(workload: str, seed: int) -> str:
    spec = workload_by_name(workload).scaled(PARAMS["scaled_nodes"])
    result = run_platform(
        PLATFORM, PreparedWorkload.prepare(spec), seed=seed, **PARAMS
    )
    payload = CELL_DOC.to_payload(result)
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=json_default
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def compute_digests() -> dict:
    return {
        cell_name(workload, seed): payload_digest(workload, seed)
        for workload, seed in CELLS
    }


def main() -> int:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    digests = compute_digests()
    FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    for name, digest in digests.items():
        print(f"  {name:28s} {digest[:16]}…")
    return 0


if __name__ == "__main__":
    sys.exit(main())
