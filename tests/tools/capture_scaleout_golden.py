"""Regenerate the scale-out sharding bit-identity fixture.

Runs the sharded N-SSD array model on a small pinned-seed workload and
records the sha256 of each canonical serialized ``ScaleOutResult``
payload. ``tests/test_scaleout_sharding.py`` asserts the current model
still produces byte-identical payloads — any drift in the hash
partition, shard seed derivation, sampling traces, or exchange
accounting fails loudly, and the same digests pin ``jobs=N`` to
``jobs=1``.

Run from the repo root after an *intentional* semantic change only:

    PYTHONPATH=src python tests/tools/capture_scaleout_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.orchestrate.cache import json_default
from repro.platforms import PreparedWorkload
from repro.platforms.scaleout import SCALEOUT_DOC, run_scaleout
from repro.workloads import workload_by_name

FIXTURE = (
    Path(__file__).resolve().parent.parent / "data" / "golden_scaleout_sha256.json"
)

GOLDEN_WORKLOAD = "ogbn"
GOLDEN_NODES = 256
GOLDEN_PLATFORM = "bg2"
# batch 8 on 3 devices exercises the non-divisible shard remainder
GOLDEN_PARAMS = dict(
    batch_size=8,
    num_batches=2,
    num_hops=2,
    fanout=2,
    seed=0,
)
GOLDEN_DEVICES = (1, 3)


def golden_prepared() -> PreparedWorkload:
    spec = workload_by_name(GOLDEN_WORKLOAD).scaled(GOLDEN_NODES)
    return PreparedWorkload.prepare(spec)


def scaleout_digest(
    num_devices: int, prepared: PreparedWorkload, *, jobs: int = 1, **overrides
) -> str:
    params = {**GOLDEN_PARAMS, **overrides}
    result = run_scaleout(
        num_devices, GOLDEN_PLATFORM, prepared, jobs=jobs, **params
    )
    payload = SCALEOUT_DOC.to_payload(result)
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=json_default
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def compute_digests() -> dict:
    prepared = golden_prepared()
    return {
        str(devices): scaleout_digest(devices, prepared)
        for devices in GOLDEN_DEVICES
    }


def main() -> int:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    digests = compute_digests()
    FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    for name, digest in digests.items():
        print(f"  {name:>2s} devices  {digest[:16]}…")
    return 0


if __name__ == "__main__":
    sys.exit(main())
