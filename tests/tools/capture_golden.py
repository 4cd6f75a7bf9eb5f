"""Regenerate the kernel bit-identity fixture.

Runs every registered platform on a small pinned-seed workload and
records the sha256 of each canonical serialized ``RunResult`` payload.
``tests/test_kernel_bit_identity.py`` asserts the current kernel still
produces byte-identical payloads, so any event-ordering change in
``repro.sim.kernel`` (or allocation tweak that leaks into results) fails
loudly.

Run from the repo root after an *intentional* semantic change only:

    PYTHONPATH=src python tests/tools/capture_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.orchestrate import CELL_DOC
from repro.orchestrate.cache import json_default
from repro.platforms import PLATFORMS, PreparedWorkload, run_platform
from repro.workloads import workload_by_name

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "golden_runresult_sha256.json"

# Small but exercises every code path: secondary sections, feature
# fetches, hop barriers, and the streaming routers.
GOLDEN_PARAMS = dict(
    batch_size=8,
    num_batches=2,
    num_hops=2,
    fanout=2,
    seed=0,
    scaled_nodes=256,
)
GOLDEN_WORKLOAD = "ogbn"


def payload_digest(platform: str, prepared: PreparedWorkload) -> str:
    result = run_platform(platform, prepared, **GOLDEN_PARAMS)
    payload = CELL_DOC.to_payload(result)
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=json_default
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def compute_digests() -> dict:
    spec = workload_by_name(GOLDEN_WORKLOAD).scaled(GOLDEN_PARAMS["scaled_nodes"])
    prepared = PreparedWorkload.prepare(spec)
    return {name: payload_digest(name, prepared) for name in sorted(PLATFORMS)}


def main() -> int:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    digests = compute_digests()
    FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    for name, digest in digests.items():
        print(f"  {name:10s} {digest[:16]}…")
    return 0


if __name__ == "__main__":
    sys.exit(main())
