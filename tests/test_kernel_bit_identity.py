"""Kernel bit-identity: every platform's RunResult is byte-stable.

The hot-path kernel (fast lane, direct-callable entries, object
recycling) promises *bit-identical* simulations to the original
single-heap kernel. This test pins that promise: each registered
platform's canonical serialized ``RunResult`` must hash to the digest
captured from the original kernel (``tests/data/golden_runresult_sha256``
``.json``, regenerated only via ``tests/tools/capture_golden.py`` after
an intentional semantic change).
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tools.capture_golden import (  # noqa: E402
    FIXTURE,
    GOLDEN_PARAMS,
    GOLDEN_WORKLOAD,
    payload_digest,
)

from repro.platforms import PLATFORMS, PlatformRun, PreparedWorkload  # noqa: E402
from repro.workloads import workload_by_name  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def prepared():
    spec = workload_by_name(GOLDEN_WORKLOAD).scaled(GOLDEN_PARAMS["scaled_nodes"])
    return PreparedWorkload.prepare(spec)


def test_fixture_covers_every_platform(golden):
    assert sorted(golden) == sorted(PLATFORMS)


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_payload_bit_identical_to_seed_kernel(platform, prepared, golden):
    assert payload_digest(platform, prepared) == golden[platform], (
        f"{platform}: RunResult payload diverged from the original kernel — "
        "an event-ordering or accounting change leaked into results"
    )


# Kernel entries each platform's golden cell delivers: a host-side speed-up
# must keep every event, so these change only with the simulated work.
DELIVERED_ENTRIES = {
    "bg1": 2234,
    "bg2": 1480,
    "bg_dg": 1576,
    "bg_dgsp": 1592,
    "bg_sp": 2298,
    "cc": 2688,
    "gids": 2129,
    "glist": 2576,
    "smartsage": 2346,
}
_STEP = 50_000


def delivered_entries(platform, prepared) -> int:
    """Entries ``PlatformRun.step`` delivers until one slice comes back short."""
    run = PlatformRun(platform, prepared, **GOLDEN_PARAMS)
    total = 0
    while True:
        delivered = run.step(_STEP)
        total += delivered
        if delivered < _STEP:
            return total


def test_delivered_entries_cover_every_platform():
    assert sorted(DELIVERED_ENTRIES) == sorted(PLATFORMS)


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_delivered_entry_count_pinned(platform, prepared):
    assert delivered_entries(platform, prepared) == DELIVERED_ENTRIES[platform]
