"""Same-timestamp grant order on contended firmware cores is pinned.

Each of these ``bg_dgsp`` cells has firmware-core waiters that are
granted at the same simulated instant, so the order of delivery decides
``total_seconds``. The payload digests were captured from the simulated
(acquire, timeout, release) critical sections
(``tests/tools/capture_contended_cores.py``); a faster model of those
sections must reproduce them, delivery order included.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tools.capture_contended_cores import (  # noqa: E402
    CELLS,
    FIXTURE,
    cell_name,
    payload_digest,
)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(pinned):
    assert sorted(pinned) == sorted(cell_name(w, s) for w, s in CELLS)


@pytest.mark.parametrize("workload,seed", CELLS)
def test_contended_cell_payload_is_pinned(workload, seed, pinned):
    assert payload_digest(workload, seed) == pinned[cell_name(workload, seed)], (
        f"bg_dgsp/{workload} seed {seed}: payload moved — same-timestamp "
        "core grants were delivered in a different order"
    )
