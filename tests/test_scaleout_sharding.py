"""Sharded scale-out arrays: differential and property tests.

The sharded array model promises a determinism contract — ``jobs=N`` is
bit-identical to ``jobs=1``, repeated runs are bit-identical to each
other, and both match the golden digests captured at introduction time
(``tests/data/golden_scaleout_sha256.json``, regenerated only via
``tests/tools/capture_scaleout_golden.py``). On top of the differential
layer, property tests pin the exchange's conservation laws: the hash
partition covers every node exactly once, per-link sends equal per-shard
remote samples, a single device never pays P2P time, the analytic path
is monotone in ``cross_partition_fraction``, and the measured and
analytic paths agree when the fraction is set to the measured ratio.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tools.capture_scaleout_golden import (  # noqa: E402
    FIXTURE,
    GOLDEN_DEVICES,
    GOLDEN_PARAMS,
    GOLDEN_PLATFORM,
    golden_prepared,
    scaleout_digest,
)

from repro.gnn.sampling import tree_capacity  # noqa: E402
from repro.platforms.scaleout import (  # noqa: E402
    SCALEOUT_DOC,
    partition_nodes,
    run_scaleout,
    shard_batch_sizes,
    shard_of,
)


@pytest.fixture(scope="module")
def prepared():
    return golden_prepared()


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def sharded(prepared):
    """One canonical 3-device measured-mode run shared across tests."""
    return run_scaleout(3, GOLDEN_PLATFORM, prepared, **GOLDEN_PARAMS)


# -- differential layer -------------------------------------------------------


def test_fixture_covers_golden_devices(golden):
    assert sorted(golden) == sorted(str(d) for d in GOLDEN_DEVICES)


@pytest.mark.parametrize("devices", GOLDEN_DEVICES)
def test_golden_digest(devices, prepared, golden):
    assert scaleout_digest(devices, prepared) == golden[str(devices)], (
        f"{devices}-device ScaleOutResult payload diverged from the golden "
        "fixture — the hash partition, shard seeds, traces, or exchange "
        "accounting changed"
    )


@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_bit_identical_to_serial(jobs, prepared, golden):
    # devices=3 exercises the non-divisible remainder across workers
    assert scaleout_digest(3, prepared, jobs=jobs) == golden["3"], (
        f"jobs={jobs} produced a different ScaleOutResult than jobs=1"
    )


def test_repeated_runs_bit_identical(prepared):
    first = scaleout_digest(3, prepared)
    second = scaleout_digest(3, prepared)
    assert first == second


def test_payload_round_trip_lossless(sharded):
    payload = SCALEOUT_DOC.to_payload(sharded)
    restored = SCALEOUT_DOC.from_payload(payload)
    assert restored.to_dict() == sharded.to_dict()
    # the per-shard sampling traces (packed int32 arrays) survive the trip
    for r, s in zip(restored.per_device, sharded.per_device):
        assert len(r.sample_trace) == len(s.sample_trace)
        for rb, sb in zip(r.sample_trace, s.sample_trace):
            assert np.array_equal(rb, sb)


# -- hash partition -----------------------------------------------------------


@pytest.mark.parametrize("devices", [1, 2, 3, 8])
def test_partition_covers_every_node_exactly_once(devices):
    owner = partition_nodes(256, devices, seed=0)
    assert len(owner) == 256  # one owner per node, no gaps or repeats
    assert all(0 <= device < devices for device in owner)
    if devices > 1:
        assert len(set(owner)) == devices  # every device owns something
    # the map is the pure per-node hash, independent of enumeration
    assert owner[17] == shard_of(17, devices, seed=0)


def test_partition_depends_on_seed():
    assert not np.array_equal(
        partition_nodes(256, 4, seed=0), partition_nodes(256, 4, seed=1)
    )


def test_partition_is_packed_int32():
    owner = partition_nodes(256, 4, seed=0)
    assert isinstance(owner, np.ndarray)
    assert owner.dtype == np.int32


@pytest.mark.parametrize(
    "batch,devices,expected",
    [(64, 3, [22, 21, 21]), (64, 4, [16, 16, 16, 16]), (8, 3, [3, 3, 2]), (5, 5, [1] * 5)],
)
def test_shard_batch_sizes(batch, devices, expected):
    sizes = shard_batch_sizes(batch, devices)
    assert sizes == expected
    assert sum(sizes) == batch
    assert max(sizes) - min(sizes) <= 1


# -- target accounting (the old model overcounted) ----------------------------


def test_total_targets_exact_for_non_divisible_batch(sharded):
    # batch 8 on 3 devices: the old model served ceil(8/3)*3 = 9 targets
    # per batch; the sharded model serves exactly the array batch
    assert sharded.shard_batch_sizes == [3, 3, 2]
    assert sharded.total_targets == (
        GOLDEN_PARAMS["batch_size"] * GOLDEN_PARAMS["num_batches"]
    )
    assert sharded.throughput_targets_per_sec == pytest.approx(
        sharded.total_targets / sharded.total_seconds
    )


# -- exchange properties ------------------------------------------------------


def test_remote_vectors_conserved(sharded):
    # every vector sent over some link is a remote sample of exactly one shard
    assert sum(sum(row) for row in sharded.link_vectors) == sum(
        sharded.remote_samples
    )
    for device, remote in enumerate(sharded.remote_samples):
        inbound = sum(row[device] for row in sharded.link_vectors)
        assert inbound == remote
        assert sharded.link_vectors[device][device] == 0  # no self-links


def test_remote_accounting_matches_traces(sharded):
    """Differential re-derivation: traces + ownership => the link matrix."""
    owner = partition_nodes(256, sharded.num_devices, GOLDEN_PARAMS["seed"])
    remote = [0] * sharded.num_devices
    for device, result in enumerate(sharded.per_device):
        assert result.sample_trace is not None
        for batch in result.sample_trace:
            for _target, _position, node, depth in batch:
                if depth > 0 and owner[node] != device:
                    remote[device] += 1
    assert remote == sharded.remote_samples
    assert sharded.measured_remote_fraction > 0.0


def test_single_device_zero_p2p(prepared):
    one = run_scaleout(1, GOLDEN_PLATFORM, prepared, **GOLDEN_PARAMS)
    assert one.p2p_seconds_per_batch == 0.0
    assert one.total_remote_vectors == 0
    assert one.measured_remote_fraction == 0.0
    assert one.batch_seconds * one.num_devices > 0


def test_batch_seconds_monotone_in_fraction(prepared):
    fractions = [0.0, 0.2, 0.5, 1.0]
    arrays = [
        run_scaleout(
            3,
            GOLDEN_PLATFORM,
            prepared,
            cross_partition_fraction=fraction,
            **GOLDEN_PARAMS,
        )
        for fraction in fractions
    ]
    seconds = [array.batch_seconds for array in arrays]
    assert seconds == sorted(seconds)
    assert seconds[-1] > seconds[0]


def test_measured_agrees_with_analytic_at_measured_ratio(prepared, sharded):
    """The analytic path reproduces the measured drain when fed its ratio."""
    analytic = run_scaleout(
        3,
        GOLDEN_PLATFORM,
        prepared,
        cross_partition_fraction=sharded.measured_remote_fraction,
        **GOLDEN_PARAMS,
    )
    # sanity: the measured ratio really is remote / candidate positions
    positions = tree_capacity(
        (GOLDEN_PARAMS["fanout"],) * GOLDEN_PARAMS["num_hops"]
    )
    candidates = (
        GOLDEN_PARAMS["batch_size"] * positions * GOLDEN_PARAMS["num_batches"]
    )
    assert sharded.measured_remote_fraction == pytest.approx(
        sharded.total_remote_vectors / candidates
    )
    assert analytic.p2p_seconds_per_batch == pytest.approx(
        sharded.p2p_seconds_per_batch
    )
    assert analytic.batch_seconds == pytest.approx(sharded.batch_seconds)


def test_validation():
    prepared = golden_prepared()
    with pytest.raises(ValueError):
        run_scaleout(0, GOLDEN_PLATFORM, prepared)
    with pytest.raises(ValueError):
        run_scaleout(3, GOLDEN_PLATFORM, prepared, batch_size=2)
    with pytest.raises(ValueError):
        run_scaleout(2, GOLDEN_PLATFORM, prepared, cross_partition_fraction=1.5)
