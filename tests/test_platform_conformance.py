"""Shared invariants every registered platform must satisfy.

Parametrized over :func:`repro.platforms.platform_names` — never a
hard-coded list — so a platform added to the registry (``gids`` was the
first) inherits the whole contract for free:

* runs complete with positive time/throughput and timed batches;
* meters conserve: counters non-negative, busy times inside capacity
  bounds, energy categories summing to the recorded total;
* the serialized payload round-trips byte-identically;
* sample traces pack to canonical int32 arrays, idempotently;
* grid cache keys are stable under re-construction and sensitive to the
  seed;
* back-to-back runs are bit-identical;
* a finished cell holds no reference cycles, so dropping it frees the
  whole run by reference counting;
* the page cache never changes *what* gets sampled (migrated here from
  the hard-coded two-platform loop in ``test_cache_datapath.py``).

The registry's lookup contract (error message, aliases, explicit
orderings) is pinned at the bottom.
"""

import collections
import gc
import hashlib
import json
import sys

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.orchestrate import CELL_DOC, GridCell, adopt_prepared
from repro.orchestrate.batched import execute_batch
from repro.orchestrate.cache import json_default
from repro.orchestrate.grid import cell_cache_key
from repro.platforms import (
    PLATFORMS,
    PlatformRun,
    PreparedWorkload,
    ordered_platforms,
    platform_by_name,
    platform_names,
    run_platform,
)
from repro.platforms.background import BackgroundIoConfig
from repro.platforms.result import pack_trace
from repro.workloads import workload_by_name

PARAMS = dict(batch_size=8, num_batches=2, num_hops=2, fanout=2, seed=0)
WORKLOAD = "ogbn"
NODES = 256


@pytest.fixture(scope="module")
def prepared():
    spec = workload_by_name(WORKLOAD).scaled(NODES)
    return PreparedWorkload.prepare(spec)


@pytest.fixture(scope="module")
def results(prepared):
    return {
        name: run_platform(name, prepared, **PARAMS, sample_trace=True)
        for name in platform_names()
    }


def payload_blob(result) -> bytes:
    return json.dumps(
        CELL_DOC.to_payload(result),
        sort_keys=True,
        separators=(",", ":"),
        default=json_default,
    ).encode()


class TestRunCompletes:
    @pytest.mark.parametrize("name", platform_names())
    def test_run_completes(self, results, name):
        result = results[name]
        assert result.total_seconds > 0
        assert result.throughput_targets_per_sec > 0
        assert len(result.batches) == PARAMS["num_batches"]

    @pytest.mark.parametrize("name", platform_names())
    def test_flash_reads_happen(self, results, name):
        assert results[name].meters.get("flash_reads") > PARAMS["batch_size"]

    @pytest.mark.parametrize("name", platform_names())
    def test_batches_are_timed(self, results, name):
        for batch in results[name].batches:
            assert batch.prep_end > batch.prep_start
            assert batch.compute_end >= batch.compute_start


class TestMeterConservation:
    @pytest.mark.parametrize("name", platform_names())
    def test_meters_non_negative(self, results, name):
        for key, value in results[name].meters.as_dict().items():
            assert value >= 0, (name, key)

    @pytest.mark.parametrize("name", platform_names())
    def test_busy_times_within_capacity(self, results, name):
        result = results[name]
        total = result.total_seconds
        meters = result.meters
        slack = 1e-12
        assert meters.get("pcie_busy_s") <= total + slack
        assert meters.get("dram_busy_s") <= total + slack
        assert (
            meters.get("host_busy_s")
            <= total * meters.get("host_threads") + slack
        )
        assert (
            result.firmware_busy_seconds
            <= total * meters.get("fw_cores") + slack
        )

    @pytest.mark.parametrize("name", platform_names())
    def test_energy_categories_sum_to_total(self, results, name):
        result = results[name]
        total = sum(result.energy_breakdown.values())
        assert total == pytest.approx(
            result.meters.get("energy_total_j"), rel=1e-9
        )
        for category, joules in result.energy_breakdown.items():
            assert joules >= 0, (name, category)

    @pytest.mark.parametrize("name", platform_names())
    def test_sampling_happens_exactly_one_place_per_site(self, results, name):
        """The per-site sampling meters agree with the declared site."""
        platform = PLATFORMS[name]
        meters = results[name].meters
        by_site = {
            "host": meters.get("host_sample_neighbors"),
            "firmware": meters.get("fw_sample_neighbors"),
            "die": meters.get("die_sample_neighbors"),
            "gpu": meters.get("gpu_sample_neighbors"),
        }
        assert by_site[platform.sampling_site] > 0
        for site, count in by_site.items():
            if site != platform.sampling_site:
                assert count == 0, (name, site)


class TestPayloadRoundTrip:
    @pytest.mark.parametrize("name", platform_names())
    def test_payload_preserves_semantics(self, results, name):
        result = results[name]
        restored = CELL_DOC.from_payload(json.loads(payload_blob(result)))
        assert restored.platform == result.platform
        assert restored.workload == result.workload
        assert restored.total_seconds == result.total_seconds
        assert restored.meters.as_dict() == pytest.approx(
            result.meters.as_dict()
        )
        assert restored.energy_breakdown == result.energy_breakdown
        for mine, theirs in zip(restored.sample_trace, result.sample_trace):
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("name", platform_names())
    def test_payload_serialization_reaches_a_fixpoint(self, results, name):
        """Deserializing normalizes integer-typed meters to floats once;
        from then on serialize -> restore -> serialize is byte-stable
        (what the content-addressed result cache relies on)."""
        restored = CELL_DOC.from_payload(json.loads(payload_blob(results[name])))
        blob = payload_blob(restored)
        again = CELL_DOC.from_payload(json.loads(blob))
        assert payload_blob(again) == blob


class TestSampleTracePacking:
    @pytest.mark.parametrize("name", platform_names())
    def test_traces_are_canonical_int32_arrays(self, results, name):
        traces = results[name].sample_trace
        assert len(traces) == PARAMS["num_batches"]
        for trace in traces:
            assert trace.dtype == np.int32
            assert trace.ndim == 2 and trace.shape[1] == 4
            assert trace.shape[0] > 0

    @pytest.mark.parametrize("name", platform_names())
    def test_packing_is_idempotent(self, results, name):
        for trace in results[name].sample_trace:
            repacked = pack_trace([list(row) for row in trace])
            assert np.array_equal(repacked, trace)

    @pytest.mark.parametrize("name", platform_names())
    def test_every_platform_samples_identical_trees(self, results, name):
        """The functional DAG is platform-independent: all nine sample
        the exact same tree positions (the headline equivalence)."""
        reference = results["bg2"].sample_trace
        traces = results[name].sample_trace
        for mine, ref in zip(traces, reference):
            assert np.array_equal(mine, ref)


class TestCacheKeyStability:
    @pytest.mark.parametrize("name", platform_names())
    def test_equal_cells_equal_keys(self, name):
        make = lambda: GridCell(platform=name, workload=WORKLOAD, **PARAMS)
        assert cell_cache_key(make(), seed=0) == cell_cache_key(make(), seed=0)

    @pytest.mark.parametrize("name", platform_names())
    def test_seed_changes_key(self, name):
        cell = GridCell(platform=name, workload=WORKLOAD, **PARAMS)
        assert cell_cache_key(cell, seed=0) != cell_cache_key(cell, seed=1)

    def test_platforms_never_collide(self):
        keys = {
            cell_cache_key(
                GridCell(platform=name, workload=WORKLOAD, **PARAMS), seed=0
            )
            for name in platform_names()
        }
        assert len(keys) == len(platform_names())


class TestRepeatability:
    @pytest.mark.parametrize("name", platform_names())
    def test_back_to_back_runs_are_bit_identical(self, prepared, results, name):
        again = run_platform(name, prepared, **PARAMS, sample_trace=True)
        assert payload_blob(again) == payload_blob(results[name])


GARBAGE_VARIANTS = {
    "default": {},
    "page_cache": {"page_cache": CacheConfig(capacity_mb=0.25)},
    "sample_trace": {"sample_trace": True},
    "background_io_deferred": {
        "background_io": BackgroundIoConfig(rate_per_s=200_000, deferred=True)
    },
    "background_io_direct": {
        "background_io": BackgroundIoConfig(rate_per_s=200_000, deferred=False)
    },
}
GARBAGE_CASES = [(name, "default") for name in platform_names()] + [
    ("bg2", variant) for variant in GARBAGE_VARIANTS if variant != "default"
]


def cyclic_garbage(make_payload):
    """Run ``make_payload`` with the collector off; count what only it frees.

    Returns the payload and, by type name, the objects a full collection
    finds unreachable once everything but the payload is dropped (saved
    for counting, not freed, under ``DEBUG_SAVEALL``). The collector's
    state is restored whatever happens.
    """
    enabled = gc.isenabled()
    debug = gc.get_debug()
    saved = gc.garbage[:]
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    try:
        payload = make_payload()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage[:] = saved
        if enabled:
            gc.enable()
    return payload, left


@pytest.mark.skipif(
    sys.implementation.name != "cpython",
    reason="freeing by reference counting is CPython's behaviour",
)
class TestFinishedCellIsFreedByRefcount:
    """A finished cell holds no reference cycles.

    Otherwise its whole device (128 dies, their resources and trackers),
    engine and kernel stay in memory after the cell is dropped, until a
    full collection walks them.
    """

    @pytest.mark.parametrize("name,variant", GARBAGE_CASES)
    def test_platform_run_leaves_no_cyclic_garbage(self, prepared, name, variant):
        def cell():
            run = PlatformRun(name, prepared, **PARAMS, **GARBAGE_VARIANTS[variant])
            return CELL_DOC.to_payload(run.run())

        payload, left = cyclic_garbage(cell)
        assert payload["result"]["platform"] == name
        assert not left, dict(left)

    @pytest.mark.parametrize("name,variant", GARBAGE_CASES)
    def test_execute_batch_leaves_no_cyclic_garbage(self, prepared, name, variant):
        adopt_prepared(prepared)  # the image comes from the memo, not a build
        cell = GridCell(
            platform=name,
            workload=WORKLOAD,
            scaled_nodes=NODES,
            **PARAMS,
            **GARBAGE_VARIANTS[variant],
        )
        payloads, left = cyclic_garbage(
            lambda: list(execute_batch([(cell, 0, None)]))
        )
        assert payloads[0]["result"]["platform"] == name
        assert not left, dict(left)


class TestCacheInvariance:
    @pytest.mark.parametrize("name", platform_names())
    def test_cache_never_changes_what_gets_sampled(
        self, prepared, results, name
    ):
        """The page cache is a timing optimization: the sampled subgraph
        (and the page contents behind every decision) is identical with
        or without it, on every platform."""
        cached = run_platform(
            name,
            prepared,
            **PARAMS,
            sample_trace=True,
            page_cache=CacheConfig(capacity_mb=0.5),
        )
        uncached = results[name]
        assert len(uncached.sample_trace) == len(cached.sample_trace)
        for a, b in zip(uncached.sample_trace, cached.sample_trace):
            assert np.array_equal(a, b)


class TestRegistryContract:
    def test_platform_names_matches_registry(self):
        assert platform_names() == list(PLATFORMS)

    def test_unknown_name_lists_available_platforms(self):
        with pytest.raises(KeyError) as excinfo:
            platform_by_name("nonexistent")
        message = str(excinfo.value)
        for name in platform_names():
            assert name in message
        assert "bam" in message  # aliases are part of the suggestion

    @pytest.mark.parametrize("name", platform_names())
    def test_every_name_resolves_to_itself(self, name):
        assert platform_by_name(name).name == name
        assert platform_by_name(name.upper()).name == name

    def test_gids_family_alias(self):
        assert platform_by_name("bam").name == "gids"
        assert platform_by_name("BaM").name == "gids"

    def test_ordered_platforms_validates_and_normalizes(self):
        assert ordered_platforms(["cc", "BG-2", "bam"]) == ["cc", "bg2", "gids"]
        with pytest.raises(KeyError):
            ordered_platforms(["cc", "definitely_not_a_platform"])
