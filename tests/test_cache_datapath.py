"""Differential contracts for the in-datapath page cache.

Three pins, per ISSUE 7:

* **disabled == seed, bit for bit** — a ``None`` cache config and any
  config whose capacity rounds to zero pages must reproduce the golden
  RunResult sha256 digests captured from the seed kernel, on every
  registered platform;
* **Belady bounds every online policy** at every swept capacity;
* **offline replay is exact** — replaying a cache's recorded access
  trace through the same policy engine reproduces the measured
  hit/miss/eviction counts, and the canonical-trace replay in
  ``sweep_cache`` agrees with the in-datapath hit rate.

Plus the perf claims the ablation rests on: a warm cache strictly
shortens simulated latency without changing *which* nodes get sampled,
and cached runs are repeatable (nothing the hit path keeps between reads
leaks into results).
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tools.capture_golden import (  # noqa: E402
    FIXTURE,
    GOLDEN_PARAMS,
    GOLDEN_WORKLOAD,
)

from repro.cache import CacheConfig, replay_trace, sweep_cache  # noqa: E402
from repro.orchestrate import CELL_DOC, ResultCache  # noqa: E402
from repro.orchestrate.cache import json_default  # noqa: E402
from repro.platforms import (  # noqa: E402
    PLATFORMS,
    PreparedWorkload,
    run_platform,
)
from repro.workloads import workload_by_name  # noqa: E402

CACHE_MB = 0.5
PAGE_SIZE = 4096


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def prepared():
    spec = workload_by_name(GOLDEN_WORKLOAD).scaled(GOLDEN_PARAMS["scaled_nodes"])
    return PreparedWorkload.prepare(spec)


def digest(platform, prepared, **kwargs):
    result = run_platform(platform, prepared, **GOLDEN_PARAMS, **kwargs)
    payload = CELL_DOC.to_payload(result)
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=json_default
    ).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_disabled_cache_matches_golden_digest(platform, prepared, golden):
    """Explicit ``page_cache=None`` is the seed configuration, bit for bit."""
    assert digest(platform, prepared, page_cache=None) == golden[platform]


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_zero_size_cache_matches_golden_digest(platform, prepared, golden):
    """A capacity that rounds to zero pages disables the cache entirely."""
    zero = CacheConfig(capacity_mb=0.0)
    assert digest(platform, prepared, page_cache=zero) == golden[platform]
    sub_page = CacheConfig(capacity_mb=0.001)  # 1000 bytes < one page
    assert digest(platform, prepared, page_cache=sub_page) == golden[platform]


def test_cached_run_is_repeatable(prepared):
    """Two identical cached runs serialize byte-identically (nothing the
    hit path keeps between reads leaks into results)."""
    config = CacheConfig(capacity_mb=CACHE_MB, policy="clock")
    first = digest("bg2", prepared, page_cache=config)
    second = digest("bg2", prepared, page_cache=config)
    assert first == second


# test_cache_never_changes_what_gets_sampled moved to
# tests/test_platform_conformance.py, parametrized over every registered
# platform instead of a hard-coded ["bg2", "cc"] pair.


def test_warm_cache_shortens_simulated_latency(prepared):
    uncached = run_platform("bg2", prepared, **GOLDEN_PARAMS)
    cached = run_platform(
        "bg2",
        prepared,
        **GOLDEN_PARAMS,
        page_cache=CacheConfig(capacity_mb=8.0),
    )
    assert cached.cache["hit_rate"] > 0.3
    assert cached.total_seconds < uncached.total_seconds


def test_cache_counters_in_meters_and_result(prepared):
    result = run_platform(
        "bg2",
        prepared,
        **GOLDEN_PARAMS,
        page_cache=CacheConfig(capacity_mb=CACHE_MB),
    )
    block = result.cache
    assert block["policy"] == "lru"
    assert block["hits"] > 0 and block["misses"] > 0
    assert block["hits"] + block["misses"] == pytest.approx(
        result.meters.totals["page_cache_hits"]
        + result.meters.totals["page_cache_misses"]
    )
    assert result.meters.totals["page_cache_hits"] == float(block["hits"])
    assert result.meters.totals["page_cache_evictions"] == float(
        block["evictions"]
    )
    # uncached runs carry no cache block and no cache meters
    bare = run_platform("bg2", prepared, **GOLDEN_PARAMS)
    assert bare.cache is None
    assert "page_cache_hits" not in bare.meters.totals


def test_recorded_trace_replay_reproduces_measured_counts(prepared):
    """The differential contract: same policy code offline and online."""
    for policy in ("lru", "lfu", "clock"):
        config = CacheConfig(
            capacity_mb=CACHE_MB, policy=policy, record_trace=True
        )
        result = run_platform(
            "bg2", prepared, **GOLDEN_PARAMS, page_cache=config
        )
        block = result.cache
        capacity = config.capacity_pages(PAGE_SIZE)
        replayed = replay_trace(block["trace"], policy, capacity)
        assert (replayed.hits, replayed.misses, replayed.evictions) == (
            block["hits"],
            block["misses"],
            block["evictions"],
        ), policy


def test_cache_block_round_trips_through_payload(prepared):
    result = run_platform(
        "bg2",
        prepared,
        **GOLDEN_PARAMS,
        sample_trace=True,
        page_cache=CacheConfig(capacity_mb=CACHE_MB),
    )
    restored = CELL_DOC.from_payload(CELL_DOC.to_payload(result))
    assert restored.cache == result.cache
    assert len(restored.sample_trace) == len(result.sample_trace)
    for a, b in zip(restored.sample_trace, result.sample_trace):
        assert np.array_equal(a, b)


class TestSweep:
    CAPACITIES = (0.0625, 0.25, 1.0)
    POLICIES = ("lru", "lfu", "clock")

    @pytest.fixture(scope="class")
    def outcome(self, prepared):
        return sweep_cache(
            "bg2",
            prepared,
            capacities_mb=self.CAPACITIES,
            policies=self.POLICIES,
            batch_size=GOLDEN_PARAMS["batch_size"],
            num_batches=GOLDEN_PARAMS["num_batches"],
            num_hops=GOLDEN_PARAMS["num_hops"],
            fanout=GOLDEN_PARAMS["fanout"],
            seed=GOLDEN_PARAMS["seed"],
        )

    def test_belady_dominates_every_online_policy_at_every_size(self, outcome):
        sweep = outcome.sweep
        for capacity in sweep.capacities_mb:
            optimal = sweep.belady_hit_rate(capacity)
            for policy in sweep.policies:
                point = sweep.point(policy, capacity)
                assert optimal >= point.replay_hit_rate - 1e-12, (
                    policy,
                    capacity,
                )

    def test_replayed_hit_rate_tracks_measured(self, outcome):
        """Canonical-trace replay approximates the in-datapath rate; at
        the largest capacity (working set resident) they coincide."""
        sweep = outcome.sweep
        for policy in sweep.policies:
            point = sweep.point(policy, max(sweep.capacities_mb))
            assert point.hit_rate == pytest.approx(
                point.replay_hit_rate, abs=0.05
            ), policy

    def test_latency_improves_with_capacity(self, outcome):
        sweep = outcome.sweep
        for policy in sweep.policies:
            best = sweep.point(policy, max(sweep.capacities_mb))
            assert best.total_seconds < sweep.baseline_seconds, policy

    def test_document_round_trips_through_result_cache(self, prepared, tmp_path):
        cache = ResultCache(tmp_path / "results")
        kwargs = dict(
            capacities_mb=(0.25,),
            policies=("lru",),
            batch_size=GOLDEN_PARAMS["batch_size"],
            num_batches=GOLDEN_PARAMS["num_batches"],
            num_hops=GOLDEN_PARAMS["num_hops"],
            fanout=GOLDEN_PARAMS["fanout"],
            seed=GOLDEN_PARAMS["seed"],
        )
        cold = sweep_cache("bg2", prepared, cache=cache, **kwargs)
        assert not cold.from_cache
        assert cold.cells_executed > 0
        warm = sweep_cache("bg2", prepared, cache=cache, **kwargs)
        assert warm.from_cache
        assert warm.sweep.to_dict() == cold.sweep.to_dict()
        # require_cached renders from the document without simulating
        served = sweep_cache(
            "bg2", prepared, cache=cache, require_cached=True, **kwargs
        )
        assert served.from_cache
        assert served.cells_executed == 0

    def test_require_cached_raises_on_cold_cache(self, prepared, tmp_path):
        with pytest.raises(KeyError):
            sweep_cache(
                "bg2",
                prepared,
                capacities_mb=(0.25,),
                policies=("lru",),
                batch_size=GOLDEN_PARAMS["batch_size"],
                num_batches=GOLDEN_PARAMS["num_batches"],
                num_hops=GOLDEN_PARAMS["num_hops"],
                fanout=GOLDEN_PARAMS["fanout"],
                cache=ResultCache(tmp_path / "empty"),
                require_cached=True,
            )
