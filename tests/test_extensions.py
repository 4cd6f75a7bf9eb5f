"""Tests for the Section VIII extensions: scale-out arrays and GNN query."""

import pytest

from repro.platforms import (
    P2pLink,
    PreparedWorkload,
    measure_query_latency,
    run_scaleout,
)
from repro.workloads import workload_by_name


@pytest.fixture(scope="module")
def prepared():
    return PreparedWorkload.prepare(workload_by_name("ogbn").scaled(1024))


class TestScaleOut:
    def test_single_device_matches_run_platform(self, prepared):
        array = run_scaleout(
            1, "bg2", prepared, batch_size=16, num_batches=1
        )
        assert array.num_devices == 1
        assert array.p2p_seconds_per_batch == 0.0
        assert array.throughput_targets_per_sec > 0

    def test_throughput_scales_with_devices(self, prepared):
        one = run_scaleout(1, "bg2", prepared, batch_size=32, num_batches=1)
        four = run_scaleout(4, "bg2", prepared, batch_size=32, num_batches=1)
        # each device serves 1/4 of the batch: near-linear array scaling
        assert four.throughput_targets_per_sec > 2.0 * one.throughput_targets_per_sec

    def test_scaling_efficiency_reasonable(self, prepared):
        one = run_scaleout(1, "bg2", prepared, batch_size=32, num_batches=1)
        four = run_scaleout(4, "bg2", prepared, batch_size=32, num_batches=1)
        eff = four.scaling_efficiency(one)
        assert 0.4 < eff <= 1.5  # near-linear, some per-batch overheads shift

    def test_cross_partition_traffic_costs(self, prepared):
        cheap = run_scaleout(
            4, "bg2", prepared, batch_size=32, num_batches=1,
            cross_partition_fraction=0.0,
        )
        costly = run_scaleout(
            4, "bg2", prepared, batch_size=32, num_batches=1,
            cross_partition_fraction=0.5,
        )
        assert costly.p2p_seconds_per_batch > cheap.p2p_seconds_per_batch
        assert (
            costly.throughput_targets_per_sec
            < cheap.throughput_targets_per_sec
        )

    def test_slow_link_hurts(self, prepared):
        fast = run_scaleout(
            4, "bg2", prepared, batch_size=32, num_batches=1,
            link=P2pLink(bandwidth_bps=10e9),
        )
        slow = run_scaleout(
            4, "bg2", prepared, batch_size=32, num_batches=1,
            link=P2pLink(bandwidth_bps=0.1e9),
        )
        assert slow.batch_seconds > fast.batch_seconds

    def test_validation(self, prepared):
        with pytest.raises(ValueError):
            run_scaleout(0, "bg2", prepared)
        with pytest.raises(ValueError):
            run_scaleout(2, "bg2", prepared, cross_partition_fraction=1.5)
        with pytest.raises(ValueError):
            # every device must serve at least one target per array batch
            run_scaleout(8, "bg2", prepared, batch_size=4)


class TestQueryLatency:
    def test_latency_stats(self, prepared):
        result = measure_query_latency(
            "bg2", prepared, num_queries=4, batch_size=1
        )
        assert len(result.latencies_s) == 4
        assert 0 < result.mean_s <= result.p99_s

    def test_bg2_beats_cc_on_query_latency(self, prepared):
        """Section VIII: one communication round + no channel congestion
        => much lower small-batch latency."""
        cc = measure_query_latency("cc", prepared, num_queries=3)
        bg2 = measure_query_latency("bg2", prepared, num_queries=3)
        assert bg2.mean_s < cc.mean_s / 2

    def test_validation(self, prepared):
        with pytest.raises(ValueError):
            measure_query_latency("bg2", prepared, num_queries=0)

    def test_require_cached_raises_on_missing_query(self, prepared, tmp_path):
        from repro.orchestrate import ResultCache

        cache = ResultCache(tmp_path)
        measure_query_latency("bg2", prepared, num_queries=2, cache=cache)
        # Query 2 was never simulated: a loud miss, not a simulation.
        with pytest.raises(KeyError, match="1 of 3 cells not in result cache"):
            measure_query_latency(
                "bg2", prepared, num_queries=3, cache=cache, require_cached=True
            )
        warm = measure_query_latency(
            "bg2", prepared, num_queries=2, cache=cache, require_cached=True
        )
        assert len(warm.latencies_s) == 2

    def test_require_cached_needs_a_cache(self, prepared):
        with pytest.raises(ValueError, match="require_cached needs a result cache"):
            measure_query_latency(
                "bg2", prepared, num_queries=1, require_cached=True
            )
