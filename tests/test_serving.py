"""Open-loop serving simulator: arrivals, queueing, and the closed-loop
differential contract.

Four layers of pinning:

* the shared percentile helper (the old nearest-rank estimator returned
  the plain maximum as "p99" for every sample of 100 or fewer);
* arrival processes are statistically sound *and* bit-identical across
  repeated construction (counter-stream RNG);
* the serving event loop — batching, shedding, timeouts — behaves
  exactly as specified on hand-built traces;
* at vanishing load with ``max_batch=1``/``max_live=1`` serving
  reproduces :func:`repro.platforms.measure_query_latency` bit for bit:
  same latencies, same cache keys, same payload digests.
"""

import hashlib
import json
import math

import pytest

from repro.orchestrate import CELL_DOC, ResultCache
from repro.orchestrate.cache import json_default
from repro.platforms.query import measure_query_latency
from repro.quantile import latency_summary, mean, percentile
from repro.serving import (
    OnOffArrivals,
    PoissonArrivals,
    TraceArrivals,
    arrival_from_dict,
    find_knee,
    make_arrival,
    serve,
    sweep_serving,
)
from repro.serving.simulator import SERVING_DOC
from repro.workloads import workload_by_name

SPEC = workload_by_name("ogbn").scaled(256)

# Per-query service on this tiny workload is tens of microseconds, so
# 1 QPS is effectively zero load: every query finds an idle server.
IDLE_RATE = 1.0


def _digest(payload) -> str:
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=json_default
    ).encode()
    return hashlib.sha256(blob).hexdigest()


class TestPercentile:
    def test_single_sample_every_q(self):
        for q in (0.0, 50.0, 99.0, 100.0):
            assert percentile([7.0], q) == 7.0

    def test_n8_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        assert percentile(values, 50.0) == pytest.approx(4.5)
        # rank 0.99 * 7 = 6.93 -> between 7 and 8
        assert percentile(values, 99.0) == pytest.approx(7.93)
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 8.0

    def test_n100_is_not_the_maximum(self):
        """The regression the old nearest-rank estimator had for n<=100."""
        values = [float(i) for i in range(100)]  # 0..99
        p99 = percentile(values, 99.0)
        assert p99 < max(values)
        assert p99 == pytest.approx(98.01)  # rank 0.99 * 99 = 98.01

    def test_n101_boundary(self):
        values = [float(i) for i in range(101)]  # 0..100
        # rank 0.99 * 100 = 99.0 exactly: no interpolation
        assert percentile(values, 99.0) == 99.0

    def test_order_independent(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(values, 50.0) == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            latency_summary([])

    def test_bad_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)

    def test_latency_summary_fields(self):
        summary = latency_summary([1.0, 2.0, 3.0, 4.0])
        assert summary["count"] == 4.0
        assert summary["mean_s"] == 2.5
        assert summary["p50_s"] == 2.5
        assert summary["max_s"] == 4.0

    def test_query_latency_result_uses_helper(self):
        from repro.platforms.query import QueryLatencyResult

        result = QueryLatencyResult(
            platform="bg2",
            batch_size=1,
            latencies_s=[float(i) for i in range(100)],
        )
        assert result.p99_s < max(result.latencies_s)
        assert result.p50_s == pytest.approx(49.5)
        empty = QueryLatencyResult(platform="bg2", batch_size=1, latencies_s=[])
        with pytest.raises(ValueError):
            empty.mean_s
        with pytest.raises(ValueError):
            empty.p99_s


class TestArrivals:
    def test_poisson_mean_and_cv(self):
        process = PoissonArrivals(rate_qps=100.0, seed=7)
        times = process.times(4000)
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        sample_mean = mean(gaps)
        variance = sum((g - sample_mean) ** 2 for g in gaps) / len(gaps)
        cv = math.sqrt(variance) / sample_mean
        assert sample_mean == pytest.approx(1 / 100.0, rel=0.1)
        assert cv == pytest.approx(1.0, rel=0.1)  # exponential: CV = 1

    def test_poisson_strictly_increasing(self):
        times = PoissonArrivals(rate_qps=50.0, seed=0).times(200)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_poisson_bit_identical_repeats(self):
        a = PoissonArrivals(rate_qps=33.0, seed=3).times(100)
        b = PoissonArrivals(rate_qps=33.0, seed=3).times(100)
        assert a == b

    def test_poisson_prefix_stable(self):
        """Asking for more arrivals never changes the earlier ones."""
        process = PoissonArrivals(rate_qps=20.0, seed=1)
        assert process.times(50) == process.times(120)[:50]

    def test_poisson_seed_changes_stream(self):
        assert (
            PoissonArrivals(rate_qps=20.0, seed=0).times(10)
            != PoissonArrivals(rate_qps=20.0, seed=1).times(10)
        )

    def test_onoff_duty_cycle(self):
        process = OnOffArrivals(rate_qps=1000.0, on_s=0.02, off_s=0.08, seed=5)
        assert process.duty_cycle == pytest.approx(0.2)
        phases = process.phases(2000)
        on_time = sum(e - s for s, e, is_on in phases if is_on)
        total = phases[-1][1]
        assert on_time / total == pytest.approx(0.2, rel=0.1)

    def test_onoff_arrivals_only_during_on_phases(self):
        process = OnOffArrivals(rate_qps=2000.0, on_s=0.02, off_s=0.08, seed=2)
        times = process.times(200)
        phases = process.phases(10_000)
        for t in times:
            phase = next(p for p in phases if p[0] <= t <= p[1])
            assert phase[2], f"arrival at {t} landed in an OFF phase"

    def test_onoff_average_rate(self):
        process = OnOffArrivals.for_average(
            1000.0, on_s=0.02, off_s=0.08, seed=4
        )
        assert process.mean_rate_qps == pytest.approx(1000.0)
        assert process.rate_qps == pytest.approx(5000.0)  # duty 0.2
        times = process.times(3000)
        realized = len(times) / times[-1]
        assert realized == pytest.approx(1000.0, rel=0.15)

    def test_onoff_bit_identical_repeats(self):
        a = OnOffArrivals(rate_qps=500.0, on_s=0.01, off_s=0.03, seed=9)
        b = OnOffArrivals(rate_qps=500.0, on_s=0.01, off_s=0.03, seed=9)
        assert a.times(150) == b.times(150)
        assert a.phases(20) == b.phases(20)

    def test_trace_exact_replay(self):
        trace = TraceArrivals(times_s=(0.0, 0.5, 0.5, 2.25))
        assert trace.times(4) == [0.0, 0.5, 0.5, 2.25]
        assert trace.times(2) == [0.0, 0.5]

    def test_trace_too_short_raises(self):
        with pytest.raises(ValueError):
            TraceArrivals(times_s=(0.0, 1.0)).times(3)

    def test_trace_rejects_bad_timestamps(self):
        with pytest.raises(ValueError):
            TraceArrivals(times_s=(1.0, 0.5))
        with pytest.raises(ValueError):
            TraceArrivals(times_s=(-1.0, 0.5))

    def test_round_trip_through_dict(self):
        for process in (
            PoissonArrivals(rate_qps=10.0, seed=3),
            OnOffArrivals(rate_qps=100.0, on_s=0.01, off_s=0.04, seed=1),
            TraceArrivals(times_s=(0.0, 1.0, 2.0)),
        ):
            clone = arrival_from_dict(process.to_dict())
            assert clone == process
            assert clone.to_dict() == process.to_dict()

    def test_dicts_distinguish_kinds(self):
        docs = {
            PoissonArrivals(rate_qps=10.0).to_dict()["kind"],
            OnOffArrivals(rate_qps=10.0, on_s=1.0, off_s=1.0).to_dict()["kind"],
            TraceArrivals(times_s=(0.0,)).to_dict()["kind"],
        }
        assert docs == {"poisson", "onoff", "trace"}

    def test_make_arrival_offered_average(self):
        assert make_arrival("poisson", 50.0).mean_rate_qps == 50.0
        assert make_arrival(
            "onoff", 50.0, on_s=0.02, off_s=0.08
        ).mean_rate_qps == pytest.approx(50.0)
        with pytest.raises(ValueError):
            make_arrival("weird", 50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate_qps=0.0)
        with pytest.raises(ValueError):
            OnOffArrivals(rate_qps=10.0, on_s=0.0, off_s=1.0)


class TestServeEventLoop:
    """Queueing semantics on hand-built traces (no statistics involved)."""

    def test_simultaneous_burst_sheds_beyond_queue_depth(self, tmp_path):
        n = 8
        out = serve(
            "bg2",
            SPEC,
            TraceArrivals(times_s=tuple(0.0 for _ in range(n))),
            num_queries=n,
            queue_depth=2,
            max_live=1,
            max_batch=1,
            cache=ResultCache(tmp_path / "cache"),
        )
        # q0 dispatches immediately; q1, q2 queue; the rest shed.
        assert out.result.completed == 3
        assert out.result.shed == n - 3
        assert out.result.batch_sizes == [1, 1, 1]

    def test_max_batch_groups_burst(self, tmp_path):
        n = 8
        out = serve(
            "bg2",
            SPEC,
            TraceArrivals(times_s=tuple(0.0 for _ in range(n))),
            num_queries=n,
            queue_depth=n,
            max_live=1,
            max_batch=4,
            cache=ResultCache(tmp_path / "cache"),
        )
        assert out.result.shed == 0
        # q0 arrives alone and dispatches as a batch of 1 (timeout 0);
        # the remaining 7 queue behind it and drain in fours.
        assert out.result.batch_sizes == [1, 4, 3]
        assert out.result.mean_batch_size == pytest.approx(8 / 3)

    def test_batch_timeout_delays_partial_batch(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        timeout = 0.005
        held = serve(
            "bg2",
            SPEC,
            TraceArrivals(times_s=(0.0,)),
            num_queries=1,
            max_batch=4,
            batch_timeout_s=timeout,
            cache=cache,
        )
        immediate = serve(
            "bg2",
            SPEC,
            TraceArrivals(times_s=(0.0,)),
            num_queries=1,
            max_batch=4,
            batch_timeout_s=0.0,
            cache=cache,
        )
        # The lone query is held the full timeout before dispatching.
        assert held.result.queue_waits_s[0] == pytest.approx(timeout)
        assert held.result.latencies_s[0] == pytest.approx(
            timeout + immediate.result.latencies_s[0]
        )

    def test_full_batch_dispatches_before_timeout(self, tmp_path):
        timeout = 10.0
        out = serve(
            "bg2",
            SPEC,
            TraceArrivals(times_s=(0.0, 0.0, 0.0, 0.0, 0.0)),
            num_queries=5,
            max_batch=2,
            batch_timeout_s=timeout,
            queue_depth=8,
            max_live=2,
            cache=ResultCache(tmp_path / "cache"),
        )
        assert out.result.shed == 0
        assert out.result.batch_sizes == [2, 2, 1]
        # Full batches dispatch immediately — only the trailing partial
        # batch waits out the timeout (the server has no oracle saying
        # the trace ended).
        assert max(out.result.queue_waits_s[:4]) < 1.0
        assert out.result.queue_waits_s[4] == pytest.approx(timeout)

    def test_max_live_overlaps_service(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        burst = TraceArrivals(times_s=(0.0, 0.0, 0.0, 0.0))
        serial = serve(
            "bg2", SPEC, burst, num_queries=4, max_live=1, cache=cache
        )
        overlapped = serve(
            "bg2", SPEC, burst, num_queries=4, max_live=4, cache=cache
        )
        assert overlapped.result.makespan_s < serial.result.makespan_s
        # Same four queries, same four simulations, just overlapped.
        assert sorted(overlapped.result.batch_sizes) == sorted(
            serial.result.batch_sizes
        )

    def test_rejects_bad_knobs(self):
        arrival = PoissonArrivals(rate_qps=1.0)
        with pytest.raises(ValueError):
            serve("bg2", SPEC, arrival, num_queries=0)
        with pytest.raises(ValueError):
            serve("bg2", SPEC, arrival, max_batch=0)
        with pytest.raises(ValueError):
            serve("bg2", SPEC, arrival, queue_depth=0)
        with pytest.raises(ValueError):
            serve("bg2", SPEC, arrival, max_live=0)
        with pytest.raises(ValueError):
            serve("bg2", SPEC, arrival, batch_timeout_s=-1.0)


class TestClosedLoopDifferential:
    """Serving at zero load == the closed-loop harness, bit for bit."""

    def test_latencies_match_measure_query_latency(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        num_queries = 6
        out = serve(
            "bg2",
            SPEC,
            PoissonArrivals(rate_qps=IDLE_RATE, seed=0),
            num_queries=num_queries,
            max_batch=1,
            max_live=1,
            seed=3,
            cache=cache,
        )
        closed = measure_query_latency(
            "bg2", SPEC, num_queries=num_queries, seed=3, cache=cache
        )
        assert out.result.latencies_s == closed.latencies_s
        assert all(w == 0.0 for w in out.result.queue_waits_s)

    def test_same_cache_keys_as_closed_loop(self, tmp_path):
        """Serving cold-populates exactly the cells the closed loop needs."""
        cache = ResultCache(tmp_path / "cache")
        num_queries = 4
        out = serve(
            "bg2",
            SPEC,
            PoissonArrivals(rate_qps=IDLE_RATE, seed=0),
            num_queries=num_queries,
            seed=11,
            cache=cache,
        )
        assert out.cells_executed == num_queries
        # require_cached never simulates: it only succeeds if serving
        # wrote the byte-identical cell keys the closed loop derives.
        closed = measure_query_latency(
            "bg2",
            SPEC,
            num_queries=num_queries,
            seed=11,
            cache=cache,
            require_cached=True,
        )
        assert closed.latencies_s == out.result.latencies_s

    def test_batch_result_digests_match_grid(self, tmp_path):
        from repro.orchestrate import GridCell, run_grid

        num_queries = 4
        out = serve(
            "bg2",
            SPEC,
            PoissonArrivals(rate_qps=IDLE_RATE, seed=0),
            num_queries=num_queries,
            seed=0,
            cache=ResultCache(tmp_path / "cache"),
        )
        cells = [
            GridCell(
                platform="bg2",
                workload=SPEC,
                batch_size=1,
                num_batches=1,
                seed=q,
            )
            for q in range(num_queries)
        ]
        grid = run_grid(cells)
        expected = [_digest(CELL_DOC.to_payload(r)) for r in grid.results]
        got = [_digest(CELL_DOC.to_payload(r)) for r in out.batch_results]
        assert got == expected

    @pytest.mark.parametrize("jobs,executor", [(1, None), (2, None), (2, "serial")])
    def test_executor_knobs_do_not_change_result(self, tmp_path, jobs, executor):
        baseline = serve(
            "bg2",
            SPEC,
            PoissonArrivals(rate_qps=500.0, seed=0),
            num_queries=5,
            cache=ResultCache(tmp_path / "base"),
        )
        other = serve(
            "bg2",
            SPEC,
            PoissonArrivals(rate_qps=500.0, seed=0),
            num_queries=5,
            jobs=jobs,
            executor=executor,
            cache=ResultCache(tmp_path / f"j{jobs}{executor}"),
        )
        assert other.result.to_dict() == baseline.result.to_dict()

    def test_repeated_serve_bit_identical(self, tmp_path):
        a = serve(
            "bg2",
            SPEC,
            PoissonArrivals(rate_qps=200.0, seed=1),
            num_queries=5,
            cache=ResultCache(tmp_path / "a"),
        )
        b = serve(
            "bg2",
            SPEC,
            PoissonArrivals(rate_qps=200.0, seed=1),
            num_queries=5,
            cache=ResultCache(tmp_path / "b"),
        )
        assert _digest(SERVING_DOC.to_payload(a.result)) == _digest(
            SERVING_DOC.to_payload(b.result)
        )


class TestServingCache:
    def test_cold_then_warm_document(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        arrival = PoissonArrivals(rate_qps=300.0, seed=0)
        cold = serve("bg2", SPEC, arrival, num_queries=4, cache=cache)
        warm = serve("bg2", SPEC, arrival, num_queries=4, cache=cache)
        assert not cold.from_cache
        assert warm.from_cache
        assert warm.key == cold.key
        assert warm.result.to_dict() == cold.result.to_dict()
        assert warm.cells_executed == 0

    def test_require_cached_raises_on_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(KeyError):
            serve(
                "bg2",
                SPEC,
                PoissonArrivals(rate_qps=300.0, seed=0),
                num_queries=4,
                cache=cache,
                require_cached=True,
            )

    def test_require_cached_rebuilds_from_cells(self, tmp_path):
        """A doc-cache miss with warm cells re-renders with zero sims."""
        cache = ResultCache(tmp_path / "cache")
        arrival = PoissonArrivals(rate_qps=300.0, seed=0)
        cold = serve("bg2", SPEC, arrival, num_queries=4, cache=cache)
        cache.path_for(cold.key).unlink()  # drop the doc, keep the cells
        warm = serve(
            "bg2", SPEC, arrival, num_queries=4, cache=cache, require_cached=True
        )
        assert warm.result.to_dict() == cold.result.to_dict()
        assert warm.cells_executed == 0

    def test_arrival_kind_distinguishes_keys(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        poisson = serve(
            "bg2",
            SPEC,
            PoissonArrivals(rate_qps=100.0, seed=0),
            num_queries=3,
            cache=cache,
        )
        trace = serve(
            "bg2",
            SPEC,
            TraceArrivals(times_s=tuple(PoissonArrivals(100.0, 0).times(3))),
            num_queries=3,
            cache=cache,
        )
        # Same timestamps, different process identity -> different docs.
        assert poisson.key != trace.key
        assert poisson.result.latencies_s == trace.result.latencies_s

    def test_payload_round_trip(self, tmp_path):
        out = serve(
            "bg2",
            SPEC,
            PoissonArrivals(rate_qps=100.0, seed=0),
            num_queries=3,
            cache=ResultCache(tmp_path / "cache"),
        )
        clone = SERVING_DOC.from_payload(SERVING_DOC.to_payload(out.result))
        assert clone.to_dict() == out.result.to_dict()

    def test_bad_payload_schema_rejected(self):
        with pytest.raises(ValueError):
            SERVING_DOC.from_payload({"schema": 999, "serving": {}})
        with pytest.raises(ValueError):
            SERVING_DOC.from_payload({"schema": 1})


class TestSweepAndKnee:
    def test_find_knee_basic(self):
        offered = [10.0, 20.0, 40.0, 80.0]
        achieved = [10.0, 19.9, 30.0, 30.0]
        assert find_knee(offered, achieved) == 20.0

    def test_find_knee_all_sustained(self):
        assert find_knee([10.0, 20.0], [10.0, 20.0]) == 20.0

    def test_find_knee_overloaded_everywhere(self):
        assert find_knee([10.0, 20.0], [1.0, 1.0]) is None

    def test_find_knee_ignores_noise_after_saturation(self):
        # A post-saturation ratio recovery must not resurrect the knee.
        offered = [10.0, 20.0, 40.0, 41.0]
        achieved = [10.0, 12.0, 40.0, 41.0]
        assert find_knee(offered, achieved) == 10.0

    def test_find_knee_reference_override(self):
        # Nominal 10 QPS but the sample only realized 8; achieving 7.8
        # sustains the realized rate even though 7.8 < 0.95 * 10.
        assert (
            find_knee([10.0], [7.8], reference=[8.0]) == 10.0
        )
        assert find_knee([10.0], [7.8]) is None

    def test_find_knee_misaligned_raises(self):
        with pytest.raises(ValueError):
            find_knee([1.0, 2.0], [1.0])

    def test_sweep_shares_cells_across_points(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep = sweep_serving(
            "bg2",
            SPEC,
            [200.0, 2000.0, 50_000.0],
            num_queries=6,
            cache=cache,
        )
        # Three points, six queries each — but only six simulations:
        # every point replays the same per-query cells from the shared
        # service memo.
        assert sweep.cells_executed == 6
        assert len(sweep.outcomes) == 3
        assert sweep.points_from_cache == 0
        warm = sweep_serving(
            "bg2",
            SPEC,
            [200.0, 2000.0, 50_000.0],
            num_queries=6,
            cache=cache,
            require_cached=True,
        )
        assert warm.points_from_cache == 3
        assert warm.cells_executed == 0
        assert [o.result.to_dict() for o in warm.outcomes] == [
            o.result.to_dict() for o in sweep.outcomes
        ]

    def test_sweep_latency_grows_with_load(self, tmp_path):
        sweep = sweep_serving(
            "bg2",
            SPEC,
            [100.0, 1_000_000.0],
            num_queries=8,
            cache=ResultCache(tmp_path / "cache"),
        )
        # At absurd offered load the queue dominates: p99 blows up and
        # achieved throughput detaches from offered.
        assert sweep.p99_s[-1] > 3 * sweep.p99_s[0]
        assert sweep.achieved_qps[-1] < 0.5 * sweep.realized_qps[-1]
        assert sweep.knee_qps == 100.0

    def test_sweep_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            sweep_serving("bg2", SPEC, [])

    def test_cell_keys_hashed_at_most_twice_per_cell(self, tmp_path, monkeypatch):
        """One hash for the service's key memo, one inside ``run_grid``."""
        from collections import Counter

        import repro.orchestrate.grid as grid

        calls = Counter()
        real = grid.cell_cache_key

        def counting(cell, seed):
            calls[cell, seed] += 1
            return real(cell, seed)

        monkeypatch.setattr(grid, "cell_cache_key", counting)
        sweep = sweep_serving(
            "bg2",
            SPEC,
            [200.0, 2000.0, 50_000.0],
            num_queries=6,
            cache=ResultCache(tmp_path / "cache"),
        )
        assert sweep.cells_executed == len(calls) > 0
        assert max(calls.values()) <= 2
