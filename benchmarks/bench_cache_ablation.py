"""Host page-cache ablation: size x policy vs Belady's optimal bound.

The Ginex question for the BeaconGNN datapath: how much host DRAM does
it take, under which eviction policy, before structure/feature page
reads stop paying for flash? One :func:`repro.cache.sweep_cache` call
answers it — an uncached traced baseline plus one live-cache run per
(policy, capacity) point, with the baseline's canonical page trace
replayed offline through every online policy *and* the two-pass Belady
simulator (the optimal bound no online policy can beat).

Every cell fans through :func:`repro.orchestrate.run_grid` and the
finished sweep is stored as its own content-addressed document, so a
warm re-render (``--from-cache``) performs zero simulations.
"""

from __future__ import annotations

from repro.bench import format_table
from repro.cache import sweep_cache

CAPACITIES_MB = (0.25, 1.0, 4.0)
POLICIES = ("lru", "lfu", "clock")


def test_cache_ablation(
    benchmark, bench_env, grid_cache, image_cache, bench_from_cache, prepared_cache
):
    def experiment():
        return sweep_cache(
            "bg2",
            prepared_cache("amazon"),
            capacities_mb=CAPACITIES_MB,
            policies=POLICIES,
            batch_size=bench_env.batch,
            num_batches=bench_env.nbatch,
            jobs=bench_env.jobs,
            cache=grid_cache,
            image_cache=image_cache,
            require_cached=bench_from_cache,
        )

    outcome = benchmark.pedantic(experiment, rounds=1, iterations=1)
    sweep = outcome.sweep
    print()
    rows = []
    for capacity in sweep.capacities_mb:
        for policy in sweep.policies:
            point = sweep.point(policy, capacity)
            rows.append(
                (
                    f"{capacity:g}",
                    policy,
                    f"{point.hit_rate:.3f}",
                    f"{point.replay_hit_rate:.3f}",
                    f"{sweep.belady_hit_rate(capacity):.3f}",
                    round(point.total_seconds * 1e6, 1),
                    f"{sweep.speedup(point):.2f}x",
                )
            )
    print(
        format_table(
            ["MB", "policy", "hit", "replay", "belady", "run (us)", "speedup"],
            rows,
            title=(
                f"{sweep.platform} cache ablation on {sweep.workload} — "
                f"uncached {sweep.baseline_seconds * 1e6:,.1f} us, "
                f"{sweep.trace_accesses:,} accesses over "
                f"{sweep.unique_pages:,} pages"
            ),
        )
    )
    if outcome.from_cache:
        print("ablation document served from cache (0 simulations)")

    # Belady's optimal dominates every online policy at every size — a
    # theorem on the shared canonical trace, not a tuning outcome.
    for capacity in sweep.capacities_mb:
        optimal = sweep.belady_hit_rate(capacity)
        for policy in sweep.policies:
            point = sweep.point(policy, capacity)
            assert optimal >= point.replay_hit_rate - 1e-12, (
                f"Belady beaten by {policy} at {capacity} MB"
            )
    # A warm cache shortens the end-to-end datapath: the biggest cache's
    # best policy strictly improves on the uncached baseline.
    best = min(p.total_seconds for p in sweep.points)
    assert best < sweep.baseline_seconds
    # Bigger caches never hurt a policy's replayed hit rate.
    for policy in sweep.policies:
        rates = [
            sweep.point(policy, c).replay_hit_rate for c in sweep.capacities_mb
        ]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:])), policy
