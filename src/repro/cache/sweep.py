"""Cache ablation: size x policy -> hit rate + end-to-end latency.

One :func:`sweep_cache` call answers the Ginex question for a platform:
how big must a host-side page cache be, and under which eviction policy,
before the datapath stops paying for flash reads? It runs

* one *baseline* cell — uncached, ``sample_trace=True`` — whose trace
  feeds the offline replay simulator (every policy x size point priced
  from one run, including Belady's optimal bound), and
* one cell per (policy, capacity) with a live
  :class:`~repro.cache.page.PageCache` in the datapath, measuring the
  realized hit rate *and* the end-to-end latency improvement,

all fanned through :func:`repro.orchestrate.run_grid` (content-addressed
per-cell caching, worker fan-out), with the finished sweep stored as its
own cache document (:data:`CACHE_ABLATION_DOC`) so re-rendering is free.

Measured and replayed hit rates agree closely but not exactly: the live
cache sees accesses in event order (policy- and size-dependent) and
includes overflow/secondary reads the canonical trace omits. Belady vs
the online policies is compared on the *same* canonical sequence, where
its optimality is a theorem, not a hope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..cacheutil import CachedDocument
from .page import DEFAULT_HIT_LATENCY_S, CacheConfig
from .replay import belady_replay, replay_trace
from .trace import page_trace_from_result

__all__ = [
    "CachePoint",
    "CacheSweep",
    "CACHE_ABLATION_DOC",
    "CacheSweepOutcome",
    "cache_ablation_key",
    "sweep_cache",
]

DEFAULT_CAPACITIES_MB = (0.25, 1.0, 4.0)
DEFAULT_POLICIES = ("lru", "lfu", "clock")


@dataclass
class CachePoint:
    """One (policy, capacity) measurement of the ablation grid."""

    policy: str
    capacity_mb: float
    capacity_pages: int
    hits: int
    misses: int
    evictions: int
    hit_rate: float  # measured in-datapath
    replay_hit_rate: float  # offline replay of the canonical trace
    total_seconds: float  # end-to-end simulated latency with the cache

    def to_dict(self) -> Dict:
        return {
            "policy": self.policy,
            "capacity_mb": self.capacity_mb,
            "capacity_pages": self.capacity_pages,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "replay_hit_rate": self.replay_hit_rate,
            "total_seconds": self.total_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CachePoint":
        return cls(
            policy=str(data["policy"]),
            capacity_mb=float(data["capacity_mb"]),
            capacity_pages=int(data["capacity_pages"]),
            hits=int(data["hits"]),
            misses=int(data["misses"]),
            evictions=int(data["evictions"]),
            hit_rate=float(data["hit_rate"]),
            replay_hit_rate=float(data["replay_hit_rate"]),
            total_seconds=float(data["total_seconds"]),
        )


@dataclass
class CacheSweep:
    """A whole ablation: points in (capacity-major, policy-minor) order."""

    platform: str
    workload: str
    capacities_mb: List[float]
    policies: List[str]
    hit_latency_s: float
    baseline_seconds: float  # uncached end-to-end latency
    trace_accesses: int  # canonical trace length
    unique_pages: int
    belady_hit_rates: List[float]  # aligned with capacities_mb
    points: List[CachePoint] = field(default_factory=list)

    def point(self, policy: str, capacity_mb: float) -> CachePoint:
        for p in self.points:
            if p.policy == policy and p.capacity_mb == capacity_mb:
                return p
        raise KeyError(f"no point ({policy!r}, {capacity_mb} MB) in sweep")

    def belady_hit_rate(self, capacity_mb: float) -> float:
        return self.belady_hit_rates[self.capacities_mb.index(capacity_mb)]

    def speedup(self, point: CachePoint) -> float:
        """End-to-end latency improvement of one point vs uncached."""
        if point.total_seconds <= 0:
            return 0.0
        return self.baseline_seconds / point.total_seconds

    def to_dict(self) -> Dict:
        return {
            "platform": self.platform,
            "workload": self.workload,
            "capacities_mb": list(self.capacities_mb),
            "policies": list(self.policies),
            "hit_latency_s": self.hit_latency_s,
            "baseline_seconds": self.baseline_seconds,
            "trace_accesses": self.trace_accesses,
            "unique_pages": self.unique_pages,
            "belady_hit_rates": list(self.belady_hit_rates),
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CacheSweep":
        return cls(
            platform=str(data["platform"]),
            workload=str(data["workload"]),
            capacities_mb=[float(v) for v in data["capacities_mb"]],
            policies=[str(v) for v in data["policies"]],
            hit_latency_s=float(data["hit_latency_s"]),
            baseline_seconds=float(data["baseline_seconds"]),
            trace_accesses=int(data["trace_accesses"]),
            unique_pages=int(data["unique_pages"]),
            belady_hit_rates=[float(v) for v in data["belady_hit_rates"]],
            points=[CachePoint.from_dict(p) for p in data["points"]],
        )


#: One whole ablation, stored beside its cells.
CACHE_ABLATION_DOC = CachedDocument(
    "cache_ablation", 1, CacheSweep, "cache_ablation"
)


@dataclass
class CacheSweepOutcome:
    """A sweep plus its cache accounting (mirrors ServingOutcome)."""

    sweep: CacheSweep
    key: str
    from_cache: bool
    cells_executed: int = 0
    cell_cache_hits: int = 0
    images_built: int = 0
    image_hits: int = 0


def cache_ablation_key(
    platform,
    spec,
    config,
    *,
    capacities_mb: Sequence[float],
    policies: Sequence[str],
    hit_latency_s: float,
    batch_size: int,
    num_batches: int,
    num_hops: int,
    fanout: int,
    scaled_nodes: int,
    seed: int,
) -> str:
    """Content-addressed cache key for one whole ablation document."""
    return CACHE_ABLATION_DOC.key(
        {
            "platform": platform,
            "workload": spec,
            "ssd_config": config,
            "run": {
                "capacities_mb": [float(v) for v in capacities_mb],
                "policies": list(policies),
                "hit_latency_s": hit_latency_s,
                "batch_size": batch_size,
                "num_batches": num_batches,
                "num_hops": num_hops,
                "fanout": fanout,
                "scaled_nodes": scaled_nodes,
                "seed": seed,
            },
        }
    )


def sweep_cache(
    platform,
    workload,
    *,
    capacities_mb: Sequence[float] = DEFAULT_CAPACITIES_MB,
    policies: Sequence[str] = DEFAULT_POLICIES,
    hit_latency_s: float = DEFAULT_HIT_LATENCY_S,
    batch_size: int = 32,
    num_batches: int = 2,
    num_hops: int = 3,
    fanout: int = 3,
    ssd_config=None,
    seed: int = 0,
    scaled_nodes: Optional[int] = None,
    jobs: Optional[int] = 1,
    cache=None,
    image_cache=None,
    require_cached: bool = False,
    executor=None,
) -> CacheSweepOutcome:
    """Run the size x policy ablation for one platform on one workload.

    ``workload`` accepts a registry name, a :class:`WorkloadSpec`, or a
    :class:`PreparedWorkload` (adopted into the grid's image memo).
    ``require_cached=True`` renders from cached documents only — first
    the whole-sweep document, else every needed cell — and raises
    ``KeyError`` rather than simulate.
    """
    from ..orchestrate.grid import (
        GridCell,
        _prepared_for,
        _resolve_image_cache,
        adopt_prepared,
        outcome_from_cache,
        run_grid,
    )
    from ..platforms.features import PlatformFeatures
    from ..platforms.registry import platform_by_name
    from ..platforms.runner import DEFAULT_SCALED_NODES, PreparedWorkload
    from ..ssd.config import ull_ssd
    from ..workloads.registry import workload_by_name

    capacities_mb = [float(v) for v in capacities_mb]
    policies = list(policies)
    if not capacities_mb:
        raise ValueError("capacities_mb must not be empty")
    if not policies:
        raise ValueError("policies must not be empty")
    if require_cached and cache is None:
        raise ValueError("require_cached needs a result cache")

    features = (
        platform
        if isinstance(platform, PlatformFeatures)
        else platform_by_name(platform)
    )
    config = ssd_config or ull_ssd()
    page_size = config.flash.page_size

    prepared: Optional[PreparedWorkload] = None
    if isinstance(workload, PreparedWorkload):
        prepared = workload
        spec = prepared.spec
        if scaled_nodes is None:
            scaled_nodes = spec.num_nodes
    else:
        spec = workload_by_name(workload) if isinstance(workload, str) else workload
        if scaled_nodes is None:
            scaled_nodes = DEFAULT_SCALED_NODES
        if spec.num_nodes > scaled_nodes:
            spec = spec.scaled(scaled_nodes)

    key = cache_ablation_key(
        features,
        spec,
        config,
        capacities_mb=capacities_mb,
        policies=policies,
        hit_latency_s=hit_latency_s,
        batch_size=batch_size,
        num_batches=num_batches,
        num_hops=num_hops,
        fanout=fanout,
        scaled_nodes=scaled_nodes,
        seed=seed,
    )
    cached = CACHE_ABLATION_DOC.load(cache, key)
    if cached is not None:
        return CacheSweepOutcome(sweep=cached, key=key, from_cache=True)

    if prepared is not None:
        adopt_prepared(prepared)

    def cell(page_cache: Optional[CacheConfig], sample_trace: bool) -> GridCell:
        return GridCell(
            platform=features,
            workload=spec,
            ssd_config=ssd_config,
            batch_size=batch_size,
            num_batches=num_batches,
            num_hops=num_hops,
            fanout=fanout,
            seed=seed,
            scaled_nodes=scaled_nodes,
            sample_trace=sample_trace,
            page_cache=page_cache,
        )

    grid = [(c, p) for c in capacities_mb for p in policies]
    cells = [cell(None, True)] + [
        cell(
            CacheConfig(
                capacity_mb=capacity, policy=policy, hit_latency_s=hit_latency_s
            ),
            False,
        )
        for capacity, policy in grid
    ]
    if require_cached:
        outcome = outcome_from_cache(cells, cache)
    else:
        outcome = run_grid(
            cells,
            jobs=jobs,
            cache=cache,
            image_cache=image_cache,
            executor=executor,
        )
    baseline, measured = outcome.results[0], outcome.results[1:]

    # Offline replay: one canonical trace prices every point + Belady.
    icache = _resolve_image_cache(image_cache, cache)
    if prepared is None:
        prepared = _prepared_for(
            spec, page_size, str(icache.root) if icache is not None else None
        )
    pages = page_trace_from_result(
        baseline, prepared.image, features, num_hops
    )
    capacity_pages = {
        c: CacheConfig(capacity_mb=c).capacity_pages(page_size)
        for c in capacities_mb
    }
    belady_rates = [
        belady_replay(pages, capacity_pages[c]).hit_rate for c in capacities_mb
    ]

    points: List[CachePoint] = []
    for (capacity, policy), result in zip(grid, measured):
        block = result.cache or {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "hit_rate": 0.0,
        }
        replayed = replay_trace(pages, policy, capacity_pages[capacity])
        points.append(
            CachePoint(
                policy=policy,
                capacity_mb=capacity,
                capacity_pages=capacity_pages[capacity],
                hits=int(block["hits"]),
                misses=int(block["misses"]),
                evictions=int(block["evictions"]),
                hit_rate=float(block["hit_rate"]),
                replay_hit_rate=replayed.hit_rate,
                total_seconds=result.total_seconds,
            )
        )

    sweep = CacheSweep(
        platform=features.name,
        workload=spec.name,
        capacities_mb=capacities_mb,
        policies=policies,
        hit_latency_s=hit_latency_s,
        baseline_seconds=baseline.total_seconds,
        trace_accesses=len(pages),
        unique_pages=len(set(pages)),
        belady_hit_rates=belady_rates,
        points=points,
    )
    return CacheSweepOutcome(
        sweep=CACHE_ABLATION_DOC.store(
            cache,
            key,
            CACHE_ABLATION_DOC.to_payload(sweep),
            platform=features.name,
            workload=spec.name,
            seed=seed,
        ),
        key=key,
        from_cache=False,
        cells_executed=outcome.executed,
        cell_cache_hits=outcome.cache_hits,
        images_built=outcome.images_built,
        image_hits=outcome.image_hits,
    )
