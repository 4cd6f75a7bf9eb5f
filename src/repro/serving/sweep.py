"""Load sweeps: offered QPS in, latency–throughput curve and knee out.

One :func:`sweep_serving` call serves the same query population at each
offered rate on a grid and reports, per point, achieved throughput and
the latency distribution. The interesting feature of the curve is the
*knee*: below it the platform tracks offered load with flat latency;
above it the queue grows over the whole run, achieved throughput
plateaus at the service capacity, and p99 blows up. :func:`find_knee`
names the last offered rate the platform actually sustained.

All points share one :class:`~repro.serving.simulator.BatchService`, so
a batch simulated at one rate is a memo hit at every other rate that
forms the same batch — for single-query batches the entire sweep costs
one simulation per query, total, regardless of how many rates the grid
has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..cache.page import CacheConfig
from ..platforms.features import PlatformFeatures
from ..platforms.runner import PreparedWorkload
from ..ssd.config import SSDConfig
from ..workloads.specs import WorkloadSpec
from .arrivals import make_arrival
from .simulator import BatchService, ServingOutcome, serve

__all__ = ["ServingSweep", "sweep_serving", "find_knee"]

# An offered rate counts as sustained when achieved throughput reaches
# this fraction of it (open-loop runs always lose a little to the tail:
# the last queries finish after the last arrival).
DEFAULT_SUSTAIN = 0.95


@dataclass
class ServingSweep:
    """One platform's latency–throughput curve over a QPS grid."""

    platform: str
    workload: str
    outcomes: List[ServingOutcome]

    @property
    def offered_qps(self) -> List[float]:
        return [o.result.offered_qps for o in self.outcomes]

    @property
    def achieved_qps(self) -> List[float]:
        return [o.result.achieved_qps for o in self.outcomes]

    @property
    def realized_qps(self) -> List[float]:
        return [o.result.realized_qps for o in self.outcomes]

    @property
    def p50_s(self) -> List[float]:
        return [o.result.p50_s for o in self.outcomes]

    @property
    def p99_s(self) -> List[float]:
        return [o.result.p99_s for o in self.outcomes]

    @property
    def cells_executed(self) -> int:
        return sum(o.cells_executed for o in self.outcomes)

    @property
    def cell_cache_hits(self) -> int:
        return sum(o.cell_cache_hits for o in self.outcomes)

    @property
    def points_from_cache(self) -> int:
        return sum(1 for o in self.outcomes if o.from_cache)

    @property
    def knee_qps(self) -> Optional[float]:
        # Sustain is judged against the rate the finite sample actually
        # offered (see ServingResult.realized_qps); the returned value is
        # the nominal grid rate so callers can index back into the grid.
        return find_knee(
            self.offered_qps, self.achieved_qps, reference=self.realized_qps
        )

    def rows(self) -> List[Dict[str, float]]:
        """Per-point summary rows for tables/plots."""
        return [
            {
                "offered_qps": o.result.offered_qps,
                "achieved_qps": o.result.achieved_qps,
                "p50_s": o.result.p50_s,
                "p99_s": o.result.p99_s,
                "mean_batch": o.result.mean_batch_size,
                "shed": float(o.result.shed),
                "completed": float(o.result.completed),
            }
            for o in self.outcomes
        ]


def find_knee(
    offered: Sequence[float],
    achieved: Sequence[float],
    *,
    sustain: float = DEFAULT_SUSTAIN,
    reference: Optional[Sequence[float]] = None,
) -> Optional[float]:
    """The highest offered rate the platform sustained, scanning upward.

    A point sustains when ``achieved >= sustain * reference`` — the
    reference defaults to the nominal offered rate, but sweeps pass the
    *realized* arrival rate of the finite sample (a short exponential
    sample routinely misses nominal by more than the sustain margin).
    The scan stops at the first unsustained point — beyond saturation,
    achieved throughput plateaus, so later points can't sustain either
    and any accidental ratio recovery there would be noise, not
    capacity. Returns ``None`` when even the lowest rate overloads.
    """
    if reference is None:
        reference = offered
    if not (len(offered) == len(achieved) == len(reference)):
        raise ValueError("offered, achieved, and reference must align")
    knee: Optional[float] = None
    for off, ach, ref in zip(offered, achieved, reference):
        if ach >= sustain * ref:
            knee = off
        else:
            break
    return knee


def sweep_serving(
    platform: Union[str, PlatformFeatures],
    workload: Union[str, WorkloadSpec, PreparedWorkload],
    qps_grid: Sequence[float],
    *,
    arrival_kind: str = "poisson",
    on_s: float = 0.02,
    off_s: float = 0.08,
    num_queries: int = 32,
    query_batch_size: int = 1,
    max_batch: int = 1,
    batch_timeout_s: float = 0.0,
    queue_depth: int = 64,
    max_live: int = 1,
    num_hops: int = 3,
    fanout: int = 3,
    ssd_config: Optional[SSDConfig] = None,
    seed: int = 0,
    jobs: Optional[int] = 1,
    cache=None,
    image_cache=None,
    require_cached: bool = False,
    executor=None,
    service: Optional[BatchService] = None,
    page_cache: Optional[CacheConfig] = None,
) -> ServingSweep:
    """Serve the query population at every rate in ``qps_grid``.

    ``qps_grid`` lists offered *average* rates (for ``onoff`` traffic the
    burst rate is scaled so the average matches — see
    :func:`~repro.serving.arrivals.make_arrival`). Points run in grid
    order against one shared :class:`BatchService`; pass ``service`` to
    share the memo even wider (e.g. across platforms on one workload).
    """
    if not qps_grid:
        raise ValueError("qps_grid must not be empty")
    if service is None:
        service = BatchService(
            jobs=jobs,
            cache=cache,
            image_cache=image_cache,
            require_cached=require_cached,
            executor=executor,
        )
    outcomes = [
        serve(
            platform,
            workload,
            make_arrival(arrival_kind, qps, seed=seed, on_s=on_s, off_s=off_s),
            num_queries=num_queries,
            query_batch_size=query_batch_size,
            max_batch=max_batch,
            batch_timeout_s=batch_timeout_s,
            queue_depth=queue_depth,
            max_live=max_live,
            num_hops=num_hops,
            fanout=fanout,
            ssd_config=ssd_config,
            seed=seed,
            cache=cache,
            service=service,
            page_cache=page_cache,
        )
        for qps in qps_grid
    ]
    first = outcomes[0].result
    return ServingSweep(
        platform=first.platform, workload=first.workload, outcomes=outcomes
    )
