"""Open-loop traffic-driven serving simulator (Section VIII under load).

``measure_query_latency`` is closed-loop: one query at a time on an
otherwise idle device, which reports *unloaded* latency but says nothing
about queueing, batching, or where throughput saturates. This module is
the open-loop complement — the DL-service-on-large-graphs setting:

* queries arrive on a deterministic :mod:`~repro.serving.arrivals`
  process (offered load is independent of service progress);
* a bounded queue admits at most ``queue_depth`` waiting queries and
  *sheds* the rest (counted, never silently dropped);
* waiting queries group into dynamic batches — dispatch fires when
  ``max_batch`` queries are waiting, or when the oldest has waited
  ``batch_timeout_s``, or immediately if the timeout is zero;
* up to ``max_live`` batches are in service concurrently (device
  replicas / execution slots);
* each dispatched batch's *service time* is a full BeaconGNN platform
  simulation — the same :class:`~repro.orchestrate.grid.GridCell` per-
  query runs the closed-loop harness uses, fanned through
  :func:`~repro.orchestrate.run_grid` (so every run flows through the
  content-addressed result cache).

The queueing dynamics play out in *virtual service time*: arrivals,
dispatches, and completions are events on one deterministic clock, with
completion scheduled ``service_time`` after dispatch. Per-query latency
is completion minus arrival — queue wait plus batch-formation wait plus
service.

Closed-loop identity: with ``max_batch=1`` and ``max_live=1`` at
vanishing offered load, every query dispatches alone on an idle slot, so
its latency is exactly its run's ``total_seconds`` — and the cells are
constructed identically to ``measure_query_latency`` (same seeds, same
cache keys), which the differential suite pins bit-for-bit.

A finished point is cached whole as a :data:`SERVING_DOC` document beside
its batch cells, so re-rendering a sweep simulates nothing; an unusable
document is a miss that re-renders from the cells.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple, Union

from ..cache.page import CacheConfig
from ..cacheutil import CachedDocument
from ..platforms.features import PlatformFeatures
from ..platforms.registry import platform_by_name
from ..platforms.result import RunResult
from ..platforms.runner import DEFAULT_SCALED_NODES, PreparedWorkload
from ..quantile import latency_summary, mean, percentile
from ..ssd.config import SSDConfig, ull_ssd
from ..workloads.registry import workload_by_name
from ..workloads.specs import WorkloadSpec
from .arrivals import ArrivalProcess

__all__ = [
    "ServingResult",
    "SERVING_DOC",
    "ServingOutcome",
    "BatchService",
    "serve",
    "serving_cache_key",
]

# Event priorities at equal timestamps: a completion frees its slot
# before a simultaneous arrival is admitted, and batch-timeout checks
# run last. Any fixed order is correct; this one is the contract.
_FINISH, _ARRIVAL, _TIMEOUT = 0, 1, 2


@dataclass
class ServingResult:
    """One serving measurement point: traffic in, latency/throughput out.

    ``latencies_s``/``queue_waits_s`` list completed queries in arrival
    order; shed queries appear only in the ``shed`` count.
    ``batch_sizes`` lists queries per dispatched batch in dispatch
    order. Round-trips losslessly through :data:`SERVING_DOC`.
    """

    platform: str
    workload: str
    arrival: Dict  # ArrivalProcess.to_dict() of the offered traffic
    offered_qps: float
    num_queries: int
    query_batch_size: int
    max_batch: int
    batch_timeout_s: float
    queue_depth: int
    max_live: int
    seed: int
    latencies_s: List[float]
    queue_waits_s: List[float]
    shed: int
    batch_sizes: List[int]
    makespan_s: float
    last_arrival_s: float

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    @property
    def realized_qps(self) -> float:
        """The arrival rate this finite sample actually offered.

        A short exponential sample's mean interarrival deviates from
        nominal, so sustained-throughput checks compare achieved rate
        against this, not against the configured ``offered_qps``.
        """
        if self.last_arrival_s <= 0:
            return 0.0
        return self.num_queries / self.last_arrival_s

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.num_queries if self.num_queries else 0.0

    @property
    def achieved_qps(self) -> float:
        """Completed queries per second of virtual time, open-loop."""
        if self.makespan_s <= 0:
            return 0.0
        return self.completed / self.makespan_s

    @property
    def mean_s(self) -> float:
        return mean(self.latencies_s)

    @property
    def p50_s(self) -> float:
        return percentile(self.latencies_s, 50.0)

    @property
    def p99_s(self) -> float:
        return percentile(self.latencies_s, 99.0)

    @property
    def mean_batch_size(self) -> float:
        return mean(self.batch_sizes) if self.batch_sizes else 0.0

    def summary(self) -> Dict[str, float]:
        return latency_summary(self.latencies_s)

    def to_dict(self) -> Dict:
        return {
            "platform": self.platform,
            "workload": self.workload,
            "arrival": dict(self.arrival),
            "offered_qps": self.offered_qps,
            "num_queries": self.num_queries,
            "query_batch_size": self.query_batch_size,
            "max_batch": self.max_batch,
            "batch_timeout_s": self.batch_timeout_s,
            "queue_depth": self.queue_depth,
            "max_live": self.max_live,
            "seed": self.seed,
            "latencies_s": list(self.latencies_s),
            "queue_waits_s": list(self.queue_waits_s),
            "shed": self.shed,
            "batch_sizes": list(self.batch_sizes),
            "makespan_s": self.makespan_s,
            "last_arrival_s": self.last_arrival_s,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ServingResult":
        return cls(
            platform=str(data["platform"]),
            workload=str(data["workload"]),
            arrival=dict(data["arrival"]),
            offered_qps=float(data["offered_qps"]),
            num_queries=int(data["num_queries"]),
            query_batch_size=int(data["query_batch_size"]),
            max_batch=int(data["max_batch"]),
            batch_timeout_s=float(data["batch_timeout_s"]),
            queue_depth=int(data["queue_depth"]),
            max_live=int(data["max_live"]),
            seed=int(data["seed"]),
            latencies_s=[float(v) for v in data["latencies_s"]],
            queue_waits_s=[float(v) for v in data["queue_waits_s"]],
            shed=int(data["shed"]),
            batch_sizes=[int(v) for v in data["batch_sizes"]],
            makespan_s=float(data["makespan_s"]),
            last_arrival_s=float(data["last_arrival_s"]),
        )


#: One serving measurement point, stored beside its batch cells.
SERVING_DOC = CachedDocument("serving", 1, ServingResult, "serving")


@dataclass
class ServingOutcome:
    """A serving run plus its cache accounting.

    ``cells_executed``/``cell_cache_hits`` count the underlying per-batch
    platform simulations; ``from_cache`` means the whole serving document
    came off the result cache and zero cells were even consulted.
    ``batch_results`` holds the per-batch :class:`RunResult`\\ s in
    dispatch order for fresh runs (in-memory only — the differential
    suite compares their digests against the closed-loop harness).
    """

    result: ServingResult
    key: str
    from_cache: bool
    cells_executed: int = 0
    cell_cache_hits: int = 0
    images_built: int = 0
    image_hits: int = 0
    batch_results: Optional[List[RunResult]] = None


class BatchService:
    """Service-time oracle for dispatched batches.

    Resolution order per batch cell: in-memory memo, then the
    content-addressed result cache, then a fresh simulation through
    :func:`~repro.orchestrate.run_grid` (cells run one at a time over
    one warm prepared-image memo, each stored as it finishes).
    One instance is shared across all the points of a load sweep, so a
    query cell simulated for the 10-QPS point is a memo hit at every
    other point that forms the same batch.

    ``require_cached=True`` is passed on to ``run_grid``: any miss
    raises ``KeyError``, never simulates (the warm-cache render path).
    """

    def __init__(
        self,
        *,
        jobs: Optional[int] = 1,
        cache=None,
        image_cache=None,
        require_cached: bool = False,
        executor=None,
    ):
        if require_cached and cache is None:
            raise ValueError("require_cached needs a result cache")
        self.jobs = jobs
        self.cache = cache
        self.image_cache = image_cache
        self.require_cached = require_cached
        self.executor = executor
        self.cells_executed = 0
        self.cell_cache_hits = 0
        self.images_built = 0
        self.image_hits = 0
        self._memo: Dict[str, RunResult] = {}
        self._keys: Dict[object, str] = {}  # GridCell -> cache key

    def _key(self, cell) -> str:
        """The cell's cache key, hashed once per distinct cell."""
        key = self._keys.get(cell)
        if key is None:
            from ..orchestrate.grid import cell_cache_key

            # Serving cells always carry an explicit seed.
            key = self._keys[cell] = cell_cache_key(cell, cell.seed)
        return key

    def prefetch(self, cells) -> None:
        """Resolve many cells through one ``run_grid`` call."""
        from ..orchestrate.grid import run_grid

        todo = [c for c in cells if self._key(c) not in self._memo]
        if not todo:
            return
        outcome = run_grid(
            todo,
            jobs=self.jobs,
            cache=self.cache,
            image_cache=self.image_cache,
            executor=self.executor,
            require_cached=self.require_cached,
        )
        self._memo.update(zip(outcome.keys, outcome.results))
        self.cells_executed += outcome.executed
        self.cell_cache_hits += outcome.cache_hits
        self.images_built += outcome.images_built
        self.image_hits += outcome.image_hits

    def result_for(self, cell) -> RunResult:
        """The :class:`RunResult` of one batch cell (simulating on miss)."""
        key = self._key(cell)
        if key not in self._memo:
            self.prefetch([cell])
        return self._memo[key]


def serving_cache_key(
    platform: PlatformFeatures,
    spec: WorkloadSpec,
    config: SSDConfig,
    arrival: Dict,
    *,
    num_queries: int,
    query_batch_size: int,
    max_batch: int,
    batch_timeout_s: float,
    queue_depth: int,
    max_live: int,
    num_hops: int,
    fanout: int,
    scaled_nodes: int,
    seed: int,
    page_cache: Optional[CacheConfig] = None,
) -> str:
    """Content-addressed cache key for one serving measurement point."""
    run = {
        "num_queries": num_queries,
        "query_batch_size": query_batch_size,
        "max_batch": max_batch,
        "batch_timeout_s": batch_timeout_s,
        "queue_depth": queue_depth,
        "max_live": max_live,
        "num_hops": num_hops,
        "fanout": fanout,
        "scaled_nodes": scaled_nodes,
        "seed": seed,
    }
    if page_cache is not None:
        # included only when set: uncached serving points keep their keys
        run["page_cache"] = page_cache
    return SERVING_DOC.key(
        {
            "platform": platform,
            "workload": spec,
            "ssd_config": config,
            "arrival": arrival,
            "run": run,
        }
    )


def serve(
    platform: Union[str, PlatformFeatures],
    workload: Union[str, WorkloadSpec, PreparedWorkload],
    arrival: ArrivalProcess,
    *,
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
) -> ServingOutcome:
    """Serve ``num_queries`` open-loop queries against one platform.

    Query ``q`` asks for ``query_batch_size`` inference targets on the
    counter stream ``seed + q`` — exactly the cell
    :func:`~repro.platforms.query.measure_query_latency` would run for
    it — and a dynamic batch of queries runs as one platform simulation
    sized to the sum of its queries' targets, seeded by its first query.

    A shared ``service`` (one per load sweep) memoizes batch simulations
    across points; when ``service`` is given it owns the ``jobs`` /
    ``cache`` / ``executor`` knobs and the ones passed here
    are ignored.
    ``require_cached=True`` loads the serving document (or, failing
    that, every needed cell) from cache and raises ``KeyError`` rather
    than simulate.

    ``page_cache`` puts a host-side page cache in each batch's datapath
    (see :func:`repro.platforms.runner.run_platform`): the cache is warm
    per batch simulation, so service times — and with them the
    latency–throughput knee — shift accordingly.
    """
    from ..orchestrate.grid import GridCell, adopt_prepared

    if num_queries < 1:
        raise ValueError("need at least one query")
    if query_batch_size < 1:
        raise ValueError("query_batch_size must be >= 1")
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    if batch_timeout_s < 0:
        raise ValueError("batch_timeout_s must be >= 0")
    if queue_depth < 1:
        raise ValueError("queue_depth must be >= 1")
    if max_live < 1:
        raise ValueError("max_live must be >= 1")

    features = (
        platform
        if isinstance(platform, PlatformFeatures)
        else platform_by_name(platform)
    )
    config = ssd_config or ull_ssd()

    prepared: Optional[PreparedWorkload] = None
    if isinstance(workload, PreparedWorkload):
        prepared = workload
        spec = prepared.spec
        scaled_nodes = spec.num_nodes
    else:
        # mirror measure_query_latency's scaling rule
        spec = workload_by_name(workload) if isinstance(workload, str) else workload
        scaled_nodes = DEFAULT_SCALED_NODES

    arrival_doc = arrival.to_dict()
    key = serving_cache_key(
        features,
        spec,
        config,
        arrival_doc,
        num_queries=num_queries,
        query_batch_size=query_batch_size,
        max_batch=max_batch,
        batch_timeout_s=batch_timeout_s,
        queue_depth=queue_depth,
        max_live=max_live,
        num_hops=num_hops,
        fanout=fanout,
        scaled_nodes=scaled_nodes,
        seed=seed,
        page_cache=page_cache,
    )
    cached = SERVING_DOC.load(cache, key)
    if cached is not None:
        return ServingOutcome(result=cached, key=key, from_cache=True)

    if service is None:
        service = BatchService(
            jobs=jobs,
            cache=cache,
            image_cache=image_cache,
            require_cached=require_cached,
            executor=executor,
        )
    executed_before = service.cells_executed
    hits_before = service.cell_cache_hits
    images_before = service.images_built
    image_hits_before = service.image_hits

    if prepared is not None:
        adopt_prepared(prepared)

    def query_cell(first_query: int, n_queries: int) -> GridCell:
        return GridCell(
            platform=features,
            workload=spec,
            ssd_config=ssd_config,
            batch_size=n_queries * query_batch_size,
            num_batches=1,
            num_hops=num_hops,
            fanout=fanout,
            seed=seed + first_query,
            scaled_nodes=scaled_nodes,
            page_cache=page_cache,
        )

    arrivals = arrival.times(num_queries)
    if any(b < a for a, b in zip(arrivals, arrivals[1:])):
        raise ValueError("arrival process produced decreasing timestamps")

    # Single-query batches are fully determined by the arrival index, so
    # the whole query population fans out through one grid up front (shared across every sweep point via the service memo).
    if max_batch == 1 and not service.require_cached:
        service.prefetch([query_cell(q, 1) for q in range(num_queries)])

    # -- virtual-time event loop -------------------------------------------
    waiting: Deque[int] = deque()
    heap: List[Tuple[float, int, int, int]] = []
    seq = 0
    for i, t in enumerate(arrivals):
        heap.append((t, _ARRIVAL, seq, i))
        seq += 1
    heapq.heapify(heap)

    waits: Dict[int, float] = {}
    latencies: Dict[int, float] = {}
    shed: List[int] = []
    batches: List[Dict] = []  # {"indices": [...], "result": RunResult}
    makespan = 0.0
    free_slots = max_live
    timeout_armed_for = -1

    def dispatch_ready(now: float) -> None:
        nonlocal free_slots, seq, timeout_armed_for
        while free_slots > 0 and waiting:
            if len(waiting) >= max_batch:
                size = max_batch
            elif batch_timeout_s <= 0.0:
                size = len(waiting)
            elif now >= arrivals[waiting[0]] + batch_timeout_s:
                size = len(waiting)
            else:
                if timeout_armed_for != waiting[0]:
                    timeout_armed_for = waiting[0]
                    heapq.heappush(
                        heap,
                        (
                            arrivals[waiting[0]] + batch_timeout_s,
                            _TIMEOUT,
                            seq,
                            waiting[0],
                        ),
                    )
                    seq += 1
                return
            indices = [waiting.popleft() for _ in range(size)]
            result = service.result_for(query_cell(indices[0], len(indices)))
            # Latency is wait + service, NOT finish-minus-arrival: the
            # latter re-derives the service time through a float
            # add/subtract pair and drifts ulps off the closed-loop
            # harness's raw RunResult.total_seconds.
            for q in indices:
                waits[q] = now - arrivals[q]
                latencies[q] = waits[q] + result.total_seconds
            batches.append({"indices": indices, "result": result})
            free_slots -= 1
            heapq.heappush(
                heap,
                (now + result.total_seconds, _FINISH, seq, len(batches) - 1),
            )
            seq += 1

    while heap:
        now, priority, _seq, payload = heapq.heappop(heap)
        if priority == _FINISH:
            makespan = max(makespan, now)
            free_slots += 1
            dispatch_ready(now)
        elif priority == _ARRIVAL:
            if len(waiting) >= queue_depth:
                shed.append(payload)
            else:
                waiting.append(payload)
                dispatch_ready(now)
        else:  # _TIMEOUT
            if timeout_armed_for == payload:
                timeout_armed_for = -1
            dispatch_ready(now)

    assert not waiting, "serving event loop ended with queries still queued"

    completed = [q for q in range(num_queries) if q in latencies]
    result = ServingResult(
        platform=features.name,
        workload=spec.name,
        arrival=arrival_doc,
        offered_qps=arrival.mean_rate_qps,
        num_queries=num_queries,
        query_batch_size=query_batch_size,
        max_batch=max_batch,
        batch_timeout_s=batch_timeout_s,
        queue_depth=queue_depth,
        max_live=max_live,
        seed=seed,
        latencies_s=[latencies[q] for q in completed],
        queue_waits_s=[waits[q] for q in completed],
        shed=len(shed),
        batch_sizes=[len(b["indices"]) for b in batches],
        makespan_s=makespan,
        last_arrival_s=arrivals[-1],
    )
    return ServingOutcome(
        result=SERVING_DOC.store(
            cache,
            key,
            SERVING_DOC.to_stored(result),
            platform=features.name,
            workload=spec.name,
            offered_qps=result.offered_qps,
            seed=seed,
        ),
        key=key,
        from_cache=False,
        cells_executed=service.cells_executed - executed_before,
        cell_cache_hits=service.cell_cache_hits - hits_before,
        images_built=service.images_built - images_before,
        image_hits=service.image_hits - image_hits_before,
        batch_results=[b["result"] for b in batches],
    )
