"""Computational storage arrays (Section VIII, "Practicality and future
proof").

The paper projects that multiple BeaconGNN SSDs connected by direct P2P
links scale storage capacity and computation linearly. We model an
N-device array as a genuinely *sharded* simulation:

* the graph is hash-partitioned across devices (:func:`partition_nodes`,
  a keyed ``counter_draw`` per node, so ownership is a pure function of
  ``(seed, node)``);
* each device serves its slice of the array batch
  (:func:`shard_batch_sizes`; sizes differ by at most one and sum to
  ``batch_size``) by running the standard BeaconGNN pipeline with its own
  :func:`derive_shard_seed` counter stream, fanned out through
  ``repro.orchestrate.run_grid`` — so shards run on worker processes,
  flow through the content-addressed result cache, and are bit-identical
  for ``jobs=1`` vs ``jobs=N``;
* cross-partition traffic is *measured*: each shard's sampling trace
  (``run_platform(sample_trace=True)``) names every sampled node, and
  every sample owned by another device contributes one feature vector to
  the per-link exchange matrix. The vectors drain over the array's P2P
  links in a deterministic exchange round after the slowest device
  finishes. Passing ``cross_partition_fraction`` instead selects the
  legacy analytic traffic model (the two agree when the fraction equals
  the measured remote ratio).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..cacheutil import CachedDocument
from ..directgraph.layout import DEFAULT_LAYOUT, LAYOUTS
from ..gnn.sampling import tree_capacity
from ..partition import DEFAULT_PARTITIONER, PARTITIONERS, partition_graph
from ..rng import counter_draw, stream_seed
from ..ssd.config import SSDConfig, ull_ssd
from ..workloads.registry import workload_by_name
from ..workloads.specs import WorkloadSpec
from .features import PlatformFeatures
from .registry import platform_by_name
from .result import RunResult
from .runner import DEFAULT_SCALED_NODES, PreparedWorkload

__all__ = [
    "P2pLink",
    "ScaleOutResult",
    "SCALEOUT_DOC",
    "ScaleOutOutcome",
    "run_scaleout",
    "scaleout_outcome",
    "scaleout_cache_key",
    "shard_of",
    "partition_nodes",
    "shard_batch_sizes",
    "derive_shard_seed",
]

FP16_BYTES = 2

# Distinct key-space salts: ownership draws, shard seed streams, and
# routed target draws must never collide with each other or with sampler
# draws from the same seed.
_PARTITION_SALT = 0x5EED_0001
_SHARD_SALT = 0x5EED_0002
_ROUTE_SALT = 0x5EED_0004


@dataclass(frozen=True)
class P2pLink:
    """Direct SSD-to-SSD link (PCIe P2P class)."""

    bandwidth_bps: float = 6.0e9
    per_batch_sync_s: float = 5e-6  # array-level coordination per batch


def shard_of(node: int, num_devices: int, seed: int) -> int:
    """Owning device of ``node`` under the array's hash partition."""
    return counter_draw(seed, _PARTITION_SALT, int(node)) % num_devices


def partition_nodes(
    num_nodes: int,
    num_devices: int,
    seed: int,
    *,
    partitioner: str = DEFAULT_PARTITIONER,
    graph=None,
) -> np.ndarray:
    """Ownership map ``owner[node] -> device``, packed int32.

    Delegates to :func:`repro.partition.partition_graph`: the default
    ``"hash"`` reproduces the original :func:`shard_of` stream
    bit-for-bit (and needs no ``graph``); the locality-aware policies
    (``"greedy-edgecut"``, ``"label-prop"``) require one.
    """
    return partition_graph(
        num_nodes, num_devices, seed, partitioner=partitioner, graph=graph
    )


def shard_batch_sizes(batch_size: int, num_devices: int) -> List[int]:
    """Per-device target counts for one array batch.

    Sizes differ by at most one and always sum to ``batch_size``: 64
    targets on 3 devices serve ``[22, 21, 21]``. (The previous model
    rounded every shard up — 3 x 22 = 66 — overcounting targets.)
    """
    base, rem = divmod(batch_size, num_devices)
    return [base + 1 if s < rem else base for s in range(num_devices)]


def derive_shard_seed(seed: int, shard: int) -> int:
    """Deterministic per-shard seed, independent of jobs and run order."""
    return stream_seed(seed, _SHARD_SALT, shard)


@dataclass
class ScaleOutResult:
    """Aggregate behaviour of an N-SSD BeaconGNN array.

    ``cross_partition_fraction`` is ``None`` when the P2P exchange was
    sized from the measured per-shard sampling traces (the default), or
    the analytic fraction the caller requested. The measured accounting
    (``remote_samples``, ``link_vectors``, ``measured_remote_fraction``)
    is recorded either way.
    """

    num_devices: int
    per_device: List[RunResult]
    shard_batch_sizes: List[int]
    cross_partition_fraction: Optional[float]
    measured_remote_fraction: float
    remote_samples: List[int]
    link_vectors: List[List[int]]
    link: P2pLink
    p2p_seconds_per_batch: float
    batch_seconds: float
    total_targets: int
    total_seconds: float
    # Set only for locality-aware partitions (routed arrays); None means
    # the original hash partition, keeping pre-partitioner payloads —
    # and their golden digests — byte-identical.
    partitioner: Optional[str] = None

    @property
    def mode(self) -> str:
        return "analytic" if self.cross_partition_fraction is not None else "measured"

    @property
    def total_remote_vectors(self) -> int:
        """Measured feature vectors that crossed a P2P link, all batches."""
        return sum(self.remote_samples)

    @property
    def throughput_targets_per_sec(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.total_targets / self.total_seconds

    def scaling_efficiency(self, single: "ScaleOutResult") -> float:
        """Measured speedup over an ideal N x single-device array."""
        ideal = single.throughput_targets_per_sec * self.num_devices
        if ideal <= 0:
            return 0.0
        return self.throughput_targets_per_sec / ideal

    # -- lossless serialization (result cache) ------------------------------

    def to_dict(self) -> Dict:
        data = {
            "num_devices": self.num_devices,
            "per_device": [r.to_dict() for r in self.per_device],
            "shard_batch_sizes": list(self.shard_batch_sizes),
            "cross_partition_fraction": self.cross_partition_fraction,
            "measured_remote_fraction": self.measured_remote_fraction,
            "remote_samples": list(self.remote_samples),
            "link_vectors": [list(row) for row in self.link_vectors],
            "link": {
                "bandwidth_bps": self.link.bandwidth_bps,
                "per_batch_sync_s": self.link.per_batch_sync_s,
            },
            "p2p_seconds_per_batch": self.p2p_seconds_per_batch,
            "batch_seconds": self.batch_seconds,
            "total_targets": self.total_targets,
            "total_seconds": self.total_seconds,
        }
        if self.partitioner is not None:
            data["partitioner"] = self.partitioner
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ScaleOutResult":
        fraction = data["cross_partition_fraction"]
        return cls(
            num_devices=int(data["num_devices"]),
            per_device=[RunResult.from_dict(r) for r in data["per_device"]],
            shard_batch_sizes=[int(s) for s in data["shard_batch_sizes"]],
            cross_partition_fraction=None if fraction is None else float(fraction),
            measured_remote_fraction=float(data["measured_remote_fraction"]),
            remote_samples=[int(v) for v in data["remote_samples"]],
            link_vectors=[[int(v) for v in row] for row in data["link_vectors"]],
            link=P2pLink(
                bandwidth_bps=float(data["link"]["bandwidth_bps"]),
                per_batch_sync_s=float(data["link"]["per_batch_sync_s"]),
            ),
            p2p_seconds_per_batch=float(data["p2p_seconds_per_batch"]),
            batch_seconds=float(data["batch_seconds"]),
            total_targets=int(data["total_targets"]),
            total_seconds=float(data["total_seconds"]),
            partitioner=data.get("partitioner"),
        )


#: The whole-array document, stored beside its shard cells.
SCALEOUT_DOC = CachedDocument("scaleout", 1, ScaleOutResult, "scaleout")


@dataclass
class ScaleOutOutcome:
    """A scale-out run plus its cache accounting.

    ``shards_executed``/``shard_cache_hits`` report the underlying grid's
    per-shard cells; ``from_cache`` means the whole array result came off
    the scale-out document and zero shards were even consulted.
    """

    result: ScaleOutResult
    key: str
    from_cache: bool
    shards_executed: int = 0
    shard_cache_hits: int = 0
    images_built: int = 0
    image_hits: int = 0


def scaleout_cache_key(
    num_devices: int,
    platform: PlatformFeatures,
    spec: WorkloadSpec,
    config: SSDConfig,
    *,
    batch_size: int,
    num_batches: int,
    num_hops: int,
    fanout: int,
    cross_partition_fraction: Optional[float],
    link: P2pLink,
    seed: int,
    partitioner: str = DEFAULT_PARTITIONER,
    layout: str = DEFAULT_LAYOUT,
) -> str:
    """Content-addressed cache key for one array configuration.

    ``partitioner``/``layout`` join the key only when they differ from
    the defaults, so every pre-existing hash/node-order document keeps
    its key.
    """
    run: Dict = {
        "num_devices": num_devices,
        "batch_size": batch_size,
        "num_batches": num_batches,
        "num_hops": num_hops,
        "fanout": fanout,
        "cross_partition_fraction": cross_partition_fraction,
        "seed": seed,
    }
    if partitioner != DEFAULT_PARTITIONER:
        run["partitioner"] = partitioner
    if layout != DEFAULT_LAYOUT:
        run["layout"] = layout
    return SCALEOUT_DOC.key(
        {
            "platform": platform,
            "workload": spec,
            "ssd_config": config,
            "link": link,
            "run": run,
        }
    )


def _route_targets(
    owner: np.ndarray,
    num_nodes: int,
    batch_size: int,
    num_batches: int,
    num_devices: int,
    seed: int,
) -> List[Tuple[Tuple[int, ...], ...]]:
    """Array-level target draws, routed to each target's owning device.

    One ``_ROUTE_SALT`` counter stream draws every batch's targets for
    the whole array (without replacement when the graph allows), then
    each device gets exactly its owned slice — so with a locality-aware
    partition the roots of every sampled tree are local by construction,
    and the per-batch union across devices is the same ``batch_size``
    targets regardless of partitioner.
    """
    rng = np.random.default_rng(stream_seed(seed, _ROUTE_SALT))
    per_device: List[List[Tuple[int, ...]]] = [[] for _ in range(num_devices)]
    for _ in range(num_batches):
        if num_nodes >= batch_size:
            draws = rng.choice(num_nodes, size=batch_size, replace=False)
        else:
            draws = rng.integers(0, num_nodes, size=batch_size)
        for s in range(num_devices):
            per_device[s].append(tuple(int(t) for t in draws[owner[draws] == s]))
    return [tuple(batches) for batches in per_device]


def scaleout_outcome(
    num_devices: int,
    platform: Union[str, PlatformFeatures],
    workload: Union[str, WorkloadSpec, PreparedWorkload],
    *,
    batch_size: int = 64,
    num_batches: int = 2,
    num_hops: int = 3,
    fanout: int = 3,
    cross_partition_fraction: Optional[float] = None,
    link: Optional[P2pLink] = None,
    ssd_config: Optional[SSDConfig] = None,
    seed: int = 0,
    jobs: Optional[int] = 1,
    cache=None,
    image_cache=None,
    require_cached: bool = False,
    executor=None,
    partitioner: str = DEFAULT_PARTITIONER,
    layout: str = DEFAULT_LAYOUT,
) -> ScaleOutOutcome:
    """Simulate an N-device BeaconGNN array, with caching and fan-out.

    Each device serves its :func:`shard_batch_sizes` slice of the array
    batch on its own :func:`derive_shard_seed` counter stream; shards run
    through :func:`repro.orchestrate.run_grid` (``jobs`` workers, shared
    ``cache``/``image_cache``), so repeated calls reuse per-shard results
    and the whole-array document, and ``jobs=N`` is bit-identical to
    ``jobs=1``.

    The array batch completes when the slowest device finishes and the
    cross-shard feature vectors — measured from the shards' sampling
    traces against the array's partition, or sized by the analytic
    ``cross_partition_fraction`` when one is given — have drained over
    the ``num_devices`` P2P ports in one exchange round.

    ``partitioner`` selects the ownership map
    (:data:`repro.partition.PARTITIONERS`). The default ``"hash"`` keeps
    the original model bit-for-bit: each shard draws its own uniform
    targets. A locality-aware partitioner instead *routes*: one array
    stream draws every batch's targets and each device serves exactly
    the targets it owns (:func:`_route_targets`), so the measured
    ``link_vectors`` reflect the partition's locality.

    ``layout`` selects the DirectGraph page layout every device builds
    (:data:`repro.directgraph.LAYOUTS`); layouts never change the
    sampled trees, only which flash pages the walks touch.

    ``require_cached=True`` never simulates (the warm-cache figure path):
    a missing array document is re-rendered from the cached shard cells
    and rewritten, ``KeyError`` is raised when a shard cell is missing,
    and ``ValueError`` without a ``cache``.
    """
    from ..directgraph import builder as _builder
    from ..directgraph import imagecache as _imagecache
    from ..orchestrate.grid import (
        GridCell,
        _prepared_for,
        _resolve_image_cache,
        adopt_prepared,
        outcome_from_cache,
        run_grid,
    )

    if require_cached and cache is None:
        raise ValueError("require_cached needs a result cache")
    if num_devices < 1:
        raise ValueError("need at least one device")
    if num_batches < 1:
        raise ValueError("need at least one batch")
    if partitioner not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {partitioner!r}; available: "
            f"{', '.join(PARTITIONERS)}"
        )
    if layout not in LAYOUTS:
        raise ValueError(
            f"unknown layout {layout!r}; available: {', '.join(LAYOUTS)}"
        )
    if batch_size < num_devices:
        raise ValueError(
            f"batch_size ({batch_size}) must be >= num_devices "
            f"({num_devices}): every device serves at least one target "
            "per array batch"
        )
    if cross_partition_fraction is not None and not (
        0.0 <= cross_partition_fraction <= 1.0
    ):
        raise ValueError("cross_partition_fraction must be in [0, 1]")
    link = link or P2pLink()
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
        if prepared.image.spec.page_size != config.flash.page_size:
            raise ValueError(
                f"prepared image page size {prepared.image.spec.page_size} "
                f"differs from SSD page size {config.flash.page_size}"
            )
        if prepared.layout != layout:
            raise ValueError(
                f"prepared workload uses layout {prepared.layout!r}, "
                f"array requested {layout!r}"
            )
    else:
        spec = workload_by_name(workload) if isinstance(workload, str) else workload
        # mirror run_platform's scaling rule
        if spec.num_nodes > DEFAULT_SCALED_NODES:
            spec = spec.scaled(DEFAULT_SCALED_NODES)

    key = scaleout_cache_key(
        num_devices,
        features,
        spec,
        config,
        batch_size=batch_size,
        num_batches=num_batches,
        num_hops=num_hops,
        fanout=fanout,
        cross_partition_fraction=cross_partition_fraction,
        link=link,
        seed=seed,
        partitioner=partitioner,
        layout=layout,
    )
    cached = SCALEOUT_DOC.load(cache, key)
    if cached is not None:
        return ScaleOutOutcome(result=cached, key=key, from_cache=True)

    builds_before = _builder.BUILD_COUNTER.count
    image_hits_before = _imagecache.COUNTERS.hits

    if prepared is not None:
        adopt_prepared(prepared)

    owner: Optional[np.ndarray] = None
    routed: Optional[List[Tuple[Tuple[int, ...], ...]]] = None
    if partitioner != DEFAULT_PARTITIONER:
        # Locality-aware ownership needs the graph up front (and the
        # routed target draws need the ownership); the prepared image is
        # adopted into the grid memo so shards never rebuild it.
        if prepared is None:
            icache = _resolve_image_cache(image_cache, cache)
            prepared = _prepared_for(
                spec,
                config.flash.page_size,
                str(icache.root) if icache is not None else None,
                layout,
            )
        owner = partition_nodes(
            spec.num_nodes, num_devices, seed,
            partitioner=partitioner, graph=prepared.graph,
        )
        routed = _route_targets(
            owner, spec.num_nodes, batch_size, num_batches, num_devices, seed
        )

    sizes = shard_batch_sizes(batch_size, num_devices)
    cells = [
        GridCell(
            platform=features,
            workload=spec,
            ssd_config=ssd_config,
            batch_size=sizes[s],
            num_batches=num_batches,
            num_hops=num_hops,
            fanout=fanout,
            seed=derive_shard_seed(seed, s),
            scaled_nodes=spec.num_nodes,
            sample_trace=True,
            layout=layout,
            targets=routed[s] if routed is not None else None,
        )
        for s in range(num_devices)
    ]
    if require_cached:
        grid = outcome_from_cache(cells, cache)
    else:
        grid = run_grid(
            cells,
            jobs=jobs,
            cache=cache,
            image_cache=image_cache,
            executor=executor,
        )
    devices: List[RunResult] = grid.results

    # Measured exchange: every sampled position whose node lives on a
    # foreign shard sends one feature vector owner -> requesting device.
    if owner is None:
        owner = partition_nodes(spec.num_nodes, num_devices, seed)
    link_vectors = [[0] * num_devices for _ in range(num_devices)]
    remote_samples = [0] * num_devices
    candidates = 0
    for s, shard_result in enumerate(devices):
        for batch in shard_result.sample_trace or []:
            for _target, _position, node, depth in batch:
                candidates += 1
                if depth == 0:
                    continue  # the target's own feature read is always local
                owning = owner[node]
                if owning != s:
                    link_vectors[owning][s] += 1
                    remote_samples[s] += 1
    total_remote = sum(remote_samples)
    measured_fraction = total_remote / candidates if candidates else 0.0

    positions = tree_capacity((fanout,) * num_hops)
    if cross_partition_fraction is None:
        remote_vectors = float(total_remote)
    else:
        remote_vectors = (
            batch_size * positions * num_batches * cross_partition_fraction
        )
    p2p_bytes = remote_vectors * spec.feature_dim * FP16_BYTES
    # One exchange round per array batch: the batch's remote vectors
    # drain across the array's num_devices P2P ports in parallel.
    p2p_seconds = (
        (p2p_bytes / num_batches) / (link.bandwidth_bps * num_devices)
        + link.per_batch_sync_s
        if num_devices > 1
        else 0.0
    )

    slowest_batch = max(
        (d.total_seconds / num_batches for d in devices), default=0.0
    )
    batch_seconds = slowest_batch + p2p_seconds
    result = ScaleOutResult(
        num_devices=num_devices,
        per_device=devices,
        shard_batch_sizes=sizes,
        cross_partition_fraction=cross_partition_fraction,
        measured_remote_fraction=measured_fraction,
        remote_samples=remote_samples,
        link_vectors=link_vectors,
        link=link,
        p2p_seconds_per_batch=p2p_seconds,
        batch_seconds=batch_seconds,
        total_targets=batch_size * num_batches,
        total_seconds=batch_seconds * num_batches,
        partitioner=(
            partitioner if partitioner != DEFAULT_PARTITIONER else None
        ),
    )
    return ScaleOutOutcome(
        result=SCALEOUT_DOC.store(
            cache,
            key,
            SCALEOUT_DOC.to_payload(result),
            platform=features.name,
            workload=spec.name,
            num_devices=num_devices,
            seed=seed,
        ),
        key=key,
        from_cache=False,
        shards_executed=grid.executed,
        shard_cache_hits=grid.cache_hits,
        # function-wide deltas: a routed array prepares its image before
        # the grid runs, and that build/hit must count too
        images_built=_builder.BUILD_COUNTER.count - builds_before,
        image_hits=_imagecache.COUNTERS.hits - image_hits_before,
    )


def run_scaleout(
    num_devices: int,
    platform: Union[str, PlatformFeatures],
    workload: Union[str, WorkloadSpec, PreparedWorkload],
    *,
    batch_size: int = 64,
    num_batches: int = 2,
    num_hops: int = 3,
    fanout: int = 3,
    cross_partition_fraction: Optional[float] = None,
    link: Optional[P2pLink] = None,
    ssd_config: Optional[SSDConfig] = None,
    seed: int = 0,
    jobs: Optional[int] = 1,
    cache=None,
    image_cache=None,
    executor=None,
    partitioner: str = DEFAULT_PARTITIONER,
    layout: str = DEFAULT_LAYOUT,
) -> ScaleOutResult:
    """Simulate an N-device BeaconGNN array on one workload.

    Thin wrapper over :func:`scaleout_outcome` returning just the
    :class:`ScaleOutResult`; see there for the sharding, partitioner,
    layout, exchange, and caching semantics.
    """
    return scaleout_outcome(
        num_devices,
        platform,
        workload,
        batch_size=batch_size,
        num_batches=num_batches,
        num_hops=num_hops,
        fanout=fanout,
        cross_partition_fraction=cross_partition_fraction,
        link=link,
        ssd_config=ssd_config,
        seed=seed,
        jobs=jobs,
        cache=cache,
        image_cache=image_cache,
        executor=executor,
        partitioner=partitioner,
        layout=layout,
    ).result
