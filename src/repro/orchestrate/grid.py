"""Parallel experiment fan-out: ``run_grid`` over (platform, workload) cells.

Every benchmark grid in this repo is embarrassingly parallel — each
(platform, workload, config) cell is one independent discrete-event
simulation. :func:`run_grid` fans a grid across worker processes and
funnels results through the content-addressed :class:`ResultCache`.

Determinism contract: a cell's result depends only on the cell itself
(and, when its seed is left unset, on the grid ``base_seed``), never on
worker count or execution order. Per-cell seeds are derived with the
same ``repro.rng`` counter stream used by the samplers — keyed by the
cell's content hash — so ``--jobs 8`` is bit-identical to ``--jobs 1``,
and a cached result is bit-identical to a fresh one: both are rebuilt by
:data:`CELL_DOC` from the same stored payload, a fresh one as the
simulation built it (:meth:`CachedDocument.store`) and a cached one as
decoded from disk (:meth:`CachedDocument.load`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cacheutil import CachedDocument
from ..directgraph import builder as _builder
from ..directgraph import imagecache as _imagecache
from ..cache.page import CacheConfig
from ..directgraph.imagecache import ImageCache
from ..platforms.background import BackgroundIoConfig
from ..platforms.features import PlatformFeatures
from ..platforms.registry import platform_by_name
from ..platforms.result import RunResult
from ..directgraph.layout import DEFAULT_LAYOUT
from ..platforms.runner import DEFAULT_SCALED_NODES, PreparedWorkload
from ..rng import stream_seed
from ..ssd.config import SSDConfig, ull_ssd
from ..workloads.registry import workload_by_name
from ..workloads.specs import WorkloadSpec
from .cache import ResultCache, stable_hash

__all__ = [
    "CELL_DOC",
    "GridCell",
    "GridOutcome",
    "run_grid",
    "load_cached",
    "derive_cell_seed",
    "cell_cache_key",
    "adopt_prepared",
]

#: One simulated grid cell. Untagged: the golden RunResult digests hash
#: its list form (:meth:`CachedDocument.to_payload`, schema 1), which has
#: never carried a ``"kind"`` field. The cache stores the column form
#: (:meth:`RunResult.to_columns`, schema 2): its record arrays as hex
#: text of their little-endian bytes.
CELL_DOC = CachedDocument("cell", 1, RunResult, "result", tagged=False, column_schema=2)


@dataclass(frozen=True)
class GridCell:
    """One experiment: a platform on a workload under one configuration.

    ``platform`` and ``workload`` accept registry names or resolved
    objects; both hash identically in the cache key. ``seed=None`` asks
    :func:`run_grid` to derive a deterministic per-cell seed from its
    ``base_seed`` and the cell's content.
    """

    platform: Union[str, PlatformFeatures]
    workload: Union[str, WorkloadSpec]
    ssd_config: Optional[SSDConfig] = None
    batch_size: int = 64
    num_batches: int = 3
    num_hops: int = 3
    fanout: int = 3
    hidden_dim: int = 128
    seed: Optional[int] = None
    scaled_nodes: int = DEFAULT_SCALED_NODES
    pipeline_overlap: bool = True
    sample_trace: bool = False
    background_io: Optional[BackgroundIoConfig] = None
    page_cache: Optional[CacheConfig] = None
    # DirectGraph page layout (see repro.directgraph.layout.LAYOUTS);
    # the default keeps pre-layout cache keys and image bytes.
    layout: str = DEFAULT_LAYOUT
    # Explicit per-batch target tuples (len == num_batches, may be
    # ragged/empty); None keeps the seeded target picker. The scale-out
    # router uses this to hand each device its owned slice of a batch.
    targets: Optional[Tuple[Tuple[int, ...], ...]] = None

    def resolved_platform(self) -> PlatformFeatures:
        if isinstance(self.platform, PlatformFeatures):
            return self.platform
        return platform_by_name(self.platform)

    def resolved_workload(self) -> WorkloadSpec:
        spec = self.workload
        if isinstance(spec, str):
            spec = workload_by_name(spec)
        # mirror run_platform's scaling rule
        if spec.num_nodes > self.scaled_nodes:
            spec = spec.scaled(self.scaled_nodes)
        return spec

    def resolved_config(self) -> SSDConfig:
        return self.ssd_config or ull_ssd()

    def run_params(self, seed: int) -> Dict:
        params = {
            "batch_size": self.batch_size,
            "num_batches": self.num_batches,
            "num_hops": self.num_hops,
            "fanout": self.fanout,
            "hidden_dim": self.hidden_dim,
            "seed": seed,
            "pipeline_overlap": self.pipeline_overlap,
        }
        if self.sample_trace:
            # included only when set: untraced cells keep their pre-trace
            # cache keys, and traced cells (scale-out shards) never collide
            # with an equal untraced run
            params["sample_trace"] = True
        if self.background_io is not None:
            # same rule: plain cells keep their pre-background_io cache keys
            params["background_io"] = self.background_io
        if self.page_cache is not None:
            # same rule again: uncached-datapath cells keep their keys
            params["page_cache"] = self.page_cache
        if self.layout != DEFAULT_LAYOUT:
            # conditional like the rest: node-order cells keep their keys
            params["layout"] = self.layout
        if self.targets is not None:
            params["targets"] = self.targets
        return params


def _cell_identity(cell: GridCell) -> Dict:
    """Everything that determines the cell's result, except the seed."""
    return {
        "platform": cell.resolved_platform(),
        "workload": cell.resolved_workload(),
        "ssd_config": cell.resolved_config(),
        "run": cell.run_params(seed=0) | {"seed": None},
    }


def derive_cell_seed(base_seed: int, cell: GridCell) -> int:
    """Deterministic per-cell seed, independent of grid order and jobs.

    The cell's content hash is folded into one ``counter_draw`` keyed
    draw, so equal cells always get equal seeds and distinct cells get
    (overwhelmingly likely) distinct ones.
    """
    digest = stable_hash(_cell_identity(cell))
    key = int(digest[:16], 16)
    return stream_seed(base_seed, key)


def cell_cache_key(cell: GridCell, seed: int) -> str:
    """Content-addressed cache key for one (cell, effective seed)."""
    return CELL_DOC.key({**_cell_identity(cell), "seed": seed})


# Per-process bounded LRU of prepared workload images: the in-memory
# fast path over the on-disk ImageCache. Long sweeps over many distinct
# workloads evict least-recently-used entries instead of accumulating
# every prepared image in RAM.
_PREPARED_MEMO: "OrderedDict[Tuple[WorkloadSpec, int, str], PreparedWorkload]" = (
    OrderedDict()
)
_PREPARED_MEMO_MAX = 8


def _backfill_image(
    prepared: PreparedWorkload, page_size: int, image_cache_root: str
) -> None:
    """Persist a memoized image the disk cache has never seen.

    A memo hit skips ``PreparedWorkload.prepare`` entirely, so without
    this an image prepared before the disk cache came into play would
    never reach it — and spawn workers / later processes would rebuild.
    """
    if prepared.image.pages is None:
        return
    cache = ImageCache(image_cache_root)
    key = cache.key_for(
        prepared.spec, page_size, prepared.image.spec, layout=prepared.layout
    )
    if key not in cache:
        cache.put(key, prepared.graph, prepared.image)


def adopt_prepared(prepared: PreparedWorkload) -> None:
    """Seed the in-process prepared-workload memo with an existing image.

    Callers that already hold a :class:`PreparedWorkload` (benchmark
    harnesses, :func:`repro.platforms.scaleout.run_scaleout`) adopt it so
    a grid over the same (spec, page_size, layout) never rebuilds — the
    serial path and fork workers hit the memo directly.
    """
    key = (prepared.spec, prepared.image.spec.page_size, prepared.layout)
    _PREPARED_MEMO[key] = prepared
    _PREPARED_MEMO.move_to_end(key)
    while len(_PREPARED_MEMO) > _PREPARED_MEMO_MAX:
        _PREPARED_MEMO.popitem(last=False)


def _prepared_for(
    spec: WorkloadSpec,
    page_size: int,
    image_cache_root: Optional[str] = None,
    layout: str = DEFAULT_LAYOUT,
) -> PreparedWorkload:
    key = (spec, page_size, layout)
    prepared = _PREPARED_MEMO.get(key)
    if prepared is not None:
        _PREPARED_MEMO.move_to_end(key)
        if image_cache_root is not None:
            _backfill_image(prepared, page_size, image_cache_root)
        return prepared
    prepared = PreparedWorkload.prepare(
        spec, page_size=page_size, image_cache=image_cache_root, layout=layout
    )
    _PREPARED_MEMO[key] = prepared
    while len(_PREPARED_MEMO) > _PREPARED_MEMO_MAX:
        _PREPARED_MEMO.popitem(last=False)
    return prepared


@dataclass
class GridOutcome:
    """Results of one grid run, in cell order, plus cache accounting.

    ``images_built``/``image_hits`` count DirectGraph builds and image-cache
    hits observed *in the orchestrating process* (workers pre-warm through
    the parent, so a cold grid builds each distinct workload exactly once
    and a warm one builds zero).
    """

    results: List[RunResult]
    keys: List[str]
    from_cache: List[bool]
    executed: int = 0
    cache_hits: int = 0
    images_built: int = 0
    image_hits: int = 0

    def __iter__(self):
        return iter(self.results)

    def by_cell(self, cells: Sequence[GridCell]) -> Dict[GridCell, RunResult]:
        return dict(zip(cells, self.results))


def _resolve_image_cache(
    image_cache, cache: Optional[ResultCache]
) -> Optional[ImageCache]:
    """Image-cache knob semantics shared by run_grid and the CLI.

    ``False`` disables; an :class:`ImageCache`/path/``True`` selects
    explicitly; ``None`` (the default) derives ``<result-cache>/images``
    when a result cache is in play, else no disk image cache.
    """
    if image_cache is False:
        return None
    if image_cache is None:
        if cache is None:
            return None
        return ImageCache(Path(cache.root) / "images")
    return ImageCache.coerce(image_cache)


def run_grid(
    cells: Sequence[GridCell],
    *,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    base_seed: int = 0,
    image_cache=None,
    executor=None,
    require_cached: bool = False,
) -> GridOutcome:
    """Run every cell, in parallel, skipping cells already in ``cache``.

    Returns results in cell order. All results — fresh, parallel, or
    cached — are rebuilt by :data:`CELL_DOC` from a payload in its
    stored column form (a fresh one as built, a cached one as decoded
    from disk), so they are interchangeable bit for bit. A fresh payload
    is stored (encoded once, by :meth:`ResultCache.put`) as the backend
    hands it over, so a failing cell leaves every cell before it cached;
    the failure comes out as one ``RuntimeError`` naming that cell's
    platform, workload, seed and key. An entry that does not decode is
    a miss.

    ``require_cached=True`` (the warm-cache render path) needs a
    ``cache``, and any miss raises ``KeyError`` naming the missing cells
    before anything is prepared or simulated.

    ``executor`` picks the backend that actually runs pending cells: a
    registered name (``"serial"`` or ``"process"``), a
    :class:`~repro.orchestrate.executors.GridExecutor` instance, or
    ``None`` for the local process pool. Every backend simulates through
    :func:`~repro.orchestrate.batched.execute_batch`, and per-cell seeds
    and cache keys are fixed *before* dispatch, so every backend produces
    bit-identical results.

    ``jobs=None`` (or ``0``) auto-detects from CPU affinity and the
    cgroup CPU quota (:func:`~repro.orchestrate.batched.available_cpus`).

    Prepared workload images are shared two ways: the orchestrating
    process pre-builds each distinct (workload, page_size) once — fork
    workers inherit it through the in-memory memo — and, when an
    ``image_cache`` is in play (see :func:`_resolve_image_cache`), the
    serialized image is persisted so later runs and non-fork workers load
    bytes instead of rebuilding.
    """
    from .batched import available_cpus
    from .executors import resolve_executor

    if require_cached and cache is None:
        raise ValueError("require_cached needs a result cache")
    if jobs is None or jobs == 0:
        jobs = available_cpus()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    grid_executor = resolve_executor(executor)
    cells = list(cells)
    seeds = [
        cell.seed if cell.seed is not None else derive_cell_seed(base_seed, cell)
        for cell in cells
    ]
    keys = [cell_cache_key(cell, seed) for cell, seed in zip(cells, seeds)]

    results: List[Optional[RunResult]] = [CELL_DOC.load(cache, k) for k in keys]
    pending = [i for i, result in enumerate(results) if result is None]
    if require_cached and pending:
        missing = [
            f"{cells[i].resolved_platform().name}/"
            f"{cells[i].resolved_workload().name}"
            for i in pending
        ]
        raise KeyError(
            f"{len(missing)} of {len(cells)} cells not in result cache "
            f"{cache.root}: {', '.join(missing[:8])}"
            + ("..." if len(missing) > 8 else "")
            + " — run the sweep without --from-cache first"
        )

    builds_before = _builder.BUILD_COUNTER.count
    image_hits_before = _imagecache.COUNTERS.hits
    stored = 0
    if pending:
        icache = _resolve_image_cache(image_cache, cache)
        icache_root = str(icache.root) if icache is not None else None
        # Pre-warm each distinct prepared image once in this process:
        # fork workers inherit the memo, and the disk cache (when set)
        # covers spawn workers and future runs.
        seen: set = set()
        for i in pending:
            cell = cells[i]
            spec = cell.resolved_workload()
            page_size = cell.resolved_config().flash.page_size
            if (spec, page_size, cell.layout) not in seen:
                seen.add((spec, page_size, cell.layout))
                _prepared_for(spec, page_size, icache_root, cell.layout)

        jobs_args = [(cells[i], seeds[i], icache_root) for i in pending]
        for payload in grid_executor.run(jobs_args, jobs=jobs):
            if stored < len(pending):
                i = pending[stored]
                results[i] = CELL_DOC.store(
                    cache,
                    keys[i],
                    payload,
                    platform=cells[i].resolved_platform().name,
                    workload=cells[i].resolved_workload().name,
                    seed=seeds[i],
                )
            stored += 1
    if stored != len(pending):
        raise RuntimeError(
            f"executor {grid_executor.name!r} returned {stored} payloads "
            f"for {len(pending)} pending cells"
        )

    pending_set = set(pending)
    return GridOutcome(
        results=results,
        keys=keys,
        from_cache=[i not in pending_set for i in range(len(cells))],
        executed=len(pending),
        cache_hits=len(cells) - len(pending),
        images_built=_builder.BUILD_COUNTER.count - builds_before,
        image_hits=_imagecache.COUNTERS.hits - image_hits_before,
    )


def load_cached(
    cells: Sequence[GridCell],
    cache: ResultCache,
    *,
    base_seed: int = 0,
) -> List[Optional[RunResult]]:
    """Cache-only lookup: results for cached cells, None for misses.

    Lets analysis/plotting code reload a finished sweep without being
    able to accidentally trigger hours of simulation.
    """
    out: List[Optional[RunResult]] = []
    for cell in cells:
        seed = cell.seed if cell.seed is not None else derive_cell_seed(base_seed, cell)
        out.append(CELL_DOC.load(cache, cell_cache_key(cell, seed)))
    return out
