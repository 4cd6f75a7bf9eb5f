"""Public entry point: run one platform on one workload, collect results.

``run_platform("bg2", workload)`` builds the scaled graph + DirectGraph
image, wires up the device and engines, simulates N pipelined
mini-batches, and returns a fully-instrumented :class:`RunResult`.

Building the image is the expensive part, so :class:`PreparedWorkload`
lets benchmark harnesses build once and run all nine platforms on the
same bytes — which is also what guarantees every platform samples
identical subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..cache.page import CacheConfig, PageCache
from ..directgraph.address import AddressCodec
from ..directgraph.builder import DirectGraphImage, build_directgraph
from ..directgraph.layout import DEFAULT_LAYOUT, LAYOUTS, layout_order
from ..directgraph.spec import FormatSpec
from ..energy.coefficients import EnergyCoefficients
from ..energy.model import attribute_energy
from ..gnn.features import ProceduralFeatureTable
from ..gnn.graph import Graph
from ..isc.commands import GnnTaskConfig
from ..sim import Simulator
from ..ssd.config import SSDConfig, ull_ssd
from ..workloads.specs import WorkloadSpec
from .compute import ComputeEngine
from .datapath import DataPrepEngine
from .features import ComputeSite, PlatformFeatures
from .pipeline import PipelineRunner
from .registry import platform_by_name
from .result import RunResult

__all__ = [
    "PreparedWorkload",
    "PlatformRun",
    "run_platform",
    "DEFAULT_SCALED_NODES",
]

DEFAULT_SCALED_NODES = 4096


@dataclass
class PreparedWorkload:
    """A workload instantiated once and shared across platform runs."""

    spec: WorkloadSpec
    graph: Graph
    features: ProceduralFeatureTable
    image: DirectGraphImage
    layout: str = DEFAULT_LAYOUT

    @classmethod
    def prepare(
        cls,
        spec: WorkloadSpec,
        page_size: int = 4096,
        image_cache=None,
        layout: str = DEFAULT_LAYOUT,
    ) -> "PreparedWorkload":
        """Instantiate a workload, loading the image from cache when possible.

        ``image_cache`` accepts an
        :class:`~repro.directgraph.imagecache.ImageCache`, a directory
        path, or ``True`` (default location); ``None``/``False`` always
        builds. The feature table is procedural, so only the graph and
        the serialized image come off disk on a hit.

        ``layout`` picks the page layout
        (:data:`~repro.directgraph.layout.LAYOUTS`); the default
        ``"node-order"`` reproduces pre-layout images byte-for-byte and
        keeps their cache keys.
        """
        from ..directgraph.imagecache import ImageCache

        if layout not in LAYOUTS:
            raise ValueError(
                f"unknown layout {layout!r}; available: {', '.join(LAYOUTS)}"
            )
        fmt = FormatSpec(
            page_size=page_size,
            feature_dim=spec.feature_dim,
            codec=AddressCodec.for_geometry(1 << 40, page_size),
        )
        cache = ImageCache.coerce(image_cache)
        key = (
            cache.key_for(spec, page_size, fmt, layout=layout)
            if cache is not None
            else None
        )
        if cache is not None:
            cached = cache.get(key)
            if cached is not None:
                return cls(
                    spec=spec,
                    graph=cached.graph,
                    features=spec.build_features(),
                    image=cached.image,
                    layout=layout,
                )
        graph = spec.build_graph()
        features = spec.build_features()
        image = build_directgraph(
            graph, features, fmt, order=layout_order(graph, layout)
        )
        if cache is not None:
            cache.put(key, graph, image)
        return cls(
            spec=spec, graph=graph, features=features, image=image, layout=layout
        )


def _pick_targets(
    graph: Graph, batch_size: int, num_batches: int, seed: int
) -> List[List[int]]:
    rng = np.random.default_rng(seed)
    return [
        [
            int(t)
            for t in (
                rng.choice(graph.num_nodes, size=batch_size, replace=False)
                if graph.num_nodes >= batch_size
                else rng.integers(0, graph.num_nodes, size=batch_size)
            )
        ]
        for _ in range(num_batches)
    ]


class PlatformRun:
    """One platform simulation, set up eagerly and steppable in slices.

    Construction does everything up to (but not including) driving the
    event loop: workload preparation, device/engine wiring, batch target
    selection, and pipeline launch. From there the owner either calls
    :meth:`run` (the blocking form — exactly what :func:`run_platform`
    does) or drives it in :meth:`step` slices and calls :meth:`finalize`
    once :attr:`finished` — the grid executor
    (:mod:`repro.orchestrate.batched`) does, one cell at a time. Both
    drive the same kernel delivery order, so the :class:`RunResult` is
    bit-identical either way.
    """

    def __init__(
        self,
        platform: Union[str, PlatformFeatures],
        workload: Union[WorkloadSpec, PreparedWorkload],
        *,
        ssd_config: Optional[SSDConfig] = None,
        batch_size: int = 64,
        num_batches: int = 3,
        num_hops: int = 3,
        fanout: int = 3,
        hidden_dim: int = 128,
        seed: int = 0,
        scaled_nodes: int = DEFAULT_SCALED_NODES,
        energy_coefficients: Optional[EnergyCoefficients] = None,
        pipeline_overlap: bool = True,
        background_io: Optional["BackgroundIoConfig"] = None,
        sample_trace: bool = False,
        page_cache: Optional[CacheConfig] = None,
        layout: str = DEFAULT_LAYOUT,
        targets: Optional[Sequence[Sequence[int]]] = None,
    ):
        if isinstance(platform, str):
            platform = platform_by_name(platform)
        config = ssd_config or ull_ssd()
        if isinstance(workload, WorkloadSpec):
            spec = (
                workload
                if workload.num_nodes <= scaled_nodes
                else workload.scaled(scaled_nodes)
            )
            prepared = PreparedWorkload.prepare(
                spec, page_size=config.flash.page_size, layout=layout
            )
        else:
            prepared = workload
            if prepared.image.spec.page_size != config.flash.page_size:
                raise ValueError(
                    f"prepared image page size {prepared.image.spec.page_size} "
                    f"differs from SSD page size {config.flash.page_size}"
                )
            if prepared.layout != layout:
                raise ValueError(
                    f"prepared workload uses layout {prepared.layout!r}, "
                    f"run requested {layout!r}"
                )

        task = GnnTaskConfig(
            num_hops=num_hops,
            fanout=fanout,
            feature_dim=prepared.spec.feature_dim,
            seed=seed,
        )
        sim = Simulator()
        prep = DataPrepEngine(
            sim,
            config,
            platform,
            prepared.image,
            task,
            trace_samples=sample_trace,
            page_cache=PageCache.from_config(page_cache, config.flash.page_size),
        )
        compute = ComputeEngine(
            sim, prep.device, platform, task, hidden_dim, prep.meters
        )
        runner = PipelineRunner(sim, prep, compute, overlap=pipeline_overlap)
        injector = None
        if background_io is not None:
            from .background import BackgroundIoInjector

            injector = BackgroundIoInjector(sim, prep, background_io)
        if targets is not None:
            if len(targets) != num_batches:
                raise ValueError(
                    f"explicit targets have {len(targets)} batches, "
                    f"expected num_batches={num_batches}"
                )
            batches = [[int(t) for t in batch] for batch in targets]
            served = sum(len(batch) for batch in batches)
        else:
            batches = _pick_targets(
                prepared.graph, batch_size, num_batches, seed + 1
            )
            served = None
        done = runner.run(batches)
        if injector is not None:
            done.add_callback(lambda _ev: injector.stop())

        self.sim = sim
        self._platform = platform
        self._prepared = prepared
        self._config = config
        self._prep = prep
        self._runner = runner
        self._injector = injector
        self._done = done
        self._batch_size = batch_size
        self._num_batches = num_batches
        self._energy_coefficients = energy_coefficients
        self._sample_trace = sample_trace
        self._served_targets = served
        self._result: Optional[RunResult] = None

    @property
    def finished(self) -> bool:
        """True once the event loop has drained (ready to finalize)."""
        return self.sim.idle

    def step(self, max_events: int = 1) -> int:
        """Deliver at most ``max_events`` kernel entries; 0 means done."""
        return self.sim.step(max_events)

    def run(self) -> RunResult:
        """Drive the simulation to completion and return the result."""
        self.sim.run()
        return self.finalize()

    def finalize(self) -> RunResult:
        """Collect the :class:`RunResult` after the event loop drained.

        Idempotent — repeated calls return the same object. Raises if the
        pipeline stalled (queues drained without the done event firing).
        """
        if self._result is not None:
            return self._result
        if not self._done.triggered:
            raise RuntimeError("pipeline did not finish (simulation stalled)")
        sim = self.sim
        sim.release_pools()
        prep = self._prep
        platform = self._platform
        config = self._config

        prep.device.close_trackers()
        total = sim.now
        meters = prep.meters
        meters.totals["pcie_busy_s"] = prep.device.pcie.tracker.busy_time(0.0, total)
        meters.totals["dram_busy_s"] = prep.device.dram.tracker.busy_time(0.0, total)
        meters.totals["host_threads"] = config.host.num_threads
        meters.totals["fw_cores"] = config.firmware.num_cores

        result = RunResult(
            platform=platform.name,
            workload=self._prepared.spec.name,
            batch_size=self._batch_size,
            num_batches=self._num_batches,
            total_seconds=total,
            batches=self._runner.timings,
            stage_agg=prep.stage_agg,
            hop_timeline=prep.hop_timeline,
            meters=meters,
            die_trackers=prep.device.flash.die_trackers(),
            channel_trackers=prep.device.flash.channel_trackers(),
            firmware_busy_seconds=prep.device.firmware_busy_seconds(),
            served_targets=self._served_targets,
        )
        report = attribute_energy(
            meters=meters.as_dict(),
            firmware_busy_s=result.firmware_busy_seconds,
            flash_busy_s=sum(result.die_trackers.busy_times(0.0, total)),
            channel_bytes=prep.device.flash.channel_bytes,
            total_seconds=total,
            total_targets=result.total_targets,
            coeff=self._energy_coefficients,
        )
        result.energy_breakdown = dict(report.categories)
        result.meters.totals["energy_total_j"] = report.total_joules
        result.meters.totals["energy_watts"] = report.average_watts
        result.meters.totals["targets_per_joule"] = report.targets_per_joule
        if self._injector is not None:
            result.background_io = self._injector.stats
        if self._sample_trace:
            result.sample_trace = prep.sample_traces
        if prep.page_cache is not None:
            pc = prep.page_cache
            meters.totals["page_cache_hits"] = float(pc.hits)
            meters.totals["page_cache_misses"] = float(pc.misses)
            meters.totals["page_cache_evictions"] = float(pc.evictions)
            result.cache = pc.stats_dict()
        self._result = result
        return result


def run_platform(
    platform: Union[str, PlatformFeatures],
    workload: Union[WorkloadSpec, PreparedWorkload],
    *,
    ssd_config: Optional[SSDConfig] = None,
    batch_size: int = 64,
    num_batches: int = 3,
    num_hops: int = 3,
    fanout: int = 3,
    hidden_dim: int = 128,
    seed: int = 0,
    scaled_nodes: int = DEFAULT_SCALED_NODES,
    energy_coefficients: Optional[EnergyCoefficients] = None,
    pipeline_overlap: bool = True,
    background_io: Optional["BackgroundIoConfig"] = None,
    sample_trace: bool = False,
    page_cache: Optional[CacheConfig] = None,
    layout: str = DEFAULT_LAYOUT,
    targets: Optional[Sequence[Sequence[int]]] = None,
) -> RunResult:
    """Simulate ``num_batches`` pipelined mini-batches on one platform.

    ``workload`` may be a raw :class:`WorkloadSpec` (it is scaled to
    ``scaled_nodes`` and instantiated) or an already-:class:`PreparedWorkload`.

    ``sample_trace=True`` additionally records every sampled tree position
    per batch on ``result.sample_trace`` (see
    :class:`~repro.platforms.datapath.DataPrepEngine`); the scale-out
    array model uses it to measure cross-partition traffic. Tracing never
    changes simulated timing.

    ``page_cache`` (a :class:`~repro.cache.page.CacheConfig`) puts a
    host-side page cache in front of the flash backend; hits cost one
    DRAM-latency charge instead of the full device walk, and the result
    gains a ``cache`` counter block. ``None`` — or a capacity rounding to
    zero pages — leaves the run bit-identical to an uncached one.

    ``layout`` selects the DirectGraph page layout
    (:data:`~repro.directgraph.layout.LAYOUTS`); a prepared workload must
    already carry the requested layout. Layouts never change which
    subgraphs are sampled — only which flash pages the walk touches.

    ``targets`` overrides the seeded target picker with explicit
    per-batch target lists (one list per batch, ``len(targets)`` must
    equal ``num_batches``; batches may be ragged or empty). The result
    then reports ``served_targets`` so throughput and energy-per-target
    reflect the real count. The scale-out array model uses this to route
    each device its owned slice of every batch.

    The blocking convenience form of :class:`PlatformRun`.
    """
    return PlatformRun(
        platform,
        workload,
        ssd_config=ssd_config,
        batch_size=batch_size,
        num_batches=num_batches,
        num_hops=num_hops,
        fanout=fanout,
        hidden_dim=hidden_dim,
        seed=seed,
        scaled_nodes=scaled_nodes,
        energy_coefficients=energy_coefficients,
        pipeline_overlap=pipeline_overlap,
        background_io=background_io,
        sample_trace=sample_trace,
        page_cache=page_cache,
        layout=layout,
        targets=targets,
    ).run()

