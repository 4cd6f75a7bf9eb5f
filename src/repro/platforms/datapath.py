"""Data-preparation datapath: one engine, nine platform behaviours.

Every platform prepares a mini-batch by executing the *same functional
command DAG* (rooted at the targets' primary sections, expanded by the
deterministic sampler), but pays different costs along four axes:

* where sampling runs (host CPU / firmware core / on-die sampler /
  GPU threads);
* what crosses the flash channel (whole pages vs sampled results);
* how the control path is processed (host NVMe round trips per hop vs
  firmware streaming vs hardware channel routers vs GPU-rung doorbells);
* where features go (PCIe to a discrete accelerator vs SSD DRAM).

Command lifecycle (timestamps feed Figure 17):

    issue (control path) -> die queue -> page read [-> on-die sampling]
      -> channel transfer -> completion (router parse / firmware / DRAM /
         PCIe / host or GPU sampling) -> children

DirectGraph platforms *stream*: children issue the moment their parent's
result is parsed, regardless of hop. Non-DirectGraph platforms run
hop-by-hop: all commands of a hop complete, the sampled ids travel to the
host, the host translates node indices to LPAs, and the next hop's
commands come back as NVMe requests — the Figure 5 barrier. GPU-direct
platforms (GIDS/BaM) also stream — the threads that parse a page issue
its children's doorbells themselves — but every read stays a
page-granular NVMe request, and same-page requests within a warp
coalesce into one (:mod:`repro.platforms.gids`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..cache.page import PageCache
from ..directgraph.builder import DirectGraphImage
from ..isc.commands import (
    COMMAND_BASE_BYTES,
    CommandKind,
    GnnTaskConfig,
    RESULT_HEADER_BYTES,
    SamplingCommand,
)
from ..isc.sampler import DieSampler, SampleResult
from ..sim import Resource, Simulator
from ..sim.stats import HopTimeline, Meter, StageAggregator, StageRecord
from ..ssd.config import SSDConfig
from ..ssd.device import SsdDevice
from ..ssd.flash import DieExecution, FlashJob
from .features import PlatformFeatures, SamplingSite
from .gids import coalesce_warps
from .result import pack_trace

__all__ = ["PrepCommand", "DataPrepEngine"]

NODE_ID_BYTES = 4
_SECONDARY = CommandKind.SAMPLE_SECONDARY
_FETCH = CommandKind.FETCH_FEATURE


@dataclass(slots=True)
class PrepCommand:
    """One unit of data-preparation work on the flash backend."""

    record: StageRecord
    page_index: int
    step: int  # Figure 16 step: sampling hops 1..k, then k+1 = features
    sampling: Optional[SamplingCommand]  # None = raw page read
    node_id: int = -1
    payload_kind: str = "sample"  # "sample" | "feature" | "structure"


@dataclass(slots=True)
class _BatchCtx:
    """Bookkeeping for one in-flight mini-batch preparation."""

    outstanding: int = 0
    collected: List[PrepCommand] = field(default_factory=list)
    deferred_features: List[PrepCommand] = field(default_factory=list)
    done: object = None  # set by the engine (an Event)


class _DieWork:
    """The die executor: what a die does after its page read.

    It holds what that step reads, as plain flags and floats, not the
    engine: the engine owns the device the executor is wired into, so a
    bound method of the engine would make every finished run one
    reference cycle.
    """

    __slots__ = (
        "image",
        "sampler",
        "meters",
        "page_size",
        "die_sampling",
        "feature_in_primary",
        "section_scan_s",
        "per_neighbor_s",
        "vector_bytes",
    )

    def __init__(self, engine: "DataPrepEngine") -> None:
        self.image = engine.image
        self.sampler = engine.sampler
        self.meters = engine.meters
        self.page_size = engine.ssd_config.flash.page_size
        self.die_sampling = engine.platform.die_sampling
        self.feature_in_primary = engine.platform.feature_in_primary
        self.section_scan_s = engine.ssd_config.die_sampler.section_scan_s
        self.per_neighbor_s = engine.ssd_config.die_sampler.per_neighbor_s
        self.vector_bytes = RESULT_HEADER_BYTES + engine.image.spec.feature_bytes

    def execute(self, job: FlashJob) -> DieExecution:
        """Called by the die model when a page read finishes."""
        cmd: Optional[PrepCommand] = job.payload
        if cmd is None:
            # a regular (non-GNN) page read sharing the backend
            return DieExecution(0.0, self.page_size, None)
        if cmd.sampling is None:
            if cmd.payload_kind == "feature" and self.die_sampling:
                # on-die vector retriever returns only the vector
                self.meters.add("die_feature_extracts")
                return DieExecution(self.section_scan_s, self.vector_bytes, None)
            # raw page read (feature-table page or full-list structure
            # page for host-side sampling)
            return DieExecution(0.0, self.page_size, None)

        result = self.sampler.execute(
            self.image.page_bytes(cmd.page_index), cmd.sampling
        )
        if not self.die_sampling:
            return DieExecution(0.0, self.page_size, result)
        extra = (
            self.section_scan_s * result.sections_scanned
            + self.per_neighbor_s * result.neighbors_sampled
        )
        payload = result.payload_bytes()
        if not self.feature_in_primary and result.feature_bytes:
            # without DirectGraph the structure pages hold no features:
            # the die returns sampled ids/commands only
            payload -= len(result.feature_bytes)
        self.meters.add("die_sample_neighbors", result.neighbors_sampled)
        return DieExecution(extra, payload, result)


class DataPrepEngine:
    """Drives one platform's data preparation over the shared device."""

    def __init__(
        self,
        sim: Simulator,
        ssd_config: SSDConfig,
        platform: PlatformFeatures,
        image: DirectGraphImage,
        task: GnnTaskConfig,
        trace_samples: bool = False,
        page_cache: Optional[PageCache] = None,
    ) -> None:
        """``trace_samples=True`` records every sampled tree position —
        ``[target, position, node_id, depth]`` per mini-batch, canonically
        sorted — in :attr:`sample_traces`. The scale-out array model maps
        these node ids onto its shard-ownership hash to measure real
        cross-partition traffic; tracing is pure bookkeeping and never
        touches simulated time.

        ``page_cache`` fronts the flash backend: every command's page is
        looked up first, and a hit replaces the whole control-path / die /
        channel / completion walk with one DRAM-latency charge (the
        command's children still expand identically — the functional DAG
        is cache-invariant). ``None`` leaves the datapath bit-identical to
        a build that never heard of caching."""
        self.sim = sim
        self.ssd_config = ssd_config
        self.platform = platform
        self.image = image
        self.task = task
        self.sampler = DieSampler(image.spec, task)
        self.page_cache = page_cache
        self.sample_traces: Optional[List] = [] if trace_samples else None
        self._trace: Optional[List[List[int]]] = None
        self.meters = Meter()
        # per-command reads of the platform, taken once
        self._die_sampling = platform.die_sampling
        self._router_parse = platform.die_sampling and platform.hw_router
        self._host_sampling = platform.sampling_site == SamplingSite.HOST
        self._feature_in_primary = platform.feature_in_primary
        self._feature_step = task.num_hops + 1
        self._hop_barrier = platform.hop_barrier
        # who issues follow-up commands when hops stream (no barrier)
        if platform.gpu_direct:
            self._streaming_issuer = "gpu"
        elif self._router_parse:
            self._streaming_issuer = "router"
        else:
            self._streaming_issuer = "firmware"
        self.device = SsdDevice(sim, ssd_config, _DieWork(self).execute)
        # only router platforms parse results in per-channel hardware
        self.channel_parsers = (
            [
                Resource(sim, capacity=1, name=f"parser{c}")
                for c in range(ssd_config.flash.num_channels)
            ]
            if self._router_parse
            else []
        )
        self.stage_agg = StageAggregator()
        # Bounded at two live timelines (first + current): only the first
        # batch's timeline is ever rendered (Figure 16), so long serving
        # runs count the rest instead of retaining them.
        self.hop_timelines: List[HopTimeline] = []
        self.batches_timed = 0
        self._cmd_seq = 0
        self.in_acceleration = False
        self._accel_done = sim.event()
        spec = image.spec
        self._feature_bytes = spec.feature_bytes
        self._vectors_per_page = max(1, spec.page_size // spec.feature_bytes)
        self._feature_region_base = image.num_pages

    # ------------------------------------------------------------------ utils

    def _next_id(self) -> int:
        self._cmd_seq += 1
        return self._cmd_seq

    @property
    def hop_timeline(self) -> HopTimeline:
        """Timeline of the first simulated batch (Figure 16)."""
        if not self.hop_timelines:
            self.hop_timelines.append(HopTimeline())
        return self.hop_timelines[0]

    @property
    def _timeline(self) -> HopTimeline:
        if not self.hop_timelines:
            self.hop_timelines.append(HopTimeline())
        return self.hop_timelines[-1]

    def _feature_page_of(self, node_id: int) -> int:
        """Synthetic feature-table page for non-DirectGraph layouts."""
        return self._feature_region_base + node_id // self._vectors_per_page

    def _trace_sample(
        self, target: int, position: int, node_id: int, depth: int
    ) -> None:
        if self._trace is not None:
            self._trace.append([int(target), int(position), int(node_id), int(depth)])

    def _make_root(self, target: int) -> PrepCommand:
        self._trace_sample(target, 0, target, 0)
        sampling = SamplingCommand(
            kind=CommandKind.SAMPLE_PRIMARY,
            address=self.image.address_of(target),
            target=target,
            hop=0,
            position=0,
        )
        return PrepCommand(
            record=StageRecord(command_id=self._next_id(), hop=0),
            page_index=sampling.address.page,
            step=1,
            sampling=sampling,
            node_id=target,
        )

    # ------------------------------------------------------- command process

    def _run_command(self, cmd: PrepCommand, issued_by: str, ctx: _BatchCtx):
        """Full lifecycle of one command; spawns or collects children.

        A thin dispatcher: the page cache (when present) intercepts the
        read, a hit taking :meth:`_run_cache_hit` and everything else the
        full device walk in :meth:`_run_device_command`. ``yield from``
        delegation is transparent to the event kernel, so with no cache
        the event sequence is identical to the pre-cache engine — the
        golden digests pin this.
        """
        cmd.record.issued = self.sim.now
        timeline = self._timeline
        timeline.note_start(cmd.step, self.sim.now)
        cache = self.page_cache
        if cache is not None and cache.access(cmd.page_index):
            yield from self._run_cache_hit(cmd, timeline, ctx)
        else:
            yield from self._run_device_command(cmd, issued_by, timeline, ctx)
        ctx.outstanding -= 1
        if ctx.outstanding == 0 and ctx.done is not None and not ctx.done.triggered:
            ctx.done.succeed()

    def _run_cache_hit(self, cmd: PrepCommand, timeline: HopTimeline, ctx: _BatchCtx):
        """Serve one command from the host-side page cache.

        The page is already in DRAM: no control-path issue, no flash job,
        no channel transfer, no parser/firmware completion — one timeout
        at the cache's DRAM-latency charge. Sampling still executes (it is
        functional, keyed only by page bytes), so the child DAG — and with
        it every downstream page access — matches the uncached run.
        """
        sim = self.sim
        cmd.record.flash_start = sim.now
        yield self.page_cache.hit_latency_s
        cmd.record.flash_end = cmd.record.transfer_end = sim.now
        result: Optional[SampleResult] = None
        if cmd.sampling is not None:
            result = self.sampler.execute(
                self.image.page_bytes(cmd.page_index), cmd.sampling
            )
        children = self._children_of(cmd, result)
        self._finish(cmd, timeline)
        self._dispatch_children(children, self._streaming_issuer, ctx)

    def _run_device_command(
        self, cmd: PrepCommand, issued_by: str, timeline: HopTimeline, ctx: _BatchCtx
    ):
        """The full (cache-miss) device walk of one command."""
        sim = self.sim
        device = self.device
        fw = self.ssd_config.firmware
        host = self.ssd_config.host
        platform = self.platform

        # -- control path: issue ------------------------------------------------
        if issued_by == "host":
            # an NVMe request: host software stack + poller + FTL + scheduler
            self.meters.add("nvme_requests")
            yield from device.host_work(host.nvme_stack_s)
            self.meters.add("host_busy_s", host.nvme_stack_s)
            yield from device.firmware_work(
                fw.io_poller_s + fw.ftl_lookup_s + fw.schedule_s
            )
        elif issued_by == "hop_batch":
            # part of a per-hop batched request: the NVMe/host cost was paid
            # once for the hop; firmware still translates and schedules
            yield from device.firmware_work(fw.ftl_lookup_s + fw.schedule_s)
        elif issued_by == "firmware":
            yield from device.firmware_work(
                fw.command_issue_cost(translate=not platform.direct_graph)
            )
        elif issued_by == "router":
            self.meters.add("router_commands")
            yield self.ssd_config.hw_router.crossbar_s
        elif issued_by == "gpu":
            # a GPU thread builds the NVMe command in device-mapped queues
            # and rings the doorbell with one posted MMIO write — no host
            # software stack, no translation round trip. The SSD still
            # processes a stock NVMe request: poller + FTL + scheduler.
            self.meters.add("gpu_requests")
            yield self.ssd_config.gpu.doorbell_s
            yield from device.firmware_work(
                fw.io_poller_s + fw.ftl_lookup_s + fw.schedule_s
            )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown issuer {issued_by!r}")

        # -- flash read + channel transfer ---------------------------------------
        job = FlashJob(page_index=cmd.page_index, record=cmd.record, payload=cmd)
        yield self.device.flash.submit(job)
        result: Optional[SampleResult] = (
            job.execution.result if job.execution else None
        )
        payload_bytes = job.execution.payload_bytes
        self.meters.add("flash_reads")

        # -- completion path ------------------------------------------------------
        children = self._children_of(cmd, result)
        if self._router_parse:
            # channel-level parser extracts results in hardware
            channel, _die = self.ssd_config.flash.locate(cmd.page_index)
            parser = self.channel_parsers[channel]
            yield parser.acquire()
            yield self.ssd_config.hw_router.parse_s
            parser.release()
            self.meters.add("router_parses")
            self._finish(cmd, timeline)
            self._dispatch_children(children, "router", ctx)
            # feature/record DMA into SSD DRAM happens off the critical
            # path of child dispatch but gates batch completion
            yield device.dram.transfer(payload_bytes)
            self.meters.add("dram_bytes", payload_bytes)
        elif self._die_sampling:
            # firmware parses the small result and schedules children
            yield from device.firmware_work(fw.completion_s + fw.parse_result_s)
            self._finish(cmd, timeline)
            self._dispatch_children(children, "firmware", ctx)
            yield device.dram.transfer(payload_bytes)
            self.meters.add("dram_bytes", payload_bytes)
        else:
            # page-granular platforms: page lands in SSD DRAM first
            yield device.dram.transfer(payload_bytes)
            self.meters.add("dram_bytes", payload_bytes)
            yield from device.firmware_work(fw.completion_s)
            if (
                platform.sampling_site == SamplingSite.FIRMWARE
                and result is not None
                and result.neighbors_sampled
            ):
                yield from device.firmware_work(
                    fw.parse_result_s
                    + fw.sample_per_neighbor_s * result.neighbors_sampled
                )
                self.meters.add("fw_sample_neighbors", result.neighbors_sampled)
            crosses = (
                self.platform.features_cross_pcie
                if cmd.payload_kind == "feature"
                else self.platform.structure_cross_pcie
            )
            if crosses:
                pcie_bytes = payload_bytes
                if (
                    cmd.payload_kind == "feature"
                    and platform.sampling_site
                    not in (SamplingSite.HOST, SamplingSite.GPU)
                ):
                    # ISC designs (SmartSage) gather vectors in-SSD and ship
                    # packed features, not raw feature-table pages. Host
                    # sampling and GPU-direct reads pull the whole page.
                    pcie_bytes = RESULT_HEADER_BYTES + self._feature_bytes
                yield device.pcie.transfer(pcie_bytes)
                self.meters.add("pcie_bytes", pcie_bytes)
            if (
                self._host_sampling
                and result is not None
                and result.neighbors_sampled
            ):
                cost = host.sample_per_neighbor_s * result.neighbors_sampled
                yield from device.host_work(cost)
                self.meters.add("host_busy_s", cost)
                self.meters.add("host_sample_neighbors", result.neighbors_sampled)
            if (
                platform.gpu_sampling
                and result is not None
                and result.neighbors_sampled
            ):
                # the page landed in GPU memory; a grid of GPU threads
                # samples it — no serialized host resource to contend on
                yield from self._gpu_sample(result.neighbors_sampled)
            self._finish(cmd, timeline)
            self._dispatch_children(children, self._streaming_issuer, ctx)

    def _gpu_sample(self, neighbors: int):
        """Charge GPU-thread sampling of one landed page's neighbors."""
        yield self.ssd_config.gpu.sample_per_neighbor_s * neighbors
        self.meters.add("gpu_sample_neighbors", neighbors)

    def _finish(self, cmd: PrepCommand, timeline: HopTimeline) -> None:
        cmd.record.completed = self.sim.now
        self.stage_agg.add(cmd.record)
        timeline.note_end(cmd.step, self.sim.now)

    def _dispatch_children(
        self, children: List[PrepCommand], issuer: str, ctx: _BatchCtx
    ) -> None:
        if self._hop_barrier:
            # hop-by-hop: sampling continues next round; feature fetches
            # form the final "k-th hop feature retrieval" step (Figure 16)
            for child in children:
                if child.payload_kind == "feature":
                    ctx.deferred_features.append(child)
                else:
                    ctx.collected.append(child)
        else:
            self._spawn_streaming(children, issuer, ctx)

    def _spawn_streaming(
        self, commands: List[PrepCommand], issuer: str, ctx: _BatchCtx
    ) -> None:
        """Launch streamed commands, coalescing GPU warps when enabled.

        GPU-direct platforms vote within each ``warp_size`` window of the
        request stream: same-page requests merge into one NVMe read — the
        leader rings the doorbell, followers consume the page when it
        lands (:mod:`repro.platforms.gids`). Every other platform (and a
        disabled coalescer) issues one command per request, unchanged.
        """
        gpu = self.ssd_config.gpu
        if not (
            self.platform.gpu_direct
            and gpu.coalesce
            and gpu.warp_size > 1
            and len(commands) > 1
        ):
            for cmd in commands:
                ctx.outstanding += 1
                self.sim.process(self._run_command(cmd, issuer, ctx))
            return
        warps = coalesce_warps(
            commands, gpu.warp_size, key=lambda c: c.page_index
        )
        for group in warps:
            leader, followers = group[0], group[1:]
            ctx.outstanding += 1
            if not followers:
                self.sim.process(self._run_command(leader, issuer, ctx))
                continue
            ctx.outstanding += len(followers)
            self.meters.add("gpu_coalesced_requests", len(followers))
            landed = self.sim.event()
            self.sim.process(
                self._run_warp_leader(leader, issuer, ctx, landed)
            )
            for follower in followers:
                self.sim.process(
                    self._run_warp_follower(follower, ctx, landed)
                )

    def _run_warp_leader(
        self, cmd: PrepCommand, issuer: str, ctx: _BatchCtx, landed
    ):
        """The coalescing winner: a normal request that signals its warp."""
        yield from self._run_command(cmd, issuer, ctx)
        if not landed.triggered:
            landed.succeed()

    def _run_warp_follower(self, cmd: PrepCommand, ctx: _BatchCtx, landed):
        """A coalesced-away request: rides the leader's page, issues no I/O.

        The follower's thread still samples its own section of the page
        once it lands (sampling is functional, keyed only by page bytes),
        so the child DAG — and the sample trace — is identical with
        coalescing on or off.
        """
        sim = self.sim
        cmd.record.issued = sim.now
        timeline = self._timeline
        timeline.note_start(cmd.step, sim.now)
        yield landed
        cmd.record.flash_start = sim.now
        cmd.record.flash_end = cmd.record.transfer_end = sim.now
        result: Optional[SampleResult] = None
        if cmd.sampling is not None:
            result = self.sampler.execute(
                self.image.page_bytes(cmd.page_index), cmd.sampling
            )
            if result.neighbors_sampled:
                yield from self._gpu_sample(result.neighbors_sampled)
        children = self._children_of(cmd, result)
        self._finish(cmd, timeline)
        self._dispatch_children(children, "gpu", ctx)
        ctx.outstanding -= 1
        if ctx.outstanding == 0 and ctx.done is not None and not ctx.done.triggered:
            ctx.done.succeed()

    # --------------------------------------------------------------- children

    def _children_of(
        self, cmd: PrepCommand, result: Optional[SampleResult]
    ) -> List[PrepCommand]:
        """Derive the follow-up commands of one completed command."""
        children: List[PrepCommand] = []
        if cmd.sampling is None or result is None:
            return children
        image = self.image
        trace = self._trace
        feature_step = self._feature_step
        feature_in_primary = self._feature_in_primary
        secondary_pages_read = set()
        for sub in result.children:
            kind = sub.kind
            if trace is not None and kind != _SECONDARY:
                # every sampled tree position (depth >= 1) appears exactly
                # once as a SAMPLE_PRIMARY / FETCH_FEATURE child across all
                # results — secondary reads re-emit the same hop's overflow
                # draws and are resolved by their own children
                self._trace_sample(
                    sub.target, sub.position, image.node_at(sub.address), sub.hop
                )
            if kind == _FETCH and not feature_in_primary:
                node = image.node_at(sub.address)
                children.append(
                    PrepCommand(
                        record=StageRecord(
                            command_id=self._next_id(), hop=sub.hop
                        ),
                        page_index=self._feature_page_of(node),
                        step=feature_step,
                        sampling=None,
                        node_id=node,
                        payload_kind="feature",
                    )
                )
            else:
                if kind == _SECONDARY:
                    step = cmd.step  # same node's overflow read
                    secondary_pages_read.add(sub.address.page)
                elif kind == _FETCH:
                    step = feature_step
                else:
                    step = sub.hop + 1
                children.append(
                    PrepCommand(
                        record=StageRecord(
                            command_id=self._next_id(), hop=sub.hop
                        ),
                        page_index=sub.address.page,
                        step=step,
                        sampling=sub,
                        node_id=-1,
                    )
                )
        if cmd.sampling.kind == CommandKind.SAMPLE_PRIMARY:
            node = image.node_at(cmd.sampling.address)
            if self._host_sampling:
                # Host-side sampling needs the node's *entire* neighbor
                # list: every secondary page is read and shipped — the
                # "transfer of full neighbor lists" SmartSage eliminates.
                for addr in image.secondary_addrs(node):
                    if addr.page in secondary_pages_read:
                        continue
                    secondary_pages_read.add(addr.page)
                    children.append(
                        PrepCommand(
                            record=StageRecord(
                                command_id=self._next_id(), hop=cmd.sampling.hop
                            ),
                            page_index=addr.page,
                            step=cmd.step,
                            sampling=None,
                            node_id=node,
                            payload_kind="structure",
                        )
                    )
                    self.meters.add("full_list_reads")
            if not feature_in_primary:
                # without DirectGraph, the node's own feature vector is a
                # separate feature-table read (DirectGraph co-locates it)
                children.append(
                    PrepCommand(
                        record=StageRecord(
                            command_id=self._next_id(), hop=cmd.sampling.hop
                        ),
                        page_index=self._feature_page_of(node),
                        step=feature_step,
                        sampling=None,
                        node_id=node,
                        payload_kind="feature",
                    )
                )
        return children

    # ------------------------------------------------------------ batch drivers

    def acceleration_done_event(self):
        """Event firing at the end of the current mini-batch (for the
        Section VI-G regular-I/O deferral)."""
        return self._accel_done

    def prepare_batch(self, targets: List[int]):
        """Process generator: full data preparation of one mini-batch."""
        # Retain only the first and the current batch's timelines: the
        # first is the only one rendered (Figure 16), and per-batch
        # retention would grow without bound on long serving runs.
        self.batches_timed += 1
        if len(self.hop_timelines) < 2:
            self.hop_timelines.append(HopTimeline())
        else:
            self.hop_timelines[-1] = HopTimeline()
        if self.sample_traces is not None:
            # batch preparations serialize on the flash backend (the
            # pipeline only overlaps prep with *compute*), so one current
            # trace list at a time is safe
            self._trace = []
        self.in_acceleration = True
        if self._accel_done.triggered:
            self._accel_done = self.sim.event()
        try:
            if self.platform.hop_barrier:
                yield from self._prepare_barrier(targets)
            else:
                yield from self._prepare_streaming(targets)
        finally:
            if self._trace is not None:
                # pack_trace sorts into the canonical (target, position)
                # order list.sort() used to produce, 4 int32s per row
                self.sample_traces.append(pack_trace(self._trace))
                self._trace = None
            self.in_acceleration = False
            done, self._accel_done = self._accel_done, self.sim.event()
            done.succeed()

    def _minibatch_kickoff(self, targets: List[int]):
        """Host sends the mini-batch job (targets + addresses) to the SSD."""
        host = self.ssd_config.host
        if self.platform.gpu_direct:
            # the host only launches the sampling kernel: target ids move
            # to the GPU once, and every NVMe request after that is rung
            # from GPU threads — no per-batch firmware kickoff
            launch = self.ssd_config.gpu.kernel_launch_s
            yield from self.device.host_work(launch)
            self.meters.add("host_busy_s", launch)
            yield self.device.pcie.transfer(len(targets) * NODE_ID_BYTES)
            self.meters.add("pcie_bytes", len(targets) * NODE_ID_BYTES)
            return
        yield from self.device.host_work(host.nvme_stack_s)
        self.meters.add("host_busy_s", host.nvme_stack_s)
        yield self.device.pcie.transfer(len(targets) * 2 * NODE_ID_BYTES)
        self.meters.add("pcie_bytes", len(targets) * 2 * NODE_ID_BYTES)
        yield from self.device.firmware_work(self.ssd_config.firmware.io_poller_s)

    def _prepare_streaming(self, targets: List[int]):
        """Streaming mode (DirectGraph or GPU-direct): out-of-order hops,
        no host translation round between them."""
        ctx = _BatchCtx(done=self.sim.event())
        yield from self._minibatch_kickoff(targets)
        issuer = self._streaming_issuer  # who seeds the root commands
        roots = [self._make_root(t) for t in dict.fromkeys(targets)]
        if not roots:
            # ctx.done only fires when an outstanding command drains;
            # an empty batch (a routed device owning none of a batch's
            # targets) must not wait on it
            return
        self._spawn_streaming(roots, issuer, ctx)
        yield ctx.done

    def _prepare_barrier(self, targets: List[int]):
        """Host-managed mode: hop-by-hop with translation round trips."""
        host = self.ssd_config.host
        yield from self._minibatch_kickoff(targets)
        # Host-side sampling issues each read as its own block request;
        # offloaded sampling (SmartSage/BG-1/BG-SP) batches one customized
        # NVMe command per hop, so per-read host costs disappear.
        issuer = "host" if self._host_sampling else "hop_batch"
        current = [self._make_root(t) for t in dict.fromkeys(targets)]
        deferred_features: List[PrepCommand] = []
        final_round = False
        while current:
            if issuer == "hop_batch":
                # the hop's batched request crosses the stack once
                self.meters.add("nvme_requests")
                yield from self.device.host_work(host.nvme_stack_s)
                self.meters.add("host_busy_s", host.nvme_stack_s)
                yield from self.device.firmware_work(
                    self.ssd_config.firmware.io_poller_s
                )
            ctx = _BatchCtx(done=self.sim.event())
            ctx.outstanding = len(current)
            for cmd in current:
                self.sim.process(self._run_command(cmd, issuer, ctx))
            yield ctx.done
            deferred_features.extend(ctx.deferred_features)
            children = ctx.collected
            if not children:
                if deferred_features and not final_round:
                    # the final step: retrieve every tree node's feature
                    final_round = True
                    current = deferred_features
                    deferred_features = []
                    continue
                break
            # results (sampled ids) return to the host ...
            if not self._host_sampling:
                nbytes = len(children) * 2 * NODE_ID_BYTES
                yield self.device.pcie.transfer(nbytes)
                self.meters.add("pcie_bytes", nbytes)
            # ... the host translates node indices to LPAs ...
            translate = len(children) * host.translate_per_node_s
            yield translate / host.num_threads
            self.meters.add("host_busy_s", translate)
            self.meters.add("host_translate_nodes", len(children))
            # ... and the next hop's requests come back over PCIe
            nbytes = len(children) * COMMAND_BASE_BYTES
            yield self.device.pcie.transfer(nbytes)
            self.meters.add("pcie_bytes", nbytes)
            current = children
