"""Fine-grained firmware I/O pipeline (Figure 3) — the Challenge-3 model.

The paper's third challenge: firmware-scheduled flash I/O cannot keep up
with ULL flash. This module models the firmware's three functions as
explicit pipeline stages contending for the embedded cores:

1. **I/O poller** — acquires new requests (and later signals completion);
2. **FTL** — LPA -> PPA mapping lookup in DRAM;
3. **flash I/O scheduler** — polls channel/chip status and launches the
   backend operation; also manages the request-tracking queues in DRAM
   and the DMA configuration for each transfer.

Every stage costs core time, so total firmware throughput is bounded by
``num_cores / per_request_core_time`` — the ceiling BG-SP/BG-DGSP hit in
Figure 18, and what the channel-level hardware router removes.

Used by ``benchmarks/bench_fig07b_firmware_limit.py`` to reproduce the
motivation: a firmware-driven backend saturates far below the aggregate
ULL die throughput, while hardware routing tracks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..sim import Simulator, Store
from ..sim.stats import StageRecord
from .config import FirmwareConfig, FlashConfig, HwRouterConfig
from .device import SsdDevice
from .flash import DieExecution, FlashJob

__all__ = ["PipelineRequest", "FirmwarePipeline", "HardwarePipeline", "drive_backend"]


@dataclass
class PipelineRequest:
    """One backend flash read travelling through the control pipeline."""

    request_id: int
    page_index: int
    record: StageRecord = None
    completed_at: float = 0.0

    def __post_init__(self) -> None:
        if self.record is None:
            self.record = StageRecord(command_id=self.request_id, hop=0)


class FirmwarePipeline:
    """Firmware-scheduled backend I/O: every request costs core time."""

    def __init__(
        self,
        sim: Simulator,
        device: SsdDevice,
        firmware: FirmwareConfig,
    ) -> None:
        self.sim = sim
        self.device = device
        self.firmware = firmware
        self.completed: List[PipelineRequest] = []
        self._incoming = Store(sim, name="fw-incoming")
        self._dispatcher = sim.process(self._run(), name="fw-pipeline")

    def submit(self, request: PipelineRequest) -> None:
        request.record.issued = self.sim.now
        self._incoming.put(request)

    def _run(self):
        while True:
            request = yield self._incoming.get()
            self.sim.process(self._serve(request))

    def _serve(self, request: PipelineRequest):
        fw = self.firmware
        device = self.device
        # stage 1+2: poller acquires the request, FTL translates
        yield from device.firmware_work(fw.io_poller_s + fw.ftl_lookup_s)
        # stage 3: scheduler polls resources and issues the flash command
        yield from device.firmware_work(fw.schedule_s)
        job = FlashJob(page_index=request.page_index, record=request.record)
        yield device.flash.submit(job)
        # completion: DMA bookkeeping + poller signals the host
        yield from device.firmware_work(fw.completion_s + fw.io_poller_s)
        request.completed_at = self.sim.now
        request.record.completed = self.sim.now
        self.completed.append(request)


class HardwarePipeline:
    """Hardware-routed backend I/O: per-channel parsers, no core time."""

    def __init__(
        self,
        sim: Simulator,
        device: SsdDevice,
        router: HwRouterConfig,
    ) -> None:
        self.sim = sim
        self.device = device
        self.router = router
        self.completed: List[PipelineRequest] = []

    def submit(self, request: PipelineRequest) -> None:
        request.record.issued = self.sim.now
        self.sim.process(self._serve(request))

    def _serve(self, request: PipelineRequest):
        yield self.router.crossbar_s
        job = FlashJob(page_index=request.page_index, record=request.record)
        yield self.device.flash.submit(job)
        yield self.router.parse_s
        request.completed_at = self.sim.now
        request.record.completed = self.sim.now
        self.completed.append(request)


def drive_backend(
    num_requests: int,
    *,
    flash: Optional[FlashConfig] = None,
    firmware: Optional[FirmwareConfig] = None,
    router: Optional[HwRouterConfig] = None,
    payload_bytes: int = 256,
    use_hardware: bool = False,
    seed: int = 1,
) -> dict:
    """Saturate the backend with small reads; report IOPS + latency.

    With ``use_hardware=False`` the firmware pipeline processes every
    request; with ``True`` the channel-level hardware path does. Small
    ``payload_bytes`` emulates die-level sampling results, so the backend
    itself is never transfer-bound — isolating the control-path ceiling.
    """
    from ..rng import counter_draw

    sim = Simulator()
    flash = flash or FlashConfig()
    firmware = firmware or FirmwareConfig()
    router = router or HwRouterConfig()
    from .config import SSDConfig

    device = SsdDevice(
        sim,
        SSDConfig(flash=flash, firmware=firmware, hw_router=router),
        lambda job: DieExecution(0.0, payload_bytes),
    )
    if use_hardware:
        pipeline = HardwarePipeline(sim, device, router)
    else:
        pipeline = FirmwarePipeline(sim, device, firmware)
    total_pages = flash.num_channels * flash.dies_per_channel * 64
    for i in range(num_requests):
        page = counter_draw(seed, i) % total_pages
        pipeline.submit(PipelineRequest(request_id=i, page_index=page))
    sim.run()
    requests = pipeline.completed
    assert len(requests) == num_requests
    duration = max(r.completed_at for r in requests)
    latency = sum(r.record.completed - r.record.issued for r in requests) / len(
        requests
    )
    return {
        "iops": num_requests / duration,
        "mean_latency_s": latency,
        "duration_s": duration,
    }
