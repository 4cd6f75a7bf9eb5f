"""SSD system configuration (the paper's Table II, our constants).

All latency/bandwidth knobs for the simulated device live here, including
the two flash generations the paper evaluates:

* **ULL flash** (Z-NAND-class): 3 us page read (Section I);
* **traditional flash**: 20 us page read (Section VII-E).

The default backend is 16 channels x 8 dies (the paper's "total available
resources (16 channels, 128 dies)"), 800 MB/s channels, 4 firmware cores,
and 12.8 GB/s SSD DRAM — chosen so the Fig 18 channel-count sweep saturates
DRAM right at 16 channels, as the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Tuple

__all__ = [
    "FlashConfig",
    "FirmwareConfig",
    "DieSamplerConfig",
    "HwRouterConfig",
    "DramConfig",
    "PcieConfig",
    "HostConfig",
    "GpuDirectConfig",
    "SSDConfig",
    "ull_ssd",
    "traditional_ssd",
]


def _store_floats(config) -> None:
    """Hold every ``float`` field of a frozen config as a ``float``.

    Processes wait out these times by yielding them, and the kernel takes
    a delay only as a float (an ``int`` yield fails the process), so a
    config built with, say, ``parse_s=0`` is stored as ``0.0``.
    """
    for f in fields(config):
        if f.type == "float":
            value = getattr(config, f.name)
            if type(value) is not float:
                object.__setattr__(config, f.name, float(value))


@dataclass(frozen=True)
class FlashConfig:
    """Flash backend geometry and timing."""

    num_channels: int = 16
    dies_per_channel: int = 8
    planes_per_die: int = 2
    page_size: int = 4096
    pages_per_block: int = 256
    read_latency_s: float = 3e-6  # ULL flash sense time
    program_latency_s: float = 100e-6
    channel_bandwidth_bps: float = 800e6  # bytes/sec
    channel_overhead_s: float = 0.2e-6  # command/address cycles per transfer
    pipelined_registers: bool = False  # overlap next read with the previous
    # result's channel transfer (cache/data register split)
    exploit_planes: bool = False  # concurrent senses on a die's planes
    # (the sampler and output path stay shared, as in Figure 10)

    def __post_init__(self) -> None:
        _store_floats(self)
        if self.num_channels < 1 or self.dies_per_channel < 1:
            raise ValueError("need at least one channel and one die")
        if self.page_size < 512:
            raise ValueError("page_size too small")
        if self.read_latency_s <= 0 or self.channel_bandwidth_bps <= 0:
            raise ValueError("latencies and bandwidths must be positive")

    @property
    def total_dies(self) -> int:
        return self.num_channels * self.dies_per_channel

    @property
    def page_transfer_s(self) -> float:
        return self.channel_overhead_s + self.page_size / self.channel_bandwidth_bps

    def locate(self, page_index: int) -> Tuple[int, int]:
        """Map a flash page index to (channel, die-in-channel).

        Pages stripe channel-first, then die — consecutive DirectGraph
        pages land on different channels, maximizing parallelism.
        """
        if page_index < 0:
            raise ValueError("page index must be >= 0")
        channel = page_index % self.num_channels
        die = (page_index // self.num_channels) % self.dies_per_channel
        return channel, die


@dataclass(frozen=True)
class FirmwareConfig:
    """Embedded-processor cost model (the control plane of Figure 3)."""

    num_cores: int = 4
    io_poller_s: float = 0.5e-6  # per host NVMe request (submit + complete)
    ftl_lookup_s: float = 0.10e-6  # LPA->PPA per flash command
    schedule_s: float = 0.20e-6  # flash I/O scheduler per command issue
    completion_s: float = 0.12e-6  # completion handling + DMA setup
    parse_result_s: float = 0.15e-6  # classify a sampling result
    sample_per_neighbor_s: float = 60e-9  # firmware software sampling

    def __post_init__(self) -> None:
        _store_floats(self)
        if self.num_cores < 1:
            raise ValueError("need at least one firmware core")

    def command_issue_cost(self, translate: bool) -> float:
        """Control-plane time to issue one flash command."""
        cost = self.schedule_s
        if translate:
            cost += self.ftl_lookup_s
        return cost


@dataclass(frozen=True)
class DieSamplerConfig:
    """On-die sampling logic timing (Section V-A)."""

    section_scan_s: float = 10e-9  # section iterator, per section stepped
    per_neighbor_s: float = 25e-9  # modulo sample + command generation

    __post_init__ = _store_floats


@dataclass(frozen=True)
class HwRouterConfig:
    """Channel-level command router timing (Section V-B)."""

    parse_s: float = 0.10e-6  # data-stream parser per completed command
    crossbar_s: float = 0.05e-6  # crossbar forwarding per command

    __post_init__ = _store_floats


@dataclass(frozen=True)
class DramConfig:
    """SSD-internal DRAM treated as a serialized bandwidth port."""

    bandwidth_bps: float = 12.8e9
    access_overhead_s: float = 30e-9

    __post_init__ = _store_floats


@dataclass(frozen=True)
class PcieConfig:
    """Host link (PCIe Gen4 x4-class)."""

    bandwidth_bps: float = 7.9e9
    transaction_overhead_s: float = 0.4e-6

    __post_init__ = _store_floats


@dataclass(frozen=True)
class HostConfig:
    """Host-side software costs for the CPU-centric paths."""

    num_threads: int = 8
    nvme_stack_s: float = 3.0e-6  # block layer + driver per request
    translate_per_node_s: float = 0.1e-6  # node index -> LPA metadata lookup
    sample_per_neighbor_s: float = 0.1e-6  # host CPU sampling

    __post_init__ = _store_floats


@dataclass(frozen=True)
class GpuDirectConfig:
    """GPU-initiated direct storage timing (the GIDS/BaM access model).

    GPU threads build NVMe commands themselves and ring the device
    doorbell with one posted MMIO write over PCIe — no host software
    stack, no per-hop translation round trip. Sampling runs as a massive
    grid of GPU threads, so the per-neighbor cost is tiny but every page
    travels PCIe at page granularity.
    """

    warp_size: int = 32  # threads whose requests coalesce per window
    coalesce: bool = True  # merge same-page requests within a warp
    doorbell_s: float = 0.2e-6  # posted MMIO doorbell write latency
    sample_per_neighbor_s: float = 5e-9  # GPU-thread sampling throughput
    kernel_launch_s: float = 5e-6  # host launches the sampling kernel

    def __post_init__(self) -> None:
        _store_floats(self)
        if self.warp_size < 1:
            raise ValueError("warp_size must be >= 1")
        if self.doorbell_s < 0 or self.sample_per_neighbor_s < 0:
            raise ValueError("latencies must be non-negative")


@dataclass(frozen=True)
class SSDConfig:
    """Complete system configuration."""

    flash: FlashConfig = field(default_factory=FlashConfig)
    firmware: FirmwareConfig = field(default_factory=FirmwareConfig)
    die_sampler: DieSamplerConfig = field(default_factory=DieSamplerConfig)
    hw_router: HwRouterConfig = field(default_factory=HwRouterConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    pcie: PcieConfig = field(default_factory=PcieConfig)
    host: HostConfig = field(default_factory=HostConfig)
    gpu: GpuDirectConfig = field(default_factory=GpuDirectConfig)

    def with_flash(self, **kwargs) -> "SSDConfig":
        return replace(self, flash=replace(self.flash, **kwargs))

    def with_firmware(self, **kwargs) -> "SSDConfig":
        return replace(self, firmware=replace(self.firmware, **kwargs))

    def with_gpu(self, **kwargs) -> "SSDConfig":
        return replace(self, gpu=replace(self.gpu, **kwargs))


_ULL_SSD = SSDConfig()


def ull_ssd() -> SSDConfig:
    """The default BeaconGNN device: ULL (3 us read) flash backend.

    One shared instance (the config is frozen), so every default cell
    hands the cache-key canonicalizer the same object.
    """
    return _ULL_SSD


def traditional_ssd() -> SSDConfig:
    """Section VII-E: a conventional 20 us read-latency SSD."""
    return SSDConfig().with_flash(read_latency_s=20e-6)
