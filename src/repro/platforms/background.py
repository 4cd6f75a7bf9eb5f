"""Co-located regular storage I/O during GNN acceleration (Section VI-G).

BeaconGNN operates in two modes: acceleration (mini-batch jobs) and
regular-I/O. Regular requests arriving mid-batch are deferred to the end
of the current mini-batch; because the DirectGraph metadata and page
table stay resident in SSD DRAM, deferred requests are then served
immediately.

:class:`BackgroundIoInjector` generates a Poisson stream of 4 KB regular
reads against the device during a platform run and records their
latencies — with deferral (the BeaconGNN policy) or without (regular
reads contend with sampling traffic directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..quantile import percentile
from ..sim import Simulator
from ..sim.stats import StageRecord
from ..ssd.flash import FlashJob
from .datapath import DataPrepEngine

__all__ = ["BackgroundIoConfig", "BackgroundIoInjector"]


@dataclass(frozen=True)
class BackgroundIoConfig:
    """Poisson regular-read stream parameters."""

    rate_per_s: float  # mean arrival rate of 4 KB reads
    deferred: bool = True  # Section VI-G policy vs direct contention
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError("rate must be positive")


@dataclass
class BackgroundIoStats:
    latencies_s: List[float] = field(default_factory=list)
    deferred_count: int = 0

    @property
    def count(self) -> int:
        return len(self.latencies_s)

    @property
    def mean_latency_s(self) -> float:
        if not self.latencies_s:
            return 0.0
        return sum(self.latencies_s) / len(self.latencies_s)

    @property
    def p99_latency_s(self) -> float:
        if not self.latencies_s:
            return 0.0
        return percentile(self.latencies_s, 99.0)

    def to_dict(self) -> dict:
        return {
            "latencies_s": list(self.latencies_s),
            "deferred_count": self.deferred_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BackgroundIoStats":
        return cls(
            latencies_s=[float(v) for v in data["latencies_s"]],
            deferred_count=int(data["deferred_count"]),
        )


class BackgroundIoInjector:
    """Injects regular reads into a running platform simulation."""

    def __init__(
        self,
        sim: Simulator,
        engine: DataPrepEngine,
        config: BackgroundIoConfig,
    ) -> None:
        self.sim = sim
        self.engine = engine
        self.config = config
        self.stats = BackgroundIoStats()
        self._rng = np.random.default_rng(config.seed)
        self._seq = 0
        self._stopped = False
        sim.process(self._arrivals(), name="bg-io")

    def stop(self) -> None:
        """Stop generating arrivals (in-flight requests drain normally)."""
        self._stopped = True

    def _arrivals(self):
        rng = self._rng
        while not self._stopped:
            gap = float(rng.exponential(1.0 / self.config.rate_per_s))
            yield gap
            if self._stopped:
                return
            self.sim.process(self._serve(self.sim.now))

    def _serve(self, arrived: float):
        engine = self.engine
        device = engine.device
        fw = engine.ssd_config.firmware
        if self.config.deferred and engine.in_acceleration:
            self.stats.deferred_count += 1
            yield engine.acceleration_done_event()
        # regular path: poller + FTL + scheduler, page read, DRAM, completion
        yield from device.firmware_work(
            fw.io_poller_s + fw.ftl_lookup_s + fw.schedule_s
        )
        self._seq += 1
        page = int(self._rng.integers(0, 1 << 20))
        job = FlashJob(
            page_index=page,
            record=StageRecord(command_id=-self._seq, hop=-1),
        )
        yield device.flash.submit(job)
        yield device.dram.transfer(engine.ssd_config.flash.page_size)
        yield from device.firmware_work(fw.completion_s)
        yield device.pcie.transfer(engine.ssd_config.flash.page_size)
        self.stats.latencies_s.append(self.sim.now - arrived)
