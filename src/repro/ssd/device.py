"""The assembled SSD device runtime used by platform simulations.

Bundles the flash backend, firmware cores, DRAM port, PCIe link, and host
threads into one object, with generator helpers for costed work on shared
resources.
"""

from __future__ import annotations

from typing import Optional

from ..sim import BandwidthPipe, Resource, Simulator
from .config import SSDConfig
from .flash import Executor, FlashBackend

__all__ = ["SsdDevice"]


class SsdDevice:
    """All shared hardware of one simulated GNN acceleration system."""

    def __init__(self, sim: Simulator, config: SSDConfig, executor: Executor) -> None:
        self.sim = sim
        self.config = config
        self.flash = FlashBackend(sim, config.flash, executor)
        self.cores = Resource(sim, capacity=config.firmware.num_cores, name="fw-cores")
        self.dram = BandwidthPipe(
            sim,
            bytes_per_sec=config.dram.bandwidth_bps,
            per_transfer_overhead=config.dram.access_overhead_s,
            name="ssd-dram",
        )
        self.pcie = BandwidthPipe(
            sim,
            bytes_per_sec=config.pcie.bandwidth_bps,
            per_transfer_overhead=config.pcie.transaction_overhead_s,
            name="pcie",
        )
        self.host_threads = Resource(
            sim, capacity=config.host.num_threads, name="host-threads"
        )

    # -- costed work helpers (yield from these inside processes) --------------

    def firmware_work(self, seconds: float):
        """Occupy one firmware core for ``seconds``."""
        yield self.cores.acquire()
        try:
            yield seconds
        finally:
            self.cores.release()

    def host_work(self, seconds: float):
        """Occupy one host CPU thread for ``seconds``."""
        yield self.host_threads.acquire()
        try:
            yield seconds
        finally:
            self.host_threads.release()

    def firmware_busy_seconds(self) -> float:
        return self.cores.tracker.busy_time()

    def close_trackers(self) -> None:
        now = self.sim.now
        self.flash.close_trackers()
        self.cores.tracker.close(now)
