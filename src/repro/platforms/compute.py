"""GNN computation stage on the chosen accelerator (Section V-C, VI-D).

In-SSD platforms run aggregation/update on the bus-attached spatial
accelerator, streaming activations through SSD DRAM (which is why DRAM
becomes the BG-2 bottleneck at high channel counts). Discrete platforms
first move the batch's feature matrix from the host to the PCIe
accelerator, then compute there.
"""

from __future__ import annotations

from ..accel.mapper import AcceleratorSpec, map_minibatch
from ..accel.presets import discrete_accelerator, ssd_accelerator
from ..gnn.model import minibatch_compute_shapes
from ..gnn.sampling import tree_capacity
from ..isc.commands import GnnTaskConfig
from ..sim import Simulator
from ..sim.stats import Meter
from ..ssd.device import SsdDevice
from .features import ComputeSite, PlatformFeatures

__all__ = ["ComputeEngine"]

FP16_BYTES = 2


class ComputeEngine:
    """Costs one mini-batch of message passing on the platform's device."""

    def __init__(
        self,
        sim: Simulator,
        device: SsdDevice,
        platform: PlatformFeatures,
        task: GnnTaskConfig,
        hidden_dim: int,
        meters: Meter,
        in_ssd_accel: AcceleratorSpec = None,
        discrete_accel: AcceleratorSpec = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.platform = platform
        self.task = task
        self.hidden_dim = hidden_dim
        self.meters = meters
        self.in_ssd_accel = in_ssd_accel or ssd_accelerator()
        self.discrete_accel = discrete_accel or discrete_accelerator()

    @property
    def accel_spec(self) -> AcceleratorSpec:
        if self.platform.compute_site == ComputeSite.IN_SSD:
            return self.in_ssd_accel
        return self.discrete_accel

    def plan(self, batch_size: int):
        shapes = minibatch_compute_shapes(
            batch_size=batch_size,
            fanouts=self.task.fanouts,
            feature_dim=self.task.feature_dim,
            hidden_dim=self.hidden_dim,
            num_layers=self.task.num_hops,
        )
        return map_minibatch(self.accel_spec, shapes)

    def batch_feature_bytes(self, batch_size: int) -> int:
        """Raw feature-matrix size of one batch's sampled trees."""
        positions = tree_capacity(self.task.fanouts)
        return batch_size * positions * self.task.feature_dim * FP16_BYTES

    def compute_batch(self, batch_size: int):
        """Process generator: run one batch's aggregation + update."""
        plan = self.plan(batch_size)
        spec = self.accel_spec
        self.meters.add("accel_busy_s", plan.seconds)
        self.meters.add("accel_macs", plan.macs)
        self.meters.add("accel_adds", plan.adds)
        self.meters.add("accel_energy_j", plan.energy_joules(spec))
        if self.platform.compute_site == ComputeSite.IN_SSD:
            # activations stream SRAM<->DRAM over the shared DRAM port
            yield self.device.dram.transfer(plan.dram_traffic_bytes)
            self.meters.add("dram_bytes", plan.dram_traffic_bytes)
        elif not self.platform.features_resident_on_accelerator:
            # host -> discrete accelerator feature shipment over PCIe;
            # GPU-direct platforms skip this — preparation already DMA'd
            # every page into the accelerator's own memory
            nbytes = self.batch_feature_bytes(batch_size)
            yield self.device.pcie.transfer(nbytes)
            self.meters.add("pcie_bytes", nbytes)
        # an empty plan sums to the int 0, and a wait is a float
        yield float(plan.seconds)
