"""Host-side BeaconGNN deployment and execution flows (Section VI).

``BeaconHost`` drives the full protocol against a firmware runtime:

1. **deploy** — fetch reserved blocks, run Algorithm 1 against the
   returned PPA list, flush every DirectGraph page through the verified
   custom command;
2. **configure** — program the GNN task and (optionally) model weights;
3. **run_minibatch** — send targets + their primary-section addresses
   (the only per-batch host involvement, Section VI-D) and receive the
   sampled subgraphs / final embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..directgraph.builder import DirectGraphImage, build_directgraph
from ..directgraph.spec import FormatSpec
from ..gnn.features import FeatureTable
from ..gnn.graph import Graph
from ..gnn.model import GnnModel
from ..gnn.sampling import SampledSubgraph
from ..isc.commands import GnnTaskConfig
from ..ssd.firmware_runtime import MinibatchResult
from ..ssd.nvme import Opcode
from ..ssd.reliability import relocate_image
from .driver import NvmeDriver

__all__ = ["BeaconHost", "DeploymentInfo"]


@dataclass
class DeploymentInfo:
    """Everything the host tracks about a deployed DirectGraph."""

    image: DirectGraphImage
    blocks: List[int]
    pages_flushed: int

    def address_of(self, node: int) -> int:
        return self.image.spec.codec.pack(self.image.address_of(node))


class BeaconHost:
    """The host application side of the BeaconGNN protocol."""

    def __init__(self, driver: NvmeDriver) -> None:
        self.driver = driver
        self.deployment: Optional[DeploymentInfo] = None
        self._task: Optional[GnnTaskConfig] = None

    # -- deployment (Sections VI-A, VI-B) -----------------------------------------

    def deploy(
        self,
        graph: Graph,
        features: FeatureTable,
        spec: Optional[FormatSpec] = None,
    ) -> DeploymentInfo:
        """Convert ``graph`` to DirectGraph and flush it into the SSD."""
        firmware = self.driver.firmware
        spec = spec or FormatSpec(
            page_size=firmware.flash.page_size, feature_dim=features.dim
        )
        if spec.page_size != firmware.flash.page_size:
            raise ValueError("format page size must match the device")
        # Step 0: build against provisional page indices 0..N-1
        image = build_directgraph(graph, features, spec)
        pages_per_block = firmware.ftl.pages_per_block
        blocks_needed = -(-image.num_pages // pages_per_block)
        blocks = self.driver.call(Opcode.BEACON_GET_BLOCKS, payload=blocks_needed)
        ppas: List[int] = []
        for block in blocks:
            start = block * pages_per_block
            ppas.extend(range(start, start + pages_per_block))
        # Step 1+2 of Algorithm 1 produced indices; place them on the
        # device's physical pages by rewriting all embedded addresses.
        mapping = {i: ppas[i] for i in range(image.num_pages)}
        image = relocate_image(image, mapping)
        for page_index in image.page_index.tolist():
            self.driver.call(
                Opcode.BEACON_FLUSH_PAGE,
                lba=page_index,
                payload=image.page_bytes(page_index),
            )
        self.deployment = DeploymentInfo(
            image=image, blocks=list(blocks), pages_flushed=image.num_pages
        )
        return self.deployment

    def undeploy(self) -> None:
        self.driver.call(Opcode.BEACON_RELEASE_BLOCKS)
        self.deployment = None

    # -- task setup ------------------------------------------------------------------

    def configure(self, task: GnnTaskConfig, model: Optional[GnnModel] = None) -> None:
        self.driver.call(Opcode.BEACON_CONFIGURE, payload=task)
        if model is not None:
            self.driver.call(Opcode.BEACON_LOAD_MODEL, payload=model)
        self._task = task

    # -- execution (Section VI-D) -------------------------------------------------------

    def run_minibatch(self, targets: List[int]) -> MinibatchResult:
        """One mini-batch: targets + primary-section addresses go down,
        subgraphs (and embeddings, when a model is loaded) come back."""
        if self.deployment is None:
            raise RuntimeError("deploy() a DirectGraph first")
        if self._task is None:
            raise RuntimeError("configure() the task first")
        unique = list(dict.fromkeys(targets))
        payload = {
            "targets": unique,
            "addresses": [self.deployment.address_of(t) for t in unique],
        }
        return self.driver.call(Opcode.BEACON_MINIBATCH, payload=payload)

    def subgraphs_for(self, targets: List[int]) -> Dict[int, SampledSubgraph]:
        return self.run_minibatch(targets).subgraphs

    def embeddings_for(self, targets: List[int]) -> Dict[int, np.ndarray]:
        result = self.run_minibatch(targets)
        if result.embeddings is None:
            raise RuntimeError("no model loaded; call configure(task, model)")
        return result.embeddings
