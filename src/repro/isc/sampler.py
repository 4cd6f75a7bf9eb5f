"""Die-level sampler (Section V-A, Figures 10-11).

The sampler lives in each flash die's control circuitry and runs four
micro-units over the page held in the cache register:

* **section iterator** — walks the offset table to the target section;
* **vector retriever** — copies the feature vector to the data register;
* **node sampler** — modulo-samples neighbors with TRNG draws. Primary
  sections sample over the *entire* neighbor range (including entries that
  live in secondary sections); draws landing outside the page become
  commands against the owning secondary section, and draws for the same
  secondary section coalesce into one command. Secondary sections sample
  within themselves;
* **command generator** — emits the next-hop sampling commands and the
  result stream (feature bytes + subgraph records + new commands).

Two sampling policies are provided:

* ``EXACT_INDEX`` (default): a draw that lands at overflow index ``i``
  resolves to *exactly* neighbor ``i`` (the coalesced command carries the
  in-section index). This policy is provably equivalent to the reference
  in-order GraphSage sampler, which is what the correctness tests assert.
* ``RESAMPLE_IN_SECTION``: the paper's literal rule — the secondary
  section re-draws uniformly within itself. Statistically this biases
  slightly toward overflow neighbors of partially-filled last sections but
  never produces an invalid edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..directgraph.builder import DirectGraphImage
from ..directgraph.reader import (
    DirectGraphFormatError,
    PrimarySectionView,
    SecondarySectionView,
    SectionView,
    decode_section,
)
from ..directgraph.spec import FormatSpec
from ..gnn.sampling import (
    SampledSubgraph,
    TreeNode,
    child_position,
    depth_offsets,
    parent_position,
    tree_capacity,
)
from ..rng import counter_draw, splitmix64
from .commands import (
    COMMAND_BASE_BYTES,
    DRAW_ENTRY_BYTES,
    RECORD_BYTES,
    UNKNOWN_NODE,
    CommandKind,
    GnnTaskConfig,
    RESULT_HEADER_BYTES,
    SampleRecord,
    SamplingCommand,
)

__all__ = [
    "SamplerPolicy",
    "SamplerFault",
    "SampleResult",
    "DieSampler",
    "run_in_storage_sampling",
    "InStorageRunResult",
]

_RESAMPLE_SALT = 0x5EC0  # extra key for the in-section re-draw policy
_PRIMARY = CommandKind.SAMPLE_PRIMARY
_SECONDARY = CommandKind.SAMPLE_SECONDARY
_FETCH = CommandKind.FETCH_FEATURE


class SamplerPolicy(Enum):
    EXACT_INDEX = "exact"
    RESAMPLE_IN_SECTION = "resample"


class SamplerFault(RuntimeError):
    """On-die check failure (Section VI-E): sampler stops, control returns
    to firmware."""


@dataclass(slots=True)
class SampleResult:
    """Everything one sampling command produces."""

    command: SamplingCommand
    record: Optional[SampleRecord]
    feature_bytes: Optional[bytes]
    children: List[SamplingCommand] = field(default_factory=list)
    sections_scanned: int = 0
    neighbors_sampled: int = 0

    def payload_bytes(self) -> int:
        """Size of the result stream leaving the die over the channel."""
        total = RESULT_HEADER_BYTES + COMMAND_BASE_BYTES * len(self.children)
        if self.feature_bytes is not None:
            total += len(self.feature_bytes)
        for child in self.children:
            if child.draws:
                total += DRAW_ENTRY_BYTES * len(child.draws)
        if self.record is not None:
            total += RECORD_BYTES
        return total


class DieSampler:
    """Functional model of the on-die sampling logic."""

    def __init__(
        self,
        spec: FormatSpec,
        config: GnnTaskConfig,
        policy: SamplerPolicy = SamplerPolicy.EXACT_INDEX,
        coalesce_secondary: bool = True,
    ) -> None:
        """``coalesce_secondary=False`` disables the paper's command
        coalescing (one read per secondary section) — used by the ablation
        benchmark to quantify how many redundant reads coalescing saves."""
        if config.feature_dim != spec.feature_dim:
            raise ValueError("task feature_dim differs from format spec")
        self.spec = spec
        self.config = config
        self.policy = policy
        self.coalesce_secondary = coalesce_secondary
        # Heap numbering: the children of ``position`` (depth ``d - 1``)
        # are ``first + j`` with ``first = offsets[d] + (position -
        # offsets[d - 1]) * fanout`` (gnn.sampling.child_position).
        self._offsets = depth_offsets(config.fanouts)

    # -- command execution ----------------------------------------------------

    def execute(self, page_bytes: bytes, command: SamplingCommand) -> SampleResult:
        """Run one sampling command against the page in the cache register.

        The section's neighbor entries stay packed; only the entries the
        TRNG draws select are unpacked.
        """
        kind = command.kind
        if kind == _PRIMARY or kind == _FETCH:
            return self._execute_primary(page_bytes, command)
        if kind == _SECONDARY:
            return self._execute_secondary(page_bytes, command)
        raise SamplerFault(f"die cannot execute command kind {command.kind}")

    def _decode(self, page_bytes: bytes, command: SamplingCommand) -> SectionView:
        try:
            return decode_section(self.spec, page_bytes, command.address.section)
        except DirectGraphFormatError as err:
            raise SamplerFault(f"section check failed at {command.address}: {err}")

    def _execute_primary(
        self, page_bytes: bytes, command: SamplingCommand
    ) -> SampleResult:
        section = self._decode(page_bytes, command)
        if not isinstance(section, PrimarySectionView):
            raise SamplerFault(
                f"expected primary section at {command.address}, got type "
                f"{section.type}"
            )
        if command.node_id != UNKNOWN_NODE and section.node_id != command.node_id:
            raise SamplerFault(
                f"node id mismatch at {command.address}: header "
                f"{section.node_id} != expected {command.node_id}"
            )
        result = SampleResult(
            command=command,
            record=SampleRecord(
                target=command.target,
                position=command.position,
                node_id=section.node_id,
                depth=command.hop,
            ),
            feature_bytes=section.feature_bytes,
            sections_scanned=command.address.section + 1,
        )
        if command.kind == _FETCH:
            return result  # final hop: the vector retriever alone runs
        config = self.config
        child_depth = command.hop + 1
        neighbor_count = section.neighbor_count
        if child_depth > config.num_hops or neighbor_count == 0:
            return result
        fanout = config.fanout
        target = command.target
        position = command.position
        # Fold (seed, target, depth, position) once; draw j then folds j
        # alone: counter_fold(state, j) == counter_draw(..., position, j).
        state = counter_draw(config.seed, target, child_depth, position)
        offsets = self._offsets
        first = offsets[child_depth] + (position - offsets[child_depth - 1]) * fanout
        child_kind = self._child_kind(child_depth)
        n_inline = section.n_inline
        inline = section.inline_neighbor_addrs
        children = result.children
        sec_cap = self.spec.max_secondary_neighbors
        pending_secondary: Dict[int, List] = {}
        for j in range(fanout):
            idx = splitmix64(state ^ j) % neighbor_count  # counter_fold(state, j)
            if idx < n_inline:
                children.append(
                    SamplingCommand(
                        child_kind, inline[idx], target, child_depth, first + j
                    )
                )
            else:
                overflow = idx - n_inline
                ordinal = overflow // sec_cap
                if ordinal >= len(section.secondary_addrs):
                    raise SamplerFault(
                        f"overflow index {idx} beyond secondary sections of "
                        f"node {section.node_id}"
                    )
                if self.policy is SamplerPolicy.EXACT_INDEX:
                    entry = (j, overflow % sec_cap)
                else:
                    entry = (j, -1)
                pending_secondary.setdefault(ordinal, []).append(entry)
        result.neighbors_sampled = fanout
        # Coalesced commands: one read per touched secondary section.
        for ordinal in sorted(pending_secondary):
            draw_groups = (
                [tuple(pending_secondary[ordinal])]
                if self.coalesce_secondary
                else [(entry,) for entry in pending_secondary[ordinal]]
            )
            for draws in draw_groups:
                children.append(
                    SamplingCommand(
                        kind=_SECONDARY,
                        address=section.secondary_addrs[ordinal],
                        target=target,
                        hop=command.hop,
                        position=position,
                        node_id=section.node_id,
                        draws=draws,
                    )
                )
        return result

    def _execute_secondary(
        self, page_bytes: bytes, command: SamplingCommand
    ) -> SampleResult:
        section = self._decode(page_bytes, command)
        if not isinstance(section, SecondarySectionView):
            raise SamplerFault(
                f"expected secondary section at {command.address}, got type "
                f"{section.type}"
            )
        if command.node_id != UNKNOWN_NODE and section.node_id != command.node_id:
            raise SamplerFault(
                f"node id mismatch at {command.address}: header "
                f"{section.node_id} != expected {command.node_id}"
            )
        if not command.draws:
            raise SamplerFault("secondary command without draw list")
        if section.neighbor_count == 0:
            raise SamplerFault(
                f"secondary section at {command.address} holds no entries"
            )
        result = SampleResult(
            command=command,
            record=None,  # the owning node was recorded by its primary read
            feature_bytes=None,
            sections_scanned=command.address.section + 1,
        )
        config = self.config
        child_depth = command.hop + 1
        if not 1 <= child_depth <= config.num_hops:
            raise SamplerFault(
                f"secondary command at hop {command.hop} has no child depth "
                f"in a {config.num_hops}-hop task"
            )
        for j, _ in command.draws:
            if not 0 <= j < config.fanout:
                raise SamplerFault(
                    f"sample index {j} out of fanout {config.fanout}"
                )
        child_kind = self._child_kind(child_depth)
        for j, in_section in command.draws:
            if in_section < 0:  # RESAMPLE_IN_SECTION policy
                draw = counter_draw(
                    config.seed,
                    command.target,
                    child_depth,
                    command.position,
                    j,
                    _RESAMPLE_SALT,
                )
                in_section = draw % section.neighbor_count
            if in_section >= section.neighbor_count:
                raise SamplerFault(
                    f"draw index {in_section} beyond section of "
                    f"{section.neighbor_count} entries"
                )
            result.neighbors_sampled += 1
            result.children.append(
                SamplingCommand(
                    kind=child_kind,
                    address=section.neighbor_addrs[in_section],
                    target=command.target,
                    hop=child_depth,
                    # the draw list comes with the command: position
                    # through the checked rule, not the primary's first + j
                    position=child_position(
                        config.fanouts, command.position, child_depth, j
                    ),
                )
            )
        return result

    def _child_kind(self, child_depth: int) -> CommandKind:
        return _FETCH if child_depth >= self.config.num_hops else _PRIMARY


# -- functional whole-task execution ------------------------------------------


@dataclass
class InStorageRunResult:
    """Output of a (timing-free) in-storage sampling run."""

    subgraphs: Dict[int, SampledSubgraph]
    commands_executed: int
    page_reads: int
    commands_by_kind: Dict[CommandKind, int]
    result_stream_bytes: int
    full_page_bytes: int  # what page-granular transfer would have moved

    @property
    def channel_traffic_saving(self) -> float:
        """Fraction of channel bytes removed by on-die sampling."""
        if self.full_page_bytes == 0:
            return 0.0
        return 1.0 - self.result_stream_bytes / self.full_page_bytes


def run_in_storage_sampling(
    image: DirectGraphImage,
    config: GnnTaskConfig,
    targets: List[int],
    policy: SamplerPolicy = SamplerPolicy.EXACT_INDEX,
    lifo: bool = False,
    coalesce_secondary: bool = True,
) -> InStorageRunResult:
    """Execute a mini-batch entirely in storage, order-independently.

    The command pool starts with one SAMPLE_PRIMARY per target (the host
    supplies target primary-section addresses, Section VI-D) and drains
    until no commands remain — FIFO by default, LIFO with ``lifo=True``
    (tests use both to prove order independence).
    """
    sampler = DieSampler(
        image.spec, config, policy, coalesce_secondary=coalesce_secondary
    )
    queue: List[SamplingCommand] = [
        SamplingCommand(
            kind=CommandKind.SAMPLE_PRIMARY
            if config.num_hops > 0
            else CommandKind.FETCH_FEATURE,
            address=image.address_of(t),
            target=t,
            hop=0,
            position=0,
        )
        for t in dict.fromkeys(targets)  # dedup, preserve order
    ]
    records: List[SampleRecord] = []
    by_kind: Dict[CommandKind, int] = {}
    executed = 0
    stream_bytes = 0
    while queue:
        command = queue.pop() if lifo else queue.pop(0)
        page = image.page_bytes(command.address.page)
        result = sampler.execute(page, command)
        executed += 1
        by_kind[command.kind] = by_kind.get(command.kind, 0) + 1
        stream_bytes += result.payload_bytes()
        if result.record is not None:
            records.append(result.record)
        queue.extend(result.children)

    subgraphs = reconstruct_subgraphs(records, config)
    return InStorageRunResult(
        subgraphs=subgraphs,
        commands_executed=executed,
        page_reads=executed,
        commands_by_kind=by_kind,
        result_stream_bytes=stream_bytes,
        full_page_bytes=executed * image.spec.page_size,
    )


def reconstruct_subgraphs(
    records: List[SampleRecord], config: GnnTaskConfig
) -> Dict[int, SampledSubgraph]:
    """Rebuild per-target trees from (position, node) records.

    Heap numbering makes parentage implicit, so records can arrive in any
    order — exactly how the firmware GNN engine reassembles subgraphs from
    the streaming results in SSD DRAM.
    """
    fanouts = config.fanouts
    capacity = tree_capacity(fanouts)
    subgraphs: Dict[int, SampledSubgraph] = {}
    for rec in sorted(records, key=lambda r: (r.target, r.position)):
        if rec.position >= capacity:
            raise ValueError(f"record position {rec.position} beyond tree size")
        sg = subgraphs.setdefault(
            rec.target, SampledSubgraph(target=rec.target, fanouts=fanouts)
        )
        sg.add(
            TreeNode(
                position=rec.position,
                node_id=rec.node_id,
                depth=rec.depth,
                parent=parent_position(fanouts, rec.position),
            )
        )
    return subgraphs
