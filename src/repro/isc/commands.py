"""ONFI-style command and result formats (Section VI-C, Figure 13).

Two customized ONFI commands exist:

* a **global GNN configuration** command that programs each die's
  configuration registers before a task (hop count, per-hop sample count,
  feature vector length);
* a **sampling** command carrying the runtime parameters (section address,
  hop id, tree position, node id, and — for secondary sections — the
  coalesced draw list).

The simulator passes command *objects* between components, but every
command has an exact byte encoding so channel-transfer sizes are real and
encode/decode round-trips are testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Tuple

from ..directgraph.address import SectionAddress
from ..directgraph.spec import FormatSpec

__all__ = [
    "CommandKind",
    "GnnTaskConfig",
    "SamplingCommand",
    "SampleRecord",
    "UNKNOWN_NODE",
    "COMMAND_BASE_BYTES",
    "DRAW_ENTRY_BYTES",
    "RECORD_BYTES",
    "RESULT_HEADER_BYTES",
]

UNKNOWN_NODE = 0xFFFFFFFF  # dies address sections; node ids come from headers

COMMAND_BASE_BYTES = 20
DRAW_ENTRY_BYTES = 4
RECORD_BYTES = 12
RESULT_HEADER_BYTES = 16


class CommandKind(IntEnum):
    CONFIGURE = 0
    SAMPLE_PRIMARY = 1  # read primary section: feature + sample children
    SAMPLE_SECONDARY = 2  # resolve draws that landed in an overflow section
    FETCH_FEATURE = 3  # final hop: read primary section, feature only


@dataclass(frozen=True)
class GnnTaskConfig:
    """Global per-task configuration (the configuration ONFI command)."""

    num_hops: int
    fanout: int
    feature_dim: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_hops < 1:
            raise ValueError("num_hops must be >= 1")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")

    @property
    def fanouts(self) -> Tuple[int, ...]:
        return (self.fanout,) * self.num_hops

    def encode(self) -> bytes:
        return (
            bytes([CommandKind.CONFIGURE, self.num_hops])
            + self.fanout.to_bytes(2, "little")
            + self.feature_dim.to_bytes(2, "little")
            + (self.seed & 0xFFFF).to_bytes(2, "little")
        )

    @classmethod
    def decode(cls, raw: bytes) -> "GnnTaskConfig":
        if len(raw) != 8 or raw[0] != CommandKind.CONFIGURE:
            raise ValueError("not a configuration command")
        return cls(
            num_hops=raw[1],
            fanout=int.from_bytes(raw[2:4], "little"),
            feature_dim=int.from_bytes(raw[4:6], "little"),
            seed=int.from_bytes(raw[6:8], "little"),
        )


@dataclass(slots=True)
class SamplingCommand:
    """One sampling/feature-fetch operation on one flash section.

    ``hop`` is the depth of the node whose section is read (0 = target).
    ``position`` is that node's heap position in its target's tree, which
    is all a die needs to key the TRNG and name child positions.
    ``draws`` (secondary only) lists coalesced ``(sample_index,
    in_section_index)`` pairs; ``in_section_index`` is -1 when the die must
    re-draw within the section (the paper's modulo-resample policy).

    A plain slotted record, built once per command on the datapath's hot
    path: nothing mutates or hashes one, so it is neither frozen nor
    hashable.
    """

    kind: CommandKind
    address: SectionAddress
    target: int  # target node id of the tree this command belongs to
    hop: int
    position: int
    node_id: int = UNKNOWN_NODE  # expected node (for header verification)
    draws: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind == CommandKind.CONFIGURE:
            raise ValueError("use GnnTaskConfig for configuration")
        if self.kind != CommandKind.SAMPLE_SECONDARY and self.draws:
            raise ValueError("draw lists only apply to secondary commands")

    @property
    def encoded_bytes(self) -> int:
        return COMMAND_BASE_BYTES + DRAW_ENTRY_BYTES * len(self.draws)

    def encode(self, spec: FormatSpec) -> bytes:
        out = bytearray()
        out.append(int(self.kind))
        out.append(self.hop)
        out += len(self.draws).to_bytes(2, "little")
        out += spec.codec.pack(self.address).to_bytes(4, "little")
        out += self.target.to_bytes(4, "little")
        out += self.position.to_bytes(4, "little")
        out += self.node_id.to_bytes(4, "little")
        for sample_index, in_section in self.draws:
            out += sample_index.to_bytes(2, "little")
            out += (in_section & 0xFFFF).to_bytes(2, "little")
        return bytes(out)

    @classmethod
    def decode(cls, spec: FormatSpec, raw: bytes) -> "SamplingCommand":
        if len(raw) < COMMAND_BASE_BYTES:
            raise ValueError("sampling command too short")
        kind = CommandKind(raw[0])
        hop = raw[1]
        n_draws = int.from_bytes(raw[2:4], "little")
        if len(raw) != COMMAND_BASE_BYTES + DRAW_ENTRY_BYTES * n_draws:
            raise ValueError("sampling command length mismatch")
        address = spec.codec.unpack(int.from_bytes(raw[4:8], "little"))
        target = int.from_bytes(raw[8:12], "little")
        position = int.from_bytes(raw[12:16], "little")
        node_id = int.from_bytes(raw[16:20], "little")
        draws = []
        at = COMMAND_BASE_BYTES
        for _ in range(n_draws):
            j = int.from_bytes(raw[at : at + 2], "little")
            idx = int.from_bytes(raw[at + 2 : at + 4], "little")
            if idx == 0xFFFF:
                idx = -1
            draws.append((j, idx))
            at += DRAW_ENTRY_BYTES
        return cls(
            kind=kind,
            address=address,
            target=target,
            hop=hop,
            position=position,
            node_id=node_id,
            draws=tuple(draws),
        )


@dataclass(slots=True)
class SampleRecord:
    """Subgraph-reconstruction record emitted when a section is read.

    Matches the paper's sampling-result metadata (batch id / last node id /
    current node id): the engine rebuilds the tree from (position,
    node id) pairs because positions encode parentage. A plain slotted
    record, like :class:`SamplingCommand`.
    """

    target: int
    position: int
    node_id: int
    depth: int

    @property
    def encoded_bytes(self) -> int:
        return RECORD_BYTES
