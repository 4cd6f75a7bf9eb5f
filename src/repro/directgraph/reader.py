"""Decoding DirectGraph pages and sections.

The decoder is shared by the host-side verification path (round-trip tests
against the source graph) and by the die-level sampler model, which operates
on exactly these page bytes. Decoding parses a section's header and keeps
its neighbor entries packed: like the die's node sampler (Section V-A), a
reader unpacks only the entries it actually reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Union

import numpy as np

from .address import ADDRESS_BYTES, AddressCodec, SectionAddress
from .builder import DirectGraphImage
from .spec import (
    FormatSpec,
    PRIMARY_HEADER_BYTES,
    SECONDARY_HEADER_BYTES,
    SECTION_TYPE_PRIMARY,
    SECTION_TYPE_SECONDARY,
)

__all__ = [
    "PackedAddresses",
    "PrimarySectionView",
    "SecondarySectionView",
    "DecodedPage",
    "decode_page",
    "decode_section",
    "DirectGraphReader",
]


# Little-endian section headers (spec.py): type, flags, length, node id,
# then the primary's neighbor count, secondary count and inline count, or
# the secondary's neighbor count and a reserved u16.
_PRIMARY_HEADER = struct.Struct("<BBHIIHH")
_SECONDARY_HEADER = struct.Struct("<BBHIHH")
_ENTRY = struct.Struct("<I")  # one u32 LE address entry


class PackedAddresses(Sequence[SectionAddress]):
    """A read-only run of on-flash address entries, unpacked on access.

    Holds the run's 4-byte little-endian entries as one immutable ``bytes``
    slice; indexing or iterating unpacks only the entries it touches. It
    behaves like the list of addresses it stands for: ``len``, negative
    indices, slices (which return lists), truthiness and ``==`` against a
    list all work.
    """

    __slots__ = ("_codec", "_raw")

    def __init__(self, codec: AddressCodec, raw: bytes) -> None:
        self._codec = codec
        self._raw = raw

    def __len__(self) -> int:
        return len(self._raw) // ADDRESS_BYTES

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        raw = self._raw
        n = len(raw) // ADDRESS_BYTES
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("address index out of range")
        return self._codec.unpack(_ENTRY.unpack_from(raw, index * ADDRESS_BYTES)[0])

    def __iter__(self) -> Iterator[SectionAddress]:
        unpack = self._codec.unpack
        for (value,) in _ENTRY.iter_unpack(self._raw):
            yield unpack(value)

    def __eq__(self, other) -> bool:
        if isinstance(other, (PackedAddresses, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(slots=True)
class PrimarySectionView:
    """A decoded primary section."""

    node_id: int
    neighbor_count: int  # full degree, including secondary-resident entries
    n_inline: int
    secondary_addrs: PackedAddresses
    feature_bytes: bytes
    inline_neighbor_addrs: PackedAddresses
    section_len: int
    growth_slots_free: int = 0  # unused reserved secondary slots

    @property
    def type(self) -> int:
        return SECTION_TYPE_PRIMARY

    def feature_vector(self, dim: int) -> np.ndarray:
        return np.frombuffer(self.feature_bytes, dtype=np.float16, count=dim)


@dataclass(slots=True)
class SecondarySectionView:
    """A decoded secondary (overflow neighbor list) section."""

    node_id: int
    neighbor_count: int  # entries in this section only
    neighbor_addrs: PackedAddresses
    section_len: int

    @property
    def type(self) -> int:
        return SECTION_TYPE_SECONDARY


SectionView = Union[PrimarySectionView, SecondarySectionView]


@dataclass
class DecodedPage:
    page_type: int
    sections: List[SectionView]


class DirectGraphFormatError(ValueError):
    """Raised when page bytes violate the DirectGraph layout."""


def _section_offset(spec: FormatSpec, raw: bytes, index: int) -> int:
    n_sections = raw[1]
    if not (0 <= index < n_sections):
        raise DirectGraphFormatError(
            f"section index {index} out of range (page has {n_sections})"
        )
    at = 2 + 2 * index
    offset = int.from_bytes(raw[at : at + 2], "little")
    if offset < spec.page_header_bytes or offset >= spec.page_size:
        raise DirectGraphFormatError(f"corrupt section offset {offset}")
    return offset


def decode_section(spec: FormatSpec, raw: bytes, index: int) -> SectionView:
    """Decode section ``index`` of a page (as the section iterator does).

    Any malformed content raises :class:`DirectGraphFormatError` — never a
    bare slicing/conversion error, nor the ``struct.error`` of a header cut
    off by the page end — so callers can treat all corruption uniformly
    (the on-die checker turns it into a SamplerFault).
    """
    try:
        return _decode_section_unchecked(spec, raw, index)
    except DirectGraphFormatError:
        raise
    except (ValueError, IndexError, struct.error) as err:
        raise DirectGraphFormatError(f"corrupt section {index}: {err}")


def _check_size(spec: FormatSpec, at: int, size: int) -> None:
    """Check that the section's declared length ends inside the page."""
    if at + size > spec.page_size:
        raise DirectGraphFormatError(
            f"section at offset {at} declares {size} B, past the "
            f"{spec.page_size} B page end"
        )


def _address_run(spec: FormatSpec, raw: bytes, at: int, count: int) -> PackedAddresses:
    """``count`` packed entries starting at byte ``at``, left packed."""
    end = at + ADDRESS_BYTES * count
    if end > spec.page_size:
        raise DirectGraphFormatError(
            f"{count} address entries at offset {at} run past the "
            f"{spec.page_size} B page end"
        )
    return PackedAddresses(spec.codec, bytes(raw[at:end]))


def _decode_section_unchecked(
    spec: FormatSpec, raw: bytes, index: int
) -> SectionView:
    if len(raw) != spec.page_size:
        raise DirectGraphFormatError(
            f"page must be {spec.page_size} B, got {len(raw)}"
        )
    at = _section_offset(spec, raw, index)
    stype = raw[at]
    if stype == SECTION_TYPE_PRIMARY:
        (
            _stype,
            growth_free,
            size,
            node_id,
            neighbor_count,
            n_secondary,
            n_inline,
        ) = _PRIMARY_HEADER.unpack_from(raw, at)
        _check_size(spec, at, size)
        cursor = at + PRIMARY_HEADER_BYTES
        sec_addrs = _address_run(spec, raw, cursor, n_secondary)
        # skip the secondary addresses and the reserved (null) slots
        cursor += ADDRESS_BYTES * (n_secondary + growth_free)
        feature = bytes(raw[cursor : cursor + spec.feature_bytes])
        cursor += spec.feature_bytes
        inline = _address_run(spec, raw, cursor, n_inline)
        cursor += ADDRESS_BYTES * n_inline
        if cursor - at != size:
            raise DirectGraphFormatError(
                f"primary section length mismatch: header says {size}, "
                f"decoded {cursor - at}"
            )
        return PrimarySectionView(
            node_id=node_id,
            neighbor_count=neighbor_count,
            n_inline=n_inline,
            secondary_addrs=sec_addrs,
            feature_bytes=feature,
            inline_neighbor_addrs=inline,
            section_len=size,
            growth_slots_free=growth_free,
        )
    if stype == SECTION_TYPE_SECONDARY:
        _stype, _flags, size, node_id, count, _reserved = (
            _SECONDARY_HEADER.unpack_from(raw, at)
        )
        _check_size(spec, at, size)
        cursor = at + SECONDARY_HEADER_BYTES
        addrs = _address_run(spec, raw, cursor, count)
        cursor += ADDRESS_BYTES * count
        if cursor - at != size:
            raise DirectGraphFormatError(
                f"secondary section length mismatch: header says {size}, "
                f"decoded {cursor - at}"
            )
        return SecondarySectionView(
            node_id=node_id,
            neighbor_count=count,
            neighbor_addrs=addrs,
            section_len=size,
        )
    raise DirectGraphFormatError(f"unknown section type {stype}")


def decode_page(spec: FormatSpec, raw: bytes) -> DecodedPage:
    if len(raw) != spec.page_size:
        raise DirectGraphFormatError(
            f"page must be {spec.page_size} B, got {len(raw)}"
        )
    n_sections = raw[1]
    if n_sections > spec.max_sections_per_page:
        raise DirectGraphFormatError(
            f"page claims {n_sections} sections, max is "
            f"{spec.max_sections_per_page}"
        )
    sections = [decode_section(spec, raw, i) for i in range(n_sections)]
    return DecodedPage(page_type=raw[0], sections=sections)


class DirectGraphReader:
    """Host-side navigation over a serialized image (verification path)."""

    def __init__(self, image: DirectGraphImage) -> None:
        if not image.serialized:
            raise ValueError("reader requires a serialized image")
        self.image = image
        self.spec = image.spec

    def section_at(self, addr: SectionAddress) -> SectionView:
        raw = self.image.page_bytes(addr.page)
        return decode_section(self.spec, raw, addr.section)

    def primary_section(self, node: int) -> PrimarySectionView:
        view = self.section_at(self.image.address_of(node))
        if not isinstance(view, PrimarySectionView):
            raise DirectGraphFormatError(f"node {node} address is not primary")
        return view

    def neighbors(self, node: int) -> List[int]:
        """Full neighbor list of a node as node ids, in storage order.

        Walks the primary section, then every secondary section — exactly
        the read pattern Section IV-A describes.
        """
        primary = self.primary_section(node)
        addrs = list(primary.inline_neighbor_addrs)
        for sec_addr in primary.secondary_addrs:
            sec = self.section_at(sec_addr)
            if not isinstance(sec, SecondarySectionView):
                raise DirectGraphFormatError(
                    f"secondary address of node {node} points to a "
                    f"non-secondary section"
                )
            addrs.extend(sec.neighbor_addrs)
        if len(addrs) != primary.neighbor_count:
            raise DirectGraphFormatError(
                f"node {node}: header count {primary.neighbor_count} != "
                f"{len(addrs)} stored entries"
            )
        return [self.image.node_at(a) for a in addrs]

    def feature(self, node: int) -> np.ndarray:
        return self.primary_section(node).feature_vector(self.spec.feature_dim)
