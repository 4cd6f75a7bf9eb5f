"""Reliability and error resilience (Section VI-F).

Two mechanisms protect pinned DirectGraph blocks:

* **Data scrubbing** — during idle time the firmware reads DirectGraph
  blocks, checks every page with the controller ECC, and on any error
  erases and re-programs the whole block with corrected content (pages in
  a block share retention characteristics). We model ECC with a per-page
  checksum plus the corrected golden copy the ECC machinery would
  reconstruct.
* **Wear reclamation** — pinned blocks never see FTL wear leveling, so
  when the P/E gap between regular and DirectGraph blocks crosses a
  threshold, the firmware migrates the DirectGraph to clean blocks and
  *rewrites the embedded physical addresses* to the new locations, then
  returns the old blocks to the FTL.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..directgraph.builder import DirectGraphImage
from ..directgraph.reader import decode_page
from ..directgraph.spec import (
    PRIMARY_HEADER_BYTES,
    SECONDARY_HEADER_BYTES,
    SECTION_TYPE_PRIMARY,
    SECTION_TYPE_SECONDARY,
)
from .ftl import Ftl, FtlError

__all__ = ["Scrubber", "ScrubReport", "relocate_image", "WearReclaimer"]


@dataclass
class ScrubReport:
    pages_checked: int = 0
    errors_found: int = 0
    blocks_reprogrammed: List[int] = field(default_factory=list)


class Scrubber:
    """Periodic DirectGraph scrubbing with checksum-modelled ECC."""

    def __init__(self, image: DirectGraphImage, pages_per_block: int) -> None:
        if not image.serialized:
            raise ValueError("scrubbing requires a serialized image")
        self.image = image
        self.pages_per_block = pages_per_block
        # ECC state: per-page checksum + the corrected content ECC recovers.
        self._checksums: Dict[int, int] = {}
        self._golden: Dict[int, bytes] = {}
        for page_index, raw in image.pages.items():
            self._checksums[page_index] = zlib.crc32(raw)
            self._golden[page_index] = raw

    def inject_bit_error(self, page_index: int, byte_offset: int = 0) -> None:
        """Flip one bit (retention error) in the live copy of a page."""
        raw = bytearray(self.image.pages[page_index])
        raw[byte_offset % len(raw)] ^= 0x01
        self.image.pages[page_index] = bytes(raw)

    def page_is_clean(self, page_index: int) -> bool:
        return zlib.crc32(self.image.pages[page_index]) == self._checksums[page_index]

    def scrub(self) -> ScrubReport:
        """One scrubbing pass: check all pages, re-program dirty blocks."""
        report = ScrubReport()
        dirty_blocks = set()
        for page_index in sorted(self.image.pages):
            report.pages_checked += 1
            if not self.page_is_clean(page_index):
                report.errors_found += 1
                dirty_blocks.add(page_index // self.pages_per_block)
        for block in sorted(dirty_blocks):
            # erase + re-program the entire block with corrected content
            start = block * self.pages_per_block
            for page_index in range(start, start + self.pages_per_block):
                if page_index in self.image.pages:
                    self.image.pages[page_index] = self._golden[page_index]
            report.blocks_reprogrammed.append(block)
        return report


def _patch_addresses(
    image: DirectGraphImage, raw: bytes, mapping: Dict[int, int]
) -> bytes:
    """Rewrite every embedded section address in a page via ``mapping``."""
    spec = image.spec
    codec = spec.codec
    buf = bytearray(raw)

    def remap(at: int) -> None:
        addr = codec.unpack(int.from_bytes(buf[at : at + 4], "little"))
        new = codec.pack(addr.__class__(mapping[addr.page], addr.section))
        buf[at : at + 4] = new.to_bytes(4, "little")

    decoded = decode_page(spec, raw)
    n_sections = raw[1]
    for index in range(n_sections):
        offset = int.from_bytes(raw[2 + 2 * index : 4 + 2 * index], "little")
        section = decoded.sections[index]
        if section.type == SECTION_TYPE_PRIMARY:
            cursor = offset + PRIMARY_HEADER_BYTES
            for _ in range(len(section.secondary_addrs)):
                remap(cursor)
                cursor += 4
            cursor += 4 * section.growth_slots_free  # reserved null slots
            cursor += spec.feature_bytes
            for _ in range(section.n_inline):
                remap(cursor)
                cursor += 4
        elif section.type == SECTION_TYPE_SECONDARY:
            cursor = offset + SECONDARY_HEADER_BYTES
            for _ in range(section.neighbor_count):
                remap(cursor)
                cursor += 4
    return bytes(buf)


def relocate_image(
    image: DirectGraphImage, mapping: Dict[int, int]
) -> DirectGraphImage:
    """Migrate a DirectGraph to new pages, rewriting embedded addresses.

    ``mapping`` maps every old page index to its new physical page. Returns
    a new image whose pages/plans/addresses all live at the new locations.
    """
    if not image.serialized:
        raise ValueError("relocation requires a serialized image")
    missing = set(image.page_index.tolist()) - set(mapping)
    if missing:
        raise ValueError(f"mapping misses pages: {sorted(missing)[:5]} ...")

    def remap(pages: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (mapping[page] for page in pages.tolist()), np.int64, len(pages)
        )

    arrays = {name: values.copy() for name, values in image.arrays().items()}
    for name in ("page_index", "prim_page", "sec_pages"):
        arrays[name] = remap(arrays[name])
    new_pages = {
        mapping[page_index]: _patch_addresses(image, raw, mapping)
        for page_index, raw in image.pages.items()
    }
    return DirectGraphImage(image.spec, image.stats, pages=new_pages, **arrays)


class WearReclaimer:
    """Section VI-F wear reclamation over an FTL + image pair."""

    def __init__(self, ftl: Ftl, threshold: int = 100) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.ftl = ftl
        self.threshold = threshold
        self.reclamations = 0

    def should_reclaim(self) -> bool:
        return self.ftl.wear_gap() >= self.threshold

    def reclaim(
        self, image: DirectGraphImage, old_blocks: List[int]
    ) -> Tuple[DirectGraphImage, List[int]]:
        """Move the DirectGraph to fresh blocks; old blocks rejoin the FTL."""
        n_blocks = len(old_blocks)
        self.ftl.ensure_free_blocks(n_blocks)  # GC regular blocks if needed
        try:
            new_blocks = self.ftl.reserve_blocks(n_blocks)
        except FtlError:
            raise FtlError("not enough free blocks to reclaim DirectGraph")
        old_ppas = []
        for block in old_blocks:
            start = block * self.ftl.pages_per_block
            old_ppas.extend(range(start, start + self.ftl.pages_per_block))
        new_ppas = self.ftl.ppa_list(new_blocks)
        used = sorted(image.page_index.tolist())
        old_index = {ppa: i for i, ppa in enumerate(old_ppas)}
        mapping = {}
        for page in used:
            if page not in old_index:
                raise FtlError(f"image page {page} not in old blocks")
            mapping[page] = new_ppas[old_index[page]]
        new_image = relocate_image(image, mapping)
        self.ftl.record_reserved_program(new_blocks)
        self.ftl.release_blocks(old_blocks)
        self.reclamations += 1
        return new_image, new_blocks
