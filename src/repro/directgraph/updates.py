"""In-place DirectGraph edge additions (extension beyond the paper).

The paper treats GNN data as static — which is what makes physical
addressing safe. This module implements the natural follow-on: appending
neighbors to a deployed DirectGraph *without* moving any section, so
every embedded physical address stays valid.

Mechanism
---------
* The builder reserves ``FormatSpec.growth_slots`` null secondary-address
  slots in every primary section (counted in the section's flags byte).
* New neighbors first fill the node's **last** secondary section up to
  the uniform capacity (preserving the die sampler's
  ``ordinal = overflow_index // capacity`` mapping, which requires every
  secondary section except the last to be full). The section grows inside
  its page, shifting only the *later* sections of that same page — their
  in-page indices, and hence their addresses, do not change.
* Once the last section is full, a **new** secondary section is allocated
  in an update page and linked by consuming one growth slot of the
  primary section (flags byte decremented, n_secondary incremented; the
  primary section's size is unchanged because the slot was pre-reserved).
* Flash cannot overwrite in place; physically each touched page is a
  block read-modify-erase-program at the *same* PPA (the firmware's
  scrubbing machinery) — functionally, the page bytes are replaced.

When an addition cannot be performed in place (no room to extend the
last section within its page, or no growth slots left), the updater
raises :class:`UpdateCapacityError` and the caller falls back to a
rebuild (Algorithm 1), exactly as the paper's static design would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from .address import ADDRESS_BYTES, SectionAddress
from .builder import DirectGraphImage
from .reader import PrimarySectionView, SecondarySectionView, decode_section
from .spec import (
    PAGE_TYPE_SECONDARY,
    PRIMARY_HEADER_BYTES,
    SECONDARY_HEADER_BYTES,
    SECTION_TYPE_SECONDARY,
)

__all__ = ["UpdateCapacityError", "UpdateStats", "DirectGraphUpdater"]


class UpdateCapacityError(RuntimeError):
    """The addition cannot be applied in place; rebuild the DirectGraph."""


@dataclass
class UpdateStats:
    edges_added: int = 0
    sections_extended: int = 0
    sections_created: int = 0
    growth_slots_consumed: int = 0
    pages_rewritten: int = 0


class DirectGraphUpdater:
    """Applies edge additions to a serialized image, in place."""

    def __init__(
        self,
        image: DirectGraphImage,
        spare_ppas: Optional[Iterable[int]] = None,
    ) -> None:
        """``spare_ppas``: physical pages available for new secondary
        sections (from additional reserved blocks), none of them a page
        of the image. Without spares, only last-section extension is
        possible."""
        if not image.serialized:
            raise ValueError("updates require a serialized image")
        self.image = image
        self.spec = image.spec
        self.stats = UpdateStats()
        self._spare_ppas: List[int] = list(spare_ppas or [])
        in_use = sorted(set(self._spare_ppas) & set(image.pages))
        if in_use:
            raise ValueError(f"spare pages already hold the image: {in_use[:5]}")
        self._open_update_page: Optional[int] = None
        self._rewritten: set = set()
        self.added: Dict[int, List[int]] = {}

    # -- public API ---------------------------------------------------------------

    def add_neighbors(self, node: int, new_neighbors: List[int]) -> None:
        """Append ``new_neighbors`` to ``node``'s list, in place."""
        if not new_neighbors:
            return
        for neighbor in new_neighbors:
            if not (0 <= neighbor < self.image.num_nodes):
                raise ValueError(f"neighbor {neighbor} is not a known node")
        remaining = [
            self.spec.codec.pack(self.image.address_of(n)) for n in new_neighbors
        ]
        while remaining:
            remaining = self._add_some(node, remaining)
        self.added.setdefault(node, []).extend(int(n) for n in new_neighbors)
        self.stats.edges_added += len(new_neighbors)

    # -- internals ------------------------------------------------------------------

    def _primary_view(self, node: int) -> PrimarySectionView:
        addr = self.image.address_of(node)
        view = decode_section(
            self.spec, self.image.page_bytes(addr.page), addr.section
        )
        assert isinstance(view, PrimarySectionView)
        return view

    def _add_some(self, node: int, packed: List[int]) -> List[int]:
        """Place as many entries as one step allows; returns the rest."""
        view = self._primary_view(node)
        cap = self.spec.max_secondary_neighbors
        if view.secondary_addrs:
            last_addr = view.secondary_addrs[-1]
            last = decode_section(
                self.spec, self.image.page_bytes(last_addr.page), last_addr.section
            )
            assert isinstance(last, SecondarySectionView)
            room = cap - last.neighbor_count
            if room > 0:
                take = min(room, len(packed))
                self._extend_secondary(last_addr, packed[:take])
                self._bump_degree(node, take)
                self.image.sec_counts[self.image.sec_indptr[node + 1] - 1] += take
                return packed[take:]
        # the last section (or none) is full: open a new one
        self._create_secondary(node, packed[: min(cap, len(packed))])
        self._bump_degree(node, min(cap, len(packed)))
        return packed[min(cap, len(packed)) :]

    def _extend_secondary(
        self, addr: SectionAddress, packed: List[int]
    ) -> None:
        """Grow a secondary section inside its page (later sections shift)."""
        spec = self.spec
        raw = bytearray(self.image.page_bytes(addr.page))
        n_sections = raw[1]
        offsets = [
            int.from_bytes(raw[2 + 2 * i : 4 + 2 * i], "little")
            for i in range(n_sections)
        ]
        sizes = []
        for i in range(n_sections):
            size = int.from_bytes(raw[offsets[i] + 2 : offsets[i] + 4], "little")
            sizes.append(size)
        used = (offsets[-1] + sizes[-1]) if n_sections else spec.page_header_bytes
        extra = ADDRESS_BYTES * len(packed)
        if used + extra > spec.page_size:
            raise UpdateCapacityError(
                f"no room to extend section {addr} within its page"
            )
        at = offsets[addr.section]
        old_size = sizes[addr.section]
        old_count = int.from_bytes(raw[at + 8 : at + 10], "little")
        insert_at = at + old_size
        tail = bytes(raw[insert_at:used])
        new_entries = b"".join(v.to_bytes(4, "little") for v in packed)
        raw[insert_at : insert_at + extra] = new_entries
        raw[insert_at + extra : insert_at + extra + len(tail)] = tail
        # fix the grown section's header
        raw[at + 2 : at + 4] = (old_size + extra).to_bytes(2, "little")
        raw[at + 8 : at + 10] = (old_count + len(packed)).to_bytes(2, "little")
        # shift the offsets of all later sections
        for i in range(addr.section + 1, n_sections):
            raw[2 + 2 * i : 4 + 2 * i] = (offsets[i] + extra).to_bytes(2, "little")
        self.image.pages[addr.page] = bytes(raw)
        image = self.image
        image.entry_size[
            image.entry_indptr[image.row_of(addr.page)] + addr.section
        ] += extra
        self._note_rewrite(addr.page)
        self.stats.sections_extended += 1

    def _create_secondary(self, node: int, packed: List[int]) -> None:
        """Allocate a new secondary section and link it via a growth slot."""
        spec = self.spec
        view = self._primary_view(node)
        if view.growth_slots_free == 0:
            raise UpdateCapacityError(
                f"node {node} has no free growth slots (rebuild required)"
            )
        section_bytes = SECONDARY_HEADER_BYTES + ADDRESS_BYTES * len(packed)
        page_index, section_index = self._place_in_update_page(node, section_bytes, packed)
        # consume one growth slot in the primary section
        addr = self.image.address_of(node)
        raw = bytearray(self.image.page_bytes(addr.page))
        offset = int.from_bytes(
            raw[2 + 2 * addr.section : 4 + 2 * addr.section], "little"
        )
        n_secondary = int.from_bytes(raw[offset + 12 : offset + 14], "little")
        slot_at = offset + PRIMARY_HEADER_BYTES + ADDRESS_BYTES * n_secondary
        new_addr = SectionAddress(page_index, section_index)
        raw[slot_at : slot_at + 4] = spec.codec.pack_bytes(new_addr)
        raw[offset + 1] -= 1  # flags: one fewer free slot
        raw[offset + 12 : offset + 14] = (n_secondary + 1).to_bytes(2, "little")
        self.image.pages[addr.page] = bytes(raw)
        self._note_rewrite(addr.page)
        # the node's secondary run gains the new section as its last one
        image = self.image
        at = image.sec_indptr[node + 1]
        image.sec_counts = np.insert(image.sec_counts, at, len(packed))
        image.sec_pages = np.insert(image.sec_pages, at, page_index)
        image.sec_sections = np.insert(image.sec_sections, at, section_index)
        image.sec_indptr[node + 1 :] += 1
        self.stats.sections_created += 1
        self.stats.growth_slots_consumed += 1

    def _place_in_update_page(
        self, node: int, section_bytes: int, packed: List[int]
    ) -> tuple:
        spec = self.spec
        page_index = self._open_update_page
        if page_index is not None:
            raw = self.image.pages[page_index]
            n_sections = raw[1]
            used = self._page_used(raw)
            fits = (
                used + section_bytes <= spec.page_size
                and n_sections < spec.max_sections_per_page
            )
            if not fits:
                page_index = None
        if page_index is None:
            if not self._spare_ppas:
                raise UpdateCapacityError("no spare pages for new sections")
            page_index = self._spare_ppas.pop(0)
            blank = bytearray(spec.page_size)
            blank[0] = PAGE_TYPE_SECONDARY
            blank[1] = 0
            self.image.pages[page_index] = bytes(blank)
            self._add_page_row(page_index)
            self._open_update_page = page_index
        raw = bytearray(self.image.pages[page_index])
        n_sections = raw[1]
        at = self._page_used(bytes(raw))
        raw[at] = SECTION_TYPE_SECONDARY
        raw[at + 1] = 0
        raw[at + 2 : at + 4] = section_bytes.to_bytes(2, "little")
        raw[at + 4 : at + 8] = node.to_bytes(4, "little")
        raw[at + 8 : at + 10] = len(packed).to_bytes(2, "little")
        raw[at + 10 : at + 12] = (0).to_bytes(2, "little")
        cursor = at + SECONDARY_HEADER_BYTES
        for value in packed:
            raw[cursor : cursor + 4] = value.to_bytes(4, "little")
            cursor += 4
        raw[2 + 2 * n_sections : 4 + 2 * n_sections] = at.to_bytes(2, "little")
        raw[1] = n_sections + 1
        self.image.pages[page_index] = bytes(raw)
        self._add_entry(page_index, node, section_bytes)
        self._note_rewrite(page_index)
        return page_index, n_sections

    def _add_page_row(self, page_index: int) -> None:
        """Give a fresh update page an empty row in the image's page table."""
        image = self.image
        image.page_index = np.append(image.page_index, page_index)
        image.page_type = np.append(image.page_type, np.uint8(PAGE_TYPE_SECONDARY))
        image.entry_indptr = np.append(image.entry_indptr, image.entry_indptr[-1])

    def _add_entry(self, page_index: int, node: int, section_bytes: int) -> None:
        """Record a new secondary section of ``node`` as its page's last one."""
        image = self.image
        ordinal = image.sec_indptr[node + 1] - image.sec_indptr[node]
        row = image.row_of(page_index)
        at = image.entry_indptr[row + 1]
        for name, value in (
            ("entry_node", node),
            ("entry_kind", SECTION_TYPE_SECONDARY),
            ("entry_ordinal", ordinal),
            ("entry_size", section_bytes),
        ):
            setattr(image, name, np.insert(getattr(image, name), at, value))
        image.entry_indptr[row + 1 :] += 1

    def _page_used(self, raw: bytes) -> int:
        n_sections = raw[1]
        if n_sections == 0:
            return self.spec.page_header_bytes
        last_offset = int.from_bytes(
            raw[2 + 2 * (n_sections - 1) : 4 + 2 * (n_sections - 1)], "little"
        )
        last_size = int.from_bytes(raw[last_offset + 2 : last_offset + 4], "little")
        return last_offset + last_size

    def _bump_degree(self, node: int, count: int) -> None:
        addr = self.image.address_of(node)
        raw = bytearray(self.image.page_bytes(addr.page))
        offset = int.from_bytes(
            raw[2 + 2 * addr.section : 4 + 2 * addr.section], "little"
        )
        degree = int.from_bytes(raw[offset + 8 : offset + 12], "little")
        raw[offset + 8 : offset + 12] = (degree + count).to_bytes(4, "little")
        self.image.pages[addr.page] = bytes(raw)
        self._note_rewrite(addr.page)
        self.image.degree[node] += count

    def _note_rewrite(self, page_index: int) -> None:
        if page_index not in self._rewritten:
            self._rewritten.add(page_index)
            self.stats.pages_rewritten += 1
