"""Security/containment verification for DirectGraph (Section VI-E).

The firmware enforces three checks so that customized BeaconGNN commands
cannot be abused to touch regular storage data:

1. At flush time: every write destination and every section address
   embedded in page contents must fall inside the blocks allocated to this
   DirectGraph.
2. At mini-batch start: the primary-section addresses of target nodes the
   host supplies are verified the same way.
3. At runtime: on-die samplers validate section headers (handled in
   ``repro.isc.sampler``, which raises on type/offset violations).

This module implements checks 1 and 2 over a serialized image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Set

from .address import SectionAddress
from .builder import DirectGraphImage
from .reader import (
    DirectGraphFormatError,
    PrimarySectionView,
    SecondarySectionView,
    decode_page,
)
from .spec import SECTION_TYPE_PRIMARY, SECTION_TYPE_SECONDARY

__all__ = ["Violation", "VerificationReport", "verify_image", "verify_targets"]


@dataclass(frozen=True)
class Violation:
    page: int
    kind: str
    detail: str


@dataclass
class VerificationReport:
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, page: int, kind: str, detail: str) -> None:
        self.violations.append(Violation(page, kind, detail))


def _allowed_pages(image: DirectGraphImage) -> Set[int]:
    return set(image.page_index.tolist())


def verify_image(image: DirectGraphImage) -> VerificationReport:
    """Flush-time check: all embedded addresses stay inside the image.

    Decodes every page and checks that every neighbor / secondary address
    points at (a) a page belonging to this DirectGraph and (b) an existing
    section of the right type on that page.
    """
    if not image.serialized:
        raise ValueError("verification requires a serialized image")
    allowed = _allowed_pages(image)
    report = VerificationReport()
    spec = image.spec

    def check_ref(
        page_index: int, addr: SectionAddress, expect_type: int, what: str
    ) -> None:
        if addr.page not in allowed:
            report.add(
                page_index,
                "escape",
                f"{what} points outside DirectGraph blocks: {addr}",
            )
            return
        target_raw = image.page_bytes(addr.page)
        n_sections = target_raw[1]
        if addr.section >= n_sections:
            report.add(
                page_index,
                "dangling",
                f"{what} references missing section {addr}",
            )
            return
        if target_raw[0] != (
            1 if expect_type == SECTION_TYPE_PRIMARY else 2
        ):
            report.add(
                page_index,
                "type",
                f"{what} expects type {expect_type} page at {addr}",
            )

    for page_index in image.page_index.tolist():
        raw = image.page_bytes(page_index)
        try:
            decoded = decode_page(spec, raw)
        except DirectGraphFormatError as err:
            report.add(page_index, "format", str(err))
            continue
        for section in decoded.sections:
            if isinstance(section, PrimarySectionView):
                for addr in section.secondary_addrs:
                    check_ref(
                        page_index, addr, SECTION_TYPE_SECONDARY,
                        f"secondary addr of node {section.node_id}",
                    )
                for addr in section.inline_neighbor_addrs:
                    check_ref(
                        page_index, addr, SECTION_TYPE_PRIMARY,
                        f"neighbor of node {section.node_id}",
                    )
            elif isinstance(section, SecondarySectionView):
                for addr in section.neighbor_addrs:
                    check_ref(
                        page_index, addr, SECTION_TYPE_PRIMARY,
                        f"overflow neighbor of node {section.node_id}",
                    )
    return report


def verify_targets(
    image: DirectGraphImage, target_addrs: Iterable[SectionAddress]
) -> VerificationReport:
    """Mini-batch-time check of host-supplied target addresses."""
    allowed = _allowed_pages(image)
    report = VerificationReport()
    for addr in target_addrs:
        if addr.page not in allowed:
            report.add(addr.page, "escape", f"target address {addr} outside blocks")
            continue
        raw = image.page_bytes(addr.page)
        if raw[0] != 1:
            report.add(addr.page, "type", f"target address {addr} not a primary page")
            continue
        if addr.section >= raw[1]:
            report.add(addr.page, "dangling", f"target section missing at {addr}")
    return report
