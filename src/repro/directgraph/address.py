"""Flash-physical section addresses (Section IV-A).

DirectGraph maps every neighbor entry to a 4-byte physical address:
``page_bits`` for flash page indexing plus ``section_bits`` for in-page
section indexing. For the paper's 1 TB SSD with 4 KB pages that is
28 + 4 bits (``log2(1TB / 4KB) = 28``); larger pages shift bits from page
to section indexing.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AddressCodec", "SectionAddress", "ADDRESS_BYTES"]

ADDRESS_BYTES = 4
_ADDRESS_LIMIT = 1 << (ADDRESS_BYTES * 8)


@dataclass(frozen=True)
class SectionAddress:
    """(flash page, in-page section index) — the unit DirectGraph links."""

    page: int
    section: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"@{self.page}.{self.section}"


class AddressCodec:
    """Packs/unpacks SectionAddress into the 4-byte on-flash format."""

    def __init__(self, page_bits: int = 28, section_bits: int = 4) -> None:
        if page_bits <= 0 or section_bits <= 0:
            raise ValueError("page_bits and section_bits must be positive")
        if page_bits + section_bits != ADDRESS_BYTES * 8:
            raise ValueError(
                f"page_bits + section_bits must equal {ADDRESS_BYTES * 8}"
            )
        self.page_bits = page_bits
        self.section_bits = section_bits
        self._section_mask = (1 << section_bits) - 1

    @classmethod
    def for_geometry(cls, capacity_bytes: int, page_size: int) -> "AddressCodec":
        """Derive the split from SSD capacity and page size (paper's rule).

        ``page_bits = ceil(log2(capacity / page_size))``; the remaining bits
        of the 4-byte address index sections within a page.
        """
        if capacity_bytes <= 0 or page_size <= 0:
            raise ValueError("capacity and page size must be positive")
        pages = capacity_bytes // page_size
        if pages < 2:
            raise ValueError("geometry yields fewer than two pages")
        page_bits = max(1, (pages - 1).bit_length())
        section_bits = ADDRESS_BYTES * 8 - page_bits
        if section_bits < 1:
            raise ValueError("geometry leaves no section bits")
        return cls(page_bits, section_bits)

    @property
    def max_pages(self) -> int:
        return 1 << self.page_bits

    @property
    def max_sections_per_page(self) -> int:
        return 1 << self.section_bits

    def pack(self, addr: SectionAddress) -> int:
        if not (0 <= addr.page < self.max_pages):
            raise ValueError(f"page {addr.page} exceeds {self.page_bits}-bit range")
        if not (0 <= addr.section < self.max_sections_per_page):
            raise ValueError(
                f"section {addr.section} exceeds {self.section_bits}-bit range"
            )
        return (addr.page << self.section_bits) | addr.section

    def unpack(self, value: int) -> SectionAddress:
        if not (0 <= value < _ADDRESS_LIMIT):
            raise ValueError("address out of 32-bit range")
        return SectionAddress(value >> self.section_bits, value & self._section_mask)

    def pack_bytes(self, addr: SectionAddress) -> bytes:
        return self.pack(addr).to_bytes(ADDRESS_BYTES, "little")

    def unpack_bytes(self, raw: bytes) -> SectionAddress:
        if len(raw) != ADDRESS_BYTES:
            raise ValueError(f"need {ADDRESS_BYTES} bytes, got {len(raw)}")
        return self.unpack(int.from_bytes(raw, "little"))
