"""Reference DirectGraph builder — the original per-node implementation.

This is the pre-vectorization Algorithm 1, kept verbatim as the
executable specification of the on-flash layout. The production builder
(:func:`repro.directgraph.builder.build_directgraph`) is a vectorized
rewrite whose output is required to be **byte-identical** to this one:
``tests/test_directgraph_vectorized.py`` property-checks page bytes,
``NodePlan``/``PagePlan`` geometry, and ``BuildStats`` against this
module on randomized graphs (the production image holds arrays;
:func:`image_from_plans` turns this module's plan objects into the same
arrays), and ``repro perf --suite prepare`` with
``--prepare-impl reference`` times it to produce the "before" column of
``BENCH_prepare.json``.

Do not optimize this module; its only job is to stay simple and correct.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..gnn.features import FeatureTable
from ..gnn.graph import Graph
from .address import ADDRESS_BYTES, SectionAddress
from .builder import (
    MIN_INLINE_SPLIT,
    BuildStats,
    DirectGraphImage,
    NodePlan,
    PagePlan,
)
from .spec import (
    FormatSpec,
    PAGE_TYPE_PRIMARY,
    PAGE_TYPE_SECONDARY,
    PRIMARY_HEADER_BYTES,
    SECONDARY_HEADER_BYTES,
    SECTION_TYPE_PRIMARY,
    SECTION_TYPE_SECONDARY,
)

__all__ = ["build_directgraph_reference", "image_from_plans"]


def _plan_node_sections(
    spec: FormatSpec, node_id: int, degree: int, budget: int
) -> Optional[NodePlan]:
    """Plan one node's sections given ``budget`` bytes left on the page."""
    sec_cap = spec.max_secondary_neighbors
    full = spec.primary_section_bytes(n_secondary=0, n_inline=degree)
    if full <= budget:
        return NodePlan(node_id, degree, n_inline=degree, secondary_counts=[])

    # Fixpoint on n_secondary: the section header stores one address per
    # secondary section, shrinking the inline-neighbor budget.
    n_secondary = 1
    n_inline = 0
    for _ in range(64):
        header = (
            PRIMARY_HEADER_BYTES
            + ADDRESS_BYTES * (n_secondary + spec.growth_slots)
            + spec.feature_bytes
        )
        if header > budget:
            return None
        n_inline = min(degree, (budget - header) // ADDRESS_BYTES)
        remaining = degree - n_inline
        if remaining <= 0:  # pragma: no cover - caught by the `full` check
            return NodePlan(node_id, degree, n_inline=degree, secondary_counts=[])
        needed = -(-remaining // sec_cap)
        if needed == n_secondary:
            break
        n_secondary = needed
    else:  # pragma: no cover - defensive
        raise ValueError(f"section planning did not converge for degree {degree}")
    if n_inline < MIN_INLINE_SPLIT and budget < spec.page_payload_bytes:
        return None  # not worth cutting; start on a fresh page instead
    remaining = degree - n_inline
    counts = [sec_cap] * (remaining // sec_cap)
    if remaining % sec_cap:
        counts.append(remaining % sec_cap)
    return NodePlan(node_id, degree, n_inline=n_inline, secondary_counts=counts)


class _PagePacker:
    """First-fit packing over a bounded window of open pages."""

    def __init__(self, spec: FormatSpec, open_page_limit: int = 32) -> None:
        self.spec = spec
        self.open_page_limit = open_page_limit
        self.pages: List[PagePlan] = []
        self._open: Dict[int, List[PagePlan]] = {
            PAGE_TYPE_PRIMARY: [],
            PAGE_TYPE_SECONDARY: [],
        }

    def place(self, page_type: int, size: int) -> PagePlan:
        if size > self.spec.page_payload_bytes:
            raise ValueError(
                f"section of {size} B exceeds page payload "
                f"{self.spec.page_payload_bytes} B"
            )
        open_pages = self._open[page_type]
        for page in open_pages:
            fits = (
                self.spec.page_payload_bytes - page.used_bytes >= size
                and page.n_sections < self.spec.max_sections_per_page
            )
            if fits:
                page.sizes.append(size)
                return page
        page = self.new_page(page_type)
        page.sizes.append(size)
        return page

    def new_page(self, page_type: int) -> PagePlan:
        page = PagePlan(page_index=len(self.pages), page_type=page_type)
        self.pages.append(page)
        open_pages = self._open[page_type]
        open_pages.append(page)
        if len(open_pages) > self.open_page_limit:
            open_pages.pop(0)
        return page


def build_directgraph_reference(
    graph: Graph,
    features: Optional[FeatureTable] = None,
    spec: Optional[FormatSpec] = None,
    serialize: bool = True,
    open_page_limit: int = 32,
    order: Optional[np.ndarray] = None,
) -> DirectGraphImage:
    """Run the original per-node Algorithm 1 over ``graph``.

    ``order`` (a permutation of all node ids) selects the sequence in
    which nodes are laid onto primary pages; ``None`` keeps node-id
    order. The returned ``node_plans`` list is always node-id indexed.
    """
    if spec is None:
        dim = features.dim if features is not None else 128
        spec = FormatSpec(feature_dim=dim)
    if serialize:
        if features is None:
            raise ValueError("serialization requires a feature table")
        if features.dim != spec.feature_dim:
            raise ValueError(
                f"feature table dim {features.dim} != spec dim {spec.feature_dim}"
            )
        if features.num_nodes < graph.num_nodes:
            raise ValueError("feature table smaller than graph")

    if order is None:
        visit = range(graph.num_nodes)
    else:
        ids = np.asarray(order, dtype=np.int64)
        if ids.shape != (graph.num_nodes,) or not np.array_equal(
            np.sort(ids), np.arange(graph.num_nodes)
        ):
            raise ValueError("order must be a permutation of all node ids")
        visit = [int(v) for v in ids]

    packer = _PagePacker(spec, open_page_limit)
    node_plans: List[NodePlan] = []
    current_primary: Optional[PagePlan] = None

    for node_id in visit:
        degree = graph.degree(node_id)
        plan = None
        if (
            current_primary is not None
            and current_primary.n_sections < spec.max_sections_per_page
        ):
            budget = spec.page_payload_bytes - current_primary.used_bytes
            plan = _plan_node_sections(spec, node_id, degree, budget)
        if plan is None:
            current_primary = packer.new_page(PAGE_TYPE_PRIMARY)
            plan = _plan_node_sections(
                spec, node_id, degree, spec.page_payload_bytes
            )
            if plan is None:  # pragma: no cover - guarded by FormatSpec
                raise ValueError(
                    f"node {node_id} cannot start a primary section even on "
                    "an empty page"
                )
        psize = spec.primary_section_bytes(plan.n_secondary, plan.n_inline)
        section_index = current_primary.n_sections
        current_primary.sizes.append(psize)
        current_primary.entries.append((node_id, SECTION_TYPE_PRIMARY, 0))
        plan.primary_addr = SectionAddress(
            current_primary.page_index, section_index
        )
        for ordinal, count in enumerate(plan.secondary_counts):
            ssize = spec.secondary_section_bytes(count)
            spage = packer.place(PAGE_TYPE_SECONDARY, ssize)
            s_index = spage.n_sections
            spage.entries.append((node_id, SECTION_TYPE_SECONDARY, ordinal))
            plan.secondary_addrs.append(SectionAddress(spage.page_index, s_index))
        node_plans.append(plan)

    if order is not None:
        node_plans.sort(key=lambda plan: plan.node_id)

    n_primary = sum(1 for p in packer.pages if p.page_type == PAGE_TYPE_PRIMARY)
    n_secondary = len(packer.pages) - n_primary
    stats = BuildStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_primary_pages=n_primary,
        num_secondary_pages=n_secondary,
        page_size=spec.page_size,
        used_bytes=sum(p.used_bytes for p in packer.pages)
        + spec.page_header_bytes * len(packer.pages),
    )
    pages = None
    if serialize:
        pages = _serialize_pages_reference(
            spec, node_plans, packer.pages, graph, features
        )
    return image_from_plans(spec, stats, node_plans, packer.pages, pages)


def image_from_plans(
    spec: FormatSpec,
    stats: BuildStats,
    node_plans: Sequence[NodePlan],
    page_plans: Sequence[PagePlan],
    pages: Optional[Dict[int, bytes]] = None,
) -> DirectGraphImage:
    """The image whose arrays hold these node-id indexed plan objects."""
    sec_indptr = np.zeros(len(node_plans) + 1, dtype=np.int64)
    sec_indptr[1:] = np.cumsum([plan.n_secondary for plan in node_plans])
    entry_indptr = np.zeros(len(page_plans) + 1, dtype=np.int64)
    entry_indptr[1:] = np.cumsum([page.n_sections for page in page_plans])
    secondaries = [
        (count, addr)
        for plan in node_plans
        for count, addr in zip(plan.secondary_counts, plan.secondary_addrs)
    ]
    entries = [entry for page in page_plans for entry in page.entries]

    def column(values, dtype=np.int64) -> np.ndarray:
        return np.array(list(values), dtype=dtype)

    return DirectGraphImage(
        spec,
        stats,
        degree=column(plan.degree for plan in node_plans),
        n_inline=column(plan.n_inline for plan in node_plans),
        prim_page=column(plan.primary_addr.page for plan in node_plans),
        prim_sec=column(plan.primary_addr.section for plan in node_plans),
        sec_indptr=sec_indptr,
        sec_counts=column(count for count, _ in secondaries),
        sec_pages=column(addr.page for _, addr in secondaries),
        sec_sections=column(addr.section for _, addr in secondaries),
        page_index=column(page.page_index for page in page_plans),
        page_type=column((page.page_type for page in page_plans), np.uint8),
        entry_indptr=entry_indptr,
        entry_node=column(node for node, _, _ in entries),
        entry_kind=column((kind for _, kind, _ in entries), np.uint8),
        entry_ordinal=column(ordinal for _, _, ordinal in entries),
        entry_size=column(size for page in page_plans for size in page.sizes),
        pages=pages,
    )


def _serialize_pages_reference(
    spec: FormatSpec,
    node_plans: List[NodePlan],
    page_plans: List[PagePlan],
    graph: Graph,
    features: FeatureTable,
) -> Dict[int, bytes]:
    codec = spec.codec
    primary_packed = [codec.pack(plan.primary_addr) for plan in node_plans]
    pages: Dict[int, bytes] = {}
    for page in page_plans:
        buf = bytearray(spec.page_size)
        buf[0] = page.page_type
        buf[1] = page.n_sections
        offset_table = 2
        cursor = spec.page_header_bytes
        for slot, ((node_id, kind, ordinal), size) in enumerate(
            zip(page.entries, page.sizes)
        ):
            buf[offset_table + 2 * slot : offset_table + 2 * slot + 2] = cursor.to_bytes(
                2, "little"
            )
            plan = node_plans[node_id]
            if kind == SECTION_TYPE_PRIMARY:
                _write_primary_section(
                    spec, buf, cursor, size, plan, graph, features, primary_packed
                )
            else:
                _write_secondary_section(
                    spec, buf, cursor, size, plan, ordinal, graph, primary_packed
                )
            cursor += size
        # unused offset-table slots stay 0 (offset 0 is inside the header,
        # hence invalid — readers treat it as "no section")
        pages[page.page_index] = bytes(buf)
    return pages


def _neighbor_slices(plan: NodePlan) -> List[Tuple[int, int]]:
    """(start, end) neighbor-list ranges: inline first, then per secondary."""
    ranges = [(0, plan.n_inline)]
    cursor = plan.n_inline
    for count in plan.secondary_counts:
        ranges.append((cursor, cursor + count))
        cursor += count
    return ranges


def _write_primary_section(
    spec: FormatSpec,
    buf: bytearray,
    at: int,
    size: int,
    plan: NodePlan,
    graph: Graph,
    features: FeatureTable,
    primary_packed: Sequence[int],
) -> None:
    neighbors = graph.neighbors(plan.node_id)
    buf[at] = SECTION_TYPE_PRIMARY
    buf[at + 1] = spec.growth_slots  # flags: free growth slots remaining
    buf[at + 2 : at + 4] = size.to_bytes(2, "little")
    buf[at + 4 : at + 8] = plan.node_id.to_bytes(4, "little")
    buf[at + 8 : at + 12] = plan.degree.to_bytes(4, "little")
    buf[at + 12 : at + 14] = plan.n_secondary.to_bytes(2, "little")
    buf[at + 14 : at + 16] = plan.n_inline.to_bytes(2, "little")
    cursor = at + PRIMARY_HEADER_BYTES
    for sec_addr in plan.secondary_addrs:
        buf[cursor : cursor + 4] = spec.codec.pack_bytes(sec_addr)
        cursor += 4
    for _ in range(spec.growth_slots):  # reserved (null) secondary slots
        buf[cursor : cursor + 4] = b"\xff\xff\xff\xff"
        cursor += 4
    vec = np.ascontiguousarray(features.vector(plan.node_id), dtype=np.float16)
    raw = vec.tobytes()
    buf[cursor : cursor + len(raw)] = raw
    cursor += spec.feature_bytes
    for i in range(plan.n_inline):
        packed = primary_packed[int(neighbors[i])]
        buf[cursor : cursor + 4] = packed.to_bytes(4, "little")
        cursor += 4
    assert cursor - at == size, "primary section size mismatch"


def _write_secondary_section(
    spec: FormatSpec,
    buf: bytearray,
    at: int,
    size: int,
    plan: NodePlan,
    ordinal: int,
    graph: Graph,
    primary_packed: Sequence[int],
) -> None:
    neighbors = graph.neighbors(plan.node_id)
    start, end = _neighbor_slices(plan)[1 + ordinal]
    count = end - start
    buf[at] = SECTION_TYPE_SECONDARY
    buf[at + 1] = 0
    buf[at + 2 : at + 4] = size.to_bytes(2, "little")
    buf[at + 4 : at + 8] = plan.node_id.to_bytes(4, "little")
    buf[at + 8 : at + 10] = count.to_bytes(2, "little")
    buf[at + 10 : at + 12] = (0).to_bytes(2, "little")
    cursor = at + SECONDARY_HEADER_BYTES
    for i in range(start, end):
        packed = primary_packed[int(neighbors[i])]
        buf[cursor : cursor + 4] = packed.to_bytes(4, "little")
        cursor += 4
    assert cursor - at == size, "secondary section size mismatch"
