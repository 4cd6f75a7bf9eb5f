"""DirectGraph construction — the paper's Algorithm 1, vectorized.

Two steps, exactly as published:

1. **Plan** (metadata collection): per node, compute the number and sizes of
   its primary/secondary sections, then map every section onto a physical
   page (first-fit over a bounded set of open pages, respecting both byte
   capacity and the ``2^section_bits`` per-page section-count limit).
2. **Serialize**: write each page's bytes — section headers, secondary
   addresses, the feature vector, and neighbor entries that hold the
   4-byte *primary-section address* of each neighbor (never its node id,
   so no translation is needed at sampling time).

Plan-only mode (``serialize=False``) runs step 1 alone; it is how the
full-scale Table IV storage-inflation numbers are computed without
materializing hundreds of GBs.

This module is a vectorized rewrite of the original per-node builder,
which is retained verbatim in :mod:`repro.directgraph._reference` as the
executable layout specification. The two are required to be
**byte-identical** (pages) and **structurally identical** (the
``NodePlan`` / ``PagePlan`` copies and ``BuildStats``); see
``tests/test_directgraph_vectorized.py``. The image holds the plan as flat
numpy arrays, never as per-node or per-section objects. The key
invariants the rewrite relies on:

* Primary pages fill with consecutive nodes, so runs of fully-inline
  nodes can be placed in one batch: a node fits inline iff the *prefix
  sum* of full-section sizes since the page's first node stays within the
  page payload (``np.searchsorted`` finds the run length).
* A node is split at most once per page boundary, so the splitting
  fixpoint stays scalar — it runs O(#pages) times, not O(#nodes).
* Neighbor entries are the packed primary addresses of ``graph.indices``
  in adjacency order, so one global gather produces every neighbor byte
  in the image; sections slice it by (indptr offset, count).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..gnn.features import GATHER_BLOCK, FeatureTable
from ..gnn.graph import Graph
from .address import ADDRESS_BYTES, AddressCodec, SectionAddress
from .spec import (
    FormatSpec,
    PAGE_TYPE_PRIMARY,
    PAGE_TYPE_SECONDARY,
    PRIMARY_HEADER_BYTES,
    SECONDARY_HEADER_BYTES,
    SECTION_TYPE_PRIMARY,
    SECTION_TYPE_SECONDARY,
)

__all__ = [
    "IMAGE_ARRAYS",
    "NodePlan",
    "PagePlan",
    "BuildStats",
    "DirectGraphImage",
    "build_directgraph",
    "BUILD_COUNTER",
]


class _Counter:
    """Process-wide invocation counter (cache-effectiveness assertions)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def reset(self) -> None:
        self.count = 0


#: Incremented once per :func:`build_directgraph` call in this process.
#: Tests and the CI cold/warm smoke use it to assert that warm image
#: caches perform zero builds.
BUILD_COUNTER = _Counter()


@dataclass
class NodePlan:
    """Section geometry for one graph node.

    An image hands these out as copies (:attr:`DirectGraphImage.node_plans`);
    the reference builder plans with them directly.
    """

    node_id: int
    degree: int
    n_inline: int  # neighbors stored in the primary section
    secondary_counts: List[int]  # neighbors per secondary section
    primary_addr: Optional[SectionAddress] = None
    secondary_addrs: List[SectionAddress] = field(default_factory=list)

    @property
    def n_secondary(self) -> int:
        return len(self.secondary_counts)


@dataclass
class PagePlan:
    """Sections assigned to one flash page (a copy, like :class:`NodePlan`)."""

    page_index: int
    page_type: int  # PAGE_TYPE_PRIMARY or PAGE_TYPE_SECONDARY
    entries: List[Tuple[int, int, int]] = field(default_factory=list)
    # entries: (node_id, section_kind, ordinal) — ordinal is the secondary
    # section number for secondary entries, 0 for primary entries.
    sizes: List[int] = field(default_factory=list)

    @property
    def used_bytes(self) -> int:
        return sum(self.sizes)

    @property
    def n_sections(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class BuildStats:
    """Aggregate layout statistics (feeds Table IV)."""

    num_nodes: int
    num_edges: int
    num_primary_pages: int
    num_secondary_pages: int
    page_size: int
    used_bytes: int

    @property
    def total_pages(self) -> int:
        return self.num_primary_pages + self.num_secondary_pages

    @property
    def total_bytes(self) -> int:
        return self.total_pages * self.page_size

    @property
    def internal_waste_fraction(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return 1.0 - self.used_bytes / self.total_bytes

    def inflation_vs_raw(self, raw_bytes: float) -> float:
        """DirectGraph size over raw size, minus one (Table IV's ratio)."""
        if raw_bytes <= 0:
            raise ValueError("raw_bytes must be positive")
        return self.total_bytes / raw_bytes - 1.0


#: The image's arrays, in the order the image cache stores them. Each
#: node's secondaries and each page row's entries are CSR runs:
#: ``sec_*[sec_indptr[v]:sec_indptr[v + 1]]`` belong to node ``v``, and
#: ``entry_*[entry_indptr[r]:entry_indptr[r + 1]]`` are the sections of
#: page row ``r`` in section order.
IMAGE_ARRAYS = (
    "n_inline",
    "prim_page",
    "prim_sec",
    "sec_indptr",
    "sec_counts",
    "sec_pages",
    "sec_sections",
    "page_type",
    "entry_indptr",
    "entry_node",
    "entry_kind",
    "entry_ordinal",
    "entry_size",
)


class DirectGraphImage:
    """The product of Algorithm 1: the layout as flat arrays, optional bytes.

    Per node ``v``: ``degree``, ``n_inline``, the primary address
    (``prim_page``, ``prim_sec``) and a CSR of its secondary sections
    (``sec_counts``, ``sec_pages``, ``sec_sections``). Per page row ``r``:
    its physical ``page_index``, ``page_type`` and a CSR of its sections
    (``entry_node``, ``entry_kind``, ``entry_ordinal``, ``entry_size``),
    where entry ``j`` of a row is section ``j`` of that page. A built
    image has rows ``0..P-1`` at pages ``0..P-1``; relocated and updated
    images need not.

    The arrays are the only record of the layout. :attr:`node_plans` and
    :attr:`page_plans` are copies built from them on each access, for
    cold callers; editing a copy does not edit the image.
    """

    def __init__(
        self,
        spec: FormatSpec,
        stats: BuildStats,
        *,
        degree: np.ndarray,
        n_inline: np.ndarray,
        prim_page: np.ndarray,
        prim_sec: np.ndarray,
        sec_indptr: np.ndarray,
        sec_counts: np.ndarray,
        sec_pages: np.ndarray,
        sec_sections: np.ndarray,
        page_type: np.ndarray,
        entry_indptr: np.ndarray,
        entry_node: np.ndarray,
        entry_kind: np.ndarray,
        entry_ordinal: np.ndarray,
        entry_size: np.ndarray,
        page_index: Optional[np.ndarray] = None,
        pages: Optional[Dict[int, bytes]] = None,
    ) -> None:
        self.spec = spec
        self.stats = stats
        self.degree = degree
        self.n_inline = n_inline
        self.prim_page = prim_page
        self.prim_sec = prim_sec
        self.sec_indptr = sec_indptr
        self.sec_counts = sec_counts
        self.sec_pages = sec_pages
        self.sec_sections = sec_sections
        self.page_type = page_type
        self.entry_indptr = entry_indptr
        self.entry_node = entry_node
        self.entry_kind = entry_kind
        self.entry_ordinal = entry_ordinal
        self.entry_size = entry_size
        if page_index is None:
            page_index = np.arange(len(page_type), dtype=np.int64)
        self.page_index = page_index
        self.pages = pages

    @property
    def page_index(self) -> np.ndarray:
        """Physical page of each page row."""
        return self._page_index

    @page_index.setter
    def page_index(self, value: np.ndarray) -> None:
        self._page_index = value
        # Row lookup for node_at: None while row r is page r.
        if np.array_equal(value, np.arange(len(value))):
            self._rows: Optional[Dict[int, int]] = None
        else:
            self._rows = {page: row for row, page in enumerate(value.tolist())}

    @property
    def num_nodes(self) -> int:
        return len(self.prim_page)

    @property
    def num_pages(self) -> int:
        return len(self._page_index)

    @property
    def serialized(self) -> bool:
        return self.pages is not None

    def address_of(self, node: int) -> SectionAddress:
        """Primary-section address of a node (what the host sends per batch)."""
        return SectionAddress(self.prim_page.item(node), self.prim_sec.item(node))

    def packed_address_of(self, node: int) -> int:
        return self.spec.codec.pack(self.address_of(node))

    def secondary_addrs(self, node: int) -> List[SectionAddress]:
        """Addresses of a node's secondary sections, in ordinal order."""
        lo = self.sec_indptr.item(node)
        hi = self.sec_indptr.item(node + 1)
        return [
            SectionAddress(page, section)
            for page, section in zip(
                self.sec_pages[lo:hi].tolist(), self.sec_sections[lo:hi].tolist()
            )
        ]

    def page_bytes(self, page_index: int) -> bytes:
        if self.pages is None:
            raise RuntimeError("image was built plan-only (serialize=False)")
        return self.pages[page_index]

    def row_of(self, page: int) -> int:
        """Page row holding physical page ``page``; KeyError if none does."""
        rows = self._rows
        if rows is not None:
            return rows[page]
        if not 0 <= page < len(self._page_index):
            raise KeyError(page)
        return page

    def node_at(self, addr: SectionAddress) -> int:
        """Reverse lookup: which node owns the section at ``addr``."""
        row = self.row_of(addr.page)
        first = self.entry_indptr.item(row)
        at = first + addr.section
        if not first <= at < self.entry_indptr.item(row + 1):
            raise KeyError((addr.page, addr.section))
        return self.entry_node.item(at)

    def arrays(self) -> Dict[str, np.ndarray]:
        """Every layout array by name (:data:`IMAGE_ARRAYS`, ``degree`` and
        ``page_index``), for building an edited copy."""
        arrays = {name: getattr(self, name) for name in IMAGE_ARRAYS}
        arrays["degree"] = self.degree
        arrays["page_index"] = self._page_index
        return arrays

    # -- plan copies for cold callers -----------------------------------------

    @property
    def node_plans(self) -> List[NodePlan]:
        """One :class:`NodePlan` per node, built from the arrays."""
        return [self._node_plan(node) for node in range(self.num_nodes)]

    @property
    def page_plans(self) -> List[PagePlan]:
        """One :class:`PagePlan` per page row, built from the arrays."""
        return [self._page_plan(row) for row in range(self.num_pages)]

    def _node_plan(self, node: int) -> NodePlan:
        lo = self.sec_indptr.item(node)
        hi = self.sec_indptr.item(node + 1)
        return NodePlan(
            node,
            self.degree.item(node),
            n_inline=self.n_inline.item(node),
            secondary_counts=self.sec_counts[lo:hi].tolist(),
            primary_addr=self.address_of(node),
            secondary_addrs=self.secondary_addrs(node),
        )

    def _page_plan(self, row: int) -> PagePlan:
        lo = self.entry_indptr.item(row)
        hi = self.entry_indptr.item(row + 1)
        return PagePlan(
            page_index=self._page_index.item(row),
            page_type=self.page_type.item(row),
            entries=list(
                zip(
                    self.entry_node[lo:hi].tolist(),
                    self.entry_kind[lo:hi].tolist(),
                    self.entry_ordinal[lo:hi].tolist(),
                )
            ),
            sizes=self.entry_size[lo:hi].tolist(),
        )


# -- step 1: planning ---------------------------------------------------------


# A primary section is only cut at the page boundary when at least this
# many neighbors stay inline; tiny nodes are never split across pages.
MIN_INLINE_SPLIT = 8


def _plan_split(
    degree: int,
    budget: int,
    base_header: int,
    sec_cap: int,
    payload: int,
) -> Optional[Tuple[int, int]]:
    """The split fixpoint of Figure 8: ``(n_secondary, n_inline)`` or None.

    Called only when the node's full section does not fit in ``budget``
    (the run-batching step already placed every node that fits whole).
    Pure-integer replica of the reference ``_plan_node_sections`` overflow
    branch: the section header stores one address per secondary section,
    shrinking the inline-neighbor budget, hence the fixpoint on
    ``n_secondary``. ``base_header`` is the primary-section header size
    with zero secondary addresses (growth slots + feature vector included).
    """
    n_secondary = 1
    n_inline = 0
    for _ in range(64):
        header = base_header + ADDRESS_BYTES * n_secondary
        if header > budget:
            return None
        n_inline = min(degree, (budget - header) // ADDRESS_BYTES)
        remaining = degree - n_inline
        if remaining <= 0:  # pragma: no cover - caught by the full-fit check
            return (0, degree)
        needed = -(-remaining // sec_cap)
        if needed == n_secondary:
            break
        n_secondary = needed
    else:  # pragma: no cover - defensive
        raise ValueError(f"section planning did not converge for degree {degree}")
    if n_inline < MIN_INLINE_SPLIT and budget < payload:
        return None  # not worth cutting; start on a fresh page instead
    return (n_secondary, n_inline)


class _PlanState:
    """Page tables being grown by the planning pass.

    Per-page parallel lists (section node, ordinal, size) so per-page used
    bytes and section counts stay O(1) bookkeeping; they are flattened
    into the image's entry arrays once at the end.
    """

    __slots__ = (
        "payload",
        "max_secs",
        "open_page_limit",
        "types",
        "nodes",
        "ordinals",
        "sizes",
        "used",
        "open_secondary",
    )

    def __init__(self, spec: FormatSpec, open_page_limit: int) -> None:
        self.payload = spec.page_payload_bytes
        self.max_secs = spec.max_sections_per_page
        self.open_page_limit = open_page_limit
        self.types: List[int] = []
        self.nodes: List[List[int]] = []
        self.ordinals: List[List[int]] = []
        self.sizes: List[List[int]] = []
        self.used: List[int] = []
        # Open-window first-fit applies to secondary pages only: primary
        # pages are filled strictly sequentially by the planning loop (the
        # reference keeps a primary window too, but never places into it).
        self.open_secondary: List[int] = []

    def new_page(self, page_type: int) -> int:
        index = len(self.types)
        self.types.append(page_type)
        self.nodes.append([])
        self.ordinals.append([])
        self.sizes.append([])
        self.used.append(0)
        if page_type == PAGE_TYPE_SECONDARY:
            self.open_secondary.append(index)
            if len(self.open_secondary) > self.open_page_limit:
                self.open_secondary.pop(0)
        return index

    def place_secondary(self, size: int) -> int:
        """First-fit a secondary section over the bounded open window."""
        payload = self.payload
        if size > payload:
            raise ValueError(
                f"section of {size} B exceeds page payload {payload} B"
            )
        max_secs = self.max_secs
        used = self.used
        nodes = self.nodes
        for page in self.open_secondary:
            if payload - used[page] >= size and len(nodes[page]) < max_secs:
                return page
        return self.new_page(PAGE_TYPE_SECONDARY)


def build_directgraph(
    graph: Graph,
    features: Optional[FeatureTable] = None,
    spec: Optional[FormatSpec] = None,
    serialize: bool = True,
    open_page_limit: int = 32,
    order: Optional[np.ndarray] = None,
) -> DirectGraphImage:
    """Run Algorithm 1 over ``graph`` (and ``features`` when serializing).

    ``order`` (a permutation of all node ids) selects the sequence in
    which nodes are laid onto primary pages — the neighbor-locality page
    reordering: nodes adjacent in ``order`` share pages. ``None`` keeps
    the original node-id order and is byte-identical to the pre-``order``
    builder. Reordering never changes node identity: plans, addresses,
    and serialized section contents stay keyed by the original ids, only
    the (page, section) placement moves.
    """
    BUILD_COUNTER.count += 1
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

    n = graph.num_nodes
    payload = spec.page_payload_bytes
    max_secs = spec.max_sections_per_page
    sec_cap = spec.max_secondary_neighbors

    deg = np.asarray(graph.degrees(), dtype=np.int64)
    # Layout order: the planning loop below walks *positions* in this
    # sequence; everything it records is mapped back to node ids at the
    # end. The default identity order keeps deg_plan as deg itself, so
    # the unordered path is untouched.
    if order is not None:
        ids = np.asarray(order, dtype=np.int64)
        if ids.shape != (n,) or not np.array_equal(np.sort(ids), np.arange(n)):
            raise ValueError("order must be a permutation of all node ids")
        deg_plan = deg[ids]
        ids_list = ids.tolist()
    else:
        ids = None
        deg_plan = deg
        ids_list = None
    # Primary-section header size with zero secondary addresses; a node's
    # full (all-inline) section is base_header + 4 bytes per neighbor.
    base_header = spec.primary_section_bytes(0, 0)
    # The prefix sum turns "do nodes i..j fit on this page whole?" into one
    # subtraction, and searchsorted finds the longest such run.
    full_prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(base_header + ADDRESS_BYTES * deg_plan, out=full_prefix[1:])

    state = _PlanState(spec, open_page_limit)
    prim_page = np.empty(n, dtype=np.int64)
    prim_sec = np.empty(n, dtype=np.int64)
    n_inline = deg_plan.copy()  # overwritten for split nodes
    # node -> (secondary_counts, [(page, section), ...]); split nodes only
    splits: Dict[int, Tuple[List[int], List[Tuple[int, int]]]] = {}

    cur = -1  # current primary page index (-1: none open yet)
    cur_used = 0
    cur_nsec = 0
    node = 0
    while node < n:
        if cur < 0 or cur_nsec >= max_secs:
            cur = state.new_page(PAGE_TYPE_PRIMARY)
            cur_used = 0
            cur_nsec = 0
        budget = payload - cur_used
        # Longest run of consecutive nodes that fit whole on this page.
        hi = min(node + (max_secs - cur_nsec), n)
        run = int(
            np.searchsorted(
                full_prefix[node + 1 : hi + 1] - full_prefix[node],
                budget,
                side="right",
            )
        )
        if run > 0:
            end = node + run
            prim_page[node:end] = cur
            prim_sec[node:end] = np.arange(cur_nsec, cur_nsec + run)
            run_sizes = (
                full_prefix[node + 1 : end + 1] - full_prefix[node:end]
            ).tolist()
            state.sizes[cur].extend(run_sizes)
            state.nodes[cur].extend(
                range(node, end) if ids_list is None else ids_list[node:end]
            )
            state.ordinals[cur].extend([0] * run)
            cur_used += int(full_prefix[end] - full_prefix[node])
            cur_nsec += run
            node = end
            continue
        # Node `node` does not fit whole: split it at the page boundary,
        # or start it on a fresh page when the cut is not worth it.
        split = _plan_split(
            int(deg_plan[node]), budget, base_header, sec_cap, payload
        )
        if split is None:
            if cur_used == 0 and cur_nsec == 0:  # pragma: no cover
                raise ValueError(
                    f"node {node} cannot start a primary section even on "
                    "an empty page"
                )
            cur = state.new_page(PAGE_TYPE_PRIMARY)
            cur_used = 0
            cur_nsec = 0
            continue  # replan `node` against the fresh page
        n_sec, n_il = split
        node_id = node if ids_list is None else ids_list[node]
        psize = base_header + ADDRESS_BYTES * (n_sec + n_il)
        prim_page[node] = cur
        prim_sec[node] = cur_nsec
        n_inline[node] = n_il
        state.sizes[cur].append(psize)
        state.nodes[cur].append(node_id)
        state.ordinals[cur].append(0)
        cur_used += psize
        cur_nsec += 1
        remaining = int(deg_plan[node]) - n_il
        counts = [sec_cap] * (remaining // sec_cap)
        if remaining % sec_cap:
            counts.append(remaining % sec_cap)
        sec_addrs: List[Tuple[int, int]] = []
        for ordinal, count in enumerate(counts):
            ssize = SECONDARY_HEADER_BYTES + ADDRESS_BYTES * count
            spage = state.place_secondary(ssize)
            sec_addrs.append((spage, len(state.nodes[spage])))
            state.nodes[spage].append(node_id)
            state.ordinals[spage].append(ordinal)
            state.sizes[spage].append(ssize)
            state.used[spage] += ssize
        splits[node_id] = (counts, sec_addrs)
        node += 1

    # The planning arrays are position-indexed; ids[inv[v]] == v maps
    # them back to node ids.
    if ids is not None:
        inv = np.empty(n, dtype=np.int64)
        inv[ids] = np.arange(n)
        prim_page = prim_page[inv]
        prim_sec = prim_sec[inv]
        n_inline = n_inline[inv]
    # Secondary sections of the split nodes, as a node-id ordered CSR.
    sec_indptr = np.zeros(n + 1, dtype=np.int64)
    sec_counts: List[int] = []
    sec_pages: List[int] = []
    sec_sections: List[int] = []
    for v in sorted(splits):
        counts, sec_addrs = splits[v]
        sec_indptr[v + 1] = len(counts)
        sec_counts.extend(counts)
        sec_pages.extend(page for page, _ in sec_addrs)
        sec_sections.extend(section for _, section in sec_addrs)
    np.cumsum(sec_indptr, out=sec_indptr)

    num_pages = len(state.types)
    page_type = np.array(state.types, dtype=np.uint8)
    entry_indptr = np.zeros(num_pages + 1, dtype=np.int64)
    np.cumsum(
        np.array([len(nodes) for nodes in state.nodes], dtype=np.int64),
        out=entry_indptr[1:],
    )
    entry_size = _flatten(state.sizes, int(entry_indptr[-1]))
    # A page holds sections of its own type only.
    entry_kind = np.repeat(
        np.where(
            page_type == PAGE_TYPE_PRIMARY,
            SECTION_TYPE_PRIMARY,
            SECTION_TYPE_SECONDARY,
        ).astype(np.uint8),
        np.diff(entry_indptr),
    )

    n_primary = int(np.count_nonzero(page_type == PAGE_TYPE_PRIMARY))
    stats = BuildStats(
        num_nodes=n,
        num_edges=graph.num_edges,
        num_primary_pages=n_primary,
        num_secondary_pages=num_pages - n_primary,
        page_size=spec.page_size,
        used_bytes=int(entry_size.sum()) + spec.page_header_bytes * num_pages,
    )
    image = DirectGraphImage(
        spec,
        stats,
        degree=deg,
        n_inline=n_inline,
        prim_page=prim_page,
        prim_sec=prim_sec,
        sec_indptr=sec_indptr,
        sec_counts=np.array(sec_counts, dtype=np.int64),
        sec_pages=np.array(sec_pages, dtype=np.int64),
        sec_sections=np.array(sec_sections, dtype=np.int64),
        page_type=page_type,
        entry_indptr=entry_indptr,
        entry_node=_flatten(state.nodes, len(entry_size)),
        entry_kind=entry_kind,
        entry_ordinal=_flatten(state.ordinals, len(entry_size)),
        entry_size=entry_size,
    )
    if serialize:
        image.pages = _serialize_pages(image, graph, features)
    return image


def _flatten(rows: List[List[int]], total: int) -> np.ndarray:
    """Concatenate per-page lists into one int64 array."""
    return np.fromiter(
        (value for row in rows for value in row), dtype=np.int64, count=total
    )


# -- step 2: serialization ----------------------------------------------------


_PRIMARY_HEADER = struct.Struct("<BBHIIHH")  # type,flags,len,node,deg,nsec,ninl
_SECONDARY_HEADER = struct.Struct("<BBHIHH")  # type,flags,len,node,count,rsvd

assert _PRIMARY_HEADER.size == PRIMARY_HEADER_BYTES
assert _SECONDARY_HEADER.size == SECONDARY_HEADER_BYTES


def _packed_addresses(
    codec: AddressCodec, pages: np.ndarray, sections: np.ndarray
) -> np.ndarray:
    """Packed 4-byte addresses of (page, section) arrays, range-validated."""
    bad = (
        (pages < 0)
        | (pages >= codec.max_pages)
        | (sections < 0)
        | (sections >= codec.max_sections_per_page)
    )
    if bad.any():
        # Raise the codec's own error for the first offending address.
        first = int(np.argmax(bad))
        codec.pack(SectionAddress(int(pages[first]), int(sections[first])))
        raise AssertionError("unreachable")  # pragma: no cover
    return (pages << codec.section_bits) | sections


def _feature_rows(features: FeatureTable, nodes: np.ndarray) -> Iterator[memoryview]:
    """The feature bytes of each of ``nodes``, in order.

    Rows are gathered :data:`~repro.gnn.features.GATHER_BLOCK` elements
    at a time, so an image of any size holds one block of them at once.
    """
    rows = max(1, GATHER_BLOCK // features.dim)
    step = features.bytes_per_vector
    for lo in range(0, len(nodes), rows):
        raw = memoryview(features.gather(nodes[lo : lo + rows]).tobytes())
        for at in range(0, len(raw), step):
            yield raw[at : at + step]


def _serialize_pages(
    image: DirectGraphImage, graph: Graph, features: FeatureTable
) -> Dict[int, bytes]:
    spec = image.spec
    codec = spec.codec
    packed_primary = _packed_addresses(codec, image.prim_page, image.prim_sec)
    # Every neighbor entry in the whole image, in adjacency order: section
    # payloads slice this one blob by (indptr offset, count) x 4 bytes.
    nbr_blob = packed_primary[graph.indices].astype("<u4").tobytes()
    # Every secondary address, in node order: a primary section's address
    # list is the node's CSR run of this blob.
    sec_blob = (
        _packed_addresses(codec, image.sec_pages, image.sec_sections)
        .astype("<u4")
        .tobytes()
    )
    sec_indptr = image.sec_indptr
    # Neighbor-list offset of each secondary section: the node's inline
    # entries come first, then its secondaries in ordinal order.
    sec_owner = np.repeat(np.arange(image.num_nodes), np.diff(sec_indptr))
    sec_before = np.cumsum(image.sec_counts) - image.sec_counts
    sec_start = (
        graph.indptr[sec_owner]
        + image.n_inline[sec_owner]
        + sec_before
        - sec_before[sec_indptr[sec_owner]]
    ).tolist()
    sec_counts = image.sec_counts.tolist()
    sec_indptr_list = sec_indptr.tolist()
    indptr = graph.indptr.tolist()
    degree = image.degree.tolist()
    n_inline = image.n_inline.tolist()

    page_header_bytes = spec.page_header_bytes
    growth_slots = spec.growth_slots
    growth_bytes = b"\xff\xff\xff\xff" * growth_slots
    growth_len = len(growth_bytes)
    feature_bytes = spec.feature_bytes
    # Each primary section's feature bytes, in the order the loop below
    # writes them.
    next_features = _feature_rows(
        features, image.entry_node[image.entry_kind == SECTION_TYPE_PRIMARY]
    ).__next__
    page_size = spec.page_size
    entry_indptr = image.entry_indptr.tolist()
    entry_node = image.entry_node.tolist()
    entry_kind = image.entry_kind.tolist()
    entry_ordinal = image.entry_ordinal.tolist()
    entry_size = image.entry_size.tolist()

    pages: Dict[int, bytes] = {}
    for row, (page_index, page_type) in enumerate(
        zip(image.page_index.tolist(), image.page_type.tolist())
    ):
        lo, hi = entry_indptr[row], entry_indptr[row + 1]
        buf = bytearray(page_size)
        buf[0] = page_type
        buf[1] = hi - lo
        sizes = entry_size[lo:hi]
        offsets = []
        cursor = page_header_bytes
        for size in sizes:
            offsets.append(cursor)
            cursor += size
        if offsets:
            struct.pack_into(f"<{len(offsets)}H", buf, 2, *offsets)
        for node_id, kind, ordinal, at, size in zip(
            entry_node[lo:hi],
            entry_kind[lo:hi],
            entry_ordinal[lo:hi],
            offsets,
            sizes,
        ):
            first_sec = sec_indptr_list[node_id]
            if kind == SECTION_TYPE_PRIMARY:
                n_sec = sec_indptr_list[node_id + 1] - first_sec
                inline = n_inline[node_id]
                _PRIMARY_HEADER.pack_into(
                    buf,
                    at,
                    SECTION_TYPE_PRIMARY,
                    growth_slots,  # flags: free growth slots remaining
                    size,
                    node_id,
                    degree[node_id],
                    n_sec,
                    inline,
                )
                pos = at + PRIMARY_HEADER_BYTES
                if n_sec:
                    buf[pos : pos + 4 * n_sec] = sec_blob[
                        4 * first_sec : 4 * (first_sec + n_sec)
                    ]
                    pos += 4 * n_sec
                if growth_len:  # reserved (null) secondary slots
                    buf[pos : pos + growth_len] = growth_bytes
                    pos += growth_len
                raw = next_features()
                buf[pos : pos + len(raw)] = raw
                pos += feature_bytes
                start = 4 * indptr[node_id]
                chunk = nbr_blob[start : start + 4 * inline]
            else:
                sec = first_sec + ordinal
                count = sec_counts[sec]
                _SECONDARY_HEADER.pack_into(
                    buf,
                    at,
                    SECTION_TYPE_SECONDARY,
                    0,
                    size,
                    node_id,
                    count,
                    0,
                )
                pos = at + SECONDARY_HEADER_BYTES
                start = 4 * sec_start[sec]
                chunk = nbr_blob[start : start + 4 * count]
            buf[pos : pos + len(chunk)] = chunk
            pos += len(chunk)
            assert pos - at == size, "section size mismatch"
        # unused offset-table slots stay 0 (offset 0 is inside the header,
        # hence invalid — readers treat it as "no section")
        pages[page_index] = bytes(buf)
    return pages
