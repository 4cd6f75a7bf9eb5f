"""Content-addressed on-disk cache of serialized DirectGraph images.

Preparing a workload (graph synthesis + feature table + Algorithm 1) is
the dominant cost of cold grids at benchmark scale, yet its output is a
pure function of ``(WorkloadSpec, page_size, format geometry)``. This
cache stores that output — the CSR graph plus the fully-serialized
:class:`~repro.directgraph.builder.DirectGraphImage` — in one ``.npz``
file per key, so any entry point (``PreparedWorkload.prepare``,
``run_grid`` workers, scale-out sharding, the CLI) that needs the same
workload image builds it exactly once per machine and loads bytes
thereafter.

Keys come from :func:`repro.cacheutil.stable_hash` over the canonical
value contents and the package's source fingerprint
(:func:`repro.cacheutil.code_fingerprint`), so logically-equal specs
constructed in different ways share entries and a builder edit misses.
Entries are written atomically (tmp file + rename), so two processes
storing one key both succeed and leave one whole entry, and any
unreadable/corrupt entry is treated as a miss, never an error.

An entry holds the image's layout arrays as they are (the image keeps
no plan objects, so a load builds none), the CSR graph and the page
bytes. It is the archive ``np.savez`` would write, one ``.npy`` member
per array, but the page bytes go into their ``pages_blob`` member a
chunk of pages at a time, so a store never joins the whole image into
one blob. Feature tables are *not* stored: they are procedural (O(1)
memory, derived from the workload seed), so the loader reconstructs them
for free while the expensive parts — edges and page bytes — come off
disk.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..cacheutil import (
    CacheStats,
    atomic_write,
    clear_dir,
    code_fingerprint,
    default_cache_dir,
    dir_stats,
    prune_dir,
    stable_hash,
)
from ..gnn.graph import Graph
from .builder import IMAGE_ARRAYS, BuildStats, DirectGraphImage
from .spec import FormatSpec

__all__ = [
    "IMAGE_SCHEMA_VERSION",
    "ImageCacheCounters",
    "COUNTERS",
    "CachedImage",
    "ImageCache",
    "default_image_cache_dir",
]

#: Bump whenever the on-disk array layout or the key derivation changes;
#: old entries then simply miss (they key on the old schema version).
IMAGE_SCHEMA_VERSION = 1


class ImageCacheCounters:
    """Opt-in effectiveness counters (``repro cache stats``, tests)."""

    __slots__ = ("hits", "misses", "stores")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


#: Process-wide counters, aggregated across every ImageCache instance.
COUNTERS = ImageCacheCounters()


def default_image_cache_dir() -> Path:
    """Image entries live next to the result cache: ``<cache>/images``."""
    return default_cache_dir() / "images"


@dataclass
class CachedImage:
    """What one cache entry reconstructs: the graph and its image."""

    graph: Graph
    image: DirectGraphImage


class ImageCache:
    """Directory of ``<key>.npz`` entries, one per prepared image."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = (
            Path(root).expanduser() if root else default_image_cache_dir()
        )
        self.root.mkdir(parents=True, exist_ok=True)
        self.counters = ImageCacheCounters()

    @classmethod
    def coerce(
        cls, value: Union[None, bool, str, Path, "ImageCache"]
    ) -> Optional["ImageCache"]:
        """Normalize user-facing knobs: cache object, path, True/None/False."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        return cls(value)

    # -- keys -----------------------------------------------------------------

    def key_for(
        self,
        workload,
        page_size: int,
        fmt: FormatSpec,
        layout: str = "node-order",
    ) -> str:
        """Hash of everything the image bytes depend on, code included.

        ``layout`` joins the key only when it is not the default, so
        every pre-layout cache entry keeps its key.
        """
        payload = {
                "kind": "directgraph-image",
                "schema": IMAGE_SCHEMA_VERSION,
                "code_version": code_fingerprint(),
                "workload": workload,
                "page_size": int(page_size),
                "format": {
                    "page_size": fmt.page_size,
                    "feature_dim": fmt.feature_dim,
                    "feature_elem_bytes": fmt.feature_elem_bytes,
                    "growth_slots": fmt.growth_slots,
                    # AddressCodec is not a dataclass; hash its bits manually.
                    "page_bits": fmt.codec.page_bits,
                    "section_bits": fmt.codec.section_bits,
                },
        }
        if layout != "node-order":
            payload["layout"] = layout
        return stable_hash(payload)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    # -- store / load ---------------------------------------------------------

    def put(self, key: str, graph: Graph, image: DirectGraphImage) -> Path:
        """Persist a serialized image; atomic, last-writer-wins."""
        if image.pages is None:
            raise ValueError("only serialized images can be cached")
        arrays = _image_to_arrays(graph, image)
        path = self.path_for(key)
        atomic_write(path, lambda handle: _write_entry(handle, arrays, image))
        self.counters.stores += 1
        COUNTERS.stores += 1
        return path

    def get(self, key: str) -> Optional[CachedImage]:
        """Reconstructed entry, or None on miss / unreadable bytes."""
        path = self.path_for(key)
        try:
            with zipfile.ZipFile(path) as archive:
                cached = _read_entry(archive)
        except Exception:
            self.counters.misses += 1
            COUNTERS.misses += 1
            return None
        self.counters.hits += 1
        COUNTERS.hits += 1
        return cached

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    # -- maintenance ----------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        return clear_dir(self.root, "*.npz")

    def stats(self) -> CacheStats:
        return dir_stats(self.root, "*.npz")

    def prune(
        self,
        keep_days: Optional[float] = None,
        max_mb: Optional[float] = None,
        _now: Optional[float] = None,
    ) -> int:
        """Evict stale entries; see :func:`repro.cacheutil.prune_dir`."""
        return prune_dir(
            self.root, "*.npz", keep_days=keep_days, max_mb=max_mb, _now=_now
        )


# -- array (de)serialization --------------------------------------------------
#
# The entry holds the image's own arrays (``IMAGE_ARRAYS``) as they are,
# plus the graph's CSR and every page's bytes. Node degrees are the
# graph's. Only images whose page rows are pages 0..P-1 are stored, so page
# bytes concatenate into a single uint8 blob, ``pages_blob``.

#: Pages joined per write of ``pages_blob``: the writer holds this many
#: pages' bytes beside the image, never a copy of all of them.
_PAGES_PER_WRITE = 256


def _write_entry(handle, arrays: dict, image: DirectGraphImage) -> None:
    """Write an entry as ``np.savez`` would, with ``pages_blob`` streamed.

    Each array is one ``<name>.npy`` member of an uncompressed zip, so
    ``np.load`` reads the entry back unchanged; the page bytes are written
    ``_PAGES_PER_WRITE`` pages at a time under one ``.npy`` header.
    """
    num_pages = image.num_pages
    pages = image.pages
    blob_header = {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.uint8)),
        "fortran_order": False,
        "shape": (num_pages * image.spec.page_size,),
    }
    with zipfile.ZipFile(
        handle, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True
    ) as archive:
        for name, value in arrays.items():
            with archive.open(f"{name}.npy", mode="w", force_zip64=True) as member:
                np.lib.format.write_array(member, value, allow_pickle=False)
        with archive.open("pages_blob.npy", mode="w", force_zip64=True) as member:
            np.lib.format.write_array_header_1_0(member, blob_header)
            for lo in range(0, num_pages, _PAGES_PER_WRITE):
                hi = min(lo + _PAGES_PER_WRITE, num_pages)
                member.write(b"".join(pages[i] for i in range(lo, hi)))


def _image_to_arrays(graph: Graph, image: DirectGraphImage) -> dict:
    """Every array of an entry but ``pages_blob``, by member name."""
    spec = image.spec
    num_pages = image.num_pages
    if not np.array_equal(image.page_index, np.arange(num_pages)):
        raise ValueError("only images on pages 0..P-1 can be cached")
    meta = {
        "schema": IMAGE_SCHEMA_VERSION,
        "page_size": spec.page_size,
        "feature_dim": spec.feature_dim,
        "feature_elem_bytes": spec.feature_elem_bytes,
        "growth_slots": spec.growth_slots,
        "page_bits": spec.codec.page_bits,
        "section_bits": spec.codec.section_bits,
        "stats": {
            "num_nodes": image.stats.num_nodes,
            "num_edges": image.stats.num_edges,
            "num_primary_pages": image.stats.num_primary_pages,
            "num_secondary_pages": image.stats.num_secondary_pages,
            "page_size": image.stats.page_size,
            "used_bytes": image.stats.used_bytes,
        },
    }
    return {
        "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "indptr": np.asarray(graph.indptr, dtype=np.int64),
        "indices": np.asarray(graph.indices, dtype=np.int32),
        **{name: getattr(image, name) for name in IMAGE_ARRAYS},
    }


def _read_array(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    with archive.open(f"{name}.npy") as member:
        return np.lib.format.read_array(member, allow_pickle=False)


def _read_pages(archive: zipfile.ZipFile, num_pages: int, page_size: int) -> dict:
    """The ``pages_blob`` member as one ``bytes`` per page.

    Read as :func:`_write_entry` writes it, ``_PAGES_PER_WRITE`` pages at
    a time, so a load holds one chunk beside the pages, never the whole
    blob as well.
    """
    pages = {}
    with archive.open("pages_blob.npy") as member:
        version = np.lib.format.read_magic(member)
        if version != (1, 0):
            raise ValueError(f"unsupported pages_blob header {version}")
        shape, _fortran, dtype = np.lib.format.read_array_header_1_0(member)
        if dtype != np.uint8 or shape != (num_pages * page_size,):
            raise ValueError("page blob size mismatch")
        for lo in range(0, num_pages, _PAGES_PER_WRITE):
            hi = min(lo + _PAGES_PER_WRITE, num_pages)
            chunk = member.read((hi - lo) * page_size)
            if len(chunk) != (hi - lo) * page_size:
                raise ValueError("page blob cut short")
            for i in range(lo, hi):
                at = (i - lo) * page_size
                pages[i] = chunk[at : at + page_size]
            del chunk
        if member.read(1):
            raise ValueError("page blob runs past its pages")
    return pages


def _read_entry(archive: zipfile.ZipFile) -> CachedImage:
    from .address import AddressCodec  # local: avoid import-order surprises

    meta = json.loads(bytes(_read_array(archive, "meta")).decode())
    if meta["schema"] != IMAGE_SCHEMA_VERSION:
        raise ValueError(f"unsupported image schema {meta['schema']}")
    spec = FormatSpec(
        page_size=int(meta["page_size"]),
        feature_dim=int(meta["feature_dim"]),
        codec=AddressCodec(
            page_bits=int(meta["page_bits"]),
            section_bits=int(meta["section_bits"]),
        ),
        feature_elem_bytes=int(meta["feature_elem_bytes"]),
        growth_slots=int(meta["growth_slots"]),
    )
    graph = Graph(_read_array(archive, "indptr"), _read_array(archive, "indices"))
    arrays = {name: _read_array(archive, name) for name in IMAGE_ARRAYS}
    pages = _read_pages(archive, len(arrays["page_type"]), spec.page_size)
    image = DirectGraphImage(
        spec,
        BuildStats(**meta["stats"]),
        degree=graph.degrees(),
        pages=pages,
        **arrays,
    )
    return CachedImage(graph=graph, image=image)
