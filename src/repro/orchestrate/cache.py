"""Content-addressed on-disk result cache.

A cache entry is one result document — a simulated grid cell, or a
scale-out, serving or ablation document built from cells — keyed by a
stable hash of *everything that determines the result*: the SSD
configuration, the platform feature bundle, the (scaled) workload spec,
the run parameters, the document schema and the source fingerprint
(:class:`repro.cacheutil.CachedDocument`). Equal inputs always map to
the same key, so repeated sweeps, CI runs, and overlapping benchmark
grids skip cells that have already been simulated — regardless of which
entry point ran them first.

Entries are JSON documents written atomically (tmp file + rename), so a
killed run never leaves a truncated entry behind; unreadable entries —
bytes that do not parse, or JSON that is not an object with an object
``payload`` — are treated as misses.

The hashing and eviction primitives live in :mod:`repro.cacheutil`
(shared with the DirectGraph image cache) and are re-exported here for
backwards compatibility.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

from ..cacheutil import (
    CacheStats,
    atomic_write,
    clear_dir,
    default_cache_dir,
    dir_stats,
    json_default,
    prune_dir,
    stable_hash,
)

__all__ = [
    "stable_hash",
    "json_default",
    "CacheStats",
    "ResultCache",
    "default_cache_dir",
]


class ResultCache:
    """Directory of ``<key>.json`` entries, one per result document."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict]:
        """The stored document, or None on miss / unreadable entry."""
        path = self.path_for(key)
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(document, dict) or not isinstance(
            document.get("payload"), dict
        ):
            return None
        return document

    def put(self, key: str, document: Dict) -> Path:
        path = self.path_for(key)
        data = json.dumps(document, sort_keys=True, default=json_default)
        atomic_write(path, lambda handle: handle.write(data.encode()))
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        return clear_dir(self.root, "*.json")

    def stats(self) -> CacheStats:
        return dir_stats(self.root, "*.json")

    def prune(
        self,
        keep_days: Optional[float] = None,
        max_mb: Optional[float] = None,
        _now: Optional[float] = None,
    ) -> int:
        """Evict stale entries; see :func:`repro.cacheutil.prune_dir`."""
        return prune_dir(
            self.root, "*.json", keep_days=keep_days, max_mb=max_mb, _now=_now
        )
