"""Shared primitives for the on-disk content-addressed caches.

Both cache layers — the :class:`repro.orchestrate.cache.ResultCache`
(simulated result documents) and the
:class:`repro.directgraph.imagecache.ImageCache` (serialized
``DirectGraphImage`` + graph arrays) — share the same foundations: a
stable value hash for key derivation, the source fingerprint every key
covers, one default cache root, atomic entry writes, directory stats,
and an age/size LRU-by-mtime eviction policy. They live here, in a
dependency-free module, so the directgraph layer can use them without
importing the orchestration package (which itself imports the platforms
that build on directgraph), and so each result module can declare its
:class:`CachedDocument` kind at import time.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Optional, Tuple

__all__ = [
    "json_default",
    "stable_hash",
    "code_fingerprint",
    "CachedDocument",
    "default_cache_dir",
    "atomic_write",
    "CacheStats",
    "dir_stats",
    "clear_dir",
    "prune_dir",
]


def json_default(obj):
    """Coerce numpy scalars (and other number-likes) for ``json.dumps``."""
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _canonicalize(obj):
    """Reduce configs/specs to plain JSON values with deterministic shape."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if type(obj).__dataclass_params__.frozen:
            return _canonical_frozen(obj)
        return _dataclass_form(obj)
    if isinstance(obj, dict):
        return {str(k): _canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    if isinstance(obj, (str, bool)) or obj is None:
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    raise TypeError(f"cannot hash {type(obj).__name__} into a cache key")


def _dataclass_form(obj) -> Dict:
    return {
        f.name: _canonicalize(getattr(obj, f.name))
        for f in dataclasses.fields(obj)
    }


# Canonical forms of the frozen configs every key holds (SSDConfig,
# PlatformFeatures, WorkloadSpec, CacheConfig, ...), by value: equal
# configs built apart share one entry. Read-only once stored.
_CANONICAL: Dict[object, Tuple[object, Dict]] = {}
_CANONICAL_MAX = 1024


def _canonical_frozen(obj) -> Dict:
    try:
        hit = _CANONICAL.get(obj)
    except TypeError:  # an unhashable field value: nothing to share
        return _dataclass_form(obj)
    if hit is not None and (hit[0] is obj or _same_values(hit[0], obj)):
        return hit[1]
    form = _dataclass_form(obj)
    if len(_CANONICAL) >= _CANONICAL_MAX:
        _CANONICAL.clear()
    _CANONICAL[obj] = (obj, form)
    return form


def _same_values(a, b) -> bool:
    """``a == b`` with every value of the same type too.

    Config equality is not enough to share a canonical form: ``1``,
    ``1.0`` and ``True`` are equal, as are ``0.0`` and ``-0.0``, yet each
    canonicalizes differently.
    """
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(
            _same_values(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_values, a, b))
    if isinstance(a, float):
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def stable_hash(obj) -> str:
    """Hex digest that depends only on the *values* in ``obj``.

    Dataclasses (SSDConfig, PlatformFeatures, WorkloadSpec, ...) hash by
    field values, dicts by sorted key, so logically-equal inputs built in
    different ways produce identical keys.
    """
    encoded = json.dumps(
        _canonicalize(obj), sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(encoded).hexdigest()[:40]


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """Hex digest of every ``.py`` file in this package: path and bytes.

    Every result-document and image key hashes it, so an edit anywhere
    in the package — a model coefficient, a scheduling rule, a builder —
    turns every warm entry into a miss instead of a stale hit. Hashed
    once per process.
    """
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py")):
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()[:40]


@dataclass(frozen=True)
class CachedDocument:
    """One kind of result document in the content-addressed result cache.

    A payload is ``{"schema", "kind", field: result.to_dict()}`` —
    ``tagged=False`` leaves out ``"kind"`` — built as plain JSON values
    and encoded only where bytes are written. A fresh result is rebuilt
    from its payload exactly as a cached one is, so the two are
    interchangeable bit for bit. ``result_type.from_dict`` is looked up
    per call, never captured, so wrappers installed on it later see
    every decode.
    """

    kind: str
    schema: int
    result_type: type
    field: str
    tagged: bool = True

    def key(self, identity: Dict) -> str:
        """Content-addressed key of one document: its identity and the code."""
        return stable_hash(
            {
                "kind": self.kind,
                "schema": self.schema,
                "code_version": code_fingerprint(),
                **identity,
            }
        )

    def to_payload(self, result) -> Dict:
        payload: Dict = {"schema": self.schema}
        if self.tagged:
            payload["kind"] = self.kind
        payload[self.field] = result.to_dict()
        return payload

    def _usable(self, payload: Dict) -> bool:
        return payload.get("schema") == self.schema and isinstance(
            payload.get(self.field), dict
        )

    def from_payload(self, payload: Dict):
        if not self._usable(payload):
            raise ValueError(
                f"unsupported {self.kind} payload: want schema {self.schema} "
                f"with a {self.field!r} object, got schema "
                f"{payload.get('schema')!r}"
            )
        return self.result_type.from_dict(payload[self.field])

    def load(self, cache, key: str):
        """The result cached under ``key``, or None when it is unusable.

        No cache, a missing or unreadable entry (:meth:`ResultCache.get`),
        and a payload of another schema or without its ``field`` object
        are all misses: the caller rebuilds and rewrites the entry.
        """
        document = cache.get(key) if cache is not None else None
        if document is None or not self._usable(document["payload"]):
            return None
        return self.from_payload(document["payload"])

    def store(self, cache, key: str, payload: Dict, **meta):
        """Write ``payload`` under ``key`` when there is a cache; decode it."""
        if cache is not None:
            cache.put(
                key,
                {
                    "payload": payload,
                    "meta": {
                        "kind": self.kind,
                        **meta,
                        "code_version": code_fingerprint(),
                    },
                },
            )
        return self.from_payload(payload)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


def atomic_write(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Create ``path`` through a private tmp file and one rename.

    The tmp name carries host, pid and a random token, so writers of one
    key never share a tmp file, even on a shared filesystem whose
    containers reuse pids. It is opened exclusively with the default
    file mode (``tempfile.mkstemp``'s 0600 would hide shared entries
    from other users), and removed if the write or the rename fails.
    """
    tmp = path.with_name(
        f"{path.stem}.tmp.{socket.gethostname()}.{os.getpid()}"
        f".{os.urandom(4).hex()}"
    )
    try:
        with open(tmp, "xb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of what a cache directory holds."""

    entries: int
    total_bytes: int

    @property
    def total_mb(self) -> float:
        return self.total_bytes / 1e6


def dir_stats(root: Path, pattern: str) -> CacheStats:
    """Entry count and byte total for ``pattern`` files directly in ``root``."""
    entries = list(root.glob(pattern))
    return CacheStats(
        entries=len(entries),
        total_bytes=sum(p.stat().st_size for p in entries),
    )


def clear_dir(root: Path, pattern: str) -> int:
    """Delete every entry matching ``pattern``; returns how many were removed."""
    removed = 0
    for path in root.glob(pattern):
        path.unlink(missing_ok=True)
        removed += 1
    return removed


def prune_dir(
    root: Path,
    pattern: str,
    keep_days: Optional[float] = None,
    max_mb: Optional[float] = None,
    _now: Optional[float] = None,
) -> int:
    """Evict stale cache entries; returns how many were removed.

    Two independent policies, applied in order:

    * ``keep_days`` — drop entries whose mtime is older than this many
      days (mtime is the write time: age means time since the entry was
      last built-and-stored).
    * ``max_mb`` — after the age pass, evict oldest-first (LRU by mtime)
      until the directory fits in ``max_mb`` megabytes.

    Entries that vanish mid-scan (a concurrent run pruning the same
    directory) are skipped, not errors.
    """
    if keep_days is None and max_mb is None:
        raise ValueError("prune needs keep_days and/or max_mb")
    if keep_days is not None and keep_days < 0:
        raise ValueError("keep_days must be >= 0")
    if max_mb is not None and max_mb < 0:
        raise ValueError("max_mb must be >= 0")
    now = time.time() if _now is None else _now
    entries = []  # (mtime, size, path), oldest first
    for path in root.glob(pattern):
        try:
            st = path.stat()
        except OSError:
            continue
        entries.append((st.st_mtime, st.st_size, path))
    entries.sort()
    removed = 0
    if keep_days is not None:
        cutoff = now - keep_days * 86400.0
        keep = []
        for mtime, size, path in entries:
            if mtime < cutoff:
                path.unlink(missing_ok=True)
                removed += 1
            else:
                keep.append((mtime, size, path))
        entries = keep
    if max_mb is not None:
        budget = max_mb * 1e6
        total = sum(size for _mtime, size, _path in entries)
        for _mtime, size, path in entries:
            if total <= budget:
                break
            path.unlink(missing_ok=True)
            total -= size
            removed += 1
    return removed
