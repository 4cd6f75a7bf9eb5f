"""Host-side page cache: pluggable-eviction, datapath-pluggable.

One :class:`PageCache` fronts the flash backend of a
:class:`~repro.platforms.datapath.DataPrepEngine`: every structure/
feature page read consults it first, and a hit costs one DRAM-latency
charge instead of the whole control-path / die / channel / parser walk
(Ginex's host-side feature cache, generalized to every page the datapath
touches). The same object — same eviction code, same counters — also
backs the offline trace-replay simulator
(:mod:`repro.cache.replay`), so the differential suite can assert that
replaying a recorded access sequence reproduces the in-datapath hit
counts exactly.

Eviction policies are small strategy objects keyed by name:

* ``lru``   — least recently used (ordered dict, move-to-end on hit);
* ``lfu``   — least frequently used, least-recent tiebreak (lazy heap:
  stale entries are skipped at eviction time instead of re-heapified on
  every access);
* ``clock`` — second-chance approximation of LRU (reference bits and a
  sweeping hand).

``belady`` (the offline optimum) needs the future, so it lives in
:mod:`repro.cache.replay`, not here.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["DEFAULT_HIT_LATENCY_S", "POLICIES", "CacheConfig", "PageCache"]

# One 4 KiB page out of SSD DRAM: ~320 ns at 12.8 GB/s plus the 30 ns
# access overhead (repro.ssd.config.DramConfig) — versus multiple
# microseconds for the flash path it replaces.
DEFAULT_HIT_LATENCY_S = 3.5e-7

POLICIES = ("lru", "lfu", "clock")


@dataclass(frozen=True)
class CacheConfig:
    """Declarative cache description (hashable — safe inside a GridCell).

    ``capacity_mb`` uses decimal megabytes (1 MB = 1e6 bytes, matching
    the cache-maintenance CLI); a capacity that rounds to zero pages
    disables the cache entirely, which keeps runs bit-identical to the
    no-cache configuration. ``record_trace=True`` makes the cache record
    its page-access sequence for exact offline replay (differential
    tests); it never affects timing.
    """

    capacity_mb: float
    policy: str = "lru"
    hit_latency_s: float = DEFAULT_HIT_LATENCY_S
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown cache policy {self.policy!r} (one of {POLICIES})"
            )
        if self.capacity_mb < 0:
            raise ValueError("capacity_mb must be >= 0")
        if self.hit_latency_s < 0:
            raise ValueError("hit_latency_s must be >= 0")

    def capacity_pages(self, page_size: int) -> int:
        return int(self.capacity_mb * 1e6) // int(page_size)


class _LruPolicy:
    """Least recently used: ordered dict, move-to-end on every touch."""

    __slots__ = ("_pages",)

    def __init__(self) -> None:
        self._pages: "OrderedDict[int, None]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: int) -> bool:
        return page in self._pages

    def touch(self, page: int) -> None:
        self._pages.move_to_end(page)

    def insert(self, page: int) -> None:
        self._pages[page] = None

    def evict(self) -> int:
        victim, _ = self._pages.popitem(last=False)
        return victim


class _LfuPolicy:
    """Least frequently used, least-recently-used tiebreak.

    Lazy-heap implementation: every access pushes a fresh
    ``(freq, seq, page)`` entry; eviction pops until the top matches the
    page's current (freq, seq), skipping stale entries. Amortized
    O(log n) per access with no re-heapify.
    """

    __slots__ = ("_entries", "_heap", "_seq")

    def __init__(self) -> None:
        self._entries: Dict[int, tuple] = {}  # page -> (freq, last_seq)
        self._heap: List[tuple] = []  # (freq, last_seq, page)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, page: int) -> bool:
        return page in self._entries

    def _push(self, page: int, freq: int) -> None:
        self._seq += 1
        self._entries[page] = (freq, self._seq)
        heapq.heappush(self._heap, (freq, self._seq, page))

    def touch(self, page: int) -> None:
        freq, _ = self._entries[page]
        self._push(page, freq + 1)

    def insert(self, page: int) -> None:
        self._push(page, 1)

    def evict(self) -> int:
        while True:
            freq, seq, page = heapq.heappop(self._heap)
            if self._entries.get(page) == (freq, seq):
                del self._entries[page]
                return page


class _ClockPolicy:
    """CLOCK / second chance: a sweeping hand clears reference bits."""

    __slots__ = ("_slots", "_ref", "_index", "_hand", "_free_slot")

    def __init__(self) -> None:
        self._slots: List[int] = []
        self._ref: List[bool] = []
        self._index: Dict[int, int] = {}  # page -> slot
        self._hand = 0
        self._free_slot = -1  # slot vacated by the last evict()

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, page: int) -> bool:
        return page in self._index

    def touch(self, page: int) -> None:
        self._ref[self._index[page]] = True

    def insert(self, page: int) -> None:
        # After an eviction the freed slot is reused in place (the hand
        # already advanced past it); otherwise the ring grows.
        if self._free_slot < 0:
            self._index[page] = len(self._slots)
            self._slots.append(page)
            self._ref.append(True)
            return
        slot, self._free_slot = self._free_slot, -1
        self._slots[slot] = page
        self._ref[slot] = True
        self._index[page] = slot

    def evict(self) -> int:
        while self._ref[self._hand]:
            self._ref[self._hand] = False
            self._hand = (self._hand + 1) % len(self._slots)
        victim = self._slots[self._hand]
        del self._index[victim]
        self._free_slot = self._hand
        self._hand = (self._hand + 1) % len(self._slots)
        return victim


_POLICY_IMPLS = {"lru": _LruPolicy, "lfu": _LfuPolicy, "clock": _ClockPolicy}


class PageCache:
    """A fixed-capacity page cache with hit/miss/eviction accounting.

    ``access(page)`` is the whole interface the datapath needs: it
    returns ``True`` on a hit (touching the page for the policy) and
    ``False`` on a miss (inserting the page, evicting if full) — the
    miss models a fill after the flash read completes.
    """

    __slots__ = (
        "capacity_pages",
        "policy",
        "hit_latency_s",
        "hits",
        "misses",
        "evictions",
        "trace",
        "_impl",
    )

    def __init__(
        self,
        capacity_pages: int,
        policy: str = "lru",
        hit_latency_s: float = DEFAULT_HIT_LATENCY_S,
        record_trace: bool = False,
    ) -> None:
        if capacity_pages < 1:
            raise ValueError(
                "capacity_pages must be >= 1 (use PageCache.from_config to "
                "map a zero-capacity config to a disabled cache)"
            )
        if policy not in _POLICY_IMPLS:
            raise ValueError(
                f"unknown cache policy {policy!r} (one of {POLICIES})"
            )
        self.capacity_pages = int(capacity_pages)
        self.policy = policy
        # a float once here: every cache hit waits it out as a float
        self.hit_latency_s = float(hit_latency_s)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.trace: Optional[List[int]] = [] if record_trace else None
        self._impl = _POLICY_IMPLS[policy]()

    @classmethod
    def from_config(
        cls, config: Optional[CacheConfig], page_size: int
    ) -> Optional["PageCache"]:
        """Build a cache from a config; ``None`` when effectively disabled.

        A ``None`` config or a capacity that rounds to zero pages yields
        ``None`` — the datapath then has no cache object at all, so the
        run is bit-identical to one that never heard of caching.
        """
        if config is None:
            return None
        capacity = config.capacity_pages(page_size)
        if capacity < 1:
            return None
        return cls(
            capacity,
            policy=config.policy,
            hit_latency_s=config.hit_latency_s,
            record_trace=config.record_trace,
        )

    def __len__(self) -> int:
        return len(self._impl)

    def __contains__(self, page: int) -> bool:
        return page in self._impl

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def access(self, page: int) -> bool:
        """Look up (and on miss, fill) one page; returns hit?"""
        page = int(page)
        if self.trace is not None:
            self.trace.append(page)
        impl = self._impl
        if page in impl:
            self.hits += 1
            impl.touch(page)
            return True
        self.misses += 1
        if len(impl) >= self.capacity_pages:
            impl.evict()
            self.evictions += 1
        impl.insert(page)
        return False

    def stats_dict(self) -> Dict:
        """The ``cache`` block of a :class:`~repro.platforms.result.RunResult`."""
        stats = {
            "policy": self.policy,
            "capacity_pages": self.capacity_pages,
            "hit_latency_s": self.hit_latency_s,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
        if self.trace is not None:
            stats["trace"] = list(self.trace)
        return stats
