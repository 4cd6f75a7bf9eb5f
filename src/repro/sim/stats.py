"""Instrumentation: busy-interval tracking, latency stage records, meters.

These feed the reproduction of the paper's Figures 15 (utilization over
time, latency breakdown), 16 (hop timelines), 17 (command lifetime
breakdown), and 19 (energy).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "BusyTracker",
    "active_count_series",
    "StageRecord",
    "StageAggregator",
    "Meter",
    "HopTimeline",
]


class BusyTracker:
    """Records (start, end) busy intervals for one hardware unit."""

    __slots__ = ("name", "intervals", "_busy_since")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.intervals: List[Tuple[float, float]] = []
        self._busy_since: Optional[float] = None

    def add_interval(self, start: float, end: float) -> None:
        if end < start:
            raise ValueError("interval ends before it starts")
        self.intervals.append((start, end))

    def set_busy(self, now: float) -> None:
        if self._busy_since is None:
            self._busy_since = now

    def set_idle(self, now: float) -> None:
        if self._busy_since is not None:
            self.intervals.append((self._busy_since, now))
            self._busy_since = None

    def close(self, now: float) -> None:
        self.set_idle(now)

    def busy_time(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Total busy seconds clipped to [t0, t1]."""
        total = 0.0
        for s, e in self.intervals:
            if t1 is not None:
                e = min(e, t1)
            s = max(s, t0)
            if e > s:
                total += e - s
        return total

    def utilization(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        return self.busy_time(t0, t1) / (t1 - t0)

    def to_dict(self) -> Dict:
        """JSON-serializable snapshot (open busy spans are dropped)."""
        return {
            "name": self.name,
            "intervals": [[s, e] for s, e in self.intervals],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BusyTracker":
        tracker = cls(name=data.get("name", ""))
        tracker.intervals = [(float(s), float(e)) for s, e in data["intervals"]]
        return tracker


def active_count_series(
    trackers: Sequence[BusyTracker],
    t0: float,
    t1: float,
    bins: int = 50,
) -> Tuple[List[float], List[float]]:
    """Average number of simultaneously-busy units per time bin.

    Returns ``(bin_centers, counts)`` — the series plotted in Figure 15(a-e)
    for flash channels and dies.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if t1 <= t0:
        return [], []
    width = (t1 - t0) / bins
    busy = [0.0] * bins
    for tracker in trackers:
        for s, e in tracker.intervals:
            s = max(s, t0)
            e = min(e, t1)
            if e <= s:
                continue
            first = int((s - t0) / width)
            last = min(int((e - t0) / width), bins - 1)
            for b in range(first, last + 1):
                lo = t0 + b * width
                hi = lo + width
                busy[b] += max(0.0, min(e, hi) - max(s, lo))
    centers = [t0 + (b + 0.5) * width for b in range(bins)]
    return centers, [v / width for v in busy]


@dataclass(slots=True)
class StageRecord:
    """Per-command lifetime timestamps (Figure 17).

    The lifetime starts when the command's address is known at the frontend
    controller and ends when its result is available back at the frontend.
    """

    command_id: int
    hop: int
    issued: float = 0.0  # address available at frontend
    flash_start: float = 0.0  # die begins the page read
    flash_end: float = 0.0  # die read (+ on-die sampling) done
    transfer_end: float = 0.0  # channel transfer of result done
    completed: float = 0.0  # result processed at frontend

    def breakdown(self) -> Dict[str, float]:
        return {
            "wait_before_flash": max(0.0, self.flash_start - self.issued),
            "flash": max(0.0, self.flash_end - self.flash_start),
            "transfer": max(0.0, self.transfer_end - self.flash_end),
            "wait_after_flash": max(0.0, self.completed - self.transfer_end),
        }

    @property
    def lifetime(self) -> float:
        return self.completed - self.issued


class StageAggregator:
    """Collects StageRecords and averages their breakdowns."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: List[StageRecord] = []

    def add(self, record: StageRecord) -> None:
        self.records.append(record)

    def mean_breakdown(self) -> Dict[str, float]:
        if not self.records:
            return {k: 0.0 for k in ("wait_before_flash", "flash", "transfer", "wait_after_flash")}
        sums: Dict[str, float] = defaultdict(float)
        for rec in self.records:
            for key, val in rec.breakdown().items():
                sums[key] += val
        n = len(self.records)
        return {k: v / n for k, v in sums.items()}

    def mean_lifetime(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.lifetime for r in self.records) / len(self.records)

    def to_dict(self) -> Dict:
        # Field by field in declaration order (``asdict`` would deep-copy
        # every value); tests check the keys against dataclasses.fields.
        return {
            "records": [
                {
                    "command_id": r.command_id,
                    "hop": r.hop,
                    "issued": r.issued,
                    "flash_start": r.flash_start,
                    "flash_end": r.flash_end,
                    "transfer_end": r.transfer_end,
                    "completed": r.completed,
                }
                for r in self.records
            ]
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "StageAggregator":
        agg = cls()
        agg.records = [StageRecord(**rec) for rec in data["records"]]
        return agg


class Meter:
    """Accumulates named scalar quantities (bytes moved, ops executed)."""

    __slots__ = ("totals",)

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)

    def add(self, key: str, amount: float = 1.0) -> None:
        self.totals[key] += amount

    def get(self, key: str) -> float:
        return self.totals.get(key, 0.0)

    def merged(self, other: "Meter") -> "Meter":
        out = Meter()
        for src in (self, other):
            for k, v in src.totals.items():
                out.totals[k] += v
        return out

    def as_dict(self) -> Dict[str, float]:
        return dict(self.totals)

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "Meter":
        meter = cls()
        for key, value in data.items():
            meter.totals[key] = float(value)
        return meter


class HopTimeline:
    """First-activity / last-completion times per sampling hop (Figure 16)."""

    __slots__ = ("_start", "_end")

    def __init__(self) -> None:
        self._start: Dict[int, float] = {}
        self._end: Dict[int, float] = {}

    def note_start(self, hop: int, now: float) -> None:
        if hop not in self._start or now < self._start[hop]:
            self._start[hop] = now

    def note_end(self, hop: int, now: float) -> None:
        if hop not in self._end or now > self._end[hop]:
            self._end[hop] = now

    def spans(self) -> Dict[int, Tuple[float, float]]:
        return {
            hop: (self._start[hop], self._end.get(hop, self._start[hop]))
            for hop in sorted(self._start)
        }

    def overlap_fraction(self) -> float:
        """Fraction of total span where at least two hops are concurrently
        active — 0 for strictly serialized (barrier) execution."""
        spans = list(self.spans().values())
        if len(spans) < 2:
            return 0.0
        points = sorted({t for s in spans for t in s})
        total = points[-1] - points[0]
        if total <= 0:
            return 0.0
        overlapped = 0.0
        for lo, hi in zip(points, points[1:]):
            mid = (lo + hi) / 2
            active = sum(1 for s, e in spans if s <= mid < e)
            if active >= 2:
                overlapped += hi - lo
        return overlapped / total

    def to_dict(self) -> Dict:
        # JSON object keys are strings; hop indices are restored on load
        return {
            "start": {str(hop): t for hop, t in self._start.items()},
            "end": {str(hop): t for hop, t in self._end.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "HopTimeline":
        timeline = cls()
        timeline._start = {int(h): float(t) for h, t in data["start"].items()}
        timeline._end = {int(h): float(t) for h, t in data["end"].items()}
        return timeline
