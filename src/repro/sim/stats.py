"""Instrumentation: busy-interval tracking, latency stage records, meters.

These feed the reproduction of the paper's Figures 15 (utilization over
time, latency breakdown), 16 (hop timelines), 17 (command lifetime
breakdown), and 19 (energy).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BusyTracker",
    "PackedTrackers",
    "hex_rows",
    "rows_from_hex",
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
        return _busy_time(self.intervals, t0, t1)

    def utilization(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        return self.busy_time(t0, t1) / (t1 - t0)


def _busy_time(intervals: Iterable, t0: float, t1: Optional[float]) -> float:
    total = 0.0
    for s, e in intervals:
        if t1 is not None:
            e = min(e, t1)
        s = max(s, t0)
        if e > s:
            total += e - s
    return total


def _rows_array(rows: List, dtype, width: int) -> np.ndarray:
    """Equal-length ``rows`` as one ``(len(rows), width)`` array."""
    flat = np.fromiter(chain.from_iterable(rows), dtype, width * len(rows))
    return flat.reshape(-1, width)


def hex_rows(array, dtype: str) -> str:
    """``array`` as hex text of its bytes in ``dtype``, an explicitly
    little-endian type (``"<f8"``, ``"<i8"``, ``"<i4"``).

    Raw bytes keep every value exactly, -0.0, NaN and infinities too;
    the text is two characters per byte, whatever the values.
    """
    return np.ascontiguousarray(array, dtype=dtype).tobytes().hex()


def rows_from_hex(text: str, dtype: str, width: int) -> np.ndarray:
    """Inverse of :func:`hex_rows`: a ``(rows, width)`` native-order array.

    Text that is not whole rows of ``dtype`` — odd length, a character
    that is not a hex digit, a byte count that is not a multiple of the
    row width — raises ``ValueError``.
    """
    raw = bytes.fromhex(text)
    dtype = np.dtype(dtype)
    if len(raw) % (dtype.itemsize * width):
        raise ValueError(
            f"{len(raw)} bytes are not whole rows of {width} {dtype.str} values"
        )
    flat = np.frombuffer(raw, dtype).astype(dtype.newbyteorder("="), copy=False)
    return flat.reshape(-1, width)


def _tracker_view(name: str, rows: List[List[float]]) -> BusyTracker:
    tracker = BusyTracker(name)
    tracker.intervals = [(s, e) for s, e in rows]
    return tracker


class PackedTrackers(Sequence[BusyTracker]):
    """The busy intervals of a row of units, packed and read-only.

    Holds the tracker names, one offset per tracker into ``spans`` (and
    one past the last), and ``spans``: one float64 array of ``(start,
    end)`` rows, tracker by tracker. It behaves like the list of
    :class:`BusyTracker` it stands for — ``len``, negative indices,
    slices (which return lists), truthiness and iteration work — and
    every tracker it yields is a fresh view. :meth:`busy_times` reads the
    rows in the order the trackers would, so it adds up bit for bit as
    on the trackers. It has two serial forms: a list of interval dicts
    (:meth:`to_dicts`) and columns (:meth:`to_columns`).
    """

    __slots__ = ("names", "offsets", "spans")

    def __init__(
        self,
        names: Sequence[str] = (),
        offsets: Sequence[int] = (0,),
        spans: Optional[np.ndarray] = None,
    ) -> None:
        self.names = tuple(names)
        self.offsets = tuple(offsets)
        self.spans = np.empty((0, 2)) if spans is None else spans

    @classmethod
    def pack(cls, trackers: Iterable[BusyTracker]) -> "PackedTrackers":
        """Pack live trackers (open busy spans are dropped); idempotent."""
        if isinstance(trackers, cls):
            return trackers
        return cls._of((t.name, t.intervals) for t in trackers)

    @classmethod
    def from_dicts(cls, data: Sequence[Dict]) -> "PackedTrackers":
        """Inverse of :meth:`to_dicts`."""
        return cls._of((t.get("name", ""), t["intervals"]) for t in data)

    @classmethod
    def _of(cls, named_intervals) -> "PackedTrackers":
        names, offsets, pairs = [], [0], []
        for name, intervals in named_intervals:
            names.append(name)
            pairs.extend(intervals)
            offsets.append(len(pairs))
        return cls(names, offsets, _rows_array(pairs, np.float64, 2))

    def to_dicts(self) -> List[Dict]:
        """One ``{"name", "intervals": [[start, end], ...]}`` per tracker."""
        return [
            {"name": name, "intervals": rows}
            for name, rows in zip(self.names, self._split())
        ]

    def to_columns(self) -> Dict:
        """The names, the offsets and ``spans`` as little-endian float64 hex."""
        return {
            "names": list(self.names),
            "offsets": list(self.offsets),
            "spans": hex_rows(self.spans, "<f8"),
        }

    @classmethod
    def from_columns(cls, data: Dict) -> "PackedTrackers":
        """Inverse of :meth:`to_columns`; ``ValueError`` if damaged."""
        names, offsets = data["names"], data["offsets"]
        spans = rows_from_hex(data["spans"], "<f8", 2)
        if not (
            isinstance(names, list)
            and isinstance(offsets, list)
            and len(offsets) == len(names) + 1
            and all(type(o) is int for o in offsets)
            and offsets[0] == 0
            and offsets[-1] == len(spans)
            and all(lo <= hi for lo, hi in zip(offsets, offsets[1:]))
        ):
            raise ValueError(
                f"tracker offsets do not split {len(spans)} spans among the names"
            )
        return cls(names, offsets, spans)

    def busy_times(self, t0: float = 0.0, t1: Optional[float] = None) -> List[float]:
        """Each tracker's :meth:`BusyTracker.busy_time`, in order."""
        return [_busy_time(rows, t0, t1) for rows in self._split()]

    def _split(self) -> List[List[List[float]]]:
        """Each tracker's ``[start, end]`` rows, tracker by tracker."""
        pairs = self.spans.tolist()
        return [pairs[lo:hi] for lo, hi in zip(self.offsets, self.offsets[1:])]

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        index = range(len(self))[index]  # negative indices, bounds check
        lo, hi = self.offsets[index], self.offsets[index + 1]
        return _tracker_view(self.names[index], self.spans[lo:hi].tolist())

    def __iter__(self) -> Iterator[BusyTracker]:
        return map(_tracker_view, self.names, self._split())


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
        return dict(zip(_BREAKDOWN_KEYS, _breakdown(*_record_times(self))))

    @property
    def lifetime(self) -> float:
        return self.completed - self.issued


_ID_FIELDS = ("command_id", "hop")
_TIME_FIELDS = ("issued", "flash_start", "flash_end", "transfer_end", "completed")
_BREAKDOWN_KEYS = ("wait_before_flash", "flash", "transfer", "wait_after_flash")
_record_ids, _record_times = attrgetter(*_ID_FIELDS), attrgetter(*_TIME_FIELDS)
_dict_ids, _dict_times = itemgetter(*_ID_FIELDS), itemgetter(*_TIME_FIELDS)


def _breakdown(issued, flash_start, flash_end, transfer_end, completed) -> Tuple:
    return (
        max(0.0, flash_start - issued),
        max(0.0, flash_end - flash_start),
        max(0.0, transfer_end - flash_end),
        max(0.0, completed - transfer_end),
    )


class _PackedRecords(Sequence[StageRecord]):
    """Read-only packed stage records; a :class:`StageRecord` per access."""

    __slots__ = ("_ids", "_times")

    def __init__(self, ids: np.ndarray, times: np.ndarray) -> None:
        self._ids = ids
        self._times = times

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        index = range(len(self))[index]  # negative indices, bounds check
        return StageRecord(*self._ids[index].tolist(), *self._times[index].tolist())

    def __iter__(self) -> Iterator[StageRecord]:
        for ids, times in zip(self._ids.tolist(), self._times.tolist()):
            yield StageRecord(*ids, *times)


class StageAggregator:
    """Collects StageRecords and averages their breakdowns.

    A running simulation adds live records. :meth:`pack`, called when
    the run is finalized (and by :meth:`from_dict`), stores them column
    by column — command id and hop per record in one int64 array, the
    five timestamps in one float64 array — and makes the aggregator
    read-only, so a finished result keeps no per-command objects.
    :attr:`records` yields :class:`StageRecord` objects on both forms
    (built on access once packed), and the means add record by record
    in the same order on both, so they agree bit for bit. A packed
    aggregator has two serial forms: one dict per record
    (:meth:`to_dict`) and its two columns (:meth:`to_columns`).
    """

    __slots__ = ("_live", "_ids", "_times")

    def __init__(self) -> None:
        self._live: Optional[List[StageRecord]] = []
        self._ids: Optional[np.ndarray] = None
        self._times: Optional[np.ndarray] = None

    def add(self, record: StageRecord) -> None:
        if self._live is None:
            raise RuntimeError("a packed StageAggregator is read-only")
        self._live.append(record)

    def pack(self) -> None:
        """Store the records column by column; idempotent."""
        if self._live is not None:
            self._set_columns(*self._columns())

    def _set_columns(self, ids: List, times: List) -> None:
        self._ids = _rows_array(ids, np.int64, len(_ID_FIELDS))
        self._times = _rows_array(times, np.float64, len(_TIME_FIELDS))
        self._live = None

    @property
    def records(self) -> Sequence[StageRecord]:
        if self._live is not None:
            return self._live
        return _PackedRecords(self._ids, self._times)

    def _columns(self) -> Tuple[List, List]:
        """Per-record ``(command_id, hop)`` and timestamp rows, in order."""
        if self._live is None:
            return self._ids.tolist(), self._times.tolist()
        return list(map(_record_ids, self._live)), list(map(_record_times, self._live))

    def mean_breakdown(self) -> Dict[str, float]:
        _ids, times = self._columns()
        if not times:
            return {k: 0.0 for k in _BREAKDOWN_KEYS}
        sums = [0.0] * len(_BREAKDOWN_KEYS)
        for row in times:
            for k, val in enumerate(_breakdown(*row)):
                sums[k] += val
        n = len(times)
        return {k: v / n for k, v in zip(_BREAKDOWN_KEYS, sums)}

    def mean_lifetime(self) -> float:
        _ids, times = self._columns()
        if not times:
            return 0.0
        return sum(completed - issued for issued, *_, completed in times) / len(times)

    def to_dict(self) -> Dict:
        # Field by field in declaration order; tests check the keys
        # against dataclasses.fields.
        ids, times = self._columns()
        return {
            "records": [
                {
                    "command_id": command_id,
                    "hop": hop,
                    "issued": issued,
                    "flash_start": flash_start,
                    "flash_end": flash_end,
                    "transfer_end": transfer_end,
                    "completed": completed,
                }
                for (command_id, hop), (
                    issued, flash_start, flash_end, transfer_end, completed
                ) in zip(ids, times)
            ]
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "StageAggregator":
        """Inverse of :meth:`to_dict`; the result comes back packed."""
        records = data["records"]
        agg = cls()
        agg._set_columns(list(map(_dict_ids, records)), list(map(_dict_times, records)))
        return agg

    def to_columns(self) -> Dict:
        """Ids and timestamps as little-endian int64 and float64 hex; packs."""
        self.pack()
        return {
            "ids": hex_rows(self._ids, "<i8"),
            "times": hex_rows(self._times, "<f8"),
        }

    @classmethod
    def from_columns(cls, data: Dict) -> "StageAggregator":
        """Inverse of :meth:`to_columns`; ``ValueError`` if damaged."""
        ids = rows_from_hex(data["ids"], "<i8", len(_ID_FIELDS))
        times = rows_from_hex(data["times"], "<f8", len(_TIME_FIELDS))
        if len(ids) != len(times):
            raise ValueError(f"{len(ids)} record ids for {len(times)} timestamp rows")
        agg = cls()
        agg._ids, agg._times, agg._live = ids, times, None
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
