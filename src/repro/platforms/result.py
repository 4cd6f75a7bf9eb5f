"""Run results: everything the paper's figures are derived from."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.stats import (
    HopTimeline,
    Meter,
    PackedTrackers,
    StageAggregator,
    active_count_series,
    hex_rows,
    rows_from_hex,
)

__all__ = ["BatchTiming", "RunResult", "pack_trace"]


def pack_trace(rows: Sequence) -> np.ndarray:
    """Pack one batch's ``[target, position, node, depth]`` rows as int32.

    Rows come out lexicographically sorted — the same canonical
    (target, position) order ``list.sort()`` produced before packing, so
    serialized payloads are byte-identical either way. A traced scale-out
    sweep holds millions of rows; 4 int32s per row beats a 4-element
    Python list by ~20x. Idempotent on already-packed arrays.
    """
    arr = np.asarray(rows, dtype=np.int32)
    if arr.size == 0:
        return arr.reshape(0, 4)
    order = np.lexsort((arr[:, 3], arr[:, 2], arr[:, 1], arr[:, 0]))
    return arr[order]


@dataclass
class BatchTiming:
    """Start/end times of one mini-batch's pipeline stages."""

    batch_index: int
    prep_start: float
    prep_end: float
    compute_start: float = 0.0
    compute_end: float = 0.0

    @property
    def prep_seconds(self) -> float:
        return self.prep_end - self.prep_start

    @property
    def compute_seconds(self) -> float:
        return self.compute_end - self.compute_start

    def to_dict(self) -> Dict:
        return {
            "batch_index": self.batch_index,
            "prep_start": self.prep_start,
            "prep_end": self.prep_end,
            "compute_start": self.compute_start,
            "compute_end": self.compute_end,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BatchTiming":
        return cls(**data)


@dataclass
class RunResult:
    """Everything measured in one platform run.

    A result holds its per-unit and per-command records packed, whether
    :meth:`PlatformRun.finalize <repro.platforms.runner.PlatformRun.finalize>`
    built it or :meth:`from_dict` decoded it: ``die_trackers`` and
    ``channel_trackers`` are :class:`~repro.sim.stats.PackedTrackers`
    (a list of :class:`~repro.sim.stats.BusyTracker` given here is
    packed on construction) and ``stage_agg`` is packed column by
    column. So :meth:`to_dict` has one path, and a result is a few
    arrays rather than one object per die, channel and command.

    It has two serial forms. :meth:`to_dict` renders every record as
    lists and dicts of numbers: the form the golden digests hash and
    scale-out documents embed. :meth:`to_columns` writes those arrays
    as hex text of their little-endian bytes: the form the result cache
    stores. Both decode to equal results.
    """

    platform: str
    workload: str
    batch_size: int
    num_batches: int
    total_seconds: float
    batches: List[BatchTiming]
    stage_agg: StageAggregator
    hop_timeline: HopTimeline
    meters: Meter
    die_trackers: PackedTrackers = field(default_factory=PackedTrackers)
    channel_trackers: PackedTrackers = field(default_factory=PackedTrackers)
    firmware_busy_seconds: float = 0.0
    energy_breakdown: Dict[str, float] = field(default_factory=dict)
    background_io: Optional[object] = None  # BackgroundIoStats when enabled
    # Per-batch sampled tree positions ([target, position, node_id, depth]
    # int32 arrays, canonically sorted), captured only when
    # run_platform(sample_trace=True). The scale-out sharding model derives
    # measured cross-partition traffic from these node ids.
    sample_trace: Optional[List[np.ndarray]] = None
    # Page-cache counters (policy, capacity, hits/misses/evictions,
    # hit_rate), present only when run_platform(page_cache=...) enabled one.
    cache: Optional[Dict] = None
    # Actual target count when the caller supplied explicit (possibly
    # ragged) batches via run_platform(targets=...); None for the
    # standard batch_size x num_batches runs.
    served_targets: Optional[int] = None

    def __post_init__(self) -> None:
        self.die_trackers = PackedTrackers.pack(self.die_trackers)
        self.channel_trackers = PackedTrackers.pack(self.channel_trackers)
        self.stage_agg.pack()

    # -- headline metrics ------------------------------------------------------

    @property
    def total_targets(self) -> int:
        if self.served_targets is not None:
            return self.served_targets
        return self.batch_size * self.num_batches

    @property
    def throughput_targets_per_sec(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.total_targets / self.total_seconds

    @property
    def mean_prep_seconds(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.prep_seconds for b in self.batches) / len(self.batches)

    @property
    def mean_compute_seconds(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.compute_seconds for b in self.batches) / len(self.batches)

    # -- utilization (Figure 15 a-e) -------------------------------------------

    def die_utilization_series(self, bins: int = 40) -> Tuple[List[float], List[float]]:
        return active_count_series(self.die_trackers, 0.0, self.total_seconds, bins)

    def channel_utilization_series(
        self, bins: int = 40
    ) -> Tuple[List[float], List[float]]:
        return active_count_series(
            self.channel_trackers, 0.0, self.total_seconds, bins
        )

    def mean_active_dies(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        busy = sum(self.die_trackers.busy_times(0.0, self.total_seconds))
        return busy / self.total_seconds

    def mean_active_channels(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        busy = sum(self.channel_trackers.busy_times(0.0, self.total_seconds))
        return busy / self.total_seconds

    # -- latency breakdown (Figure 15f) ------------------------------------------

    def latency_breakdown(self) -> Dict[str, float]:
        """Mean per-batch, per-unit busy seconds for each subsystem.

        Attribution follows the paper's Figure 15f categories: host
        (software stack + translation + host sampling), PCIe transfer,
        firmware processing, flash I/O (die reads, channel transfers),
        DRAM, and accelerator compute. Each subsystem's total busy time is
        divided by its unit count (threads/cores/dies/channels), so values
        are comparable occupancy times; categories overlap in wall-clock
        (the system is parallel).
        """
        n = max(1, len(self.batches))
        total = self.total_seconds
        flash = sum(self.die_trackers.busy_times(0.0, total))
        channel = sum(self.channel_trackers.busy_times(0.0, total))
        host_units = max(1.0, self.meters.get("host_threads"))
        core_units = max(1.0, self.meters.get("fw_cores"))
        die_units = max(1, len(self.die_trackers))
        channel_units = max(1, len(self.channel_trackers))
        return {
            "host": self.meters.get("host_busy_s") / host_units / n,
            "pcie": self.meters.get("pcie_busy_s") / n,
            "firmware": self.firmware_busy_seconds / core_units / n,
            "flash_read": flash / die_units / n,
            "flash_transfer": channel / channel_units / n,
            "dram": self.meters.get("dram_busy_s") / n,
            "accelerator": self.meters.get("accel_busy_s") / n,
        }

    # -- command lifetime (Figure 17) ---------------------------------------------

    def command_breakdown(self) -> Dict[str, float]:
        return self.stage_agg.mean_breakdown()

    def summary(self) -> Dict[str, float]:
        return {
            "throughput": self.throughput_targets_per_sec,
            "prep_s": self.mean_prep_seconds,
            "compute_s": self.mean_compute_seconds,
            "active_dies": self.mean_active_dies(),
            "active_channels": self.mean_active_channels(),
            "hop_overlap": self.hop_timeline.overlap_fraction(),
        }

    # -- lossless serialization (result cache, pool transport, goldens) ---------

    def to_dict(self) -> Dict:
        """Full-fidelity form of plain JSON values; inverse of :meth:`from_dict`.

        Unlike :func:`repro.bench.export.result_to_dict` (a flattened,
        plot-ready view), this round-trips every instrument so a restored
        result answers every derived query identically. Nothing
        normalizes this dict before it is hashed or embedded, so every
        nested ``to_dict`` must return plain JSON values, exactly what
        ``json.loads`` would give back.
        """
        trace = self.sample_trace
        return self._encode(
            self.stage_agg.to_dict(),
            self.die_trackers.to_dicts(),
            self.channel_trackers.to_dicts(),
            # .tolist() of an int32 array yields plain ints, so packed
            # traces serialize byte-identically to the old nested lists
            None
            if trace is None
            else [b.tolist() if isinstance(b, np.ndarray) else b for b in trace],
        )

    def to_columns(self) -> Dict:
        """:meth:`to_dict` with its record arrays as little-endian hex text.

        The stage records, both tracker rows and each sample-trace batch
        are written straight from their packed arrays
        (:func:`~repro.sim.stats.hex_rows`); every other value is as in
        :meth:`to_dict`. Inverse of :meth:`from_columns`.
        """
        trace = self.sample_trace
        return self._encode(
            self.stage_agg.to_columns(),
            self.die_trackers.to_columns(),
            self.channel_trackers.to_columns(),
            None if trace is None else [hex_rows(b, "<i4") for b in trace],
        )

    def _encode(self, stage_agg, die_trackers, channel_trackers, sample_trace) -> Dict:
        data = {
            "platform": self.platform,
            "workload": self.workload,
            "batch_size": self.batch_size,
            "num_batches": self.num_batches,
            "total_seconds": self.total_seconds,
            "batches": [b.to_dict() for b in self.batches],
            "stage_agg": stage_agg,
            "hop_timeline": self.hop_timeline.to_dict(),
            "meters": self.meters.as_dict(),
            "die_trackers": die_trackers,
            "channel_trackers": channel_trackers,
            "firmware_busy_seconds": self.firmware_busy_seconds,
            "energy_breakdown": dict(self.energy_breakdown),
            "background_io": (
                self.background_io.to_dict()
                if self.background_io is not None
                else None
            ),
        }
        if sample_trace is not None:
            # key present only when traced: untraced payloads stay
            # byte-identical to the pre-trace schema (golden digests)
            data["sample_trace"] = sample_trace
        if self.cache is not None:
            # same conditional-key contract as sample_trace/background_io
            data["cache"] = self.cache
        if self.served_targets is not None:
            data["served_targets"] = self.served_targets
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "RunResult":
        trace = data.get("sample_trace")
        return cls._decode(
            data,
            StageAggregator.from_dict(data["stage_agg"]),
            PackedTrackers.from_dicts(data["die_trackers"]),
            PackedTrackers.from_dicts(data["channel_trackers"]),
            None if trace is None else [pack_trace(batch) for batch in trace],
        )

    @classmethod
    def from_columns(cls, data: Dict) -> "RunResult":
        """Inverse of :meth:`to_columns`; ``ValueError`` on a damaged column."""
        trace = data.get("sample_trace")
        return cls._decode(
            data,
            StageAggregator.from_columns(data["stage_agg"]),
            PackedTrackers.from_columns(data["die_trackers"]),
            PackedTrackers.from_columns(data["channel_trackers"]),
            None if trace is None else [rows_from_hex(b, "<i4", 4) for b in trace],
        )

    @classmethod
    def _decode(
        cls, data: Dict, stage_agg, die_trackers, channel_trackers, sample_trace
    ) -> "RunResult":
        background_io = None
        if data.get("background_io") is not None:
            from .background import BackgroundIoStats

            background_io = BackgroundIoStats.from_dict(data["background_io"])
        return cls(
            platform=data["platform"],
            workload=data["workload"],
            batch_size=int(data["batch_size"]),
            num_batches=int(data["num_batches"]),
            total_seconds=float(data["total_seconds"]),
            batches=[BatchTiming.from_dict(b) for b in data["batches"]],
            stage_agg=stage_agg,
            hop_timeline=HopTimeline.from_dict(data["hop_timeline"]),
            meters=Meter.from_dict(data["meters"]),
            die_trackers=die_trackers,
            channel_trackers=channel_trackers,
            firmware_busy_seconds=float(data["firmware_busy_seconds"]),
            energy_breakdown=dict(data["energy_breakdown"]),
            background_io=background_io,
            sample_trace=sample_trace,
            cache=data.get("cache"),
            served_targets=(
                int(data["served_targets"])
                if data.get("served_targets") is not None
                else None
            ),
        )
