"""Packed result records read exactly like the eager objects they replace.

A finished :class:`RunResult` keeps its die and channel busy intervals
as :class:`PackedTrackers` and its stage records column by column,
whether the run built it or a payload was decoded. These tests hold
both forms against the eager decode the packed one replaced — a
:class:`BusyTracker` per tracker and a :class:`StageRecord` per record,
kept here as the reference — on every platform with every optional
result block:

* the same names, intervals and records under ``len``, indexing
  (negative indices too), slices, iteration and truth value;
* bit-identical derived values: busy times, mean active dies and
  channels, both utilization series, the latency and command
  breakdowns and the mean command lifetime.

A one-query cell builds only the flash dies its pages map to, and still
reports every die.
"""

import dataclasses
from collections import defaultdict

import pytest

from repro.cache import CacheConfig
from repro.platforms import PlatformRun, PreparedWorkload, platform_names, run_platform
from repro.platforms.background import BackgroundIoConfig
from repro.platforms.result import RunResult
from repro.sim.stats import (
    BusyTracker,
    PackedTrackers,
    StageAggregator,
    StageRecord,
    active_count_series,
)
from repro.ssd.flash import FlashBackend
from repro.workloads import workload_by_name

NODES = 256
PARAMS = dict(batch_size=8, num_batches=2, num_hops=2, fanout=2, seed=0)
VARIANTS = {
    "default": {},
    "page_cache": {"page_cache": CacheConfig(capacity_mb=0.25)},
    "sample_trace": {"sample_trace": True},
    "background_io": {
        "background_io": BackgroundIoConfig(rate_per_s=200_000, deferred=True)
    },
}


@pytest.fixture(scope="module")
def prepared():
    return PreparedWorkload.prepare(workload_by_name("ogbn").scaled(NODES))


# -- the eager decode the packed form replaced (reference only) -----------------


def eager_tracker(data):
    tracker = BusyTracker(name=data.get("name", ""))
    tracker.intervals = [(float(s), float(e)) for s, e in data["intervals"]]
    return tracker


def eager_busy_time(tracker, t0=0.0, t1=None):
    total = 0.0
    for s, e in tracker.intervals:
        if t1 is not None:
            e = min(e, t1)
        s = max(s, t0)
        if e > s:
            total += e - s
    return total


def eager_breakdown(rec):
    return {
        "wait_before_flash": max(0.0, rec.flash_start - rec.issued),
        "flash": max(0.0, rec.flash_end - rec.flash_start),
        "transfer": max(0.0, rec.transfer_end - rec.flash_end),
        "wait_after_flash": max(0.0, rec.completed - rec.transfer_end),
    }


def eager_derived(data):
    """Every derived value, computed the eager way from a payload."""
    total = data["total_seconds"]
    dies = [eager_tracker(t) for t in data["die_trackers"]]
    channels = [eager_tracker(t) for t in data["channel_trackers"]]
    records = [StageRecord(**rec) for rec in data["stage_agg"]["records"]]
    meters = data["meters"]
    n = max(1, len(data["batches"]))
    flash = sum(eager_busy_time(t, 0.0, total) for t in dies)
    channel = sum(eager_busy_time(t, 0.0, total) for t in channels)
    sums = defaultdict(float)
    for rec in records:
        for key, val in eager_breakdown(rec).items():
            sums[key] += val
    return {
        "die_busy": [eager_busy_time(t) for t in dies],
        "channel_busy": [eager_busy_time(t, 0.0, total) for t in channels],
        "mean_active_dies": flash / total,
        "mean_active_channels": channel / total,
        "die_series": active_count_series(dies, 0.0, total, 40),
        "channel_series": active_count_series(channels, 0.0, total, 40),
        "latency_breakdown": {
            "host": meters.get("host_busy_s", 0.0)
            / max(1.0, meters.get("host_threads", 0.0))
            / n,
            "pcie": meters.get("pcie_busy_s", 0.0) / n,
            "firmware": data["firmware_busy_seconds"]
            / max(1.0, meters.get("fw_cores", 0.0))
            / n,
            "flash_read": flash / max(1, len(dies)) / n,
            "flash_transfer": channel / max(1, len(channels)) / n,
            "dram": meters.get("dram_busy_s", 0.0) / n,
            "accelerator": meters.get("accel_busy_s", 0.0) / n,
        },
        "command_breakdown": {k: v / len(records) for k, v in sums.items()},
        "mean_lifetime": sum(r.completed - r.issued for r in records) / len(records),
    }


def packed_derived(result):
    total = result.total_seconds
    return {
        "die_busy": [t.busy_time() for t in result.die_trackers],
        "channel_busy": result.channel_trackers.busy_times(0.0, total),
        "mean_active_dies": result.mean_active_dies(),
        "mean_active_channels": result.mean_active_channels(),
        "die_series": result.die_utilization_series(40),
        "channel_series": result.channel_utilization_series(40),
        "latency_breakdown": result.latency_breakdown(),
        "command_breakdown": result.command_breakdown(),
        "mean_lifetime": result.stage_agg.mean_lifetime(),
    }


def bits(value):
    """``value`` with every float as its hex form: equal means bit-equal."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, StageRecord):
        return bits(dataclasses.astuple(value))
    if isinstance(value, BusyTracker):
        return [value.name, bits(value.intervals)]
    assert isinstance(value, (int, str)), type(value)
    return value


def assert_reads_like(packed, eager):
    """``packed`` answers every sequence query as the list ``eager`` does."""
    n = len(eager)
    assert len(packed) == n
    assert bool(packed) is bool(eager)
    assert bits(list(packed)) == bits(eager)
    for i in {0, 1, n // 2, n - 1, -1, -2, -n} if n >= 2 else ():
        assert bits(packed[i]) == bits(eager[i]), i
    for cut in (slice(1, 4), slice(None, None, -3), slice(-5, None), slice(n, None)):
        assert bits(packed[cut]) == bits(eager[cut]), cut
    for out_of_range in (n, -n - 1):
        with pytest.raises(IndexError):
            packed[out_of_range]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("platform", platform_names())
def test_packed_records_match_the_eager_decode(prepared, platform, variant):
    fresh = run_platform(platform, prepared, **PARAMS, **VARIANTS[variant])
    data = fresh.to_dict()
    decoded = RunResult.from_dict(data)
    eager_dies = [eager_tracker(t) for t in data["die_trackers"]]
    eager_channels = [eager_tracker(t) for t in data["channel_trackers"]]
    eager_records = [StageRecord(**rec) for rec in data["stage_agg"]["records"]]
    assert eager_records and any(t.intervals for t in eager_dies)
    reference = bits(eager_derived(data))
    for result in (fresh, decoded):
        assert_reads_like(result.die_trackers, eager_dies)
        assert_reads_like(result.channel_trackers, eager_channels)
        assert_reads_like(result.stage_agg.records, eager_records)
        assert bits(packed_derived(result)) == reference


def test_empty_packed_forms_read_as_empty_lists():
    trackers = PackedTrackers.pack([])
    assert len(trackers) == 0 and not trackers and list(trackers) == []
    assert trackers.to_dicts() == [] and trackers.busy_times() == []
    assert active_count_series(trackers, 0.0, 1.0, bins=2)[1] == [0.0, 0.0]
    idle = PackedTrackers.pack([BusyTracker("idle")])
    assert bool(idle) and idle[0].intervals == [] and idle.busy_times() == [0.0]
    agg = StageAggregator()
    agg.pack()
    assert len(agg.records) == 0 and not agg.records
    assert agg.mean_lifetime() == 0.0
    assert set(agg.mean_breakdown().values()) == {0.0}
    assert agg.to_dict() == {"records": []}


def test_a_packed_aggregator_is_read_only():
    agg = StageAggregator()
    agg.add(StageRecord(command_id=1, hop=0, completed=1.0))
    agg.pack()
    with pytest.raises(RuntimeError, match="read-only"):
        agg.add(StageRecord(command_id=2, hop=0))
    assert [r.command_id for r in agg.records] == [1]


def test_one_query_cell_builds_only_the_dies_it_reads(prepared, monkeypatch):
    backends, pages = [], []
    submit = FlashBackend.submit

    def recording_submit(backend, job):
        if backend not in backends:
            backends.append(backend)
        pages.append(job.page_index)
        return submit(backend, job)

    monkeypatch.setattr(FlashBackend, "submit", recording_submit)
    result = PlatformRun("bg2", prepared, batch_size=1, num_batches=1).run()
    (backend,) = backends
    config = backend.config
    per_channel = config.dies_per_channel
    read = {config.locate(page) for page in pages}
    built = {
        divmod(index, per_channel)
        for index, die in enumerate(backend._dies)
        if die is not None
    }
    assert built == read
    assert 0 < len(built) < config.num_channels * per_channel
    every_die = [(c, d) for c in range(config.num_channels) for d in range(per_channel)]
    assert [t.name for t in result.die_trackers] == [
        f"ch{c}.die{d}.sense" for c, d in every_die
    ]
    for position, tracker in zip(every_die, result.die_trackers):
        assert bool(tracker.intervals) == (position in built), position
