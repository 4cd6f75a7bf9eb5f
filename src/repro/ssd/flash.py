"""Timing model of the flash backend: dies, planes, channels, page reads.

A die serves :class:`FlashJob` page reads. The model captures three
micro-architectural choices of the paper:

* **plane parallelism** (Figure 10: two planes per die) — with
  ``exploit_planes`` enabled, up to ``planes_per_die`` senses proceed
  concurrently; the sampler and the output path are shared by the planes
  (as in the paper's die diagram), so post-read work serializes;
* **register pipelining** — with ``pipelined_registers`` the cache/data
  register split lets the next sense overlap the previous result's
  channel transfer; by default a die stalls until its result drains
  (the Figure 6/7a behaviour);
* **channel serialization** — all results of a channel's dies share one
  bus; transfers queue FIFO (``BandwidthPipe``), which is the page-
  granularity bottleneck BeaconGNN's die-level sampling removes.

Job timestamps land in ``job.record`` (a :class:`StageRecord`), feeding
the Figure 17 lifetime breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..sim import BandwidthPipe, Event, Resource, Simulator
from ..sim.stats import BusyTracker, StageRecord
from .config import FlashConfig

__all__ = ["DieExecution", "FlashJob", "FlashDieModel", "FlashBackend"]


@dataclass(slots=True)
class DieExecution:
    """What happens on-die after the raw page read."""

    extra_time_s: float  # on-die sampler time (0 for plain reads)
    payload_bytes: int  # bytes to move over the channel
    result: Any = None  # opaque payload for the completion handler


# The executor inspects the job (and the page it maps to) at read-complete
# time and decides on-die work + payload.
Executor = Callable[["FlashJob"], DieExecution]


@dataclass(slots=True)
class FlashJob:
    """One page read (+ optional on-die sampling) on a specific die."""

    page_index: int
    record: StageRecord
    payload: Any = None  # the command driving this read, if any
    done: Optional[Event] = None
    execution: Optional[DieExecution] = None


class FlashDieModel:
    """One flash die: plane-parallel senses, shared sampler/output path."""

    def __init__(
        self,
        sim: Simulator,
        config: FlashConfig,
        channel_pipe: BandwidthPipe,
        executor: Executor,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.config = config
        self.channel_pipe = channel_pipe
        self.executor = executor
        self.name = name
        self._process_name = f"die:{name}"
        senses = config.planes_per_die if config.exploit_planes else 1
        self._sense = Resource(sim, capacity=senses, name=f"{name}.sense")
        # the shared sampler/output engine and the data register exist
        # only under the options that contend on them
        self._engine = (
            Resource(sim, capacity=1, name=f"{name}.engine")
            if config.exploit_planes or config.pipelined_registers
            else None
        )
        self._register = (
            Resource(sim, capacity=1, name=f"{name}.register")
            if config.pipelined_registers
            else None
        )
        self.jobs_served = 0

    @property
    def tracker(self) -> BusyTracker:
        """Die-busy intervals (any plane sensing or the engine working)."""
        return self._sense.tracker

    @property
    def queue_length(self) -> int:
        return self._sense.queue_length

    def submit(self, job: FlashJob) -> Event:
        """Queue a job; returns the event fired at payload arrival."""
        if job.done is None:
            job.done = self.sim.event()
        job.record.issued = job.record.issued or self.sim.now
        self.sim.process(self._serve(job), name=self._process_name)
        return job.done

    def _serve(self, job: FlashJob):
        sim = self.sim
        yield self._sense.acquire()
        job.record.flash_start = sim.now
        yield self.config.read_latency_s
        if self.config.pipelined_registers or self.config.exploit_planes:
            # the plane frees for the next sense; sampler/output shared
            self._sense.release()
            yield self._engine.acquire()
            release_engine = True
        else:
            # single-register die: hold the whole die until drained
            release_engine = False
        execution = self.executor(job)
        job.execution = execution
        if execution.extra_time_s > 0:
            yield execution.extra_time_s
        job.record.flash_end = sim.now
        self.jobs_served += 1
        if self.config.pipelined_registers:
            # data register holds the result until the bus takes it; the
            # engine may already serve the next job
            yield self._register.acquire()
            # the transfer is booked (and its wait sequenced) here, before
            # the engine release; another process waits it out
            transfer = sim.timeout(
                self.channel_pipe.transfer(execution.payload_bytes)
            )
            if release_engine:
                self._engine.release()
            self.sim.process(self._finish_pipelined(job, transfer))
        else:
            yield self.channel_pipe.transfer(execution.payload_bytes)
            job.record.transfer_end = sim.now
            if release_engine:
                self._engine.release()
            else:
                self._sense.release()
            _fire_done(job)

    def _finish_pipelined(self, job: FlashJob, transfer: Event):
        yield transfer
        job.record.transfer_end = self.sim.now
        self._register.release()
        _fire_done(job)


def _fire_done(job: FlashJob) -> None:
    """Fire ``job.done`` with the job as its value, dropping the job's hold.

    An event whose value is the job that holds it is a reference cycle,
    one per flash command, pinning the command and everything it points
    to until a full collection. No waiter reads ``job.done`` after it
    fires.
    """
    done, job.done = job.done, None
    done.succeed(job)


class FlashBackend:
    """All channels and dies, with page-index -> die routing.

    Channels are built up front; a die (its :class:`FlashDieModel` and
    resources) is built the first time a page maps to it. Building a
    resource schedules nothing, so delivery order is the same as with
    every die built eagerly. A one-query cell reads a few dozen of the
    Table II device's 128 dies. :meth:`die_trackers` still reports every
    die, channel-major; a die that was never built reports an empty
    tracker.
    """

    def __init__(
        self, sim: Simulator, config: FlashConfig, executor: Executor
    ) -> None:
        self.sim = sim
        self.config = config
        self.executor = executor
        self.channels: List[BandwidthPipe] = [
            BandwidthPipe(
                sim,
                bytes_per_sec=config.channel_bandwidth_bps,
                per_transfer_overhead=config.channel_overhead_s,
                name=f"channel{c}",
            )
            for c in range(config.num_channels)
        ]
        # channel-major: die d of channel c sits at c * dies_per_channel + d
        self._dies: List[Optional[FlashDieModel]] = [None] * (
            config.num_channels * config.dies_per_channel
        )

    def die_for_page(self, page_index: int) -> FlashDieModel:
        channel, die = self.config.locate(page_index)
        index = channel * self.config.dies_per_channel + die
        model = self._dies[index]
        if model is None:
            model = self._dies[index] = FlashDieModel(
                self.sim,
                self.config,
                self.channels[channel],
                self.executor,
                name=_die_name(channel, die),
            )
        return model

    def submit(self, job: FlashJob) -> Event:
        return self.die_for_page(job.page_index).submit(job)

    # -- instrumentation ------------------------------------------------------

    def die_trackers(self) -> List[BusyTracker]:
        per_channel = self.config.dies_per_channel
        return [
            die.tracker
            if die is not None
            else BusyTracker(
                name=f"{_die_name(*divmod(index, per_channel))}.sense"
            )
            for index, die in enumerate(self._dies)
        ]

    def channel_trackers(self) -> List[BusyTracker]:
        return [pipe.tracker for pipe in self.channels]

    def close_trackers(self) -> None:
        now = self.sim.now
        for die in self._dies:
            if die is not None:
                die.tracker.close(now)

    @property
    def total_reads(self) -> int:
        return sum(die.jobs_served for die in self._dies if die is not None)

    @property
    def channel_bytes(self) -> int:
        return sum(pipe.bytes_moved for pipe in self.channels)


def _die_name(channel: int, die: int) -> str:
    return f"ch{channel}.die{die}"
