"""Opt-in kernel-operation counters for one :class:`Simulator` instance.

A :class:`KernelProbe` shadows the scheduling entry points of a single
simulator with counting wrappers (instance attributes over the class
methods), so attaching costs one extra Python call per scheduled
operation *on that simulator only*. A simulator that was never probed
executes the unmodified kernel — the disabled cost is exactly zero,
which is what lets the probe ship in the production package.

Usage::

    sim = Simulator()
    with KernelProbe(sim) as probe:
        ... build processes ...
        sim.run()
    print(probe.counters.ops, probe.counters.wall_seconds)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..sim.kernel import Simulator

__all__ = ["KernelCounters", "KernelProbe"]


@dataclass
class KernelCounters:
    """What one probed simulator did while the probe was attached."""

    timeouts: int = 0  # timeout() calls; a float wait shows in ops only
    timeouts_recycled: int = 0  # timeout() calls served from the pool
    call_soons: int = 0  # direct-callable zero-delay entries
    processes: int = 0  # process() starts
    processes_recycled: int = 0  # process() calls served from the pool
    wall_seconds: float = 0.0  # time spent delivering (run() and step())
    seq_start: int = 0
    seq_end: int = 0

    @property
    def ops(self) -> int:
        """Total kernel operations while attached.

        The kernel's sequence counter advances once per heap push and
        once per fast-lane delivery, so its delta counts every kernel
        operation regardless of which internal lane served it.
        """
        return self.seq_end - self.seq_start

    @property
    def ops_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.ops / self.wall_seconds

    def as_dict(self) -> dict:
        return {
            "ops": self.ops,
            "ops_per_sec": self.ops_per_sec,
            "timeouts": self.timeouts,
            "timeouts_recycled": self.timeouts_recycled,
            "call_soons": self.call_soons,
            "processes": self.processes,
            "processes_recycled": self.processes_recycled,
            "wall_seconds": self.wall_seconds,
        }


class KernelProbe:
    """Attach counters to one simulator; detach restores the raw kernel."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.counters = KernelCounters()
        self._attached = False

    # -- lifecycle ----------------------------------------------------------

    def attach(self) -> "KernelProbe":
        if self._attached:
            raise RuntimeError("probe already attached")
        sim = self.sim
        counters = self.counters
        counters.seq_start = sim._seq
        cls = type(sim)

        raw_timeout = cls.timeout
        raw_call_soon = cls._call_soon
        raw_call_soon_with = cls._call_soon_with
        raw_process = cls.process
        raw_deliver = cls._deliver

        def timeout(delay, value=None):
            counters.timeouts += 1
            pooled = len(sim._timeout_pool)
            ev = raw_timeout(sim, delay, value)
            if len(sim._timeout_pool) < pooled:
                counters.timeouts_recycled += 1
            return ev

        def call_soon(fn, delay=0.0):
            counters.call_soons += 1
            return raw_call_soon(sim, fn, delay)

        def call_soon_with(fn, event):
            counters.call_soons += 1
            return raw_call_soon_with(sim, fn, event)

        def process(gen, name=""):
            counters.processes += 1
            pooled = len(sim._process_pool)
            proc = raw_process(sim, gen, name)
            if len(sim._process_pool) < pooled:
                counters.processes_recycled += 1
            return proc

        # run() and step() both drive the kernel through _deliver, so
        # timing it covers a simulator driven either way.
        def deliver(max_events, until):
            t0 = time.perf_counter()
            try:
                return raw_deliver(sim, max_events, until)
            finally:
                counters.wall_seconds += time.perf_counter() - t0
                counters.seq_end = sim._seq

        sim.timeout = timeout
        sim._call_soon = call_soon
        sim._call_soon_with = call_soon_with
        sim.process = process
        sim._deliver = deliver
        self._attached = True
        return self

    def detach(self) -> KernelCounters:
        if self._attached:
            sim = self.sim
            self.counters.seq_end = sim._seq
            for name in (
                "timeout",
                "_call_soon",
                "_call_soon_with",
                "process",
                "_deliver",
            ):
                if name in sim.__dict__:
                    delattr(sim, name)
            self._attached = False
        return self.counters

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "KernelProbe":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()
